"""Merged-function code generation (Section III-E of the paper).

Given two functions and the alignment of their linearized bodies, the code
generator produces a single merged function that is semantically equivalent
to either original, selected by an extra boolean *function identifier*
parameter (``func_id``: true selects the first function, false the second).

The four responsibilities described in the paper:

* merge the parameter lists (with type-based reuse and an optional
  select-minimising pairing),
* merge the return types (largest type as the base, with conversions at
  returns and call sites),
* generate ``select`` instructions to choose operands of merged instructions
  that differ between the two originals (or divergent control flow when the
  operands are labels), and
* construct the CFG of the merged function in two passes over the aligned
  sequence: the first creates blocks and cloned instructions together with
  the guarding "diamonds" around non-matching segments, the second assigns
  operands through the value maps.

The paper decides a merge by building the merged function and costing it
(Section IV-A).  Here the two passes make every decision once, in
:class:`MergeCodeGenerator`, and hand each to a *sink*: the IR sink builds
the function (:func:`merge_functions`), the cost sink only adds up its
target code-size cost and argument count (:func:`price_merge`).  A merge
engine prices every candidate and builds only the one it commits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..ir import types as ty
from ..ir import values as vals
from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from ..ir.instructions import TERMINATOR_OPS, Branch, Cast, Instruction, Select
from ..ir.values import Argument, Constant, GlobalVariable, Value
from .alignment import AlignedEntry, AlignmentResult, ScoringScheme, align
from .equivalence import entries_equivalent, types_equivalent
from .fingerprint import FingerprintDelta
from .linearizer import LinearEntry, linearize


_LABEL = LinearEntry.LABEL


class CodegenError(Exception):
    """Raised when the aligned sequence cannot be turned into valid code
    (malformed input IR or a degenerate alignment)."""


@dataclass
class MergeOptions:
    """Tunable knobs of the merger; defaults follow the paper."""

    #: Reuse parameters of identical type between the two functions
    #: (Figure 6).  Disabling this is the "never merge parameters" ablation.
    reuse_parameters: bool = True
    #: Choose parameter pairs that minimise the number of selects by
    #: analysing matched instruction operands (worth up to 7% in the paper).
    smart_parameter_pairing: bool = True
    #: Reorder operands of commutative instructions to maximise matches.
    reorder_commutative: bool = True
    #: Sequence alignment algorithm ("needleman-wunsch" or "hirschberg").
    alignment_algorithm: str = "needleman-wunsch"
    #: Scoring scheme for the aligner.
    scoring: ScoringScheme = field(default_factory=ScoringScheme)
    #: Linearization traversal order ("rpo", "layout" or "dfs").
    traversal: str = "rpo"
    #: Name to give the merged function (auto-generated when None).
    merged_name: Optional[str] = None


def _invert_arg_map(arg_map: Dict[Argument, Argument]) -> Dict[int, int]:
    sources: Dict[int, int] = {}
    for orig_arg, mapped in arg_map.items():
        sources.setdefault(id(mapped), orig_arg.index)
    return sources


class MergeResult:
    """Outcome of merging two functions.

    Attributes:
        merged: the new merged :class:`Function` (not yet added to a module).
        function1 / function2: the original functions.
        func_id: the merged ``i1`` parameter selecting between the originals,
            or ``None`` when the originals turned out to be identical and the
            parameter was dropped.
        arg_maps: per side, a mapping from original arguments to merged
            arguments.
        alignment: the :class:`AlignmentResult` the merge was generated from.
        fingerprint_delta: correction the code generator recorded for
            :meth:`Fingerprint.of_merged` (extra selects / branches / casts
            and the retyped return operands) - everything the merged body
            contains beyond the aligned clones.
    """

    def __init__(self, merged: Function, function1: Function, function2: Function,
                 func_id: Optional[Argument],
                 arg_map1: Dict[Argument, Argument],
                 arg_map2: Dict[Argument, Argument],
                 alignment: AlignmentResult,
                 fingerprint_delta: Optional[FingerprintDelta] = None):
        self.merged = merged
        self.function1 = function1
        self.function2 = function2
        self.func_id = func_id
        self.arg_maps: Tuple[Dict[Argument, Argument], Dict[Argument, Argument]] = (
            arg_map1, arg_map2)
        self.alignment = alignment
        self.fingerprint_delta = fingerprint_delta or FingerprintDelta()
        # per side: merged parameter (by id) -> index of the first original
        # argument bound to it (the inverse of the argument map)
        self._arg_sources: Tuple[Dict[int, int], ...] = tuple(
            _invert_arg_map(arg_map) for arg_map in self.arg_maps)

    # -- helpers used when rewriting call sites / building thunks ----------------
    def side_of(self, function: Function) -> int:
        if function is self.function1:
            return 0
        if function is self.function2:
            return 1
        raise ValueError(f"{function.name} is not part of this merge")

    def func_id_constant(self, side: int) -> Value:
        """The constant passed as ``func_id`` when calling on behalf of the
        original function on the given side (0 = first, 1 = second)."""
        return vals.const_bool(side == 0)

    def call_arguments(self, side: int, original_args: List[Value]) -> List[Value]:
        """Build the merged call argument list for a call that originally
        targeted side ``side`` with ``original_args``.

        Unbound merged parameters receive ``undef`` values, exactly as the
        paper describes for parameters not used by the called original.
        """
        sources = self._arg_sources[side]
        merged_args: List[Value] = []
        for merged_param in self.merged.arguments:
            if merged_param is self.func_id:
                merged_args.append(self.func_id_constant(side))
                continue
            index = sources.get(id(merged_param))
            if index is None:
                merged_args.append(vals.undef(merged_param.type))
            else:
                merged_args.append(original_args[index])
        return merged_args

    @property
    def uses_func_id(self) -> bool:
        return self.func_id is not None

    def needs_return_conversion(self, side: int) -> bool:
        original = (self.function1, self.function2)[side]
        return (not original.return_type.is_void
                and original.return_type != self.merged.return_type)


# ---------------------------------------------------------------------------
# Parameter-list merging (Figure 6)
# ---------------------------------------------------------------------------

def _co_occurrence_counts(alignment: AlignmentResult) -> Dict[Tuple[int, int], int]:
    """Count, over matched instruction pairs, how often argument ``i`` of the
    first function appears in the same operand slot as argument ``j`` of the
    second.  Used by the select-minimising parameter pairing."""
    counts: Dict[Tuple[int, int], int] = {}
    for entry in alignment.entries:
        left, right = entry.left, entry.right
        if (left is None or right is None
                or left.kind == _LABEL or right.kind == _LABEL):
            continue
        for o1, o2 in zip(left.value.operands, right.value.operands):
            if isinstance(o1, Argument) and isinstance(o2, Argument):
                key = (o1.index, o2.index)
                counts[key] = counts.get(key, 0) + 1
    return counts


def merge_parameter_lists(function1: Function, function2: Function,
                          alignment: AlignmentResult,
                          options: MergeOptions) -> Tuple[List[ty.Type], List[str],
                                                          Dict[int, int], Dict[int, int]]:
    """Compute the merged parameter list.

    Returns ``(param_types, param_names, binding1, binding2)`` where the
    bindings map original argument indices to merged parameter indices.
    Index 0 is always the function identifier at this stage (it may be
    removed later if it ends up unused).
    """
    param_types: List[ty.Type] = [ty.I1]
    param_names: List[str] = ["func_id"]
    binding1: Dict[int, int] = {}
    binding2: Dict[int, int] = {}

    for arg in function1.arguments:
        binding1[arg.index] = len(param_types)
        param_types.append(arg.type)
        param_names.append(arg.name or f"a{arg.index}")

    if not function2.arguments:
        return param_types, param_names, binding1, binding2

    co_occurrence = (_co_occurrence_counts(alignment)
                     if options.smart_parameter_pairing and options.reuse_parameters
                     else {})
    taken: set = set()

    for arg in function2.arguments:
        chosen: Optional[int] = None
        if options.reuse_parameters:
            candidates = [a1 for a1 in function1.arguments
                          if a1.type == arg.type and binding1[a1.index] not in taken]
            if candidates:
                if co_occurrence:
                    candidates.sort(
                        key=lambda a1: (-co_occurrence.get((a1.index, arg.index), 0),
                                        a1.index))
                chosen = binding1[candidates[0].index]
        if chosen is None:
            chosen = len(param_types)
            param_types.append(arg.type)
            param_names.append(arg.name or f"b{arg.index}")
        taken.add(chosen)
        binding2[arg.index] = chosen

    return param_types, param_names, binding1, binding2


def merge_return_types(function1: Function, function2: Function) -> ty.Type:
    """Merged return type: identical types stay, a void side defers to the
    non-void one, otherwise the larger type is the base type."""
    r1, r2 = function1.return_type, function2.return_type
    if r1 == r2:
        return r1
    return ty.larger_type(r1, r2)


# ---------------------------------------------------------------------------
# Value conversion helpers
# ---------------------------------------------------------------------------

def _conversion_opcode(from_type: ty.Type, to_type: ty.Type) -> str:
    if from_type.is_pointer and to_type.is_pointer:
        return "bitcast"
    if from_type.is_integer and to_type.is_integer:
        if from_type.size_bits() < to_type.size_bits():
            return "zext"
        if from_type.size_bits() > to_type.size_bits():
            return "trunc"
        return "bitcast"
    if from_type.is_float and to_type.is_float:
        return "fpext" if from_type.size_bits() < to_type.size_bits() else "fptrunc"
    if from_type.is_integer and to_type.is_pointer:
        return "inttoptr"
    if from_type.is_pointer and to_type.is_integer:
        return "ptrtoint"
    if from_type.is_integer and to_type.is_float:
        return "sitofp" if from_type.size_bits() != to_type.size_bits() else "bitcast"
    if from_type.is_float and to_type.is_integer:
        return "fptosi" if from_type.size_bits() != to_type.size_bits() else "bitcast"
    return "bitcast"


def convert_value(value: Value, to_type: ty.Type, block: BasicBlock,
                  before: Optional[Instruction] = None) -> Value:
    """Convert ``value`` to ``to_type``, inserting a cast when necessary.

    Used for merged return values and for operands whose two sides have
    bitcast-equivalent but unequal types.
    """
    if value.type == to_type:
        return value
    if isinstance(value, vals.UndefValue):
        return vals.undef(to_type)
    cast = Cast(_conversion_opcode(value.type, to_type), value, to_type)
    if before is not None:
        block.insert_before(before, cast)
    else:
        block.append(cast)
    return cast


# ---------------------------------------------------------------------------
# The merger itself: one walk over the alignment, two sinks
# ---------------------------------------------------------------------------

def _unmapped(value: Value) -> Value:
    """An operand the value maps do not hold: module-level values are
    shared by the originals and the merged function, anything else is a
    value pass 1 never emitted."""
    if isinstance(value, (Constant, GlobalVariable, Function)):
        return value
    raise CodegenError(f"value {value!r} was never mapped during pass 1")


def _leading_landingpad(block):
    """The landing pad heading ``block``, or None (works on both sinks)."""
    instructions = block.instructions
    if instructions and instructions[0].opcode == "landingpad":
        return instructions[0]
    return None


class _IRSink:
    """Carries the walker's decisions out on real IR: builds the merged
    :class:`Function` and records, for :meth:`Fingerprint.of_merged`,
    everything it emits beyond the aligned clones."""

    def __init__(self, name: str, return_type: ty.Type,
                 param_types: List[ty.Type], param_names: List[str]):
        self.function = Function(name, ty.function_type(return_type, param_types),
                                 linkage="internal", arg_names=param_names)
        self.arguments: List[Value] = self.function.arguments
        self.fp_delta = FingerprintDelta()

    def _extra(self, inst: Instruction) -> Instruction:
        self.fp_delta.count(inst)
        return inst

    # -- pass 1 ----------------------------------------------------------------
    def block(self, name: str) -> BasicBlock:
        return self.function.append_block(name)

    def clone(self, block: BasicBlock, original: Instruction) -> Instruction:
        clone = original.clone()
        block.append(clone)
        return clone

    def branch(self, block: BasicBlock, *operands: Value) -> None:
        block.append(self._extra(Branch(*operands)))

    def move_to_front(self, block: BasicBlock) -> None:
        blocks = self.function.blocks
        if blocks and blocks[0] is not block:
            blocks.remove(block)
            blocks.insert(0, block)

    def dispatch(self, cond: Value, entry1: BasicBlock, entry2: BasicBlock) -> None:
        dispatch = BasicBlock("entry.dispatch", self.function)
        dispatch.append(self._extra(Branch(cond, entry1, entry2)))
        self.function.blocks.insert(0, dispatch)

    # -- pass 2 ----------------------------------------------------------------
    def set_operand(self, inst: Instruction, index: int, value: Value) -> None:
        inst.set_operand(index, value)

    def select(self, cond: Value, v1: Value, v2: Value,
               before: Instruction) -> Value:
        select = self._extra(Select(cond, v1, v2, name="op.sel"))
        before.parent.insert_before(before, select)
        return select

    def cast(self, value: Value, to_type: ty.Type, before: Instruction) -> Value:
        return self._extra(convert_value(value, to_type, before.parent, before))

    def hoist_landingpads(self, router: BasicBlock, pads) -> None:
        hoisted = pads[0][0].clone()
        router.append(self._extra(hoisted))
        for lp, block in pads:
            self.fp_delta.uncount(lp)
            lp.replace_all_uses_with(hoisted)
            block.remove(lp)
            lp.drop_all_operands()

    def append_operand(self, inst: Instruction, value: Value) -> None:
        inst.append_operand(value)
        self.fp_delta.add_operand(value.type)

    def retype_operand(self, inst: Instruction, index: int, value: Value,
                       old_type: ty.Type) -> None:
        inst.set_operand(index, value)
        self.fp_delta.retype_operand(old_type, value.type)

    def func_id_used(self) -> bool:
        return bool(self.arguments[0].users)

    def drop_func_id(self) -> None:
        merged = self.function
        merged.arguments.pop(0)
        for i, arg in enumerate(merged.arguments):
            arg.index = i
        new_type = ty.function_type(merged.function_type.return_type,
                                    [a.type for a in merged.arguments])
        merged.function_type = new_type
        merged.type = ty.pointer(new_type)


class _Priced:
    """Placeholder for one value of the merged function while pricing: the
    type the walker compares, and for instructions the opcode and operand
    count the cost model reads and the block they sit in."""

    __slots__ = ("type", "opcode", "n_operands", "parent")

    def __init__(self, vtype: ty.Type, opcode: str = "", n_operands: int = 0,
                 parent: Optional["_PricedBlock"] = None):
        self.type = vtype
        self.opcode = opcode
        self.n_operands = n_operands
        self.parent = parent


class _PricedBlock:
    """Placeholder for one block of the merged function while pricing."""

    __slots__ = ("instructions", "is_terminated")

    type = ty.LABEL

    def __init__(self):
        self.instructions: List[_Priced] = []
        self.is_terminated = False


class _CostSink:
    """Carries the walker's decisions out as arithmetic: adds up the target
    cost of every instruction the IR sink would leave in the merged body and
    counts its arguments, touching no IR (no clones, no use-lists)."""

    def __init__(self, target, param_types: List[ty.Type]):
        self._target = target
        self._costs: Dict[Tuple[str, int], int] = {}
        self.arguments: List[_Priced] = [_Priced(t) for t in param_types]
        self.argument_count = len(param_types)
        self.body_cost = 0
        self._blocks = 0
        self._func_id_uses = 0

    @property
    def size(self) -> int:
        """``target.function_cost`` of the merged function."""
        if not self._blocks:
            return 0
        return self.body_cost + self._target.arguments_cost(self.argument_count)

    def _cost(self, opcode: str, n_operands: int) -> int:
        key = (opcode, n_operands)
        cost = self._costs.get(key)
        if cost is None:
            cost = self._costs[key] = self._target.opcode_cost(opcode, n_operands)
        return cost

    def _append(self, block: _PricedBlock, inst: _Priced) -> _Priced:
        block.instructions.append(inst)
        block.is_terminated = inst.opcode in TERMINATOR_OPS
        self.body_cost += self._cost(inst.opcode, inst.n_operands)
        return inst

    def _insert_before(self, before: _Priced, inst: _Priced) -> _Priced:
        instructions = before.parent.instructions
        instructions.insert(instructions.index(before), inst)
        self.body_cost += self._cost(inst.opcode, inst.n_operands)
        return inst

    # -- pass 1 ----------------------------------------------------------------
    def block(self, name: str) -> _PricedBlock:
        self._blocks += 1
        return _PricedBlock()

    def clone(self, block: _PricedBlock, original: Instruction) -> _Priced:
        opcode, n_operands = original.opcode, len(original.operands)
        inst = _Priced(original.type, opcode, n_operands, block)
        block.instructions.append(inst)
        block.is_terminated = opcode in TERMINATOR_OPS
        cost = self._costs.get((opcode, n_operands))
        if cost is None:
            cost = self._cost(opcode, n_operands)
        self.body_cost += cost
        return inst

    def branch(self, block: _PricedBlock, *operands) -> None:
        if operands[0] is self.arguments[0]:
            self._func_id_uses += 1
        self._append(block, _Priced(ty.VOID, "br", len(operands), block))

    def move_to_front(self, block: _PricedBlock) -> None:
        pass

    def dispatch(self, cond, entry1, entry2) -> None:
        self.branch(self.block("entry.dispatch"), cond, entry1, entry2)

    # -- pass 2 ----------------------------------------------------------------
    def set_operand(self, inst, index, value) -> None:
        pass

    def select(self, cond, v1, v2, before: _Priced) -> _Priced:
        if cond is self.arguments[0]:
            self._func_id_uses += 1
        return self._insert_before(before, _Priced(v1.type, "select", 3,
                                                   before.parent))

    def cast(self, value, to_type: ty.Type, before: _Priced) -> _Priced:
        return self._insert_before(before, _Priced(
            to_type, _conversion_opcode(value.type, to_type), 1, before.parent))

    def hoist_landingpads(self, router: _PricedBlock, pads) -> None:
        first = pads[0][0]
        self._append(router, _Priced(first.type, first.opcode,
                                     first.n_operands, router))
        for lp, block in pads:
            self.body_cost -= self._cost(lp.opcode, lp.n_operands)
            block.instructions.remove(lp)
            lp.parent = None

    def append_operand(self, inst: _Priced, value) -> None:
        self.body_cost += (self._cost(inst.opcode, inst.n_operands + 1)
                           - self._cost(inst.opcode, inst.n_operands))
        inst.n_operands += 1

    def retype_operand(self, inst, index, value, old_type) -> None:
        pass

    def func_id_used(self) -> bool:
        return self._func_id_uses > 0

    def drop_func_id(self) -> None:
        self.argument_count -= 1


class MergeLayout:
    """A priced merge candidate: what the merged function of ``alignment``
    would cost, without building it.

    ``size`` equals ``target.function_cost`` of the function
    :meth:`materialise` builds and ``arguments`` its argument count - the
    two figures the profitability model needs - because both come from the
    same walk over the alignment (:class:`MergeCodeGenerator`).
    """

    def __init__(self, function1: Function, function2: Function,
                 alignment: AlignmentResult, options: MergeOptions,
                 size: int, arguments: int):
        self.function1 = function1
        self.function2 = function2
        self.alignment = alignment
        self.options = options
        self.size = size
        self.arguments = arguments

    def materialise(self) -> MergeResult:
        """Build the merged function this layout priced."""
        return MergeCodeGenerator(self.function1, self.function2, self.options,
                                  self.alignment).generate()


class MergeCodeGenerator:
    """Makes every code-generation decision for one pair of originals.

    The two passes below walk the alignment once each and decide blocks,
    guard diamonds, entry dispatch, operand selects, casts, label routers
    with landing-pad hoisting, return fix-ups and whether ``func_id``
    survives.  A *sink* carries each decision out: :meth:`generate` walks
    with the IR sink and returns the merged function, :meth:`price` walks
    with the cost sink and returns only its size and argument count.
    """

    def __init__(self, function1: Function, function2: Function,
                 options: Optional[MergeOptions] = None,
                 alignment: Optional[AlignmentResult] = None):
        self.f1 = function1
        self.f2 = function2
        self.options = options or MergeOptions()
        self._given_alignment = alignment

        self.value_map1: Dict[int, Value] = {}
        self.value_map2: Dict[int, Value] = {}
        self.sink = None
        self.func_id: Optional[Value] = None
        self.return_type: Optional[ty.Type] = None

    # -- public API ----------------------------------------------------------
    def generate(self) -> MergeResult:
        """Build the merged function (IR sink)."""
        alignment = self._given_alignment or self.align()
        name = self.options.merged_name or f"__merged_{self.f1.name}_{self.f2.name}"
        sink = self._walk(alignment, lambda types, names: _IRSink(
            name, self.return_type, types, names))

        merged = sink.function
        arg_map1 = {arg: self.value_map1[id(arg)] for arg in self.f1.arguments}
        arg_map2 = {arg: self.value_map2[id(arg)] for arg in self.f2.arguments}
        result = MergeResult(merged, self.f1, self.f2, self.func_id, arg_map1,
                             arg_map2, alignment, sink.fp_delta)
        merged.merged_from = (self.f1.name, self.f2.name)
        return result

    def price(self, target) -> MergeLayout:
        """Price the merged function for ``target`` (cost sink)."""
        alignment = self._given_alignment or self.align()
        sink = self._walk(alignment,
                          lambda types, names: _CostSink(target, types))
        return MergeLayout(self.f1, self.f2, alignment, self.options,
                           sink.size, sink.argument_count)

    def align(self) -> AlignmentResult:
        """Linearize both functions and align the sequences."""
        entries1 = linearize(self.f1, self.options.traversal)
        entries2 = linearize(self.f2, self.options.traversal)
        return align(entries1, entries2, entries_equivalent,
                     self.options.scoring, self.options.alignment_algorithm)

    def _walk(self, alignment: AlignmentResult, make_sink):
        """Merge the signatures, open a sink for the merged one
        (``make_sink(param_types, param_names)``) and run both passes."""
        param_types, param_names, binding1, binding2 = merge_parameter_lists(
            self.f1, self.f2, alignment, self.options)
        self.return_type = merge_return_types(self.f1, self.f2)
        sink = self.sink = make_sink(param_types, param_names)
        arguments = sink.arguments
        self.func_id = arguments[0]
        # seed the value maps with argument bindings
        for arg in self.f1.arguments:
            self.value_map1[id(arg)] = arguments[binding1[arg.index]]
        for arg in self.f2.arguments:
            self.value_map2[id(arg)] = arguments[binding2[arg.index]]

        self._build_skeleton(alignment)
        self._fix_entry_block()
        self._assign_operands(alignment)
        self._finalize_func_id()
        return sink

    # -- pass 1: blocks, clones and guard diamonds ------------------------------
    def _build_skeleton(self, alignment: AlignmentResult) -> None:
        sink = self.sink
        cur_merged = None
        cur_left = None
        cur_right = None

        def unterminated(block) -> bool:
            return block is not None and not block.is_terminated

        map1, map2 = self.value_map1, self.value_map2
        for entry in alignment.entries:
            left: LinearEntry = entry.left
            right: LinearEntry = entry.right
            if left is not None and right is not None:
                if left.kind == _LABEL:
                    # a new merged block shared by both functions
                    new_block = sink.block(f"m.{left.value.name or 'bb'}")
                    for block in (cur_merged, cur_left, cur_right):
                        if unterminated(block):
                            sink.branch(block, new_block)
                    map1[id(left.value)] = new_block
                    map2[id(right.value)] = new_block
                    cur_merged, cur_left, cur_right = new_block, None, None
                else:
                    if cur_merged is None or cur_merged.is_terminated:
                        # re-convergence point after a divergent region
                        join = sink.block("m.join")
                        for block in (cur_left, cur_right):
                            if unterminated(block):
                                sink.branch(block, join)
                        if cur_left is None and cur_right is None and unterminated(cur_merged):
                            sink.branch(cur_merged, join)
                        cur_merged, cur_left, cur_right = join, None, None
                    clone = sink.clone(cur_merged, left.value)
                    map1[id(left.value)] = clone
                    map2[id(right.value)] = clone
            elif right is None:
                cur_left, cur_right, cur_merged = self._emit_one_sided(
                    left, 0, cur_left, cur_right, cur_merged)
            else:
                cur_right, cur_left, cur_merged = self._emit_one_sided(
                    right, 1, cur_right, cur_left, cur_merged)

    def _emit_one_sided(self, lentry: LinearEntry, side: int, cur, other,
                        cur_merged):
        """Emit a non-matching entry for one side.

        Returns the updated ``(cur, other, cur_merged)`` triple (from the
        perspective of the side being processed).
        """
        sink = self.sink
        value_map = self.value_map1 if side == 0 else self.value_map2
        prefix = "l" if side == 0 else "r"

        if lentry.kind == _LABEL:
            new_block = sink.block(f"{prefix}.{lentry.value.name or 'bb'}")
            value_map[id(lentry.value)] = new_block
            return new_block, other, cur_merged

        # an instruction unique to this side
        if cur is None or cur.is_terminated:
            if cur_merged is not None and not cur_merged.is_terminated:
                # transition from a matched region: guard with a diamond
                left_block = sink.block("guard.l")
                right_block = sink.block("guard.r")
                sink.branch(cur_merged, self.func_id, left_block, right_block)
                if side == 0:
                    cur, other = left_block, right_block
                else:
                    cur, other = right_block, left_block
                cur_merged = None
            else:
                raise CodegenError(
                    f"dangling instruction for {'first' if side == 0 else 'second'} "
                    f"function: {lentry.value.opcode} has no block to live in")
        value_map[id(lentry.value)] = sink.clone(cur, lentry.value)
        return cur, other, cur_merged

    def _fix_entry_block(self) -> None:
        """Ensure the merged function's first block transfers control to the
        right code for both originals."""
        entry1 = self.value_map1[id(self.f1.entry_block)]
        entry2 = self.value_map2[id(self.f2.entry_block)]
        if entry1 is entry2:
            self.sink.move_to_front(entry1)
        else:
            self.sink.dispatch(self.func_id, entry1, entry2)

    # -- pass 2: operands ---------------------------------------------------------
    def _assign_operands(self, alignment: AlignmentResult) -> None:
        for entry in alignment.entries:
            left, right = entry.left, entry.right
            if left is None:
                if right.kind != _LABEL:
                    self._assign_single_operands(right.value, self.value_map2)
            elif left.kind == _LABEL:
                continue
            elif right is None:
                self._assign_single_operands(left.value, self.value_map1)
            else:
                self._assign_matched_operands(left.value, right.value)

    @staticmethod
    def _resolve(value: Value, value_map: Dict[int, Value]) -> Value:
        """Map an original value to its merged counterpart."""
        mapped = value_map.get(id(value))
        return mapped if mapped is not None else _unmapped(value)

    def _assign_single_operands(self, original: Instruction,
                                value_map: Dict[int, Value]) -> None:
        sink = self.sink
        mapped = value_map.get
        clone = value_map[id(original)]
        first = None
        for index, operand in enumerate(original.operands):
            resolved = mapped(id(operand))
            if resolved is None:
                resolved = _unmapped(operand)
            # labels resolve to labels, so only values are ever converted
            rtype, otype = resolved.type, operand.type
            if (rtype is not otype and rtype != otype
                    and types_equivalent(rtype, otype)):
                resolved = self._convert(resolved, otype, clone)
            sink.set_operand(clone, index, resolved)
            if index == 0:
                first = resolved
        if original.opcode == "ret":
            self._fixup_return(clone, first, matched=False)

    def _assign_matched_operands(self, inst1: Instruction, inst2: Instruction) -> None:
        sink = self.sink
        mapped1, mapped2 = self.value_map1.get, self.value_map2.get
        clone = self.value_map1[id(inst1)]
        operands2 = inst2.operands

        if (self.options.reorder_commutative and inst1.is_commutative
                and len(inst1.operands) >= 2 and len(operands2) >= 2):
            operands2 = self._reorder_commutative(inst1, operands2)

        first = None
        for index, operand1 in enumerate(inst1.operands):
            operand2 = operands2[index]
            v1 = mapped1(id(operand1))
            if v1 is None:
                v1 = _unmapped(operand1)
            v2 = mapped2(id(operand2))
            if v2 is None:
                v2 = _unmapped(operand2)
            if v1 is v2:
                merged_operand = v1
            elif v1.type.is_label or v2.type.is_label:
                merged_operand = self._merge_label_operand(v1, v2)
            else:
                merged_operand = self._merge_value_operand(v1, v2, clone)
            sink.set_operand(clone, index, merged_operand)
            if index == 0:
                first = merged_operand

        if inst1.opcode == "ret":
            self._fixup_return(clone, first, matched=True)

    def _reorder_commutative(self, inst1: Instruction, operands2: List[Value]) -> List[Value]:
        """Swap the first two operands of the second instruction when doing so
        turns two select-requiring operands into direct matches."""
        try:
            map1, map2 = self.value_map1, self.value_map2
            v1a = self._resolve(inst1.operands[0], map1)
            v1b = self._resolve(inst1.operands[1], map1)
            v2a = self._resolve(operands2[0], map2)
            v2b = self._resolve(operands2[1], map2)
        except CodegenError:
            return operands2
        direct = (v1a is v2a) + (v1b is v2b)
        swapped = (v1a is v2b) + (v1b is v2a)
        if swapped > direct:
            operands2 = list(operands2)
            operands2[0], operands2[1] = operands2[1], operands2[0]
        return operands2

    def _merge_label_operand(self, block1, block2):
        """Operand selection for labels: identical targets pass through,
        different targets are routed through a new block that branches on the
        function identifier (with landing-pad hoisting when needed)."""
        if block1 is block2:
            return block1
        assert block1.type.is_label and block2.type.is_label
        sink = self.sink
        router = sink.block("route")
        lp1 = _leading_landingpad(block1)
        lp2 = _leading_landingpad(block2)
        if lp1 is not None and lp2 is not None:
            # hoist the landing pad into the router block (Section III-E)
            sink.hoist_landingpads(router, ((lp1, block1), (lp2, block2)))
        sink.branch(router, self.func_id, block1, block2)
        return router

    def _merge_value_operand(self, v1: Value, v2: Value, clone) -> Value:
        """Operand selection for regular values: identical values (or equal
        constants) pass through, anything else becomes a select on the
        function identifier."""
        if v1 is v2:
            return v1
        if isinstance(v1, Constant) and isinstance(v2, Constant) and v1 == v2:
            return v1
        if v2.type != v1.type and types_equivalent(v2.type, v1.type):
            v2 = self._convert(v2, v1.type, clone)
        return self.sink.select(self.func_id, v1, v2, clone)

    def _convert(self, value: Value, to_type: ty.Type, before) -> Value:
        """Convert ``value`` to ``to_type`` right before ``before``, with a
        cast only when one is needed (the rule :func:`convert_value`
        applies)."""
        if value.type == to_type:
            return value
        if isinstance(value, vals.UndefValue):
            return vals.undef(to_type)
        return self.sink.cast(value, to_type, before)

    # -- return handling ---------------------------------------------------------
    def _fixup_return(self, clone, value: Optional[Value], matched: bool) -> None:
        """Make a cloned ``ret`` return the merged return type: append an
        ``undef`` to a one-sided void return, convert a narrower value.
        ``value`` is the operand just assigned to slot 0 (None if none)."""
        assert self.return_type is not None
        if self.return_type.is_void:
            return
        if value is None:
            if not matched:
                # the original returned void but the merged function does not
                self.sink.append_operand(clone, vals.undef(self.return_type))
            return
        if value.type != self.return_type:
            converted = self._convert(value, self.return_type, clone)
            self.sink.retype_operand(clone, 0, converted, value.type)

    # -- func_id cleanup ------------------------------------------------------------
    def _finalize_func_id(self) -> None:
        """Remove the function-identifier parameter when it ended up unused
        (identical functions), mirroring the paper's special case."""
        if not self.sink.func_id_used():
            self.sink.drop_func_id()
            self.func_id = None


def merge_functions(function1: Function, function2: Function,
                    options: Optional[MergeOptions] = None,
                    alignment: Optional[AlignmentResult] = None) -> MergeResult:
    """Merge two functions by sequence alignment and return the result.

    This is the main algorithmic entry point; it does not modify the module.
    Use :func:`repro.core.thunks.apply_merge` (or the
    :class:`~repro.core.pass_.FunctionMergingPass` driver) to commit a merge
    into a module, replace call sites and create thunks.
    """
    return MergeCodeGenerator(function1, function2, options, alignment).generate()


def price_merge(function1: Function, function2: Function, target,
                options: Optional[MergeOptions] = None,
                alignment: Optional[AlignmentResult] = None) -> MergeLayout:
    """Price the merge of two functions for ``target`` without building it.

    Runs the same decisions as :func:`merge_functions`; the returned
    :class:`MergeLayout` carries the merged function's code-size cost and
    argument count, and :meth:`MergeLayout.materialise` builds it.
    """
    return MergeCodeGenerator(function1, function2, options, alignment).price(target)
