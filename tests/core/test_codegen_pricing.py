"""Pricing a merge must cost exactly what building it costs.

:func:`price_merge` walks the code generator's decisions with the cost sink
and never builds the merged function; :func:`merge_functions` walks the same
decisions with the IR sink.  For every candidate pair the priced size and
argument count must equal ``target.function_cost`` and the argument count
of the built function, on both targets and for every alignment the engine
and the baselines feed the generator.
"""

import pytest

from repro.analysis import Sanitizer
from repro.baselines import cfg_shape, structural_alignment, structurally_similar
from repro.core import (AlignedEntry, AlignmentResult, CodegenError,
                        EquivalenceKeyInterner, MergeOptions, align, linearize,
                        linearize_with_keys, merge_functions,
                        needleman_wunsch_keyed, price_merge)
from repro.core.engine import make_searcher
from repro.core.equivalence import entries_equivalent
from repro.core.fingerprint import Fingerprint
from repro.ir import IRBuilder, Module
from repro.ir import types as ty
from repro.ir import values as vals
from repro.passes.reg2mem import demote_phis
from repro.targets import get_target
from repro.workloads import (build_mibench_benchmark, build_spec_benchmark,
                             mibench_benchmark_names, spec_benchmark_names)
from repro.workloads.case_studies import SOURCES, case_study_module

from tests.helpers import make_structural_module

TARGETS = (get_target("x86-64"), get_target("arm-thumb"))
SOA_OPTIONS = MergeOptions(smart_parameter_pairing=False)
#: Functions per generated module (every generator is covered).
CAP = 10
#: Pairs up to this many DP cells are also aligned with the (pure-Python,
#: predicate-based) Hirschberg aligner.
HIRSCHBERG_CELLS = 2500

WORKLOADS = ([f"mibench:{n}" for n in mibench_benchmark_names()]
             + [f"spec:{n}" for n in spec_benchmark_names()]
             + [f"case:{n}" for n in sorted(SOURCES)]
             + [f"structural:{seed}" for seed in range(4)])


def _build(workload: str) -> Module:
    family, _, name = workload.partition(":")
    if family == "mibench":
        module = build_mibench_benchmark(name, scale=0.05, cap=CAP).module
    elif family == "spec":
        module = build_spec_benchmark(name, cap=CAP).module
    elif family == "case":
        module = case_study_module(name)
    else:
        module = make_structural_module(int(name))
    for function in module.defined_functions():
        demote_phis(function)
    return module


def _candidate_pairs(module: Module, limit: int = 2):
    """Each function with its ``limit`` best-ranked candidates - the pairs
    the engine would price."""
    functions = {f.name: f for f in module.defined_functions()}
    searcher = make_searcher("indexed", exploration_threshold=limit)
    for function in functions.values():
        searcher.add_fingerprint(Fingerprint.of(function))
    for name, function in functions.items():
        for candidate in searcher.rank_candidates(name, limit):
            yield function, functions[candidate.function_name]


def assert_priced_as_built(f1, f2, options=None, alignment=None) -> bool:
    """Build the merge once and price it for every target; both must agree
    (or both raise :class:`CodegenError`).  True when a merge was built."""
    try:
        result = merge_functions(f1, f2, options, alignment)
    except CodegenError:
        for target in TARGETS:
            with pytest.raises(CodegenError):
                price_merge(f1, f2, target, options, alignment)
        return False
    try:
        merged = result.merged
        for target in TARGETS:
            layout = price_merge(f1, f2, target, options, alignment)
            assert (layout.size, layout.arguments) == (
                target.function_cost(merged), len(merged.arguments)), (
                f"{f1.name}+{f2.name} on {target.name}")
    finally:
        result.merged.drop_body()
    return True


@pytest.mark.parametrize("workload", WORKLOADS)
def test_pricing_matches_built_function(workload):
    module = _build(workload)
    interner = EquivalenceKeyInterner()
    built = 0
    for f1, f2 in _candidate_pairs(module):
        lin1 = linearize_with_keys(f1, interner=interner)
        lin2 = linearize_with_keys(f2, interner=interner)
        alignments = [needleman_wunsch_keyed(lin1.entries, lin2.entries,
                                             lin1.keys, lin2.keys)]
        if len(lin1.entries) * len(lin2.entries) <= HIRSCHBERG_CELLS:
            alignments.append(align(lin1.entries, lin2.entries,
                                    entries_equivalent, algorithm="hirschberg"))
        for alignment in alignments:
            built += assert_priced_as_built(f1, f2, alignment=alignment)

    # the SOA baseline's positional alignment, over its own pairs
    buckets = {}
    for function in module.defined_functions():
        buckets.setdefault(cfg_shape(function), []).append(function)
    for members in buckets.values():
        for i, f1 in enumerate(members):
            for f2 in members[i + 1:]:
                if structurally_similar(f1, f2):
                    built += assert_priced_as_built(
                        f1, f2, SOA_OPTIONS, structural_alignment(f1, f2))
    assert built


# ---------------------------------------------------------------------------
# Hand-built edge cases
# ---------------------------------------------------------------------------

def _invoke_function(module, name, swap):
    """Two invokes of ``ext`` unwinding to a short and a long landing block
    (in the opposite order when ``swap``)."""
    ext = module.get_function("ext") or module.create_function(
        "ext", ty.function_type(ty.I32, [ty.I32]), linkage="external")
    function = module.create_function(
        name, ty.function_type(ty.I32, [ty.I32]), arg_names=["a"])
    entry, cont, done, short, long = (
        function.append_block(n) for n in ("entry", "cont", "done", "short", "long"))
    unwinds = (long, short) if swap else (short, long)
    first = IRBuilder(entry).invoke(ext, [function.arguments[0]], cont, unwinds[0])
    second = IRBuilder(cont).invoke(ext, [first], done, unwinds[1])
    IRBuilder(done).ret(second)
    landing = IRBuilder(short)
    landing.landingpad()
    landing.ret(vals.const_int(0))
    landing = IRBuilder(long)
    landing.landingpad()
    value = function.arguments[0]
    for opcode in ("mul", "add", "xor", "sub", "mul", "add"):
        value = landing.binary(opcode, value, vals.const_int(5))
    landing.ret(value)
    return function


def test_landing_pad_hoisted_through_two_unwind_targets():
    module = Module()
    # the long landing blocks align with each other, so each matched invoke
    # unwinds to two different merged blocks and is routed; the first
    # router hoists both leading landing pads, the second finds one gone
    f1 = _invoke_function(module, "f1", swap=False)
    f2 = _invoke_function(module, "f2", swap=True)
    result = merge_functions(f1, f2)
    routers = [b for b in result.merged.blocks if b.name == "route"]
    assert len(routers) == 2
    assert routers[0].instructions[0].opcode == "landingpad"
    assert routers[1].instructions[0].opcode == "br"
    assert assert_priced_as_built(f1, f2)


def _returning(module, name, return_type, value_of):
    function = module.create_function(
        name, ty.function_type(return_type, [ty.I32]), arg_names=["a"])
    builder = IRBuilder(function.append_block("entry"))
    value = builder.add(function.arguments[0], vals.const_int(7))
    builder.ret(value_of(builder, value))
    return function


def test_widening_return_cast():
    module = Module()
    f1 = _returning(module, "narrow", ty.I32, lambda b, v: v)
    f2 = _returning(module, "wide", ty.I64,
                    lambda b, v: b.cast("sext", v, ty.I64))
    result = merge_functions(f1, f2)
    assert result.merged.return_type == ty.I64
    assert any(i.opcode == "zext" for i in result.merged.instructions())
    assert assert_priced_as_built(f1, f2)


def test_void_return_gets_undef():
    module = Module()
    f1 = _returning(module, "quiet", ty.VOID, lambda b, v: None)
    f2 = _returning(module, "loud", ty.I32, lambda b, v: v)
    result = merge_functions(f1, f2)
    rets = [i for i in result.merged.instructions() if i.opcode == "ret"]
    assert any(isinstance(r.operands[0], vals.UndefValue) for r in rets)
    assert assert_priced_as_built(f1, f2)


def test_commutative_swap():
    module = Module()

    def make(name, swap):
        function = module.create_function(
            name, ty.function_type(ty.I32, [ty.I32]), arg_names=["a"])
        builder = IRBuilder(function.append_block("entry"))
        a = function.arguments[0]
        scaled = builder.mul(a, vals.const_int(3))
        builder.ret(builder.add(a, scaled) if swap else builder.add(scaled, a))
        return function

    f1, f2 = make("plain", False), make("swapped", True)
    result = merge_functions(f1, f2)
    assert not any(i.opcode == "select" for i in result.merged.instructions())
    assert assert_priced_as_built(f1, f2)


def test_identical_functions_drop_func_id():
    module = Module()
    f1 = _returning(module, "one", ty.I32, lambda b, v: v)
    f2 = _returning(module, "two", ty.I32, lambda b, v: v)
    result = merge_functions(f1, f2)
    assert result.func_id is None
    layout = price_merge(f1, f2, TARGETS[0])
    assert layout.arguments == len(f1.arguments)
    assert assert_priced_as_built(f1, f2)


def test_dangling_instruction_raises_on_both_paths():
    module = Module()
    f1 = _returning(module, "one", ty.I32, lambda b, v: v)
    f2 = _returning(module, "two", ty.I32, lambda b, v: v)
    entries1, entries2 = linearize(f1), linearize(f2)
    # an instruction of the first function before any block exists
    columns = [AlignedEntry(entries1[1], None)]
    columns += [AlignedEntry(entries1[0], entries2[0])]
    columns += [AlignedEntry(e1, e2) for e1, e2 in zip(entries1[2:], entries2[2:])]
    columns.append(AlignedEntry(None, entries2[1]))
    alignment = AlignmentResult(columns, 0)
    with pytest.raises(CodegenError, match="dangling"):
        merge_functions(f1, f2, alignment=alignment)
    assert not assert_priced_as_built(f1, f2, alignment=alignment)


def test_sanitizer_flags_a_mispriced_layout():
    module = Module()
    f1 = _returning(module, "one", ty.I32, lambda b, v: v)
    f2 = _returning(module, "two", ty.I64,
                    lambda b, v: b.cast("sext", v, ty.I64))
    layout = price_merge(f1, f2, TARGETS[0])
    result = layout.materialise()
    sanitizer = Sanitizer(mode="record")
    assert sanitizer.after_materialise(layout, result, TARGETS[0]) == []
    layout.size += 1
    sanitizer.after_materialise(layout, result, TARGETS[0])
    assert [d.rule for d in sanitizer.recorded] == ["sanitizer.price-divergence"]
