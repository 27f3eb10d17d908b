"""Tests for the FunctionMergingPass exploration framework (Figure 7)."""

import random

import pytest

from repro.core import FunctionMergingPass, MergeOptions, make_hotness_filter
from repro.core.pass_ import STAGES
from repro.interp.profile import FunctionProfile
from repro.ir import Module, verify_or_raise
from repro.targets import ARM_THUMB, X86_64
from repro.workloads import clone_function, mutate_constants, mutate_opcodes

from tests.helpers import make_binary_chain_function, make_caller, run_function


def _module_with_families(num_families=2, clones_per_family=2, seed=5):
    """A module with a few families of similar functions plus callers."""
    module = Module("families")
    rng = random.Random(seed)
    functions = []
    for family in range(num_families):
        opcodes = [["add", "mul", "add"], ["sub", "xor", "add", "mul"]][family % 2]
        base = make_binary_chain_function(module, f"base{family}", opcodes,
                                          constant=family + 2)
        functions.append(base)
        for index in range(clones_per_family):
            sibling = clone_function(module, base, f"base{family}_v{index}")
            mutate_constants(sibling, rng, 0.4)
            if index % 2:
                mutate_opcodes(sibling, rng, 0.2)
            functions.append(sibling)
    make_caller(module, "main", functions)
    return module, functions


class TestPassBehaviour:
    def test_merges_found_and_module_stays_valid(self):
        module, functions = _module_with_families()
        report = FunctionMergingPass(exploration_threshold=1).run(module)
        assert report.merge_count >= 2
        verify_or_raise(module)

    def test_semantics_preserved_across_whole_pass(self):
        module, _ = _module_with_families()
        reference, _ = _module_with_families()
        report = FunctionMergingPass(exploration_threshold=2).run(module)
        assert report.merge_count >= 1
        for n in (0, 3, 11):
            assert (run_function(module, "main", [n])
                    == run_function(reference, "main", [n]))

    def test_feedback_loop_merges_merged_functions(self):
        # three identical siblings: after the first merge, the merged function
        # goes back onto the worklist and absorbs the remaining sibling too
        module = Module("feedback")
        base = make_binary_chain_function(module, "base",
                                          ["add", "mul", "add", "xor", "sub"])
        siblings = [clone_function(module, base, f"twin{i}") for i in range(2)]
        make_caller(module, "main", [base] + siblings)
        report = FunctionMergingPass(exploration_threshold=2).run(module)
        assert report.merge_count >= 2
        merged_names = [m.merged_name for m in report.merges]
        assert any(m.function1 in merged_names or m.function2 in merged_names
                   for m in report.merges[1:])
        verify_or_raise(module)

    def test_stage_times_recorded(self):
        module, _ = _module_with_families()
        report = FunctionMergingPass().run(module)
        assert set(report.stage_times) == set(STAGES)
        assert report.stage_times["alignment"] > 0.0
        assert report.total_time > 0.0

    def test_rank_positions_recorded(self):
        module, _ = _module_with_families()
        report = FunctionMergingPass(exploration_threshold=5).run(module)
        assert report.rank_positions
        assert all(1 <= p <= 5 for p in report.rank_positions)

    def test_summary_is_printable(self):
        module, _ = _module_with_families()
        report = FunctionMergingPass().run(module)
        text = report.summary()
        assert "merge" in text
        assert "alignment" in text

    def test_oracle_not_worse_than_greedy(self):
        module_greedy, _ = _module_with_families()
        module_oracle, _ = _module_with_families()
        greedy = FunctionMergingPass(exploration_threshold=1).run(module_greedy)
        oracle = FunctionMergingPass(oracle=True).run(module_oracle)
        total_greedy = sum(m.delta for m in greedy.merges)
        total_oracle = sum(m.delta for m in oracle.merges)
        assert oracle.merge_count >= greedy.merge_count or total_oracle >= total_greedy

    def test_higher_threshold_never_finds_fewer_merges(self):
        module_t1, _ = _module_with_families(num_families=3)
        module_t5, _ = _module_with_families(num_families=3)
        t1 = FunctionMergingPass(exploration_threshold=1).run(module_t1)
        t5 = FunctionMergingPass(exploration_threshold=5).run(module_t5)
        assert t5.merge_count >= t1.merge_count

    def test_arm_target_also_works(self):
        module, _ = _module_with_families()
        report = FunctionMergingPass(target=ARM_THUMB).run(module)
        assert report.merge_count >= 1
        verify_or_raise(module)

    def test_keywords_are_forwarded_to_the_engine(self):
        options = MergeOptions()
        pass_ = FunctionMergingPass(ARM_THUMB, exploration_threshold=3,
                                    options=options, allow_deletion=False,
                                    alignment_kernel="hirschberg")
        assert pass_.target is ARM_THUMB
        assert pass_.exploration_threshold == 3
        assert pass_.options is options
        assert pass_.allow_deletion is False
        assert pass_.engine.alignment.algorithm == "hirschberg"

    @pytest.mark.parametrize("keyword", ["exploration_thresold",
                                         "incremental_fingerprints"])
    def test_unknown_keyword_raises_type_error(self, keyword):
        with pytest.raises(TypeError, match=keyword):
            FunctionMergingPass(**{keyword: 2})

    def test_minimum_function_size_filter(self):
        module, _ = _module_with_families()
        report = FunctionMergingPass(minimum_function_size=10_000).run(module)
        assert report.merge_count == 0
        assert report.functions_considered == 0

    def test_phi_demotion_precondition_applied(self):
        from repro.ir import IRBuilder
        from repro.ir import types as ty
        from repro.ir import values as vals
        module = Module()
        function = module.create_function("withphi", ty.function_type(ty.I32, [ty.I32]),
                                          linkage="external")
        entry = function.append_block("entry")
        left = function.append_block("left")
        right = function.append_block("right")
        join = function.append_block("join")
        builder = IRBuilder(entry)
        cond = builder.icmp("sgt", function.arguments[0], vals.const_int(0))
        builder.cond_br(cond, left, right)
        IRBuilder(left).br(join)
        IRBuilder(right).br(join)
        join_builder = IRBuilder(join)
        phi = join_builder.phi(ty.I32)
        phi.add_incoming(vals.const_int(1), left)
        phi.add_incoming(vals.const_int(2), right)
        join_builder.ret(phi)
        FunctionMergingPass().run(module)
        assert not any(i.is_phi for i in function.instructions())
        verify_or_raise(module)


class TestHotFunctionExclusion:
    def test_hot_functions_skipped(self):
        module, functions = _module_with_families(num_families=1, clones_per_family=1)
        # mark both family members as hot
        for function in functions:
            function.profile = FunctionProfile(function.name, call_count=1000,
                                               dynamic_instructions=100000,
                                               relative_weight=0.4)
        pass_ = FunctionMergingPass(hot_function_filter=make_hotness_filter(0.01))
        report = pass_.run(module)
        assert report.excluded_hot_functions == len(functions)
        assert report.merge_count == 0

    def test_cold_functions_still_merge(self):
        module, functions = _module_with_families(num_families=1, clones_per_family=1)
        for function in functions:
            function.profile = FunctionProfile(function.name, call_count=1,
                                               dynamic_instructions=10,
                                               relative_weight=0.0001)
        report = FunctionMergingPass(
            hot_function_filter=make_hotness_filter(0.01)).run(module)
        assert report.excluded_hot_functions == 0
        assert report.merge_count >= 1

    def test_filter_ignores_functions_without_profiles(self):
        hotness = make_hotness_filter(0.01)
        module, functions = _module_with_families(num_families=1, clones_per_family=1)
        assert not hotness(functions[0])
