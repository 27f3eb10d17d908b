"""FMSA core: the paper's contribution.

Public API:

* :func:`merge_functions` — merge one pair of functions (pure, no module
  mutation); :func:`price_merge` — the same decisions, costed without
  building the merged function.
* :class:`FunctionMergingPass` — the full ranked exploration framework.
* :func:`align`, :func:`needleman_wunsch`, :func:`hirschberg` — sequence
  alignment.
* :func:`linearize` — CFG linearization.
* :class:`Fingerprint`, :func:`similarity`, :class:`CandidateRanker` — the
  ranking infrastructure.
* :func:`estimate_profit` / :func:`estimate_layout_profit` — the
  profitability cost model, of a built or a priced merge.
* :func:`apply_merge` — commit a merge into a module (thunks / call updates).
"""

from .align_np import (needleman_wunsch_banded_numpy,
                       needleman_wunsch_banded_numpy_keyed,
                       needleman_wunsch_numpy, needleman_wunsch_numpy_keyed,
                       needleman_wunsch_wavefront_numpy,
                       needleman_wunsch_wavefront_numpy_keyed,
                       numpy_available, solve_keyed_alignment_numpy)
from .alignment import (AlignedEntry, AlignmentResult, ScoringScheme, align,
                        hirschberg, needleman_wunsch, needleman_wunsch_banded,
                        needleman_wunsch_banded_keyed, needleman_wunsch_keyed,
                        ops_string, solve_keyed_alignment)
from .codegen import (CodegenError, MergeCodeGenerator, MergeLayout,
                      MergeOptions, MergeResult, merge_functions,
                      merge_parameter_lists, merge_return_types, price_merge)
from .engine import (AlignmentCache, IndexedCandidateSearcher, MergeEngine,
                     MergeSession, ModuleEdit, SessionUpdateReport, Stage,
                     StageStats, apply_edit, make_searcher)
from .equivalence import (EquivalenceKeyInterner, decode_canonical_keys,
                          encode_equivalence_key, entries_equivalent,
                          entry_equivalence_key, instructions_equivalent,
                          labels_equivalent, type_equivalence_key,
                          types_equivalent)
from .fingerprint import (Fingerprint, FingerprintDelta, fingerprint_module,
                          similarity)
from .linearizer import (LinearEntry, LinearizedFunction, linearize,
                         linearize_with_keys, sequence_signature)
from .native import (native_available, needleman_wunsch_banded_native,
                     needleman_wunsch_banded_native_keyed,
                     needleman_wunsch_native, needleman_wunsch_native_keyed,
                     solve_keyed_alignment_native)
from .pass_ import (FunctionMergingPass, MergeRecord, MergeReport, STAGES,
                    make_hotness_filter)
from .profitability import (MergeEvaluation, estimate_layout_profit,
                            estimate_profit)
from .ranking import CandidateRanker, RankedCandidate
from .thunks import AppliedMerge, apply_merge, build_thunk

__all__ = [
    "AlignedEntry", "AlignmentResult", "ScoringScheme", "align", "hirschberg",
    "needleman_wunsch", "needleman_wunsch_banded",
    "needleman_wunsch_banded_keyed", "needleman_wunsch_keyed",
    "needleman_wunsch_numpy", "needleman_wunsch_numpy_keyed",
    "needleman_wunsch_banded_numpy", "needleman_wunsch_banded_numpy_keyed",
    "needleman_wunsch_wavefront_numpy",
    "needleman_wunsch_wavefront_numpy_keyed",
    "numpy_available", "solve_keyed_alignment_numpy",
    "native_available", "needleman_wunsch_native",
    "needleman_wunsch_native_keyed", "needleman_wunsch_banded_native",
    "needleman_wunsch_banded_native_keyed", "solve_keyed_alignment_native",
    "AlignmentCache",
    "ops_string", "solve_keyed_alignment", "decode_canonical_keys",
    "CodegenError", "MergeCodeGenerator", "MergeLayout", "MergeOptions",
    "MergeResult", "merge_functions", "merge_parameter_lists",
    "merge_return_types", "price_merge",
    "IndexedCandidateSearcher", "MergeEngine", "MergeSession", "ModuleEdit",
    "SessionUpdateReport", "Stage", "StageStats", "apply_edit",
    "make_searcher",
    "EquivalenceKeyInterner", "encode_equivalence_key", "entries_equivalent",
    "entry_equivalence_key",
    "instructions_equivalent", "labels_equivalent", "type_equivalence_key",
    "types_equivalent",
    "Fingerprint", "FingerprintDelta", "fingerprint_module", "similarity",
    "LinearEntry", "LinearizedFunction", "linearize", "linearize_with_keys",
    "sequence_signature",
    "FunctionMergingPass", "MergeRecord", "MergeReport", "STAGES",
    "make_hotness_filter",
    "MergeEvaluation", "estimate_layout_profit", "estimate_profit",
    "CandidateRanker", "RankedCandidate",
    "AppliedMerge", "apply_merge", "build_thunk",
]
