"""The keyed alignment kernel tiers: one ordered table, fastest first.

Every keyed kernel runs the same Needleman-Wunsch DP and returns
bit-identical alignments; the tiers differ only in the backend that runs
the fill (the ``_nw_native`` C extension, NumPy, pure Python) and in
whether that backend is present in this process.  :data:`TIERS` is the one
place that order is written down.  It drives

* ``"auto"`` resolution, the explicit-request ImportError and the
  env-request downgrade
  (:func:`repro.core.engine.stages.resolve_alignment_kernel`);
* the sticky mid-run degradation ladder
  (:meth:`repro.core.engine.stages.AlignmentStage._solve_keyed`);
* the task solver of alignment-offload workers
  (:func:`repro.core.engine.offload._init_worker`).

Availability is probed at call time, never cached here, so the backends'
own switches (``REPRO_NATIVE=0``, a failed NumPy import) take effect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .align_np import (needleman_wunsch_numpy_keyed, numpy_available,
                       require_numpy, solve_keyed_alignment_numpy)
from .alignment import needleman_wunsch_keyed, solve_keyed_alignment
from .native import (native_available, needleman_wunsch_native_keyed,
                     require_native, solve_keyed_alignment_native)


@dataclass(frozen=True)
class KernelTier:
    """One rung of the ladder.

    ``kernel`` is the ``ALGORITHMS`` name, ``worker`` the offload worker
    mode that pins this tier, ``backend`` names what must be present.
    ``keyed(seq1, seq2, keys1, keys2, scoring)`` returns an
    :class:`~repro.core.alignment.AlignmentResult`;
    ``solve(keys1, keys2, scoring)`` returns the ``(ops, score)`` shape.
    ``require(kernel)`` raises an ImportError naming what to install when
    the backend is missing.
    """

    kernel: str
    worker: str
    backend: str
    keyed: Callable
    solve: Callable
    available: Callable[[], bool]
    require: Callable[[str], object]


TIERS = (
    KernelTier("nw-native", "native", "the _nw_native C extension",
               needleman_wunsch_native_keyed, solve_keyed_alignment_native,
               native_available, require_native),
    KernelTier("nw-numpy", "numpy", "NumPy",
               needleman_wunsch_numpy_keyed, solve_keyed_alignment_numpy,
               numpy_available, require_numpy),
    KernelTier("needleman-wunsch", "pure", "pure Python",
               needleman_wunsch_keyed, solve_keyed_alignment,
               lambda: True, lambda kernel: None),
)

#: The bottom tier: always available, nothing below it.
PURE_TIER = TIERS[-1]


def tier_of(kernel: str) -> Optional[KernelTier]:
    """The tier whose kernel is named ``kernel`` (None for the other
    ``ALGORITHMS`` names: the ``nw`` alias and the predicate aligners)."""
    for tier in TIERS:
        if tier.kernel == kernel:
            return tier
    return None


def best_tier() -> KernelTier:
    """The fastest tier this process can run."""
    return next(tier for tier in TIERS if tier.available())


def next_tier(kernel: str) -> Optional[KernelTier]:
    """The fastest available tier below ``kernel``'s, or None when
    ``kernel`` is not a tier or is the bottom one."""
    tier = tier_of(kernel)
    if tier is None:
        return None
    below = TIERS[TIERS.index(tier) + 1:]
    return next((lower for lower in below if lower.available()), None)
