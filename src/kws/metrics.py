"""Detection metrics and speed counters.

Recall is computed at an operating threshold chosen from the observed scores:
the smallest finite observed score whose false-alarm rate (negative events at
or above it, per hour of negative audio) does not exceed the target. If no
finite score qualifies, the threshold is +inf and recall is 0.

Speed counters split decode cost the way the evaluation reports it: the
search wall time covers only the DP column updates (bracketed by monotonic
clock reads inside the decoder), while total wall time includes oracle
fetches and any file IO charged by the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError


@dataclass
class SpeedCounters:
    columns_evaluated: int = 0
    oracle_queries: int = 0
    search_wall_seconds: float = 0.0
    total_wall_seconds: float = 0.0

    def to_json_dict(self) -> dict:
        # Wall-clock values live under "wall" so deterministic report
        # comparisons can drop them wholesale.
        return {
            "columns_evaluated": self.columns_evaluated,
            "oracle_queries": self.oracle_queries,
            "wall": {
                "search_seconds": self.search_wall_seconds,
                "total_seconds": self.total_wall_seconds,
            },
        }


@dataclass(frozen=True)
class RecallAtFar:
    recall: float
    threshold: float
    false_alarms: int
    fa_per_hour: float


def _check_target_far(target_far: float) -> None:
    # Written so that NaN, which fails every comparison, fails the check too.
    if not target_far >= 0:
        raise ValidationError(
            f"target_far must be >= 0 (inf for no budget), got {target_far}"
        )


def recall_at_far(
    pos_scores: Sequence[float],
    neg_event_scores: Sequence[float],
    neg_hours: float,
    target_far: float,
) -> RecallAtFar:
    """Recall at the tightest threshold meeting the false-alarm budget.

    Args:
        pos_scores: per-positive-utterance max event score (-inf = no event).
        neg_event_scores: scores of all detection events on negative audio.
        neg_hours: hours of negative audio behind those events.
        target_far: allowed false alarms per hour; +inf means no budget,
            NaN is a ValidationError.
    """
    pos = np.asarray(pos_scores, dtype=np.float64)
    if pos.size == 0:
        raise ValidationError("pos_scores must be non-empty")
    if not (math.isfinite(neg_hours) and neg_hours > 0):
        raise ValidationError(f"neg_hours must be finite and > 0, got {neg_hours}")
    _check_target_far(target_far)
    neg = np.sort(np.asarray(neg_event_scores, dtype=np.float64))

    observed = np.concatenate([pos, neg])
    candidates = np.unique(observed[np.isfinite(observed)])
    for threshold in candidates:
        false_alarms = int(neg.size - np.searchsorted(neg, threshold, side="left"))
        if false_alarms / neg_hours <= target_far:
            return RecallAtFar(
                recall=float(np.mean(pos >= threshold)),
                threshold=float(threshold),
                false_alarms=false_alarms,
                fa_per_hour=false_alarms / neg_hours,
            )
    # No finite threshold meets the budget; +inf admits nothing.
    return RecallAtFar(recall=0.0, threshold=math.inf, false_alarms=0, fa_per_hour=0.0)


def macro_recall(per_keyword_recalls: Sequence[float]) -> float:
    """Unweighted mean of per-keyword recalls."""
    if len(per_keyword_recalls) == 0:
        raise ValidationError("need at least one per-keyword recall")
    return float(np.mean(np.asarray(per_keyword_recalls, dtype=np.float64)))


@dataclass(frozen=True)
class SpeedupReport:
    relative_search: float
    relative_running: float
    column_ratio: float

    def to_json_dict(self) -> dict:
        return {
            "column_ratio": self.column_ratio,
            "wall": {
                "relative_search": self.relative_search,
                "relative_running": self.relative_running,
            },
        }


def speedup(baseline: SpeedCounters, candidate: SpeedCounters) -> SpeedupReport:
    """Baseline-over-candidate ratios; column_ratio is the deterministic proxy."""
    if candidate.search_wall_seconds <= 0 or candidate.total_wall_seconds <= 0:
        raise ValidationError("candidate wall times must be > 0")
    if candidate.columns_evaluated <= 0:
        raise ValidationError("candidate must have evaluated at least one column")
    return SpeedupReport(
        relative_search=baseline.search_wall_seconds / candidate.search_wall_seconds,
        relative_running=baseline.total_wall_seconds / candidate.total_wall_seconds,
        column_ratio=baseline.columns_evaluated / candidate.columns_evaluated,
    )
