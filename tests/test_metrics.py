"""Detection metrics: recall at a FAR budget, macro-recall, speed ratios."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kws import (
    RecallAtFar,
    SpeedCounters,
    SpeedupReport,
    ValidationError,
    macro_recall,
    recall_at_far,
    speedup,
)

NEG_INF = float("-inf")


# recall_at_far: frozen examples


def test_perfect_separation_full_recall():
    r = recall_at_far([0.0, 0.0, 0.0], [NEG_INF, NEG_INF], neg_hours=1.0, target_far=0.0)
    assert r.recall == 1.0
    assert r.threshold == 0.0
    assert r.false_alarms == 0
    assert r.fa_per_hour == 0.0


def test_threshold_clears_single_negative():
    # Tightest passing threshold is the smallest observed score above -2.5,
    # which is the positive at -2; the -3 positive falls below it.
    r = recall_at_far([-1.0, -2.0, -3.0], [-2.5], neg_hours=1.0, target_far=0.0)
    assert r.threshold == -2.0
    assert r.recall == pytest.approx(2.0 / 3.0)
    assert r.false_alarms == 0


def test_negative_outranks_positive_gives_zero_recall():
    r = recall_at_far([-1.0], [-0.5], neg_hours=1.0, target_far=0.0)
    assert r.threshold == math.inf
    assert r.recall == 0.0
    assert r.false_alarms == 0
    assert r.fa_per_hour == 0.0


def test_loosened_budget_admits_the_negative():
    r = recall_at_far([-1.0, -2.0, -3.0], [-2.5], neg_hours=1.0, target_far=1.0)
    assert r.threshold == -3.0
    assert r.recall == 1.0
    assert r.false_alarms == 1
    assert r.fa_per_hour == 1.0


def test_missed_positive_scores_allowed_as_neg_inf():
    r = recall_at_far([0.0, NEG_INF], [], neg_hours=2.0, target_far=0.0)
    assert r.threshold == 0.0
    assert r.recall == 0.5


def test_recall_at_far_validation():
    with pytest.raises(ValidationError):
        recall_at_far([], [-1.0], neg_hours=1.0, target_far=0.0)
    with pytest.raises(ValidationError):
        recall_at_far([0.0], [], neg_hours=0.0, target_far=0.0)
    with pytest.raises(ValidationError):
        recall_at_far([0.0], [], neg_hours=-1.0, target_far=0.0)
    with pytest.raises(ValidationError):
        recall_at_far([0.0], [], neg_hours=math.nan, target_far=0.0)
    with pytest.raises(ValidationError):
        recall_at_far([0.0], [], neg_hours=math.inf, target_far=0.0)
    with pytest.raises(ValidationError):
        recall_at_far([0.0], [], neg_hours=1.0, target_far=-0.1)


def test_nan_target_far_is_rejected():
    # NaN fails every comparison, so a `< 0` check lets it through to a
    # +inf threshold and recall 0 for every keyword.
    with pytest.raises(ValidationError, match="target_far"):
        recall_at_far([0.0], [-1.0], neg_hours=1.0, target_far=math.nan)


def test_infinite_target_far_means_no_budget():
    r = recall_at_far([-1.0, -2.0, NEG_INF], [-0.5, -3.0], neg_hours=1.0, target_far=math.inf)
    assert r.threshold == -3.0  # the lowest finite observed score
    assert r.recall == pytest.approx(2 / 3)
    assert r.false_alarms == 2


# recall_at_far: properties

scores = st.one_of(
    st.just(NEG_INF),
    st.floats(min_value=-50.0, max_value=10.0, allow_nan=False, allow_infinity=False),
)
score_cases = st.tuples(
    st.lists(scores, min_size=1, max_size=12),
    st.lists(scores, max_size=12),
    st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
)


def _fa_per_hour(neg, threshold, neg_hours):
    return sum(1 for s in neg if s >= threshold) / neg_hours


@settings(max_examples=200, deadline=None)
@given(case=score_cases)
def test_threshold_is_tight(case):
    pos, neg, neg_hours, target_far = case
    r = recall_at_far(pos, neg, neg_hours, target_far)
    observed = sorted({s for s in pos + neg if math.isfinite(s)})
    if math.isinf(r.threshold):
        # No finite observed score met the budget.
        assert all(_fa_per_hour(neg, s, neg_hours) > target_far for s in observed)
        assert r.recall == 0.0
        return
    assert r.threshold in observed
    assert _fa_per_hour(neg, r.threshold, neg_hours) <= target_far
    assert r.fa_per_hour <= target_far
    below = [s for s in observed if s < r.threshold]
    if below:
        assert _fa_per_hour(neg, below[-1], neg_hours) > target_far
    assert r.recall == sum(1 for s in pos if s >= r.threshold) / len(pos)


@settings(max_examples=200, deadline=None)
@given(case=score_cases, slack=st.floats(min_value=0.0, max_value=20.0, allow_nan=False))
def test_recall_monotone_in_budget(case, slack):
    pos, neg, neg_hours, target_far = case
    tight = recall_at_far(pos, neg, neg_hours, target_far)
    loose = recall_at_far(pos, neg, neg_hours, target_far + slack)
    assert loose.recall >= tight.recall
    assert loose.threshold <= tight.threshold


# macro_recall


def test_macro_recall_examples():
    assert macro_recall([1.0, 1.0]) == 1.0
    assert macro_recall([1.0, 0.0]) == 0.5
    assert macro_recall([0.9] * 19 + [0.7]) == pytest.approx(0.89)
    with pytest.raises(ValidationError):
        macro_recall([])


# speedup and counters


def counters(columns=10, queries=10, search=1.0, total=2.0):
    return SpeedCounters(
        columns_evaluated=columns,
        oracle_queries=queries,
        search_wall_seconds=search,
        total_wall_seconds=total,
    )


def test_speedup_identity():
    s = speedup(counters(), counters())
    assert s == SpeedupReport(relative_search=1.0, relative_running=1.0, column_ratio=1.0)


def test_speedup_ratio_definition():
    s = speedup(counters(columns=20, search=4.0, total=8.0), counters(columns=10, search=1.0, total=2.0))
    assert s.relative_search == 4.0
    assert s.relative_running == 4.0
    assert s.column_ratio == 2.0


def test_speedup_rejects_degenerate_candidate():
    with pytest.raises(ValidationError):
        speedup(counters(), counters(search=0.0))
    with pytest.raises(ValidationError):
        speedup(counters(), counters(total=0.0))
    with pytest.raises(ValidationError):
        speedup(counters(), counters(columns=0))


def test_speedup_json_shape_nests_wall():
    d = speedup(counters(), counters()).to_json_dict()
    assert d == {"column_ratio": 1.0, "wall": {"relative_search": 1.0, "relative_running": 1.0}}


def test_counters_add_and_json_shape():
    a = counters(columns=3, queries=5, search=0.5, total=1.5)
    # Decoders and the runner add into the fields in place.
    a.columns_evaluated += 7
    a.oracle_queries += 2
    a.search_wall_seconds += 0.25
    a.total_wall_seconds += 0.5
    assert a.columns_evaluated == 10
    assert a.oracle_queries == 7
    assert a.search_wall_seconds == 0.75
    assert a.total_wall_seconds == 2.0
    assert a.to_json_dict() == {
        "columns_evaluated": 10,
        "oracle_queries": 7,
        "wall": {"search_seconds": 0.75, "total_seconds": 2.0},
    }


def test_recall_dataclass_fields():
    r = RecallAtFar(recall=1.0, threshold=-2.0, false_alarms=0, fa_per_hour=0.0)
    assert (r.recall, r.threshold, r.false_alarms, r.fa_per_hour) == (1.0, -2.0, 0, 0.0)
