"""DP search: hand-traced values, skipping, events, CSV dump, serialization."""

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kws.decoder
from kws import (
    DecodeConfig,
    DetectionEvent,
    FileLatticeOracle,
    KeywordSpec,
    LatticeData,
    ModeError,
    NEG_INF,
    ScoreStream,
    SpeedCounters,
    SyntheticJoinerConfig,
    SyntheticOracle,
    ValidationError,
    decode_keywords,
    decode_kws,
    dump_delta_matrix,
    scorestream_record,
)
from kws.decoder import detect_events, peak_events
from kws.runner import random_proper_lattice
from test_synthetic_oracle import columns

RNNT = DecodeConfig(mode="rnnt")


def grid_oracle(y, phi, d_max=0, durations=None, tokens=None):
    """In-memory lattice from explicit probability grids (not logs)."""
    with np.errstate(divide="ignore"):
        log_y = np.log(np.asarray(y, dtype=np.float32))
        log_phi = np.log(np.asarray(phi, dtype=np.float32))
    T, U = log_y.shape
    kwargs = {}
    if d_max > 0:
        kwargs = {
            "greedy_tokens": np.zeros(T, dtype=np.uint32)
            if tokens is None
            else np.asarray(tokens, dtype=np.uint32),
            "greedy_durations": np.asarray(durations, dtype=np.uint16),
        }
    data = LatticeData(
        keyword=KeywordSpec("kw", tuple(range(1, U + 1))),
        frame_seconds=0.03,
        log_y=log_y,
        log_phi=log_phi,
        d_max=d_max,
        **kwargs,
    )
    return FileLatticeOracle(data)


def stored_rows(oracle, t):
    """Frame t's (log_y, log_phi) rows as a grid oracle's lattice stores them."""
    return oracle._data.log_y[t - 1], oracle._data.log_phi[t - 1]


def delta_columns(text):
    """{frame: delta column} of a ``dump_delta_matrix`` CSV's processed frames;
    ``repr`` round-trips an f64, so the columns are the decoder's bits."""
    header, *rows = text.splitlines()
    columns = {}
    for row in rows:
        t, *cells = row.split(",")
        assert len(cells) == header.count(",")
        if any(cells):
            columns[int(t)] = [float(cell) for cell in cells]
        else:
            assert cells == [""] * len(cells)
    return columns


def test_constant_emission_hand_trace():
    # y=0.6, blank-at-u0 0.4, blank-at-u1 0.5: best path at every frame is a
    # fresh vertical, so Score[t] = 0.6 * 0.5 = 0.3 throughout. Exact equality
    # against the same stored values composed by hand (storage is f32, the
    # accumulation f64); 1e-6 against the real-number value.
    oracle = grid_oracle([[0.6]] * 3, [[0.4, 0.5]] * 3)
    stream = decode_kws(oracle, oracle.keyword, RNNT)
    y_row, phi_row = stored_rows(oracle, 1)
    expected = float(y_row[0]) + float(phi_row[1])
    np.testing.assert_allclose(stream.scores, expected, atol=1e-12)
    np.testing.assert_allclose(stream.scores, math.log(0.3), atol=1e-6)
    assert stream.processed.all()
    assert stream.columns_evaluated == 3


def test_all_ones_oracle_scores_one():
    oracle = grid_oracle(np.ones((5, 2)), np.ones((5, 3)))
    stream = decode_kws(oracle, oracle.keyword, RNNT)
    np.testing.assert_array_equal(stream.scores, 0.0)


def test_zero_final_blank_kills_score():
    phi = np.full((4, 2), 0.5)
    phi[2, 1] = 0.0
    oracle = grid_oracle(np.full((4, 1), 0.6), phi)
    stream = decode_kws(oracle, oracle.keyword, RNNT)
    assert stream.scores[2] == NEG_INF
    assert stream.scores[3] != NEG_INF


def test_first_column_is_vertical_chain_only():
    # U=2 at t=1: no horizontal source exists, so delta(1,2) = y(1,0)*y(1,1).
    oracle = grid_oracle([[0.5, 0.25]], [[0.9, 0.8, 0.7]])
    stream = decode_kws(oracle, oracle.keyword, RNNT)
    y_row, phi_row = stored_rows(oracle, 1)
    expected = float(y_row[0]) + float(y_row[1]) + float(phi_row[2])
    assert stream.scores[0] == expected
    assert stream.scores[0] == pytest.approx(math.log(0.5 * 0.25 * 0.7), abs=1e-6)


def test_keyword_longer_than_processed_frames_is_impossible():
    oracle = grid_oracle(np.full((2, 3), 0.5), np.full((2, 4), 0.5))
    stream = decode_kws(oracle, oracle.keyword, RNNT)
    # One frame processed can consume at most its vertical chain; that path
    # exists, so only u > per-frame chain without horizontals stays feasible.
    assert stream.scores[0] != NEG_INF
    # Whereas a frame count below 1 never happens; check -inf via zero y.
    oracle = grid_oracle(np.zeros((2, 3)), np.full((2, 4), 0.5))
    stream = decode_kws(oracle, oracle.keyword, RNNT)
    assert (stream.scores == NEG_INF).all()


def test_horizontal_transition_beats_restart_when_better():
    # Frame 1 has a strong token, frame 2 a weak one; carrying delta over the
    # blank must win against restarting at frame 2.
    y = [[0.9], [0.1]]
    phi = [[0.5, 0.6], [0.5, 0.6]]
    oracle = grid_oracle(y, phi)
    stream = decode_kws(oracle, oracle.keyword, RNNT)
    y1, phi1 = (r.tolist() for r in stored_rows(oracle, 1))
    y2, phi2 = (r.tolist() for r in stored_rows(oracle, 2))
    carried = y1[0] + phi1[1] + phi2[1]
    restart = y2[0] + phi2[1]
    assert carried > restart
    assert stream.scores[1] == pytest.approx(carried, abs=1e-12)


def test_tdt_constant_duration_two_skips_half():
    oracle = grid_oracle(
        np.full((6, 1), 0.6),
        np.full((6, 2), 0.5),
        d_max=2,
        durations=[2] * 6,
    )
    stream = decode_kws(oracle, oracle.keyword, DecodeConfig(mode="tdt", d_max=2))
    assert list(stream.processed) == [True, False, True, False, True, False]
    assert stream.columns_evaluated == 3
    assert stream.scores[1] == NEG_INF
    assert stream.scores[3] == NEG_INF
    assert stream.scores[5] == NEG_INF
    assert stream.scores[0] != NEG_INF


def test_skip_accounting_balances():
    oracle = grid_oracle(
        np.full((7, 2), 0.4),
        np.full((7, 3), 0.3),
        d_max=3,
        durations=[3, 1, 2, 3, 1, 2, 3],
    )
    stream = decode_kws(oracle, oracle.keyword, DecodeConfig(mode="tdt", d_max=3))
    assert stream.columns_evaluated + int((~stream.processed).sum()) == 7


def test_decode_side_cap_limits_hops():
    oracle = grid_oracle(
        np.full((8, 1), 0.6),
        np.full((8, 2), 0.5),
        d_max=4,
        durations=[4] * 8,
    )
    stream = decode_kws(oracle, oracle.keyword, DecodeConfig(mode="tdt", d_max=2))
    # Stored duration 4 is capped to the decode config's 2.
    assert list(np.flatnonzero(stream.processed) + 1) == [1, 3, 5, 7]


def test_zero_duration_clamp_and_error_policies():
    kwargs = dict(d_max=2, durations=[0] * 4)
    oracle = grid_oracle(np.full((4, 1), 0.6), np.full((4, 2), 0.5), **kwargs)
    stream = decode_kws(
        oracle, oracle.keyword, DecodeConfig(mode="tdt", d_max=2, zero_duration_policy="clamp")
    )
    assert stream.processed.all()
    with pytest.raises(ValidationError):
        decode_kws(
            oracle,
            oracle.keyword,
            DecodeConfig(mode="tdt", d_max=2, zero_duration_policy="error"),
        )


def test_tdt_requires_duration_track():
    oracle = grid_oracle(np.full((3, 1), 0.6), np.full((3, 2), 0.5))
    with pytest.raises(ModeError):
        decode_kws(oracle, oracle.keyword, DecodeConfig(mode="tdt", d_max=2))


def test_config_validation():
    with pytest.raises(ValidationError):
        DecodeConfig(mode="tdt", d_max=0)
    with pytest.raises(ValidationError):
        DecodeConfig(mode="rnnt", threshold_log=math.nan)
    with pytest.raises(ValidationError):
        DecodeConfig(mode="rnnt", refractory_frames=-1)
    with pytest.raises(ValidationError):
        DecodeConfig(mode="nope")
    with pytest.raises(ValidationError):
        DecodeConfig(mode="rnnt", d_max=-3)
    with pytest.raises(ValidationError):
        DecodeConfig(mode="tdt", d_max=2, zero_duration_policy="skip")
    # d_max counts in TDT mode only: a checked RNN-T config holds 0.
    assert DecodeConfig(mode="rnnt", d_max=4).d_max == 0
    assert DecodeConfig(mode="tdt", d_max=4).d_max == 4


@pytest.mark.parametrize(
    "field, value",
    [("d_max", 2.5), ("d_max", True), ("d_max", "2"), ("refractory_frames", 1.5),
     ("refractory_frames", True)],
)
def test_config_refuses_a_non_integer_cap_or_window(field, value):
    """Refused at construction, not as a raw TypeError deep in a decode."""
    with pytest.raises(ValidationError) as raised:
        DecodeConfig(**{"mode": "tdt", "d_max": 2, field: value})
    assert str(raised.value) == f"{field} must be an integer, got {value!r}"
    assert type(DecodeConfig(mode="tdt", d_max=np.int64(3)).d_max) is int


def test_delta_column_invariants():
    rng = np.random.default_rng(7)
    y = rng.uniform(0.05, 0.9, size=(9, 3))
    phi = rng.uniform(0.05, 0.9, size=(9, 4))
    oracle = grid_oracle(y, phi)
    captured = delta_columns(dump_delta_matrix(oracle, oracle.keyword, RNNT))
    assert sorted(captured) == list(range(1, 10))

    prev = None
    for t in range(1, 10):
        delta = captured[t]
        assert delta[0] == 0.0
        y_row, phi_row = (r.tolist() for r in stored_rows(oracle, t))
        for u in range(1, 4):
            vertical = delta[u - 1] + y_row[u - 1]
            if prev is None:
                expected = vertical
            else:
                prev_delta, prev_phi = prev
                expected = max(vertical, prev_delta[u] + prev_phi[u])
            assert delta[u] == expected
        prev = (delta, phi_row)


def test_dump_delta_matrix_hand_traced():
    oracle = grid_oracle([[0.6]] * 3, [[0.4, 0.5]] * 3)
    text = dump_delta_matrix(oracle, oracle.keyword, RNNT)
    lines = text.strip().split("\n")
    assert lines[0] == "t,u0,u1"
    assert len(lines) == 4
    for idx, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        assert cells[0] == str(idx)
        assert float(cells[1]) == 0.0
        assert float(cells[2]) == pytest.approx(math.log(0.6), abs=1e-6)


def test_dump_delta_matrix_skipped_rows_empty():
    oracle = grid_oracle(
        np.full((6, 1), 0.6),
        np.full((6, 2), 0.5),
        d_max=2,
        durations=[2] * 6,
    )
    text = dump_delta_matrix(oracle, oracle.keyword, DecodeConfig(mode="tdt", d_max=2))
    lines = text.strip().split("\n")
    assert lines[2] == "2,,"
    assert lines[4] == "4,,"
    assert not lines[1].endswith(",,")


def test_detection_threshold_and_refractory():
    # Fully tiled timeline (fillers 5 and 6 around two keyword occurrences),
    # so scores are finite only while each occurrence's last segment runs.
    cfg = SyntheticJoinerConfig(
        vocab_size=9,
        **columns(
            (
                (5, 1, 9),
                (3, 10, 2), (7, 12, 2),
                (6, 14, 26),
                (3, 40, 2), (7, 42, 2),
                (6, 44, 17),
            ),
            60,
        ),
        epsilon=0.0,
        d_max=0,
        duration_concentration=1.0,
    )
    oracle = SyntheticOracle(cfg)
    kw = KeywordSpec("kw", (3, 7))
    config = DecodeConfig(mode="rnnt", threshold_log=-5.0, refractory_frames=10)
    stream = decode_kws(oracle, kw, config)
    events = detect_events(stream, config)
    # Two occurrences separated by more than the refractory window.
    assert len(events) == 2
    assert events[0].frame == 12  # first frame where the full keyword scores
    assert events[1].frame == 42
    for e in events:
        assert e.log_score >= -5.0
        assert e.keyword == "kw"


def test_score_plateaus_through_trailing_gaps():
    # Frames with no planted segment are ideal blanks at every prefix length,
    # so a completed keyword's score carries across them unchanged.
    cfg = SyntheticJoinerConfig(
        vocab_size=9,
        **columns(((3, 5, 2), (7, 7, 2)), 20),
        epsilon=0.0,
        d_max=0,
        duration_concentration=1.0,
    )
    stream = decode_kws(SyntheticOracle(cfg), KeywordSpec("kw", (3, 7)), RNNT)
    assert (stream.scores[:6] == NEG_INF).all()
    np.testing.assert_array_equal(stream.scores[6:], 0.0)


def test_refractory_suppresses_plateau():
    cfg = SyntheticJoinerConfig(
        vocab_size=9,
        **columns(((3, 5, 1), (7, 6, 6)), 30),
        epsilon=0.0,
        d_max=0,
        duration_concentration=1.0,
    )
    oracle = SyntheticOracle(cfg)
    kw = KeywordSpec("kw", (3, 7))
    config = DecodeConfig(mode="rnnt", threshold_log=-10.0, refractory_frames=34)
    events = detect_events(decode_kws(oracle, kw, config), config)
    # The 6-frame blank plateau after the last token crosses threshold at
    # every frame; the window collapses it to a single event.
    assert len(events) == 1


def test_probability_one_threshold_never_fires_on_noisy_oracle():
    cfg = SyntheticJoinerConfig(
        vocab_size=9,
        **columns(((3, 10, 2), (7, 12, 2)), 40),
        epsilon=0.3,
        d_max=0,
        duration_concentration=1.0,
    )
    oracle = SyntheticOracle(cfg)
    config = DecodeConfig(mode="rnnt", threshold_log=0.0)
    events = detect_events(decode_kws(oracle, KeywordSpec("kw", (3, 7)), config), config)
    assert events == []


def test_peak_events_nms():
    scores = np.full(20, NEG_INF)
    scores[4] = -1.0
    scores[6] = -0.5   # higher neighbor wins, 4 gets suppressed
    scores[15] = -2.0
    stream = ScoreStream(
        utt_id="u",
        keyword="kw",
        frame_seconds=0.03,
        scores=scores,
        processed=np.isfinite(scores),
        columns_evaluated=3,
    )
    events = peak_events(stream, refractory_frames=5)
    assert [(e.frame, e.log_score) for e in events] == [(7, -0.5), (16, -2.0)]


def test_peak_events_tie_prefers_earlier_frame():
    scores = np.array([-1.0, -1.0, -1.0, NEG_INF])
    stream = ScoreStream(
        utt_id="u",
        keyword="kw",
        frame_seconds=0.03,
        scores=scores,
        processed=np.isfinite(scores),
        columns_evaluated=3,
    )
    events = peak_events(stream, refractory_frames=1)
    assert [e.frame for e in events] == [1, 3]


def _field(record: dict, name: str, where: str = "score-stream record"):
    try:
        return record[name]
    except KeyError:
        raise ValidationError(f"{where} has no field {name!r}") from None


def parse_scorestream_record(record: dict) -> tuple[ScoreStream, list[DetectionEvent]]:
    """Inverse of ``scorestream_record`` on a JSON-decoded line: a reference
    reader of the format. A missing field, a score that is not a number or
    is NaN, or a ``processed`` list of another length than ``scores`` raises
    ``ValidationError`` naming the field."""
    try:
        # float() reads both JSON numbers and the "-inf"/"inf" strings.
        scores = np.array([float(s) for s in _field(record, "scores")], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValidationError(
            f"score-stream field 'scores' is not a list of numbers: {exc}"
        ) from exc
    if np.isnan(scores).any():
        raise ValidationError("score-stream field 'scores' holds NaN")
    processed = np.array(_field(record, "processed"), dtype=bool)
    if processed.shape != scores.shape:
        raise ValidationError(
            f"score-stream field 'processed' has shape {processed.shape}, "
            f"'scores' has {scores.shape}"
        )
    stream = ScoreStream(
        utt_id=_field(record, "utt_id"),
        keyword=_field(record, "keyword"),
        frame_seconds=_field(record, "frame_seconds"),
        scores=scores,
        processed=processed,
        columns_evaluated=_field(record, "columns_evaluated"),
    )
    events = []
    for i, e in enumerate(record.get("events", [])):
        where = f"score-stream event {i}"
        try:
            log_score = float(_field(e, "log_score", where))
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{where} field 'log_score' is not a number: {exc}") from exc
        keyword, frame = _field(e, "keyword", where), _field(e, "frame", where)
        events.append(DetectionEvent(keyword, frame, log_score))
    return stream, events


def test_scorestream_record_round_trip():
    oracle = grid_oracle(
        np.full((6, 1), 0.6),
        np.full((6, 2), 0.5),
        d_max=2,
        durations=[2] * 6,
    )
    config = DecodeConfig(mode="tdt", d_max=2, threshold_log=-2.0)
    stream = decode_kws(oracle, oracle.keyword, config, utt_id="utt-7")
    events = detect_events(stream, config)
    line = scorestream_record(stream, events)
    assert "\n" not in line
    record = json.loads(line)
    assert record["scores"][1] == "-inf"
    back_stream, back_events = parse_scorestream_record(record)
    np.testing.assert_array_equal(back_stream.scores, stream.scores)
    np.testing.assert_array_equal(back_stream.processed, stream.processed)
    assert back_events == events
    assert back_stream.utt_id == "utt-7"


def _round_trip_record():
    """A JSON-decoded record of a 4-frame stream with two skipped frames and
    one event."""
    stream = ScoreStream(
        "utt-1", "kw", 0.03, np.array([-1.5, NEG_INF, -0.25, NEG_INF]),
        np.array([True, False, True, False]), 2,
    )
    return json.loads(scorestream_record(stream, [DetectionEvent("kw", 3, -0.25)]))


@pytest.mark.parametrize(
    "field", ["utt_id", "keyword", "frame_seconds", "scores", "processed", "columns_evaluated"]
)
def test_parse_scorestream_record_missing_field(field):
    record = _round_trip_record()
    del record[field]
    with pytest.raises(ValidationError, match=f"no field '{field}'"):
        parse_scorestream_record(record)


@pytest.mark.parametrize("field", ["keyword", "frame", "log_score"])
def test_parse_scorestream_record_missing_event_field(field):
    record = _round_trip_record()
    del record["events"][0][field]
    with pytest.raises(ValidationError, match=f"event 0 has no field '{field}'"):
        parse_scorestream_record(record)


@pytest.mark.parametrize("bad", ["-infinite", "", None, [1.0]])
def test_parse_scorestream_record_unparseable_score(bad):
    record = _round_trip_record()
    record["scores"][2] = bad
    with pytest.raises(ValidationError, match="'scores'"):
        parse_scorestream_record(record)


@pytest.mark.parametrize("nan", ["nan", "NaN", math.nan])
def test_parse_scorestream_record_nan_score(nan):
    record = _round_trip_record()
    record["scores"][0] = nan
    with pytest.raises(ValidationError, match="'scores' holds NaN"):
        parse_scorestream_record(record)


@pytest.mark.parametrize("processed", [[True], [True, False, True], [True] * 5, True])
def test_parse_scorestream_record_processed_length_mismatch(processed):
    """A short mask used to parse, and detect_events then broadcast it over
    every frame and returned a wrong event."""
    record = _round_trip_record()
    record["processed"] = processed
    with pytest.raises(ValidationError, match="'processed'"):
        parse_scorestream_record(record)


def test_parse_scorestream_record_accepts_infinities():
    record = _round_trip_record()
    record["scores"][3] = "inf"
    stream, events = parse_scorestream_record(record)
    assert stream.scores.tolist() == [-1.5, NEG_INF, -0.25, math.inf]
    assert events == [DetectionEvent("kw", 3, -0.25)]


def _detect_events_reference(stream, config):
    """detect_events as a gate offered every processed frame in turn."""
    events, last_fire = [], None
    for idx in np.flatnonzero(stream.processed).tolist():
        score = float(stream.scores[idx])
        if not math.isfinite(score) or score < config.threshold_log:
            continue
        if last_fire is not None and idx + 1 - last_fire < config.refractory_frames:
            continue
        last_fire = idx + 1
        events.append(DetectionEvent(keyword=stream.keyword, frame=idx + 1, log_score=score))
    return events


def _encode_float_reference(value):
    if value == NEG_INF:
        return "-inf"
    if value == math.inf:
        return "inf"
    return float(value)


def _scorestream_record_reference(stream, events):
    """scorestream_record with one encode call per score and per flag."""
    return {
        "utt_id": stream.utt_id,
        "keyword": stream.keyword,
        "frame_seconds": stream.frame_seconds,
        "scores": [_encode_float_reference(s) for s in stream.scores.tolist()],
        "processed": [bool(p) for p in stream.processed.tolist()],
        "columns_evaluated": stream.columns_evaluated,
        "events": [
            {
                "keyword": e.keyword,
                "frame": e.frame,
                "log_score": _encode_float_reference(e.log_score),
            }
            for e in events
        ],
    }


# Special values the record encoder must keep apart or encode apart.
SPECIAL_SCORES = [0.0, -0.0, math.nan, math.inf, NEG_INF, 5e-324, -1e300]


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_frames=st.integers(0, 80),
    threshold_log=st.sampled_from([NEG_INF, -3.0, -1.0, -0.5, 0.0, math.inf]),
    refractory=st.sampled_from([0, 1, 2, 3, 7, 34]),
    specials=st.lists(st.sampled_from(SPECIAL_SCORES), max_size=6),
    all_distinct=st.booleans(),
)
def test_detect_events_and_record_match_per_frame_references(
    seed, num_frames, threshold_log, refractory, specials, all_distinct
):
    """Tie-heavy scores with -inf runs, +inf entries and unprocessed finite
    frames, or all-distinct scores, with -0.0 beside 0.0 and NaN drawn in:
    the vectorized event walk equals the per-frame gate, and the record line
    equals ``json.dumps`` of the per-frame record, byte for byte."""
    rng = np.random.default_rng(seed)
    if all_distinct:
        scores = -rng.permutation(num_frames) - rng.random(num_frames)
    else:
        scores = rng.choice([0.0, -0.5, -1.0, -3.0, NEG_INF], size=num_frames)
        scores[rng.random(num_frames) < 0.3] = rng.uniform(-4.0, 0.0)
        for _ in range(int(rng.integers(0, 3))):  # -inf runs
            start = int(rng.integers(0, num_frames + 1))
            scores[start : start + int(rng.integers(1, 10))] = NEG_INF
        scores[rng.random(num_frames) < 0.03] = math.inf
    if num_frames:
        scores[rng.integers(0, num_frames, size=len(specials))] = specials
    processed = rng.random(num_frames) < 0.8
    stream = ScoreStream("u", "kw", 0.03, scores, processed, int(processed.sum()))
    config = DecodeConfig(threshold_log=threshold_log, refractory_frames=refractory)

    events = detect_events(stream, config)
    assert events == _detect_events_reference(stream, config)
    assert all(type(e.frame) is int and type(e.log_score) is float for e in events)
    line = scorestream_record(stream, events)
    assert line == json.dumps(_scorestream_record_reference(stream, events), sort_keys=True)


# Names a record must escape: quotes, backslashes, control characters, non-ASCII.
ODD_NAMES = ['kw', 'say "hi"', "back\\slash", "tab\tnew\nline\x00", "caf\u00e9 \u65e5\U0001f600", ""]


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    utterances=st.integers(1, 6),
    tdt=st.booleans(),
    threshold_log=st.sampled_from([NEG_INF, -3.0, -1.0, -0.5, 0.0]),
    refractory=st.sampled_from([0, 1, 2, 7, 34, 10**6]),
    names=st.lists(st.sampled_from(ODD_NAMES), min_size=7, max_size=7),
)
def test_batch_gate_peaks_and_records_match_row_references(
    seed, utterances, tdt, threshold_log, refractory, names
):
    """Streams of different lengths (one to three keywords per utterance), with
    -inf runs and tie-heavy scores, stacked into one -inf-padded block as a
    lane batch holds them: the batch gate, the batch peak picks and the
    records made with one score-text table for the block equal the per-row
    references, whatever the refractory (0, or past every row's end) and
    threshold."""
    rng = np.random.default_rng(seed)
    utts, rows = [], []
    for i in range(utterances):
        T = int(rng.integers(0, 60))
        if tdt:  # hops of 1 to 4 frames from frame 1; skipped frames stay -inf
            frames = np.cumsum(np.concatenate([[1], rng.integers(1, 5, size=T)]))
            frames = frames[frames <= T]
        else:
            frames = np.arange(1, T + 1)
        keywords = names[: int(rng.integers(1, 4))]
        for _ in keywords:
            row = np.full(T, NEG_INF)
            row[frames - 1] = rng.choice([0.0, -0.5, -1.0, -3.0, NEG_INF], size=len(frames))
            row[frames[rng.random(len(frames)) < 0.3] - 1] = -rng.random()
            if T:
                start = int(rng.integers(0, T))
                row[start : start + int(rng.integers(1, 10))] = NEG_INF  # a -inf run
            rows.append(row)
        first = sum(len(u.keywords) for u, _ in utts)
        utt_id = f'{names[-1]}"u{i}\\'
        utts.append((kws.decoder._PendingUtterance(utt_id, T, 0.03, frames, keywords), first))
    W = max(u.num_frames for u, _ in utts)
    scores = np.full((len(rows), W), NEG_INF)
    processed = np.zeros((len(rows), W), dtype=bool)
    for utt, i in utts:
        for k in range(len(utt.keywords)):
            scores[i + k, : utt.num_frames] = rows[i + k]
            processed[i + k, utt.frames - 1] = True
    block = kws.decoder._ScoreBlock(utts, scores)
    config = DecodeConfig(threshold_log=threshold_log, refractory_frames=refractory)

    gated = block.events(*kws.decoder._gate_picks(scores, processed, config))
    peaks = block.events(*kws.decoder._peak_picks(scores, refractory))
    streams = [stream for utt_streams in block.streams() for stream in utt_streams]
    assert len(streams) == len(rows)
    texts = kws.decoder._ScoreTexts()
    for stream, row_gated, row_peaks in zip(streams, gated, peaks):
        assert row_gated == _detect_events_reference(stream, config)
        assert row_peaks == peak_events(stream, refractory)
        line = scorestream_record(stream, row_gated, texts)
        assert line == json.dumps(_scorestream_record_reference(stream, row_gated), sort_keys=True)


def test_record_keeps_signed_zeros_and_nan_apart():
    scores = np.array([0.0, -0.0, math.nan, 0.0, -0.0, NEG_INF, math.inf, math.nan])
    stream = ScoreStream("u", "kw", 0.03, scores, np.ones(8, dtype=bool), 8)
    record = json.loads(scorestream_record(stream, []))
    assert record["scores"][:2] == [0.0, -0.0]
    assert [math.copysign(1.0, s) for s in record["scores"][:2]] == [1.0, -1.0]
    assert '"scores": [0.0, -0.0, NaN, 0.0, -0.0, "-inf", "inf", NaN]' in scorestream_record(
        stream, []
    )


def _reference_column(prev_delta, prev_phi, y, U):
    """The DP column as a scalar loop over u, as the search was first written."""
    delta = [0.0] * (U + 1)
    for u in range(1, U + 1):
        vertical = delta[u - 1] + y[u - 1]
        if prev_delta is None:
            delta[u] = vertical
        else:
            horizontal = prev_delta[u] + prev_phi[u]
            delta[u] = vertical if vertical >= horizontal else horizontal
    return delta


def _reference_decode(data, config):
    """(scores, processed frames) of a lattice's keyword: frame loop over its
    stored rows and greedy durations, clamped hops, scalar columns."""
    scores = np.full(data.num_frames, NEG_INF)
    frames = []
    delta = prev_phi = None
    t = 1
    while t <= data.num_frames:
        frames.append(t)
        y, phi = data.log_y[t - 1].tolist(), data.log_phi[t - 1].tolist()
        delta = _reference_column(delta, prev_phi, y, data.keyword.num_tokens)
        scores[t - 1] = delta[-1] + phi[-1]
        prev_phi = phi
        hop = 1
        if config.mode == "tdt":
            hop = max(1, min(int(data.greedy_durations[t - 1]), config.d_max))
        t += hop
    return scores, frames


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    utterances=st.integers(1, 7),
    tdt=st.booleans(),
    tie_heavy=st.booleans(),
    chunk=st.sampled_from([1, 2, 3, 5, 32]),
)
def test_lane_dp_matches_scalar_reference(seed, utterances, tdt, tie_heavy, chunk):
    """Many utterances per batch with U from 1 to 6, ragged column counts,
    -inf rows, -0.0 entries and tie-heavy grids: every lane's scores are
    bit-identical to a scalar frame-by-frame decode."""
    rng = np.random.default_rng(seed)
    d_max = int(rng.integers(1, 5)) if tdt else 0
    config = DecodeConfig(mode="tdt", d_max=d_max) if tdt else RNNT
    ties = np.float32([0.0, -0.0, np.log(0.5), np.log(0.25), -np.inf])
    jobs, lattices = [], []
    for i in range(utterances):
        data = random_proper_lattice(rng, t_max=40, u_max=6, d_max=d_max)
        for grid in (data.log_y, data.log_phi):
            if tie_heavy:
                grid[...] = rng.choice(ties, size=grid.shape)
            grid[rng.random(grid.shape) < 0.05] = -0.0
            grid[rng.random(grid.shape) < 0.1] = -np.inf
            grid[rng.integers(grid.shape[0])] = -np.inf  # one -inf row
        # A lattice answers only its own keyword, so a lane repeats it.
        jobs.append((FileLatticeOracle(data), [data.keyword] * int(rng.integers(0, 3)), f"u{i}"))
        lattices.append(data)

    counters = SpeedCounters()
    with mock.patch.object(kws.decoder, "_LANE_CHUNK", chunk):
        decoded = list(decode_keywords(jobs, config, counters))
    assert len(decoded) == len(jobs)
    columns = 0
    for (_, keywords, utt_id), data, streams in zip(jobs, lattices, decoded):
        assert len(streams) == len(keywords)
        for stream in streams:
            scores, frames = _reference_decode(data, config)
            assert stream.utt_id == utt_id
            assert stream.scores.tobytes() == scores.tobytes()
            assert np.flatnonzero(stream.processed).tolist() == [t - 1 for t in frames]
            assert stream.columns_evaluated == len(frames)
            columns += len(frames)
    assert counters.columns_evaluated == columns
    assert counters.oracle_queries == columns * (2 if tdt else 1)


@pytest.mark.parametrize("mode", ["rnnt", "tdt"])
@pytest.mark.parametrize("chunk", [1, 3, 256])
def test_score_blocks_are_minus_inf_off_their_lanes_frames(mode, chunk):
    """Each lane batch's block holds a lane's scores at its processed frames
    only: a skipped frame, and every frame past its own utterance's end, is
    -inf and unprocessed, so that whole-block gates and peak searches see
    what one row would."""
    rng = np.random.default_rng(7)
    config = DecodeConfig(mode=mode, d_max=3 if mode == "tdt" else 0)
    jobs = []
    for i in range(9):
        data = random_proper_lattice(rng, t_max=40, u_max=4, d_max=3)
        jobs.append((FileLatticeOracle(data), [data.keyword] * int(rng.integers(1, 3)), f"u{i}"))
    with mock.patch.object(kws.decoder, "_LANE_CHUNK", chunk):
        plan = [(keywords, oracle.num_frames) for oracle, keywords, _ in jobs]
        blocks = list(kws.decoder._decode_blocks(jobs, plan, config, SpeedCounters()))
    assert sum(len(block.utts) for block in blocks) == len(jobs)
    for block in blocks:
        assert np.isneginf(block.scores[~block.processed]).all()
        for utt, i in block.utts:
            for lane in range(i, i + len(utt.keywords)):
                assert np.flatnonzero(block.processed[lane]).tolist() == (utt.frames - 1).tolist()


def _recorded_sweeps_and_buffers():
    """Stand-ins for ``_lane_columns`` and ``_edge_buffer`` that record each
    sweep's lanes and each buffer's shape, and those two lists."""
    sweeps, buffers = [], []
    sweep, edge_buffer = kws.decoder._lane_columns, kws.decoder._edge_buffer

    def recorded_sweep(edges, *args):
        sweeps.append(edges.shape[3])
        return sweep(edges, *args)

    def recorded_buffer(*args):
        edges = edge_buffer(*args)
        buffers.append(edges.shape)
        return edges

    return recorded_sweep, recorded_buffer, sweeps, buffers


@pytest.mark.parametrize("mode", ["rnnt", "tdt"])
@pytest.mark.parametrize("chunk", [1, 2, 5, 256])
def test_growing_utterances_decode_in_the_fewest_sweeps(mode, chunk):
    """Utterances each longer than all before them, and now and then wider,
    decode through one lane buffer sized for the longest and the widest, in
    as few sweeps as ``_LANE_CHUNK`` allows, and bit for bit as alone."""
    rng = np.random.default_rng(11)
    config = DecodeConfig(mode=mode, d_max=2 if mode == "tdt" else 0)
    jobs = []
    for i in range(12):
        T, U = 3 + 2 * i, 1 + i // 3
        oracle = grid_oracle(
            rng.uniform(0.05, 1, (T, U)), rng.uniform(0.05, 1, (T, U + 1)),
            d_max=2, durations=rng.integers(0, 3, T),
        )
        jobs.append((oracle, [oracle.keyword], f"u{i}"))
    recorded_sweep, recorded_buffer, sweeps, buffers = _recorded_sweeps_and_buffers()
    with mock.patch.multiple(
        kws.decoder, _LANE_CHUNK=chunk, _lane_columns=recorded_sweep, _edge_buffer=recorded_buffer
    ):
        decoded = list(decode_keywords(jobs, config))
    assert len(sweeps) == -(-len(jobs) // chunk)
    # 25 frames and keywords of 4 tokens: 25 + 1 + 2 * 4 rows of U + 1 = 5.
    assert buffers == [(34, 2, 5, min(chunk, len(jobs)))]
    for (oracle, (keyword,), utt_id), (stream,) in zip(jobs, decoded, strict=True):
        alone = decode_kws(oracle, keyword, config, utt_id)
        assert stream.scores.tobytes() == alone.scores.tobytes()
        assert stream.processed.tobytes() == alone.processed.tobytes()


@pytest.mark.parametrize("mode", ["rnnt", "tdt"])
def test_a_run_of_fewer_lanes_than_the_cap_allocates_exactly_its_lanes(mode):
    """80 lanes, 8 per utterance, under the cap of 256: one buffer of 80
    lanes, decoded in one sweep."""
    rng = np.random.default_rng(5)
    config = DecodeConfig(mode=mode, d_max=3 if mode == "tdt" else 0)
    jobs = []
    for i in range(10):
        data = random_proper_lattice(rng, t_max=40, u_max=4, d_max=3)
        jobs.append((FileLatticeOracle(data), [data.keyword] * 8, f"u{i}"))
    recorded_sweep, recorded_buffer, sweeps, buffers = _recorded_sweeps_and_buffers()
    with mock.patch.multiple(
        kws.decoder, _lane_columns=recorded_sweep, _edge_buffer=recorded_buffer
    ):
        decoded = list(decode_keywords(jobs, config))
    assert [lanes for *_, lanes in buffers] == [80]
    assert sweeps == [80]
    assert [len(streams) for streams in decoded] == [8] * 10


def test_an_utterance_that_outgrows_the_lane_buffer_is_refused():
    """A plan with too few lanes, stage lanes, frames or tokens for an
    utterance raises before anything is written past the buffer's rows."""
    data = random_proper_lattice(np.random.default_rng(2), t_max=12, u_max=4)
    oracle = FileLatticeOracle(data)
    T, keyword = oracle.num_frames, data.keyword
    assert keyword.num_tokens == 2
    job = (oracle, [keyword] * 2, "u")
    narrower = KeywordSpec("narrower", keyword.tokens[:1])
    stage = kws.decoder._STAGE_LANES
    for plan, stage_lanes in [
        ([([keyword], T)], stage),  # one lane
        ([([keyword], T), ([keyword], T)], 1),  # two lanes, a stage of one
        ([([keyword] * 2, T - 1)], stage),  # a frame short
        ([([narrower] * 2, T)], stage),  # a token short
    ]:
        with mock.patch.object(kws.decoder, "_STAGE_LANES", stage_lanes):
            with pytest.raises(ValueError, match="outgrow the run's lane buffer"):
                list(kws.decoder._decode_blocks([job], plan, RNNT, SpeedCounters()))
    (block,) = kws.decoder._decode_blocks([job], [([keyword] * 2, T)], RNNT, SpeedCounters())
    assert block.scores.shape == (2, T)


def _reference_schedule(durations, config):
    """The TDT hop schedule as a per-frame walk over the greedy durations, as
    the decoder first computed it: clamp each landed frame's duration to
    d_max, and treat a zero duration by the policy."""
    frames = []
    t = 1
    while t <= len(durations):
        frames.append(t)
        d = min(durations[t - 1], config.d_max)
        if d < 1:
            if config.zero_duration_policy == "error":
                raise ValidationError(
                    f"greedy track predicted duration 0 at frame {t} "
                    "(zero_duration_policy='error')"
                )
            d = 1
        t += d
    return frames


def _outcome(fn):
    """(frames, None) from a schedule, or (None, message) if it raised."""
    try:
        return [int(t) for t in fn()], None
    except ValidationError as exc:
        return None, str(exc)


def _random_alignment(rng, num_frames, vocab_size, max_duration):
    """Non-overlapping segments with random gaps over frames 1..num_frames."""
    segments = []
    t = 1 + int(rng.integers(0, 3))
    while True:
        duration = int(rng.integers(1, max_duration + 1))
        if t + duration - 1 > num_frames:
            return tuple(segments)
        segments.append((int(rng.integers(1, vocab_size + 1)), t, duration))
        t += duration + int(rng.integers(0, 3))


def _schedule_oracle(rng, synthetic, num_frames, track_d_max):
    """(oracle, its greedy durations as a list): for a synthetic oracle the
    argmax of each frame's duration distribution, for a lattice the stored
    channel."""
    if synthetic:
        oracle = SyntheticOracle(
            SyntheticJoinerConfig(
                vocab_size=9,
                **columns(_random_alignment(rng, num_frames, 9, 12), num_frames),
                d_max=track_d_max,
                # Below 1/(d_max+1) the argmax leaves the ideal duration,
                # which is how a synthetic track predicts duration 0.
                duration_concentration=float(rng.choice([1.0, 0.6, 0.3, 0.1, 0.02])),
            )
        )
        argmax = [int(np.argmax(oracle.duration_log_probs(t))) for t in range(1, num_frames + 1)]
        return oracle, argmax
    small = rng.integers(0, min(track_d_max, 10) + 1, size=num_frames)
    large = rng.integers(0, track_d_max + 1, size=num_frames)
    durations = np.where(rng.random(num_frames) < 0.8, small, large)
    data = LatticeData(
        keyword=KeywordSpec("kw", (1,)),
        frame_seconds=0.03,
        log_y=np.zeros((num_frames, 1), dtype=np.float32),
        log_phi=np.zeros((num_frames, 2), dtype=np.float32),
        d_max=track_d_max,
        greedy_tokens=np.zeros(num_frames, dtype=np.uint32),
        greedy_durations=durations.astype(np.uint16),
    )
    return FileLatticeOracle(data), durations.tolist()


@settings(max_examples=400, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    synthetic=st.booleans(),
    num_frames=st.integers(1, 60),
    track_d_max=st.integers(1, 10),
    wide_track=st.booleans(),
    d_max=st.one_of(st.integers(1, 10), st.just(70000)),
    policy=st.sampled_from(["clamp", "error"]),
)
def test_hop_schedule_matches_per_frame_walk(
    seed, synthetic, num_frames, track_d_max, wide_track, d_max, policy
):
    """The array schedule lands on the frames of the per-frame greedy walk, or
    raises its message, for both oracles, both policies, durations 0..D_max
    and decode caps 1..10 and above the u16 range; the streaming decoder,
    reading one duration per processed frame, agrees too."""
    rng = np.random.default_rng(seed)
    if wide_track and not synthetic:
        track_d_max = 65535  # the widest a KWL1 duration can be
    oracle, want = _schedule_oracle(rng, synthetic, num_frames, track_d_max)
    config = DecodeConfig(mode="tdt", d_max=d_max, zero_duration_policy=policy)

    durations = oracle.greedy_durations()
    assert durations.dtype == np.int64
    assert durations.tolist() == want

    expected = _outcome(lambda: _reference_schedule(want, config))
    assert _outcome(lambda: kws.decoder._hop_schedule(oracle, config)) == expected

    def streamed():
        decoder = kws.StreamingDecoder(oracle, KeywordSpec("kw", (1,)), config)
        for t in range(1, num_frames + 1):
            decoder.push(t)
        return np.flatnonzero(decoder.finish().processed) + 1

    assert _outcome(streamed) == expected
