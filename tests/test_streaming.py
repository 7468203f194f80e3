"""Frame-at-a-time decoding: protocol, equivalence with offline, event parity."""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kws.decoder
from kws import (
    NEG_INF,
    DecodeConfig,
    DetectionEvent,
    EmissionOracle,
    KeywordSpec,
    ProtocolError,
    ScoreStream,
    SidecarError,
    SpeedCounters,
    StreamingDecoder,
    SyntheticJoinerConfig,
    SyntheticOracle,
    ValidationError,
    decode_keywords,
    decode_kws,
    dump_delta_matrix,
)
from kws.decoder import _peak_picks, detect_events, peak_events
from kws.runner import random_proper_lattice
from kws.lattice import FileLatticeOracle

from test_decoder import delta_columns, grid_oracle
from test_synthetic_oracle import columns


def noisy_oracle(seed, num_frames=40, d_max=3):
    rng = np.random.default_rng(seed)
    segments = []
    t = 1
    while t <= num_frames - 2:
        token = int(rng.integers(1, 10))
        dur = int(rng.integers(1, 4))
        dur = min(dur, num_frames - t + 1)
        segments.append((token, t, dur))
        t += dur + int(rng.integers(0, 3))
    cfg = SyntheticJoinerConfig(
        vocab_size=9,
        **columns(segments, num_frames),
        epsilon=float(rng.uniform(0.0, 0.6)),
        d_max=d_max,
        duration_concentration=0.9,
    )
    return SyntheticOracle(cfg)


def test_out_of_order_delivery_rejected():
    oracle = noisy_oracle(0)
    decoder = StreamingDecoder(oracle, KeywordSpec("kw", (3, 7)), DecodeConfig(mode="rnnt"))
    decoder.push(1)
    with pytest.raises(ProtocolError):
        decoder.push(3)
    with pytest.raises(ProtocolError):
        decoder.push(1)


def test_push_after_finish_rejected():
    oracle = noisy_oracle(0)
    decoder = StreamingDecoder(oracle, KeywordSpec("kw", (3, 7)), DecodeConfig(mode="rnnt"))
    for t in range(1, oracle.num_frames + 1):
        decoder.push(t)
    decoder.finish()
    with pytest.raises(ProtocolError):
        decoder.push(oracle.num_frames + 1)


def test_refused_frame_finishes_the_decoder():
    """A frame that the 'error' zero-duration policy or the oracle refuses
    ends the decode: every later push raises ProtocolError, as after
    finish(), and no later frame is processed as if the policy were 'clamp'
    or the refused frame had been decoded."""
    oracle = grid_oracle(
        np.full((6, 1), 0.6), np.full((6, 2), 0.5), d_max=2, durations=[1, 1, 1, 0, 1, 1]
    )
    config = DecodeConfig(mode="tdt", d_max=2, zero_duration_policy="error")
    decoder = StreamingDecoder(oracle, oracle.keyword, config)
    for t in (1, 2, 3):
        decoder.push(t)
    with pytest.raises(ValidationError, match="duration 0 at frame 4"):
        decoder.push(4)
    for t in (5, 6):
        with pytest.raises(ProtocolError, match="already finished"):
            decoder.push(t)

    decoder = StreamingDecoder(oracle, KeywordSpec("other", (7,)), DecodeConfig(mode="rnnt"))
    with pytest.raises(SidecarError):
        decoder.push(1)
    for t in (1, 2):
        with pytest.raises(ProtocolError, match="already finished"):
            decoder.push(t)


@pytest.mark.parametrize("mode,d_max", [("rnnt", 0), ("tdt", 3)])
def test_streaming_equals_offline_bitwise(mode, d_max):
    config = DecodeConfig(mode=mode, d_max=d_max)
    for seed in range(12):
        oracle = noisy_oracle(seed)
        kw = KeywordSpec("kw", (3, 7, 2))
        offline = decode_kws(oracle, kw, config, utt_id="u")

        decoder = StreamingDecoder(oracle, kw, config, utt_id="u")
        for t in range(1, oracle.num_frames + 1):
            decoder.push(t)
        online = decoder.finish()

        np.testing.assert_array_equal(offline.scores, online.scores)
        np.testing.assert_array_equal(offline.processed, online.processed)
        assert offline.columns_evaluated == online.columns_evaluated


def test_streaming_events_match_offline_replay():
    config = DecodeConfig(mode="rnnt", threshold_log=-8.0, refractory_frames=5)
    for seed in range(8):
        oracle = noisy_oracle(seed)
        kw = KeywordSpec("kw", (2, 5))
        decoder = StreamingDecoder(oracle, kw, config)
        pushed = []
        for t in range(1, oracle.num_frames + 1):
            pushed.extend(decoder.push(t))
        decoder.finish()
        stream = decode_kws(oracle, kw, config)
        assert pushed == detect_events(stream, config)


def test_streaming_file_backed_lattice():
    rng = np.random.default_rng(42)
    data = random_proper_lattice(rng, t_max=12, u_max=3)
    oracle = FileLatticeOracle(data)
    config = DecodeConfig(mode="rnnt")
    offline = decode_kws(oracle, data.keyword, config)
    decoder = StreamingDecoder(oracle, data.keyword, config)
    for t in range(1, oracle.num_frames + 1):
        decoder.push(t)
    online = decoder.finish()
    np.testing.assert_array_equal(offline.scores, online.scores)


def test_delta_dump_holds_processed_frames_in_order():
    oracle = noisy_oracle(3, d_max=3)
    keyword, config = KeywordSpec("kw", (3,)), DecodeConfig(mode="tdt", d_max=3)
    columns = delta_columns(dump_delta_matrix(oracle, keyword, config))
    stream = decode_kws(oracle, keyword, config)
    # One column per processed frame, in frame order; skipped frames get none.
    assert list(columns) == (np.flatnonzero(stream.processed) + 1).tolist()
    assert len(columns) == stream.columns_evaluated < oracle.num_frames
    for t, delta in columns.items():
        assert delta[0] == 0.0
        assert len(delta) == 2
        # score(t) = delta(t, U) + log_phi(t, U), bit for bit.
        log_phi = float(oracle.emission_grids([keyword], np.array([t]))[0, 1, 0, 1])
        assert delta[1] + log_phi == stream.scores[t - 1]


class RecordingOracle(EmissionOracle):
    """Forwards every query to ``inner`` and records each emission query as
    (the last frame delivered to the decoder, keywords, frames)."""

    def __init__(self, inner):
        self._inner = inner
        self.delivered = 0
        self.queries = []

    def __getattr__(self, name):
        if name == "_inner":
            raise AttributeError(name)
        return getattr(self._inner, name)

    num_frames = property(lambda self: self._inner.num_frames)
    d_max = property(lambda self: self._inner.d_max)
    frame_seconds = property(lambda self: self._inner.frame_seconds)

    def emission_grids(self, keywords, frames):
        self.queries.append((self.delivered, tuple(keywords), np.asarray(frames).tolist()))
        return self._inner.emission_grids(keywords, frames)


@pytest.mark.parametrize("synthetic", [True, False], ids=["synthetic", "lattice"])
@pytest.mark.parametrize("tdt", [False, True], ids=["rnnt", "tdt"])
def test_streaming_queries_each_landed_frame_once_and_never_ahead(synthetic, tdt):
    """Each landed frame costs one emission query, for that frame only, made
    once the frame is delivered; skipped frames cost none."""
    config = DecodeConfig(mode="tdt", d_max=3) if tdt else DecodeConfig(mode="rnnt")
    skipped = 0
    for seed in range(8):
        rng = np.random.default_rng(seed)
        if synthetic:
            inner, keywords = _synthetic_case(rng, config.d_max)
        else:
            inner, keywords = _lattice_case(rng, config.d_max, tie_heavy=False)
        keyword = keywords[-1]
        oracle = RecordingOracle(inner)
        decoder = StreamingDecoder(oracle, keyword, config)
        assert oracle.queries == []
        for t in range(1, oracle.num_frames + 1):
            oracle.delivered = t
            decoder.push(t)
        stream = decoder.finish()
        landed = (np.flatnonzero(stream.processed) + 1).tolist()
        assert oracle.queries == [(t, (keyword,), [t]) for t in landed]
        assert stream.scores.tobytes() == decode_kws(inner, keyword, config).scores.tobytes()
        skipped += oracle.num_frames - len(landed)
    assert (skipped > 0) == tdt


def _peak_events_reference(stream, refractory_frames):
    """peak_events as a walk over every frame, finite or not."""
    scores = stream.scores
    n = len(scores)
    suppressed = np.zeros(n, dtype=bool)
    events = []
    for idx in np.lexsort((np.arange(n), -scores)):
        score = float(scores[idx])
        if suppressed[idx] or np.isinf(score):
            continue
        events.append(DetectionEvent(stream.keyword, int(idx) + 1, score))
        suppressed[max(0, idx - refractory_frames) : idx + refractory_frames + 1] = True
    return sorted(events, key=lambda e: e.frame)


TIE_VALUES = np.float32([0.0, np.log(0.5), np.log(0.25), -np.inf])


def _lattice_case(rng, d_max, tie_heavy):
    """A random proper lattice, optionally quantized to a few log values, with
    some -inf entries; returns (oracle, keywords)."""
    data = random_proper_lattice(rng, t_max=30, u_max=4, d_max=d_max)
    for grid in (data.log_y, data.log_phi):
        if tie_heavy:
            grid[...] = rng.choice(TIE_VALUES, size=grid.shape)
        grid[rng.random(grid.shape) < 0.1] = -np.inf
    return FileLatticeOracle(data), [data.keyword] * int(rng.integers(1, 3))


def _synthetic_case(rng, d_max):
    """A SyntheticOracle whose timeline plants some of several keywords of
    different lengths; returns (oracle, keywords)."""
    vocab = 9
    keywords = [
        KeywordSpec(f"kw{k}", tuple(rng.integers(1, vocab + 1, rng.integers(1, 5)).tolist()))
        for k in range(int(rng.integers(1, 5)))
    ]
    num_frames = int(rng.integers(1, 50))
    segments, t = [], 1
    while t <= num_frames:
        if rng.random() < 0.3:
            tokens = keywords[rng.integers(len(keywords))].tokens
        else:
            tokens = (int(rng.integers(1, vocab + 1)),)
        for token in tokens:
            if t > num_frames:
                break
            duration = int(min(rng.integers(1, 4), num_frames - t + 1))
            segments.append((token, t, duration))
            t += duration + int(rng.integers(0, 2))
    config = SyntheticJoinerConfig(
        vocab_size=vocab,
        **columns(segments, num_frames),
        epsilon=float(rng.choice([0.0, 0.3])),  # 0.0 gives -inf rows
        d_max=d_max,
        # Below 1/(d_max+1) the argmax duration is 0, which exercises the
        # zero-duration policy.
        duration_concentration=float(rng.choice([1.0, 0.5, 0.1])),
    )
    return SyntheticOracle(config), keywords


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    synthetic=st.booleans(),
    tie_heavy=st.booleans(),
    tdt=st.booleans(),
    cap=st.integers(1, 4),
    policy=st.sampled_from(["clamp", "error"]),
    threshold_log=st.sampled_from([NEG_INF, -8.0, -3.0, 0.0]),
    refractory=st.sampled_from([0, 1, 3, 34]),
)
def test_shared_hop_decode_equals_separate_streaming_decodes(
    seed, synthetic, tie_heavy, tdt, cap, policy, threshold_log, refractory
):
    rng = np.random.default_rng(seed)
    d_max = int(rng.integers(1, 5)) if tdt else 0
    if synthetic:
        oracle, keywords = _synthetic_case(rng, d_max)
    else:
        oracle, keywords = _lattice_case(rng, d_max, tie_heavy)
    config = DecodeConfig(
        mode="tdt" if tdt else "rnnt",
        d_max=cap if tdt else 0,
        zero_duration_policy=policy,
        threshold_log=threshold_log,
        refractory_frames=refractory,
    )

    expected, expected_counters = [], SpeedCounters()
    try:
        for keyword in keywords:
            decoder = StreamingDecoder(oracle, keyword, config, "u", expected_counters)
            events = []
            for t in range(1, oracle.num_frames + 1):
                events.extend(decoder.push(t))
            expected.append((decoder.finish(), events))
    except ValidationError as exc:
        with pytest.raises(ValidationError) as raised:
            list(decode_keywords([(oracle, keywords, "u")], config))
        assert str(raised.value) == str(exc)
        return

    counters = SpeedCounters()
    (streams,) = decode_keywords([(oracle, keywords, "u")], config, counters)
    assert len(streams) == len(keywords)
    for stream, keyword, (reference, streamed_events) in zip(streams, keywords, expected):
        assert stream.keyword == keyword.name
        assert stream.scores.tobytes() == reference.scores.tobytes()
        assert stream.processed.tobytes() == reference.processed.tobytes()
        assert stream.columns_evaluated == reference.columns_evaluated
        assert detect_events(stream, config) == streamed_events
        peaks = peak_events(stream, refractory)
        assert peaks == peak_events(reference, refractory)
        assert peaks == _peak_events_reference(stream, refractory)
    assert counters.columns_evaluated == expected_counters.columns_evaluated
    assert counters.oracle_queries == expected_counters.oracle_queries


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    utterances=st.integers(1, 6),
    tdt=st.booleans(),
    chunk=st.sampled_from([1, 2, 3, 5, 64]),
)
def test_utterance_batches_equal_separate_streaming_decodes(seed, utterances, tdt, chunk):
    """Utterances of mixed T, each with zero to nine keywords of different
    widths (often more than a batch's lanes), decode bit for bit as one
    StreamingDecoder per pair, with the same counters, and no two streams
    share memory."""
    rng = np.random.default_rng(seed)
    d_max = int(rng.integers(1, 5)) if tdt else 0
    config = DecodeConfig(mode="tdt" if tdt else "rnnt", d_max=d_max)
    jobs = []
    for i in range(utterances):
        oracle, keywords = _synthetic_case(rng, d_max)
        picks = rng.integers(len(keywords), size=int(rng.integers(0, 10)))
        jobs.append((oracle, [keywords[k] for k in picks], f"u{i}"))

    expected_counters = SpeedCounters()
    expected = []
    for oracle, keywords, utt_id in jobs:
        for keyword in keywords:
            decoder = StreamingDecoder(oracle, keyword, config, utt_id, expected_counters)
            for t in range(1, oracle.num_frames + 1):
                decoder.push(t)
            expected.append(decoder.finish())

    counters = SpeedCounters()
    with mock.patch.object(kws.decoder, "_LANE_CHUNK", chunk):
        decoded = list(decode_keywords(jobs, config, counters))
    assert [len(streams) for streams in decoded] == [len(kw) for _, kw, _ in jobs]
    streams = [stream for utterance in decoded for stream in utterance]
    assert len(streams) == len(expected)
    for stream, reference in zip(streams, expected):
        assert (stream.utt_id, stream.keyword) == (reference.utt_id, reference.keyword)
        assert stream.frame_seconds == reference.frame_seconds
        assert stream.scores.tobytes() == reference.scores.tobytes()
        assert stream.processed.tobytes() == reference.processed.tobytes()
        assert stream.columns_evaluated == reference.columns_evaluated
    for i, a in enumerate(streams):
        for b in streams[i + 1 :]:
            assert not np.shares_memory(a.scores, b.scores)
            assert not np.shares_memory(a.processed, b.processed)
    assert counters.columns_evaluated == expected_counters.columns_evaluated
    assert counters.oracle_queries == expected_counters.oracle_queries


@st.composite
def raw_score_streams(draw):
    """A ScoreStream of T = 1..60 raw scores: quantized ties, -inf runs, +inf
    and NaN entries, or all -inf."""
    T = draw(st.integers(1, 60))
    values = st.one_of(
        st.sampled_from([0.0, -0.5, -1.0, -2.0, NEG_INF]),
        st.floats(-30.0, 0.0),
        st.sampled_from([np.inf, np.nan]),
    )
    scores = np.array(draw(st.lists(values, min_size=T, max_size=T)), dtype=np.float64)
    for _ in range(draw(st.integers(0, 3))):
        lo = draw(st.integers(0, T - 1))
        scores[lo : lo + draw(st.integers(1, T))] = NEG_INF
    if draw(st.integers(0, 9)) == 0:
        scores[:] = NEG_INF
    processed = np.isfinite(scores)
    return ScoreStream("u", "kw", 0.03, scores, processed, int(processed.sum()))


@settings(max_examples=400, deadline=None)
@given(raw_score_streams(), st.data())
def test_peak_events_on_raw_scores_equals_full_walk(stream, data):
    """The one-sort walk over finite frames equals the walk over every frame,
    whatever the refractory; +inf and NaN never become events and suppress
    nothing, as a skipped (-inf) frame. A refractory of T or more suppresses
    the whole stream, so the reference's numpy mask gets it capped at T."""
    T = len(stream.scores)
    refractory = data.draw(
        st.one_of(st.sampled_from([0, 1, T - 1, T, 10**20]), st.integers(0, 2 * T))
    )
    finite = np.isfinite(stream.scores)
    as_skipped = replace(stream, scores=np.where(finite, stream.scores, NEG_INF))
    events = peak_events(stream, refractory)
    assert events == _peak_events_reference(as_skipped, min(refractory, T))
    assert all(np.isfinite(e.log_score) for e in events)
    assert [e.frame for e in events] == sorted({e.frame for e in events})


@st.composite
def raw_score_blocks(draw):
    """A (K, T) block of raw scores, K = 1..6 and T = 1..40: quantized ties,
    -inf runs, +inf and NaN entries, and some rows all -inf."""
    K, T = draw(st.integers(1, 6)), draw(st.integers(1, 40))
    values = st.one_of(
        st.sampled_from([0.0, -0.5, -1.0, -2.0, NEG_INF]),
        st.floats(-30.0, 0.0),
        st.sampled_from([np.inf, np.nan]),
    )
    scores = np.array(draw(st.lists(values, min_size=K * T, max_size=K * T))).reshape(K, T)
    for k in range(K):
        if draw(st.integers(0, 4)) == 0:
            scores[k] = NEG_INF
        elif draw(st.booleans()):
            lo = draw(st.integers(0, T - 1))
            scores[k, lo : lo + draw(st.integers(1, T))] = NEG_INF
    return scores


@settings(max_examples=200, deadline=None)
@given(raw_score_blocks(), st.data())
def test_block_peak_picks_equal_full_walk_row_by_row(scores, data):
    """The round-wise NMS over a whole (K, T) block picks, in every row, the
    events of the walk over every frame of that row alone, sorted by row and
    frame, and peak_events is its one-row case. Non-finite entries are
    never picked; a refractory of T or more leaves one pick per row."""
    K, T = scores.shape
    refractory = data.draw(
        st.one_of(st.sampled_from([0, 1, T - 1, T, T + 1, 10**20]), st.integers(0, 2 * T))
    )
    before = scores.tobytes()
    rows, frames = _peak_picks(scores, refractory)
    assert scores.tobytes() == before
    assert list(zip(rows.tolist(), frames.tolist())) == sorted(zip(rows.tolist(), frames.tolist()))
    finite = np.isfinite(scores)
    as_skipped = np.where(finite, scores, NEG_INF)
    for k in range(K):
        stream = ScoreStream("u", "kw", 0.03, scores[k], finite[k], int(finite[k].sum()))
        want = _peak_events_reference(replace(stream, scores=as_skipped[k]), min(refractory, T))
        picked = frames[rows == k]
        assert [e.frame for e in want] == (picked + 1).tolist()
        assert [e.log_score for e in want] == scores[k, picked].tolist()
        assert peak_events(stream, refractory) == want
        if refractory >= T:
            assert len(picked) == (1 if finite[k].any() else 0)
    with pytest.raises(ValidationError):
        _peak_picks(scores, -1)


def _wide_keyword_case(rng, d_max):
    """A SyntheticOracle of ragged length that plants some of 1-12 keywords
    of 1 to 6 tokens; returns (oracle, keywords)."""
    vocab = 12
    keywords = [
        KeywordSpec(f"kw{k}", tuple(rng.integers(1, vocab + 1, rng.integers(1, 7)).tolist()))
        for k in range(int(rng.integers(1, 13)))
    ]
    num_frames = int(rng.integers(1, 40))
    segments, t = [], 1
    while t <= num_frames:
        tokens = keywords[rng.integers(len(keywords))].tokens if rng.random() < 0.4 else (
            int(rng.integers(1, vocab + 1)),)
        for token in tokens:
            if t > num_frames:
                break
            duration = int(min(rng.integers(1, 4), num_frames - t + 1))
            segments.append((token, t, duration))
            t += duration + int(rng.integers(0, 2))
    config = SyntheticJoinerConfig(
        vocab_size=vocab,
        **columns(segments, num_frames),
        epsilon=float(rng.choice([0.0, 0.3])),  # 0.0 gives -inf rows
        d_max=d_max,
        duration_concentration=0.9,
    )
    return SyntheticOracle(config), keywords


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), tdt=st.booleans())
def test_decode_over_many_lanes_equals_separate_streaming_decodes(seed, tdt):
    """More lanes than one sweep's 256, keywords of 1 to 6 tokens and ragged
    column counts: every sweep holds at most 256 lanes, a sweep closes only
    when the next utterance does not fit, so only the run's last is short by
    more than one utterance, and every lane decodes bit for bit as one
    StreamingDecoder per pair."""
    rng = np.random.default_rng(seed)
    d_max = int(rng.integers(1, 5)) if tdt else 0
    config = DecodeConfig(mode="tdt" if tdt else "rnnt", d_max=d_max)
    jobs, lanes = [], 0
    while lanes <= 700:
        oracle, keywords = _wide_keyword_case(rng, d_max)
        jobs.append((oracle, keywords, f"u{len(jobs)}"))
        lanes += len(keywords)

    widths = []
    sweep = kws.decoder._lane_columns

    def recorded(edges, *args):
        widths.append(edges.shape[3])
        return sweep(edges, *args)

    with mock.patch.object(kws.decoder, "_lane_columns", recorded):
        decoded = list(decode_keywords(jobs, config))
    # Whole utterances, in order, fill each sweep until the next does not fit.
    expected = [0]
    for _, keywords, _ in jobs:
        if expected[-1] + len(keywords) > 256:
            expected.append(0)
        expected[-1] += len(keywords)
    assert widths == expected and max(widths) <= 256
    for (oracle, keywords, utt_id), streams in zip(jobs, decoded, strict=True):
        assert len(streams) == len(keywords)
        for keyword, stream in zip(keywords, streams):
            decoder = StreamingDecoder(oracle, keyword, config, utt_id)
            for t in range(1, oracle.num_frames + 1):
                decoder.push(t)
            reference = decoder.finish()
            assert stream.scores.tobytes() == reference.scores.tobytes()
            assert stream.processed.tobytes() == reference.processed.tobytes()
            assert stream.columns_evaluated == reference.columns_evaluated


@pytest.mark.parametrize("synthetic", [True, False], ids=["synthetic", "lattice"])
@pytest.mark.parametrize("tdt", [False, True], ids=["rnnt", "tdt"])
def test_emission_grids_fill_out_bit_equal_to_their_block(synthetic, tdt):
    """``emission_grids(..., out=view)`` writes the block it would return
    into a strided view of a wider lane-slowest buffer, as a decoder's stage
    slot is, returns the view, and writes nothing outside it (the buffer is
    NaN elsewhere). Keyword sets of mixed widths, K = 0 and TDT frame sets
    are covered; a refused query writes nothing."""
    config = DecodeConfig(mode="tdt", d_max=3) if tdt else DecodeConfig(mode="rnnt")
    for seed in range(6):
        rng = np.random.default_rng(seed)
        if synthetic:
            oracle, keywords = _synthetic_case(rng, config.d_max or 3)
        else:
            oracle, keywords = _lattice_case(rng, config.d_max or 3, tie_heavy=True)
        frames = kws.decoder._hop_schedule(oracle, config)
        for query in (keywords, keywords[::-1], keywords[:1], []):
            block = oracle.emission_grids(query, frames)
            K, _, n, U1 = block.shape
            stage = np.full((K + 2, n + 3, 2, U1 + 2), np.nan, dtype=np.float32)
            inside = (slice(1, 1 + K), slice(1, 1 + n), slice(None), slice(2, None))
            out = stage[inside].transpose(0, 2, 1, 3)
            assert oracle.emission_grids(query, frames, out=out) is out
            assert out.tobytes() == block.tobytes()
            outside = np.ones(stage.shape, dtype=bool)
            outside[inside] = False
            assert np.isnan(stage[outside]).all()
        stage[...] = np.nan
        refused = [KeywordSpec("big", (99,))] if synthetic else [KeywordSpec("other", (7, 8))]
        for query, at in ((keywords, np.array([0])), (refused, frames)):
            with pytest.raises((ValidationError, SidecarError)):
                oracle.emission_grids(query, at, out=stage[:1, :1].transpose(0, 2, 1, 3))
        assert np.isnan(stage).all()


def _mixed_stage_jobs(rng, d_max):
    """24 utterances of 0 to 7 keywords of 1 to 4 tokens and 1 to 49 frames,
    synthetic and lattice in turn, then one of 70 keywords."""
    jobs = []
    for i in range(24):
        if i % 2:
            oracle, keywords = _lattice_case(rng, d_max, tie_heavy=False)
        else:
            oracle, keywords = _synthetic_case(rng, d_max)
        keywords = [keywords[k] for k in rng.integers(len(keywords), size=i * 5 % 8)]
        jobs.append((oracle, keywords, f"u{i}"))
    oracle, keywords = _synthetic_case(rng, d_max)
    wide = (oracle, [keywords[k] for k in rng.integers(len(keywords), size=70)], "wide")
    return jobs, wide


@pytest.mark.parametrize("mode", ["rnnt", "tdt"])
@pytest.mark.parametrize("stage", [1, 2, 64])
def test_staged_lanes_of_mixed_widths_equal_streaming_decodes(mode, stage):
    """Keyword widths and frame counts mix inside one stage and one batch,
    at ``_LANE_CHUNK`` 1, 2, 5 and 256, with and without an utterance of 70
    lanes: the stage holds ``_STAGE_LANES`` plus the widest utterance's
    lanes less one, every staged copy moves at most a stage of whole
    utterances, one made for want of room at least ``_STAGE_LANES`` lanes,
    and every lane decodes bit for bit as one StreamingDecoder."""
    rng = np.random.default_rng(29)
    config = DecodeConfig(mode=mode, d_max=3 if mode == "tdt" else 0)
    jobs, wide = _mixed_stage_jobs(rng, 3)
    expected = {}
    for oracle, keywords, utt_id in [*jobs, wide]:
        for keyword in keywords:
            decoder = StreamingDecoder(oracle, keyword, config, utt_id)
            for t in range(1, oracle.num_frames + 1):
                decoder.push(t)
            expected[utt_id, keyword] = decoder.finish()

    stages, copies = [], []  # copies: (lanes, whether the batch decodes)

    class RecordedBatch(kws.decoder._LaneBatch):
        def __init__(self, *args):
            super().__init__(*args)
            stages.append(self.stage.shape[0])
            self.decoding = False

        def _unstage(self):
            copies.append((self._staged, self.decoding))
            super()._unstage()

        def decode(self):
            self.decoding = True
            super().decode()
            self.decoding = False

    for chunk in (1, 2, 5, 256):
        for run in (jobs, [*jobs, wide]):
            stages.clear()
            copies.clear()
            with mock.patch.multiple(
                kws.decoder, _LANE_CHUNK=chunk, _STAGE_LANES=stage, _LaneBatch=RecordedBatch
            ):
                decoded = list(decode_keywords(run, config))
            widths = [len(keywords) for _, keywords, _ in run]
            lanes = max(min(sum(widths), chunk), max(widths))
            (S,) = stages
            assert S == min(lanes, stage + max(widths) - 1)
            staged = [n for n, _ in copies]
            assert sum(staged) == sum(widths) and max(staged) <= S
            assert all(n >= stage for n, decoding in copies if not decoding)
            if run is jobs and (stage, chunk) == (64, 256):
                assert copies == [(70, False), (14, True)]  # 84 lanes, a stage of 70
            for (_, keywords, utt_id), streams in zip(run, decoded, strict=True):
                for keyword, stream in zip(keywords, streams, strict=True):
                    reference = expected[utt_id, keyword]
                    assert stream.scores.tobytes() == reference.scores.tobytes()
                    assert stream.processed.tobytes() == reference.processed.tobytes()
                    assert stream.columns_evaluated == reference.columns_evaluated
