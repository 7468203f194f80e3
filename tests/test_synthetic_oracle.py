"""Synthetic joiner oracle: emission construction, normalization, greedy track."""

import dataclasses
import json
import math
import operator
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kws import (
    AsrConfig,
    BLANK_ID,
    CapabilityError,
    KeywordSpec,
    ModeError,
    NEG_INF,
    SyntheticJoinerConfig,
    SyntheticOracle,
    ValidationError,
    beam_search,
    greedy_search,
    load_lattice,
    save_lattice,
    snapshot,
)

# Shared hand-built timeline: V=9, T=10.
#   frames 2-3: token 3, frame 4: token 7, frames 6-8: token 2
#   gaps: 1, 5, 9, 10
ALIGNMENT = ((3, 2, 2), (7, 4, 1), (2, 6, 3))


def keyword_conditional_log_probs(oracle, keyword, t, u):
    """The full V+1 distribution behind the keyword-track node (t, u), built
    apart from the grids: the ideal symbol there is blank when position 1..u
    of a matched keyword occurrence covers frame t, else the covering token."""
    oracle._check_frame(t)
    m = int(_reference_positions(oracle.config, keyword)[t - 1])
    ideal = BLANK_ID if m and m <= u else int(oracle._content[t - 1])
    vec = np.full(oracle.vocab_size + 1, oracle._log_noise, dtype=np.float64)
    vec[ideal] = oracle._log_ideal
    return vec


def frame_rows(oracle, keyword, t):
    """Frame t's (log_y, log_phi) rows of ``keyword``: the one-keyword,
    one-frame block that ``StreamingDecoder`` queries, off its padding."""
    ((log_y, log_phi),) = keyword_grids(oracle.emission_grids([keyword], np.array([t])), [keyword])
    return log_y[0], log_phi[0]


def make_oracle(epsilon=0.0, d_max=0, concentration=1.0):
    cfg = SyntheticJoinerConfig(
        vocab_size=9,
        num_frames=10,
        alignment=ALIGNMENT,
        epsilon=epsilon,
        d_max=d_max,
        duration_concentration=concentration,
        seed=0,
    )
    return SyntheticOracle(cfg)


def test_config_rejects_overlapping_segments():
    with pytest.raises(ValidationError):
        SyntheticJoinerConfig(
            vocab_size=5,
            num_frames=10,
            alignment=((1, 2, 3), (2, 4, 2)),
            epsilon=0.0,
            d_max=0,
            duration_concentration=1.0,
            seed=0,
        )


def test_config_rejects_out_of_range_fields():
    with pytest.raises(ValidationError):
        SyntheticJoinerConfig(
            vocab_size=5, num_frames=10, alignment=((6, 1, 2),), epsilon=0.0,
            d_max=0, duration_concentration=1.0, seed=0,
        )
    with pytest.raises(ValidationError):
        SyntheticJoinerConfig(
            vocab_size=5, num_frames=10, alignment=(), epsilon=1.0,
            d_max=0, duration_concentration=1.0, seed=0,
        )
    with pytest.raises(ValidationError):
        SyntheticJoinerConfig(
            vocab_size=5, num_frames=3, alignment=((1, 2, 5),), epsilon=0.0,
            d_max=0, duration_concentration=1.0, seed=0,
        )
    for frame_seconds in (math.nan, math.inf):
        with pytest.raises(ValidationError):
            SyntheticJoinerConfig(
                vocab_size=5, num_frames=10, alignment=(), frame_seconds=frame_seconds
            )


def test_config_rejects_a_negative_seed():
    with pytest.raises(ValidationError, match="seed must be >= 0"):
        SyntheticJoinerConfig(vocab_size=5, num_frames=10, alignment=(), seed=-1)


def test_config_json_round_trip():
    cfg = make_oracle(epsilon=0.25, d_max=4).config
    for config in (cfg, dataclasses.replace(cfg, alignment=())):
        again = SyntheticJoinerConfig.from_json_dict(json.loads(json.dumps(config.to_json_dict())))
        assert again == config


def test_point_mass_on_aligned_token():
    oracle = make_oracle(epsilon=0.0)
    kw = KeywordSpec("kw", (3, 7))
    # Frame 2 starts the occurrence: next keyword token matches the segment.
    log_y, log_phi = frame_rows(oracle, kw, 2)
    assert log_y[0] == 0.0
    assert log_phi[0] == NEG_INF
    # Token consumed: the rest of the segment should be blank.
    log_y, log_phi = frame_rows(oracle, kw, 3)
    assert log_phi[1] == 0.0
    assert log_y[1] == NEG_INF
    # Frame 4 carries the second keyword token.
    log_y, _ = frame_rows(oracle, kw, 4)
    assert log_y[1] == 0.0


def test_point_mass_in_gap_is_blank():
    oracle = make_oracle(epsilon=0.0)
    kw = KeywordSpec("kw", (3, 7))
    log_y, log_phi = frame_rows(oracle, kw, 5)
    for u in (0, 1, 2):
        assert log_phi[u] == 0.0
    # The y row has no entry at u = U = 2: no keyword token follows.
    assert log_y.tolist() == [NEG_INF, NEG_INF]


def test_non_keyword_segment_starves_both_tracks():
    oracle = make_oracle(epsilon=0.0)
    kw = KeywordSpec("kw", (3, 7))
    # Frame 6 belongs to the token-2 segment: ideal symbol is neither the
    # next keyword token nor blank.
    log_y, log_phi = frame_rows(oracle, kw, 6)
    assert log_y[0] == NEG_INF
    assert log_phi[0] == NEG_INF


def test_half_noise_mixing_pinned_values():
    # epsilon=0.5, V=9: aligned symbol 0.5 + 0.5/10 = 0.55, every other 0.05.
    oracle = make_oracle(epsilon=0.5)
    probs = np.exp(keyword_conditional_log_probs(oracle, KeywordSpec("kw", (3, 7)), 2, 0))
    assert probs.shape == (10,)
    assert probs[3] == pytest.approx(0.55, abs=1e-12)
    others = np.delete(probs, 3)
    np.testing.assert_allclose(others, 0.05, atol=1e-12)
    assert probs.sum() == pytest.approx(1.0, abs=1e-6)


def test_queries_are_deterministic():
    a = make_oracle(epsilon=0.3)
    b = make_oracle(epsilon=0.3)
    kw = KeywordSpec("kw", (3, 7, 2))
    for t in range(1, 11):
        ra, pa = frame_rows(a, kw, t)
        rb, pb = frame_rows(b, kw, t)
        np.testing.assert_array_equal(ra, rb)
        np.testing.assert_array_equal(pa, pb)


def test_out_of_bounds_queries_rejected():
    oracle = make_oracle()
    kw = KeywordSpec("kw", (3, 7))
    with pytest.raises(ValidationError):
        oracle.emission_grids([kw], np.array([0]))
    with pytest.raises(ValidationError):
        oracle.emission_grids([kw], np.array([11]))
    with pytest.raises(ValidationError):
        oracle.emission_grids([kw], np.array([1, 11]))


def test_generative_track_follows_emission_progress():
    oracle = make_oracle(epsilon=0.0)
    # Before any emission, frame 2's ideal symbol is its segment token.
    vec = oracle.token_log_prob_rows(2, [[]])[0]
    assert vec[3] == 0.0
    # Once the first segment's token is consumed, frame 2 turns to blank.
    vec = oracle.token_log_prob_rows(2, [[3]])[0]
    assert vec[BLANK_ID] == 0.0
    # Third segment still pending after two emissions.
    vec = oracle.token_log_prob_rows(6, [[3, 7]])[0]
    assert vec[2] == 0.0


def test_duration_distribution_point_mass():
    oracle = make_oracle(epsilon=0.0, d_max=4, concentration=1.0)
    vec = np.exp(oracle.duration_log_probs(2))
    assert vec.shape == (5,)
    assert vec[2] == pytest.approx(1.0)  # segment duration 2
    vec = np.exp(oracle.duration_log_probs(6))
    assert vec[3] == pytest.approx(1.0)  # segment duration 3
    vec = np.exp(oracle.duration_log_probs(5))
    assert vec[1] == pytest.approx(1.0)  # gap frames act as duration 1


def test_duration_cap_applies_to_long_segments():
    oracle = make_oracle(epsilon=0.0, d_max=2, concentration=1.0)
    vec = np.exp(oracle.duration_log_probs(6))
    assert vec[2] == pytest.approx(1.0)  # min(3, d_max=2)


def test_duration_smoothing_sums_to_one():
    # Concentration mass sits on the true duration; the remainder spreads
    # uniformly over the other d_max values of {0..d_max}.
    oracle = make_oracle(epsilon=0.0, d_max=4, concentration=0.7)
    vec = np.exp(oracle.duration_log_probs(6))
    assert vec[3] == pytest.approx(0.7, abs=1e-12)
    others = np.delete(vec, 3)
    np.testing.assert_allclose(others, 0.3 / 4, atol=1e-12)
    assert vec.sum() == pytest.approx(1.0, abs=1e-6)


def test_duration_queries_need_duration_track():
    oracle = make_oracle(d_max=0)
    with pytest.raises(ModeError):
        oracle.duration_log_probs(1)
    for track in (oracle.greedy_tokens, oracle.greedy_durations):
        with pytest.raises(ModeError):
            track()


def test_greedy_tokens_replay_planted_sequence():
    oracle = make_oracle(epsilon=0.0, d_max=4)
    tokens = oracle.greedy_tokens()
    frames = (np.flatnonzero(tokens != BLANK_ID) + 1).tolist()
    assert frames == [2, 4, 6]
    emitted = tokens[tokens != BLANK_ID].tolist()
    assert emitted == [3, 7, 2]
    # At epsilon 0 each emitted token is certain given the tokens before it.
    for n, t in enumerate(frames):
        assert oracle.token_log_prob_rows(t, [emitted[:n]])[0, emitted[n]] == 0.0


def test_greedy_tracks_match_explicit_argmax():
    oracle = make_oracle(epsilon=0.35, d_max=4, concentration=0.8)
    tokens, durations = _greedy_walk(oracle)
    assert oracle.greedy_tokens().tolist() == tokens
    assert oracle.greedy_durations().tolist() == durations
    assert tokens == [0, 3, 0, 7, 0, 2, 0, 0, 0, 0]
    assert durations == [1, 2, 2, 1, 1, 3, 3, 3, 1, 1]


def test_file_backed_refusals_for_generative_queries(tmp_path):
    oracle = make_oracle(epsilon=0.0, d_max=4)
    data = snapshot(oracle, KeywordSpec("kw", (3, 7)))
    path = save_lattice(data, tmp_path / "a.kwl")
    replay = load_lattice(path)
    with pytest.raises(CapabilityError):
        greedy_search(replay, AsrConfig())
    with pytest.raises(CapabilityError):
        beam_search(replay, 2, AsrConfig())
    with pytest.raises(CapabilityError):
        replay.vocab_size


@st.composite
def configs(draw):
    vocab = draw(st.integers(min_value=2, max_value=12))
    num_frames = draw(st.integers(min_value=1, max_value=14))
    segments = []
    t = 1
    while t <= num_frames and draw(st.booleans()):
        gap = draw(st.integers(min_value=0, max_value=2))
        start = t + gap
        if start > num_frames:
            break
        dur = draw(st.integers(min_value=1, max_value=min(3, num_frames - start + 1)))
        token = draw(st.integers(min_value=1, max_value=vocab))
        segments.append((token, start, dur))
        t = start + dur
    epsilon = draw(st.floats(min_value=0.0, max_value=0.95, allow_nan=False))
    d_max = draw(st.integers(min_value=0, max_value=5))
    concentration = draw(st.floats(min_value=0.05, max_value=1.0, allow_nan=False))
    return SyntheticJoinerConfig(
        vocab_size=vocab,
        num_frames=num_frames,
        alignment=tuple(segments),
        epsilon=epsilon,
        d_max=d_max,
        duration_concentration=concentration,
        seed=draw(st.integers(min_value=0, max_value=2**31)),
    )


@settings(max_examples=150, deadline=None)
@given(configs(), st.data())
def test_keyword_conditional_distribution_normalizes(cfg, data):
    oracle = SyntheticOracle(cfg)
    tokens = tuple(
        data.draw(st.integers(min_value=1, max_value=cfg.vocab_size))
        for _ in range(data.draw(st.integers(min_value=1, max_value=3)))
    )
    kw = KeywordSpec("kw", tokens)
    t = data.draw(st.integers(min_value=1, max_value=cfg.num_frames))
    u = data.draw(st.integers(min_value=0, max_value=len(tokens)))
    total = np.exp(keyword_conditional_log_probs(oracle, kw, t, u)).sum()
    assert total == pytest.approx(1.0, abs=1e-6)
    if cfg.d_max > 0:
        dur_total = np.exp(oracle.duration_log_probs(t)).sum()
        assert dur_total == pytest.approx(1.0, abs=1e-6)


@settings(max_examples=100, deadline=None)
@given(configs(), st.data())
def test_frame_rows_agree_with_scalar_queries(cfg, data):
    oracle = SyntheticOracle(cfg)
    tokens = (data.draw(st.integers(min_value=1, max_value=cfg.vocab_size)),)
    kw = KeywordSpec("kw", tokens)
    t = data.draw(st.integers(min_value=1, max_value=cfg.num_frames))
    y_row, phi_row = frame_rows(oracle, kw, t)
    for u in range(len(tokens) + 1):
        # The full V+1 distribution at (t, u), computed on its own path.
        vec = keyword_conditional_log_probs(oracle, kw, t, u).astype(np.float32)
        assert vec[BLANK_ID] == phi_row[u]
        if u < len(tokens):
            assert vec[tokens[u]] == y_row[u]


def _reference_grids(oracle, keyword):
    """Full-T f32 grids (log_y (T,U), log_phi (T,U+1)) of one keyword, as the
    oracle first built and cached them before indexing the queried frames,
    from the per-frame keyword positions of the reference scan."""
    U = keyword.num_tokens
    pos = _reference_positions(oracle.config, keyword)[:, None]
    consumed = (pos > 0) & (pos <= np.arange(U + 1))
    ideal = np.where(consumed, BLANK_ID, oracle._content[:, None])
    ideal32 = np.float32(oracle._log_ideal)
    noise32 = np.float32(oracle._log_noise)
    log_phi = np.where(ideal == BLANK_ID, ideal32, noise32)
    log_y = np.where(ideal[:, :U] == np.array(keyword.tokens), ideal32, noise32)
    return log_y, log_phi


def keyword_grids(block, keywords):
    """Each keyword's (log_y (n, w), log_phi (n, w + 1)) out of an emission
    block of shape (K, 2, n, U + 1), after checking that every entry off the
    keywords' lanes is 0.0 (log 1): the left padding of narrower keywords and
    log_y at u = U."""
    K, two, n, U1 = block.shape
    assert block.dtype == np.float32 and (K, two) == (len(keywords), 2)
    U = U1 - 1
    grids = []
    for k, keyword in enumerate(keywords):
        w = keyword.num_tokens
        padding = np.concatenate([block[k, :, :, : U - w].ravel(), block[k, 0, :, U]])
        assert padding.tobytes() == np.zeros_like(padding).tobytes()
        grids.append((block[k, 0, :, U - w : U], block[k, 1, :, U - w :]))
    return grids


def stacked_grids(oracle, keywords, frames):
    """The (K, 2, n, U + 1) emission block stacked from the one-keyword,
    one-frame blocks that ``StreamingDecoder`` queries, in the lane layout of
    ``emission_grids``."""
    U = max((keyword.num_tokens for keyword in keywords), default=0)
    block = np.zeros((len(keywords), 2, len(frames), U + 1), dtype=np.float32)
    for k, keyword in enumerate(keywords):
        w = keyword.num_tokens
        for i, t in enumerate(frames):
            block[k, 0, i, U - w : U], block[k, 1, i, U - w :] = frame_rows(oracle, keyword, int(t))
    return block


def _assert_same_bits(got, want):
    assert got.dtype == want.dtype == np.float32
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@st.composite
def planted_cases(draw):
    """(config, keywords, frames): keywords of 1-5 tokens, some repeated,
    planted in a timeline of filler segments and gaps."""
    V = draw(st.integers(2, 9))
    kw_tokens = draw(
        st.lists(st.lists(st.integers(1, V), min_size=1, max_size=5).map(tuple),
                 min_size=1, max_size=4)
    )
    pieces = draw(st.lists(st.one_of(st.sampled_from(kw_tokens), st.integers(1, V).map(lambda t: (t,))),
                           max_size=8))
    alignment, t = [], 1
    for piece in pieces:
        t += draw(st.integers(0, 2))
        for token in piece:
            duration = draw(st.integers(1, 3))
            alignment.append((token, t, duration))
            t += duration
    num_frames = t - 1 + draw(st.integers(1, 3))
    # Subnormal epsilon leaves a noise mass of exactly 0, so log-noise -inf.
    epsilon = draw(st.sampled_from([0.0, 5e-324, 0.1, 0.5, 0.9]))
    cfg = SyntheticJoinerConfig(
        vocab_size=V, num_frames=num_frames, alignment=tuple(alignment), epsilon=epsilon
    )
    keywords = [KeywordSpec(f"k{i}", tokens) for i, tokens in enumerate(kw_tokens)]
    keywords += draw(st.lists(st.sampled_from(keywords), max_size=3))  # repeats
    frames = draw(
        st.one_of(
            st.just([]),
            st.integers(1, num_frames).map(lambda f: [f]),
            st.lists(st.integers(1, num_frames), max_size=3 * num_frames),
            st.just(list(range(1, num_frames + 1))),
        )
    )
    return cfg, keywords, np.array(frames, dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(planted_cases())
def test_emission_grids_equal_full_grid_reference(case):
    """All keywords at the queried frames at once, bit for bit (dtype and
    -inf included) the reference grids indexed at those frames; the
    one-keyword grids and the stacked one-frame blocks that streaming
    decodes query are the same formula."""
    cfg, keywords, frames = case
    oracle = SyntheticOracle(cfg)
    block = oracle.emission_grids(keywords, frames)
    assert block.shape == (len(keywords), 2, len(frames), max(k.num_tokens for k in keywords) + 1)
    # The block equals the stacked one-frame blocks, padding included.
    stacked = stacked_grids(oracle, keywords, frames)
    _assert_same_bits(block, stacked)
    grids = keyword_grids(block, keywords)
    for keyword, (log_y, log_phi) in zip(keywords, grids):
        ref_y, ref_phi = _reference_grids(oracle, keyword)
        _assert_same_bits(log_y, ref_y[frames - 1])
        _assert_same_bits(log_phi, ref_phi[frames - 1])
        ((one_y, one_phi),) = keyword_grids(oracle.emission_grids([keyword], frames), [keyword])
        _assert_same_bits(one_y, ref_y[frames - 1])
        _assert_same_bits(one_phi, ref_phi[frames - 1])
        ((stack_y, stack_phi),) = keyword_grids(
            stacked_grids(oracle, [keyword], frames), [keyword]
        )
        _assert_same_bits(stack_y, ref_y[frames - 1])
        _assert_same_bits(stack_phi, ref_phi[frames - 1])


def test_emission_grids_reject_tokens_above_vocab_and_bad_frames():
    oracle = make_oracle()
    fine = KeywordSpec("fine", (3, 7))
    frames = np.array([1, 2, 3])
    with pytest.raises(ValidationError, match="vocab_size"):
        oracle.emission_grids([fine, KeywordSpec("big", (3, 10))], frames)
    with pytest.raises(ValidationError):
        oracle.emission_grids([fine], np.array([0, 2]))
    with pytest.raises(ValidationError):
        oracle.emission_grids([fine], np.array([11]))
    for empty in (oracle.emission_grids([], frames), stacked_grids(oracle, [], frames)):
        assert empty.shape == (0, 2, len(frames), 1) and empty.dtype == np.float32


# Reference forms: the per-segment fill and the per-keyword scan the oracle
# was first built with, before its loop-free construction and shared scan.


def _reference_timeline(cfg):
    """Per-frame covering token, segment ordinal and ideal duration, one
    segment at a time."""
    T = cfg.num_frames
    content = np.zeros(T, dtype=np.int64)
    seg_ord = np.zeros(T, dtype=np.int64)
    seg_dur = np.zeros(T, dtype=np.int64)
    segments = sorted(cfg.alignment, key=lambda s: s[1])
    for ordinal, (token, start, duration) in enumerate(segments, start=1):
        sl = slice(start - 1, start - 1 + duration)
        content[sl] = token
        seg_ord[sl] = ordinal
        seg_dur[sl] = duration
    ideal = np.where(seg_ord == 0, 1, np.minimum(seg_dur, cfg.d_max))
    return content, seg_ord, ideal


def _reference_duration_vector(cfg, ideal):
    gamma, d_max = cfg.duration_concentration, cfg.d_max
    with np.errstate(divide="ignore"):
        vec = np.full(d_max + 1, np.log((1.0 - gamma) / d_max), dtype=np.float64)
    vec[ideal] = math.log(gamma)
    return vec


def _reference_positions(cfg, keyword):
    """Per-frame keyword positions from one scan of the segments per keyword."""
    if any(t > cfg.vocab_size for t in keyword.tokens):
        raise ValidationError(
            f"keyword {keyword.name!r} has token-ids above vocab_size {cfg.vocab_size}"
        )
    key, U = keyword.tokens, keyword.num_tokens
    toks = tuple(token for token, _, _ in sorted(cfg.alignment, key=lambda s: s[1]))
    seg_pos = [0] * (len(toks) + 1)
    i = 0
    while key[0] in toks[i:]:
        i = toks.index(key[0], i)
        if toks[i : i + U] == key:
            seg_pos[i + 1 : i + 1 + U] = range(1, U + 1)
            i += U
        else:
            i += 1
    return np.array(seg_pos, dtype=np.int64)[_reference_timeline(cfg)[1]]


def scanned_positions(oracle, keywords):
    """(K, T) keyword position of every frame, from the oracle's one scan of
    its segments for the whole keyword set."""
    return oracle._segment_positions(oracle._rows(keywords))[:, oracle._seg_ord]


def _assert_matches_reference_forms(cfg, keywords, frames):
    oracle = SyntheticOracle(cfg)
    content, seg_ord, ideal = _reference_timeline(cfg)
    assert oracle._content.tobytes() == content.tobytes()
    assert oracle._seg_ord.tobytes() == seg_ord.tobytes()
    if cfg.d_max > 0:
        vectors = [_reference_duration_vector(cfg, d) for d in range(cfg.d_max + 1)]
        table = np.array([int(np.argmax(vec)) for vec in vectors], dtype=np.int64)
        greedy = oracle.greedy_durations()
        assert greedy.dtype == np.int64
        assert greedy.tobytes() == table[ideal].tobytes()
        for t in range(1, cfg.num_frames + 1):
            vec = vectors[ideal[t - 1]]
            got = oracle.duration_log_probs(t)
            assert got.dtype == np.float64 and got.tobytes() == vec.tobytes()
            got[...] = 0.0  # a caller's copy: later queries stay intact
        assert oracle.duration_log_probs(1).tobytes() == vectors[ideal[0]].tobytes()
    # _reference_grids reads the config, content and log-probs of its oracle
    # argument; the content comes from the reference forms.
    reference = SimpleNamespace(
        config=cfg,
        _content=content,
        _log_ideal=oracle._log_ideal,
        _log_noise=oracle._log_noise,
    )
    # The per-frame keyword positions of the scan that every keyword of a
    # query shares, and of a one-keyword query's scan.
    shared = scanned_positions(oracle, keywords)
    grids = keyword_grids(oracle.emission_grids(keywords, frames), keywords)
    for keyword, scanned, (log_y, log_phi) in zip(keywords, shared, grids):
        positions = _reference_positions(cfg, keyword)
        assert scanned.tobytes() == positions.tobytes()
        assert scanned_positions(oracle, [keyword])[0].tobytes() == positions.tobytes()
        ref_y, ref_phi = _reference_grids(reference, keyword)
        _assert_same_bits(log_y, ref_y[frames - 1])
        _assert_same_bits(log_phi, ref_phi[frames - 1])
        for t in range(1, cfg.num_frames + 1):
            row_y, row_phi = frame_rows(oracle, keyword, t)
            _assert_same_bits(row_y, ref_y[t - 1])
            _assert_same_bits(row_phi, ref_phi[t - 1])
    return oracle


@settings(max_examples=300, deadline=None)
@given(
    planted_cases(),
    st.integers(0, 5),
    st.sampled_from([1.0, 0.7, 0.3, 0.1]),
    st.randoms(use_true_random=False),
)
def test_oracle_matches_per_segment_fill_and_per_keyword_scan(case, d_max, gamma, rnd):
    """Loop-free timeline, closed-form duration track and one keyword scan
    per query equal the per-segment and per-keyword forms bit for bit, whatever
    the order the alignment lists its segments in."""
    cfg, keywords, frames = case
    alignment = list(cfg.alignment)
    rnd.shuffle(alignment)
    cfg = SyntheticJoinerConfig(
        vocab_size=cfg.vocab_size,
        num_frames=cfg.num_frames,
        alignment=tuple(alignment),
        epsilon=cfg.epsilon,
        d_max=d_max,
        duration_concentration=gamma,
    )
    _assert_matches_reference_forms(cfg, keywords, frames)


def _timeline(tokens, gap=0):
    """Segments of duration 2 for ``tokens``, ``gap`` frames apart, between a
    leading gap of that length and a trailing gap one frame longer."""
    alignment, t = [], 1 + gap
    for token in tokens:
        alignment.append((token, t, 2))
        t += 2 + gap
    return SyntheticJoinerConfig(
        vocab_size=9, num_frames=t + gap, alignment=tuple(alignment), d_max=3
    )


@pytest.mark.parametrize(
    "tokens,keywords,positions",
    [
        # Self-overlapping: the first two segments match, the third is left.
        ((1, 1, 1), [(1, 1)], [[1, 2, 0]]),
        # Keywords that share a first token each keep their own matches.
        ((1, 2, 1, 3, 1, 2), [(1, 2), (1, 3), (1,)], [[1, 2, 0, 0, 1, 2], [0, 0, 1, 2, 0, 0],
                                                      [1, 0, 1, 0, 1, 0]]),
        # A keyword absent from the alignment, and one cut off by its end.
        ((4, 5, 6), [(7, 8), (6, 7)], [[0, 0, 0], [0, 0, 0]]),
        # A keyword spanning the whole alignment.
        ((3, 1, 4, 1), [(3, 1, 4, 1), (1, 4)], [[1, 2, 3, 4], [0, 1, 2, 0]]),
        # Repeated keywords in one query, and no segments at all.
        ((2, 2), [(2,), (2,), (2, 2)], [[1, 1], [1, 1], [1, 2]]),
        ((), [(5,)], [[]]),
    ],
)
@pytest.mark.parametrize("gap", [0, 1])
def test_keyword_scan_cases(tokens, keywords, positions, gap):
    specs = [KeywordSpec(f"k{i}", key) for i, key in enumerate(keywords)]
    cfg = _timeline(tokens, gap)
    frames = np.arange(1, cfg.num_frames + 1)
    oracle = _assert_matches_reference_forms(cfg, specs, frames)
    per_frame = np.zeros((len(specs), cfg.num_frames), dtype=np.int64)
    for k, segment_positions in enumerate(positions):
        for j, m in enumerate(segment_positions):
            start = 1 + gap + j * (2 + gap)
            per_frame[k, start - 1 : start + 1] = m
    assert scanned_positions(oracle, specs).tolist() == per_frame.tolist()
    for keyword, want in zip(specs, per_frame):
        assert _reference_positions(cfg, keyword).tolist() == want.tolist()


def test_keyword_scan_vocab_error_names_the_keyword():
    oracle = make_oracle()
    fine, big = KeywordSpec("fine", (3, 7)), KeywordSpec("big", (3, 10))
    message = "keyword 'big' has token-ids above vocab_size 9"
    for call in (
        lambda: oracle.emission_grids([fine, big], np.array([1, 2])),
        lambda: oracle.emission_grids([big], np.array([1])),
        lambda: keyword_conditional_log_probs(oracle, big, 1, 0),
    ):
        with pytest.raises(ValidationError) as raised:
            call()
        assert str(raised.value) == message
    with pytest.raises(ValidationError) as raised:
        _reference_positions(oracle.config, big)
    assert str(raised.value) == message
    # The failed query leaves nothing behind: the good keyword still answers.
    ((log_y, _),) = keyword_grids(oracle.emission_grids([fine], np.array([2])), [fine])
    assert log_y[0, 0] == 0.0


# The alignment validator as first written: one operator.index per value, a
# sort, and one walk over the segments in start order. Manifests handed it
# tuples of tuples; they now hand it the JSON lists as they are.


def _validate_alignment_per_entry(alignment, vocab_size, num_frames):
    converted = []
    for i, segment in enumerate(alignment):
        a, b, c = segment
        try:
            converted.append((operator.index(a), operator.index(b), operator.index(c)))
        except TypeError as exc:
            raise ValidationError(
                f"alignment entries must be integer triples; segment {i} is {segment!r}"
            ) from exc
    last_end = 0
    for token, start, duration in sorted(converted, key=lambda s: s[1]):
        if not 1 <= token <= vocab_size:
            raise ValidationError(f"segment token {token} outside [1, {vocab_size}]")
        if duration < 1:
            raise ValidationError("segment duration must be >= 1")
        if start < 1 or start + duration - 1 > num_frames:
            raise ValidationError(
                f"segment ({token},{start},{duration}) outside frames [1, {num_frames}]"
            )
        if start <= last_end:
            raise ValidationError("segments overlap")
        last_end = start + duration - 1
    return tuple(converted)


def _validation_outcome(validate):
    try:
        return "accepted", validate()
    except ValidationError as exc:
        return "ValidationError", str(exc)
    except ValueError:  # the per-entry walk's raw unpacking error
        return "ValueError", None


ODD_VALUES = st.one_of(
    st.sampled_from([0, -1, 2**62, 2**63 - 1, 2**63, 2**64, 2**70, -(2**63), -(2**70), 2**1100]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([4.0, 4.7, True, False, "4", "x", None, (1,), np.float64(2.0)]),
    st.integers(0, 40).map(np.int64),
    st.integers(0, 40).map(np.uint64),
)


@st.composite
def alignment_cases(draw):
    """(alignment, vocab_size, num_frames): a tiling with gaps, shuffled,
    then maybe shifted (overlaps, out of range), given odd values or entries
    of the wrong arity."""
    segments, t = [], 1
    for _ in range(draw(st.integers(0, 8))):
        t += draw(st.integers(0, 2))
        duration = draw(st.integers(1, 4))
        segments.append([draw(st.integers(1, 9)), t, duration])
        t += duration
    num_frames = max(1, t - 1 + draw(st.integers(-1, 2)))
    for _ in range(draw(st.integers(0, 2)) if segments else 0):
        i = draw(st.integers(0, len(segments) - 1))
        segments[i][draw(st.integers(0, 2))] += draw(st.integers(-4, 4))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2])) if segments else 0):
        i = draw(st.integers(0, len(segments) - 1))
        segments[i][draw(st.integers(0, 2))] = draw(ODD_VALUES)
    if segments and draw(st.integers(0, 9)) == 0:
        i = draw(st.integers(0, len(segments) - 1))
        segments[i] = segments[i][: draw(st.integers(0, 2))] or segments[i] + [1]
    segments = draw(st.permutations(segments))
    container = draw(st.sampled_from([tuple, list]))
    alignment = container(container(segment) for segment in segments)
    vocab_size = draw(st.sampled_from([9, 9, 1, 2**70]))
    num_frames = draw(st.sampled_from([num_frames, num_frames, 2**70, num_frames + 0.5]))
    return alignment, vocab_size, num_frames


@settings(max_examples=400, deadline=None)
@given(alignment_cases())
def test_alignment_validation_agrees_with_the_per_entry_walk(case):
    """Lists as a manifest gives them or tuples: the same accept/reject set
    and the same first message, picked in start order, except that an entry
    of the wrong arity is a ValidationError, not a raw unpacking error.
    Accepted alignments are tuples of Python-int triples. A non-integral
    num_frames is refused before the alignment is looked at."""
    alignment, vocab_size, num_frames = case
    if not isinstance(num_frames, int):
        got = _validation_outcome(
            lambda: SyntheticJoinerConfig(
                vocab_size=vocab_size, num_frames=num_frames, alignment=alignment
            )
        )
        assert got == ("ValidationError", f"num_frames must be an integer, got {num_frames!r}")
        return
    want = _validation_outcome(
        lambda: _validate_alignment_per_entry(alignment, vocab_size, num_frames)
    )
    got = _validation_outcome(
        lambda: SyntheticJoinerConfig(
            vocab_size=vocab_size, num_frames=num_frames, alignment=alignment
        ).alignment
    )
    if want[0] == "ValueError":
        assert got[0] == "ValidationError" and "integer triples" in got[1]
        return
    assert got == want
    if got[0] == "accepted":
        assert type(got[1]) is tuple
        assert all(type(seg) is tuple and len(seg) == 3 for seg in got[1])
        assert all(type(v) is int for seg in got[1] for v in seg)


@pytest.mark.parametrize("field", ["vocab_size", "num_frames", "d_max"])
@pytest.mark.parametrize("value", [26.5, 26.0, "26", None])
def test_size_fields_must_be_integers(field, value):
    sizes = {"vocab_size": 9, "num_frames": 10, "d_max": 0, field: value}
    with pytest.raises(ValidationError) as raised:
        SyntheticJoinerConfig(alignment=ALIGNMENT, **sizes)
    assert str(raised.value) == f"{field} must be an integer, got {value!r}"


def test_numpy_integer_sizes_are_stored_as_ints():
    cfg = SyntheticJoinerConfig(
        vocab_size=np.int64(9), num_frames=np.uint16(10), alignment=ALIGNMENT, d_max=np.int32(4)
    )
    assert [type(v) for v in (cfg.vocab_size, cfg.num_frames, cfg.d_max)] == [int, int, int]
    assert (cfg.vocab_size, cfg.num_frames, cfg.d_max) == (9, 10, 4)


def test_d_max_is_bounded_by_the_lattice_field():
    with pytest.raises(ValidationError, match="d_max must be in"):
        SyntheticJoinerConfig(vocab_size=9, num_frames=10, alignment=ALIGNMENT, d_max=65536)
    # At the bound the duration track costs one vector per query, not a
    # (d_max + 1)-squared table.
    cfg = SyntheticJoinerConfig(
        vocab_size=9, num_frames=10, alignment=ALIGNMENT, d_max=65535,
        duration_concentration=0.5,
    )
    oracle = SyntheticOracle(cfg)
    vec = oracle.duration_log_probs(6)
    assert vec.shape == (65536,) and int(np.argmax(vec)) == 3
    assert oracle.greedy_durations().tolist() == [1, 2, 2, 1, 1, 3, 3, 3, 1, 1]


def _greedy_walk(oracle):
    """(tokens, durations) of one greedy step per frame over frames 1..T: the
    argmax of ``token_log_prob_rows`` given the tokens emitted at earlier
    frames, and the argmax of ``duration_log_probs``."""
    tokens, durations, history = [], [], []
    for t in range(1, oracle.num_frames + 1):
        token = int(np.argmax(oracle.token_log_prob_rows(t, [history])[0]))
        tokens.append(token)
        durations.append(int(np.argmax(oracle.duration_log_probs(t, history))))
        if token != BLANK_ID:
            history.append(token)
    return tokens, durations


@settings(max_examples=300, deadline=None)
@given(planted_cases(), st.integers(0, 5), st.sampled_from([1.0, 0.7, 0.2, 0.1]))
def test_greedy_tracks_equal_the_argmax_walk(case, d_max, gamma):
    """The closed-form token and duration tracks and the tracks a snapshot
    stores equal an argmax walk of the token and duration distributions,
    one step per frame, with gaps, 1-frame segments and d_max 0-5 (0: no
    track at all)."""
    cfg, keywords, _ = case
    cfg = SyntheticJoinerConfig(
        vocab_size=cfg.vocab_size,
        num_frames=cfg.num_frames,
        alignment=cfg.alignment,
        epsilon=cfg.epsilon,
        d_max=d_max,
        duration_concentration=gamma,
    )
    oracle = SyntheticOracle(cfg)
    if d_max == 0:
        for track in (oracle.greedy_tokens, oracle.greedy_durations):
            with pytest.raises(ModeError):
                track()
        assert snapshot(oracle, keywords[0]).greedy_tokens is None
        return
    want_tokens, want_durations = _greedy_walk(oracle)
    data = snapshot(oracle, keywords[0])
    for tokens, durations in (
        (oracle.greedy_tokens(), oracle.greedy_durations()),
        (data.greedy_tokens, data.greedy_durations),
    ):
        assert tokens.tolist() == want_tokens
        assert durations.tolist() == want_durations
    assert oracle.greedy_tokens().dtype == oracle.greedy_durations().dtype == np.int64
    assert data.greedy_tokens.dtype == np.dtype("<u4")
    assert data.greedy_durations.dtype == np.dtype("<u2")
