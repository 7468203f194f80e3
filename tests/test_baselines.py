"""ASR decoding baselines: greedy, beam, keyword containment."""

import dataclasses
import heapq
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kws import (
    BLANK_ID,
    CapabilityError,
    DecodeConfig,
    EmissionOracle,
    Hypothesis,
    KeywordSpec,
    ModeError,
    SuiteGenSpec,
    SyntheticJoinerConfig,
    SyntheticOracle,
    ValidationError,
    beam_search,
    decode_keywords,
    decode_kws,
    gen_suite,
    greedy_search,
    keyword_hit,
    load_lattice,
    load_manifest,
    save_lattice,
    snapshot,
)
from kws import baselines, runner
from kws.baselines import _beam_searches, _greedy_searches, _require_generative
from kws.cli import main
from kws.runner import _asr_transcripts
from test_synthetic_oracle import columns


class ScriptedOracle(EmissionOracle):
    """Generative oracle with hand-set (possibly unnormalized) distributions.

    ``table[(t, history)]`` maps to a [blank, token1, token2, ...] probability
    row; missing entries fall back to blank-certain.
    """

    def __init__(self, num_frames, vocab, table):
        self._num_frames = num_frames
        self._vocab = vocab
        self._table = {k: np.asarray(v, dtype=np.float64) for k, v in table.items()}

    @property
    def num_frames(self):
        return self._num_frames

    @property
    def d_max(self):
        return 0

    @property
    def frame_seconds(self):
        return 0.03

    @property
    def is_generative(self):
        return True

    @property
    def vocab_size(self):
        return self._vocab

    def token_log_prob_rows(self, t, histories):
        rows = np.empty((len(histories), self._vocab + 1))
        for i, history in enumerate(histories):
            rows[i] = self._row(t, tuple(history))
        return rows

    def _row(self, t, history):
        row = self._table.get((t, history))
        if row is None:
            row = np.zeros(self._vocab + 1)
            row[0] = 1.0
        with np.errstate(divide="ignore"):
            return np.log(row)


# Frame 1 tempts greedy with token 1 (p=0.6) which dead-ends (blank 0.1);
# token 2 (p=0.45) continues blank-certain. Totals: greedy path 0.06, the
# token-2 path 0.45.
TRAP = ScriptedOracle(
    num_frames=2,
    vocab=2,
    table={
        (1, ()): [0.05, 0.6, 0.45],
        (1, (1,)): [0.1, 0.05, 0.05],
        (1, (2,)): [1.0, 0.0, 0.0],
        (2, (1,)): [1.0, 0.0, 0.0],
        (2, (2,)): [1.0, 0.0, 0.0],
    },
)


def synth_oracle(epsilon=0.0, d_max=0, num_frames=12):
    return SyntheticOracle(
        SyntheticJoinerConfig(
            vocab_size=9,
            **columns(((5, 2, 3), (2, 5, 3), (9, 8, 3)), num_frames),
            epsilon=epsilon,
            d_max=d_max,
            duration_concentration=1.0,
        )
    )


def random_generative(seed):
    rng = np.random.default_rng(seed)
    num_frames = int(rng.integers(3, 15))
    segments = []
    t = 1
    while t <= num_frames:
        dur = int(rng.integers(1, 4))
        dur = min(dur, num_frames - t + 1)
        if rng.random() < 0.7:
            segments.append((int(rng.integers(1, 8)), t, dur))
        t += dur
    return SyntheticOracle(
        SyntheticJoinerConfig(
            vocab_size=7,
            **columns(segments, num_frames),
            epsilon=float(rng.uniform(0.0, 0.8)),
            d_max=0,
            duration_concentration=1.0,
        )
    )


def test_greedy_transcribes_planted_sequence():
    hyp = greedy_search(synth_oracle())
    assert hyp.tokens == (5, 2, 9)
    assert hyp.emit_frames == (2, 5, 8)
    assert len(hyp.tokens) == len(hyp.emit_frames)


def test_greedy_tdt_skips_frames_and_keeps_tokens():
    class Counting(SyntheticOracle):
        def __init__(self, cfg):
            super().__init__(cfg)
            self.visited = set()

        def token_log_prob_rows(self, t, histories):
            self.visited.add(t)
            return super().token_log_prob_rows(t, histories)

    oracle = Counting(synth_oracle(d_max=4).config)
    hyp_rnnt = greedy_search(synth_oracle())
    hyp_tdt = greedy_search(oracle, 4)
    assert hyp_tdt.tokens == hyp_rnnt.tokens
    # Planted duration 3 everywhere; token emissions revisit their frame once.
    T = oracle.num_frames
    assert math.ceil(T / 4) <= len(oracle.visited) <= T
    assert len(oracle.visited) <= math.ceil(T / 3) + len(hyp_tdt.tokens)


def test_greedy_tdt_zero_duration_clamp_and_error():
    # Concentration 0.1 leaves the ideal duration 0.1 and each other value in
    # {0..4} 0.225, so the argmax duration (first of the ties) is 0.
    oracle = SyntheticOracle(
        dataclasses.replace(synth_oracle(d_max=4).config, duration_concentration=0.1)
    )
    assert all(
        int(np.argmax(oracle.duration_log_probs(t))) == 0
        for t in range(1, oracle.num_frames + 1)
    )
    hyp = greedy_search(oracle, 4)
    assert hyp.tokens == (5, 2, 9)
    assert hyp.emit_frames == (2, 5, 8)
    # Refusing a zero duration is the KWS decoder's policy; ASR greedy clamps.
    with pytest.raises(ValidationError):
        decode_kws(
            oracle,
            KeywordSpec("kw", (5, 2)),
            DecodeConfig(mode="tdt", d_max=4, zero_duration_policy="error"),
        )


def test_greedy_blank_everywhere_accumulates_blank_terms():
    oracle = SyntheticOracle(
        SyntheticJoinerConfig(
            vocab_size=5,
            **columns((), 6),
            epsilon=0.2,
            d_max=0,
            duration_concentration=1.0,
        )
    )
    hyp = greedy_search(oracle)
    assert hyp.tokens == ()
    expected = sum(float(oracle.token_log_prob_rows(t, [()])[0, 0]) for t in range(1, 7))
    assert hyp.log_prob == pytest.approx(expected, abs=1e-12)


def test_greedy_rejects_file_backed_oracle(tmp_path):
    oracle = synth_oracle()
    data = snapshot(oracle, KeywordSpec("kw", (5, 2)))
    replay = load_lattice(save_lattice(data, tmp_path / "x.kwl"))
    with pytest.raises(CapabilityError):
        greedy_search(replay)
    with pytest.raises(CapabilityError):
        beam_search(replay, 2)


def test_beam_recovers_from_greedy_trap():
    greedy = greedy_search(TRAP)
    assert greedy.tokens == (1,)
    assert greedy.log_prob == pytest.approx(math.log(0.06), abs=1e-9)

    results = beam_search(TRAP, 2)
    assert results[0].tokens == (2,)
    assert results[0].log_prob == pytest.approx(math.log(0.45), abs=1e-9)
    assert [h.log_prob for h in results] == sorted(
        (h.log_prob for h in results), reverse=True
    )


def test_beam_one_equals_greedy_on_trap():
    greedy = greedy_search(TRAP)
    (top,) = beam_search(TRAP, 1)
    assert top.tokens == greedy.tokens
    assert top.log_prob == pytest.approx(greedy.log_prob, abs=1e-12)


def test_beam_width_validation():
    with pytest.raises(ValidationError):
        beam_search(TRAP, 0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_beam_one_equals_greedy_property(seed):
    oracle = random_generative(seed)
    greedy = greedy_search(oracle)
    (top,) = beam_search(oracle, 1)
    assert top.tokens == greedy.tokens
    assert top.log_prob == pytest.approx(greedy.log_prob, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_beam_dominates_greedy_property(seed):
    oracle = random_generative(seed)
    greedy = greedy_search(oracle)
    results = beam_search(oracle, 4)
    assert results[0].log_prob >= greedy.log_prob - 1e-12


def test_emission_cap_stops_nonblank_loops():
    looping = ScriptedOracle(
        num_frames=1,
        vocab=1,
        table={(1, tuple([1] * n)): [0.1, 0.9] for n in range(0, 50)},
    )
    hyp = greedy_search(looping)
    assert hyp.tokens == tuple([1] * 10)


def test_keyword_hit_contiguous_substring():
    hyp = Hypothesis(tokens=(1, 4, 7, 7, 2), log_prob=-1.0, emit_frames=(1, 2, 3, 5, 8))
    hit, span = keyword_hit(hyp, KeywordSpec("kw", (7, 7)))
    assert hit
    assert span == (3, 5)
    hit, span = keyword_hit(
        Hypothesis(tokens=(7, 1, 7), log_prob=-1.0, emit_frames=(1, 2, 3)),
        KeywordSpec("kw", (7, 7)),
    )
    assert not hit and span == ()
    hit, span = keyword_hit(
        Hypothesis(tokens=(), log_prob=0.0, emit_frames=()), KeywordSpec("kw", (7,))
    )
    assert not hit and span == ()


def test_keyword_hit_ignores_frame_values():
    a = Hypothesis(tokens=(3, 7, 2), log_prob=-1.0, emit_frames=(1, 2, 3))
    b = Hypothesis(tokens=(3, 7, 2), log_prob=-1.0, emit_frames=(9, 11, 30))
    kw = KeywordSpec("kw", (7, 2))
    assert keyword_hit(a, kw)[0] == keyword_hit(b, kw)[0] == True


def test_greedy_search_refuses_negative_d_max():
    with pytest.raises(ValidationError):
        greedy_search(synth_oracle(), -3)
    with pytest.raises(ValidationError):
        _greedy_searches([], -1)


# References kept here to prove the lockstep group searches bit-identical to
# them: the frame-by-frame greedy search, the per-lineage beam search, and the
# per-utterance beam search with batched rounds and a tuple-keyed heap prune.


def reference_greedy_search(oracle, d_max=0, cap=10):
    """Greedy search of one utterance, one token row at a time, emitting at
    most ``cap`` tokens a frame; TDT when ``d_max`` is above 0."""
    _require_generative(oracle)
    if d_max and not oracle.supports_tdt:
        raise ModeError("TDT greedy requested but oracle has no duration track")
    tokens = []
    emit_frames = []
    log_prob = 0.0
    t = 1
    while t <= oracle.num_frames:
        emitted = 0
        while True:
            vec = oracle.token_log_prob_rows(t, [tokens])[0]
            k = int(np.argmax(vec))
            if k == BLANK_ID or emitted >= cap:
                break
            log_prob += float(vec[k])
            tokens.append(k)
            emit_frames.append(t)
            emitted += 1
        log_prob += float(vec[BLANK_ID])
        if d_max:
            # The argmax duration, capped at d_max; a zero is 1.
            d = min(int(np.argmax(oracle.duration_log_probs(t, tokens))), d_max)
            t += max(d, 1)
        else:
            t += 1
    return Hypothesis(tuple(tokens), log_prob, tuple(emit_frames))


def reference_heap_beam_search(oracle, beam_width, cap=10):
    """Beam search of one utterance: one row query per expansion round, and
    ``heapq.nsmallest`` over (tokens, log_prob, emit_frames) tuples ranked by
    (-log_prob, tokens)."""
    rank = lambda lineage: (-lineage[1], lineage[0])  # noqa: E731
    beams = [((), 0.0, ())]
    for t in range(1, oracle.num_frames + 1):
        done = []
        alive = beams
        emitted = 0
        while alive:
            rows = oracle.token_log_prob_rows(t, [tokens for tokens, _, _ in alive])
            if emitted >= cap:
                best = [BLANK_ID] * len(alive)
            else:
                best = rows.argmax(axis=1).tolist()
            blank = rows[:, BLANK_ID].tolist()
            expand = []
            for i, (tokens, log_prob, frames) in enumerate(alive):
                if best[i] == BLANK_ID:
                    done.append((tokens, log_prob + blank[i], frames))
                else:
                    expand.append(i)
            if not expand:
                break
            scores = rows[expand, 1:]
            count = min(beam_width, scores.shape[1])
            top = np.argpartition(-scores, count - 1, axis=1)[:, :count]
            parent_lp = np.array([alive[i][1] for i in expand])
            child_lp = (parent_lp[:, None] + np.take_along_axis(scores, top, axis=1)).ravel()
            top_tokens = (top + 1).ravel().tolist()
            children = []
            for j, lp in enumerate(child_lp.tolist()):
                tokens, _, frames = alive[expand[j // count]]
                children.append((tokens + (top_tokens[j],), lp, frames + (t,)))
            alive = heapq.nsmallest(beam_width, children, key=rank)
            emitted += 1
        beams = heapq.nsmallest(beam_width, done, key=rank)
    results = [Hypothesis(*lineage) for lineage in beams]
    greedy = reference_greedy_search(oracle, cap=cap)
    if not results or results[0].log_prob < greedy.log_prob:
        results = [greedy] + [h for h in results if h.tokens != greedy.tokens]
        results = results[:beam_width]
    return results


def reference_beam_search(oracle, beam_width, merges=None, cap=10):
    """``merges``, when given, collects every token sequence that reached a
    frame's finished pool twice."""
    _require_generative(oracle)
    if beam_width < 1:
        raise ValidationError("beam_width must be >= 1")

    beams = {(): Hypothesis((), 0.0, ())}
    for t in range(1, oracle.num_frames + 1):
        done = {}
        alive = list(beams.values())
        emitted = 0
        while alive:
            children = []
            for hyp in alive:
                vec = oracle.token_log_prob_rows(t, [hyp.tokens])[0]
                k_best = int(np.argmax(vec))
                if k_best == BLANK_ID or emitted >= cap:
                    committed = Hypothesis(
                        hyp.tokens, hyp.log_prob + float(vec[BLANK_ID]), hyp.emit_frames
                    )
                    if merges is not None and committed.tokens in done:
                        merges.append(committed.tokens)
                    _reference_merge(done, committed)
                    continue
                for k in _reference_top_tokens(vec, beam_width):
                    children.append(
                        Hypothesis(
                            hyp.tokens + (k,),
                            hyp.log_prob + float(vec[k]),
                            hyp.emit_frames + (t,),
                        )
                    )
            children.sort(key=lambda h: (-h.log_prob, h.tokens))
            alive = children[:beam_width]
            emitted += 1
        beams = dict(
            sorted(done.items(), key=lambda kv: (-kv[1].log_prob, kv[0]))[:beam_width]
        )

    results = sorted(beams.values(), key=lambda h: (-h.log_prob, h.tokens))
    greedy = reference_greedy_search(oracle, cap=cap)
    if not results or results[0].log_prob < greedy.log_prob:
        results = [greedy] + [h for h in results if h.tokens != greedy.tokens]
        results = results[:beam_width]
    return results


def _reference_merge(pool, hyp):
    existing = pool.get(hyp.tokens)
    if existing is None:
        pool[hyp.tokens] = hyp
    else:
        merged_lp = float(np.logaddexp(existing.log_prob, hyp.log_prob))
        keep = existing if existing.log_prob >= hyp.log_prob else hyp
        pool[hyp.tokens] = Hypothesis(keep.tokens, merged_lp, keep.emit_frames)


def _reference_top_tokens(vec, count):
    token_scores = vec[1:]
    count = min(count, token_scores.size)
    idx = np.argpartition(-token_scores, count - 1)[:count]
    idx = idx[np.lexsort((idx, -token_scores[idx]))]
    return [int(i) + 1 for i in idx]


def bits(results):
    """Hypotheses as exact values: log-probs by their float bit pattern."""
    return [(h.tokens, h.emit_frames, float.hex(h.log_prob)) for h in results]


class TiedOracle(ScriptedOracle):
    """Generative oracle whose rows, drawn per (t, history) from a few
    probability levels including 0, hold -inf entries and exact ties."""

    LEVELS = np.array([0.0, 0.1, 0.25, 0.25, 0.5])

    def __init__(self, num_frames, vocab, seed, blank_bias):
        super().__init__(num_frames, vocab, {})
        self._seed = seed
        self._blank_bias = blank_bias

    def _row(self, t, history):
        rng = np.random.default_rng([self._seed, t, *history])
        row = rng.choice(self.LEVELS, size=self._vocab + 1)
        if rng.random() < self._blank_bias:
            row[BLANK_ID] = 1.0
        with np.errstate(divide="ignore"):
            return np.log(row)


@st.composite
def generative_oracles(draw):
    if draw(st.booleans()):
        return TiedOracle(
            num_frames=draw(st.integers(1, 8)),
            vocab=draw(st.integers(1, 12)),
            seed=draw(st.integers(0, 2**16)),
            blank_bias=draw(st.sampled_from([0.0, 0.3, 0.7])),
        )
    num_frames = draw(st.integers(1, 14))
    vocab = draw(st.integers(1, 30))
    segments = []
    t = 1
    while t <= num_frames:
        dur = min(draw(st.integers(1, 3)), num_frames - t + 1)
        if draw(st.booleans()):
            segments.append((draw(st.integers(1, vocab)), t, dur))
        t += dur
    epsilon = draw(st.sampled_from([0.0, 0.0, 0.3, 0.8]) | st.floats(0.0, 0.8))
    return SyntheticOracle(
        SyntheticJoinerConfig(
            vocab_size=vocab, **columns(segments, num_frames), epsilon=epsilon
        )
    )


@settings(max_examples=200, deadline=None)
@given(
    oracle=generative_oracles(),
    beam_width=st.sampled_from([1, 2, 3, 5, 10]),
    cap=st.sampled_from([1, 2, 10]),
)
@example(oracle=TRAP, beam_width=1, cap=10)
@example(oracle=TRAP, beam_width=2, cap=10)
@example(oracle=TRAP, beam_width=2, cap=1)
def test_batched_beam_equals_scalar_reference(oracle, beam_width, cap):
    merges = []
    expected = reference_beam_search(oracle, beam_width, merges, cap)
    with mock.patch.object(baselines, "MAX_SYMBOLS_PER_FRAME", cap):
        assert bits(beam_search(oracle, beam_width)) == bits(expected)
    # Why the batched search has no merge step: no lineage of a beam is a
    # prefix of another, so no token sequence is finished twice in a frame.
    assert merges == []


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    lengths=st.lists(st.integers(0, 6), min_size=0, max_size=12),
    data=st.data(),
)
def test_synthetic_token_rows_equal_stacked_rows(seed, lengths, data):
    oracle = random_generative(seed)
    t = data.draw(st.integers(1, oracle.num_frames))
    histories = [tuple(range(1, n + 1)) for n in lengths]
    rows = oracle.token_log_prob_rows(t, histories)
    assert rows.dtype == np.float64
    assert rows.shape == (len(histories), oracle.vocab_size + 1)
    # The same rows asked one history at a time.
    stacked = np.array([oracle.token_log_prob_rows(t, [h])[0] for h in histories])
    assert rows.tobytes() == stacked.reshape(rows.shape).tobytes()
    # The module docstring's formula: the covering segment's token while
    # fewer tokens than its ordinal have been emitted, else blank.
    cfg = oracle.config
    starts = itertools.accumulate(cfg.durations, initial=1)
    segments = [seg for seg in zip(cfg.tokens, starts, cfg.durations) if seg[0] != BLANK_ID]
    covering = [
        (ordinal, token)
        for ordinal, (token, start, duration) in enumerate(segments, start=1)
        if start <= t < start + duration
    ]
    eps, V = oracle.config.epsilon, oracle.vocab_size
    noise = eps / (V + 1)
    for row, history in zip(rows, histories):
        expected = np.full(V + 1, math.log(noise) if noise > 0 else -math.inf)
        ideal = BLANK_ID
        if covering and len(history) < covering[0][0]:
            ideal = covering[0][1]
        expected[ideal] = math.log(noise + (1.0 - eps))
        assert row.tobytes() == expected.tobytes()


def test_token_rows_reject_out_of_range_frames():
    oracle = synth_oracle()
    for t in (0, oracle.num_frames + 1):
        with pytest.raises(ValidationError):
            oracle.token_log_prob_rows(t, [()])


def _synthetic(draw, vocab, d_max=0):
    num_frames = draw(st.integers(1, 14))
    segments = []
    t = 1
    while t <= num_frames:
        dur = min(draw(st.integers(1, 3)), num_frames - t + 1)
        if draw(st.booleans()):
            segments.append((draw(st.integers(1, vocab)), t, dur))
        t += dur
    return SyntheticOracle(
        SyntheticJoinerConfig(
            vocab_size=vocab,
            **columns(segments, num_frames),
            epsilon=draw(st.sampled_from([0.0, 0.0, 0.3, 0.8]) | st.floats(0.0, 0.8)),
            d_max=d_max,
            duration_concentration=draw(st.sampled_from([1.0, 0.5, 0.3, 0.1])),
        )
    )


@st.composite
def oracle_groups(draw, tdt=False):
    """1-5 oracles of one vocabulary and mixed lengths: all synthetic (the
    group query's array override), all ``TiedOracle`` (history-dependent rows
    with -inf entries and exact ties, through the stacking default), or
    mixed. TDT groups are synthetic, with a duration track."""
    vocab = draw(st.integers(1, 12))
    size = draw(st.integers(1, 5))
    if tdt:
        return [_synthetic(draw, vocab, d_max=draw(st.integers(1, 4))) for _ in range(size)]
    kind = draw(st.sampled_from(["synthetic", "tied", "mixed"]))
    group = []
    for _ in range(size):
        if kind == "tied" or (kind == "mixed" and draw(st.booleans())):
            group.append(
                TiedOracle(
                    num_frames=draw(st.integers(1, 8)),
                    vocab=vocab,
                    seed=draw(st.integers(0, 2**16)),
                    blank_bias=draw(st.sampled_from([0.0, 0.3, 0.7])),
                )
            )
        else:
            group.append(_synthetic(draw, vocab))
    return group


@settings(max_examples=150, deadline=None)
@given(
    group=oracle_groups(),
    beam_width=st.sampled_from([1, 2, 3, 10]),
    cap=st.sampled_from([1, 2, 10]),
)
def test_group_beam_equals_per_utterance_references(group, beam_width, cap):
    expected = [bits(reference_heap_beam_search(o, beam_width, cap)) for o in group]
    with mock.patch.object(baselines, "MAX_SYMBOLS_PER_FRAME", cap):
        assert [bits(r) for r in _beam_searches(group, beam_width)] == expected
        # The same with the union guard handed the group's greedy transcripts.
        greedy = _greedy_searches(group)
        assert [bits(r) for r in _beam_searches(group, beam_width, greedy)] == expected
        assert [bits(beam_search(o, beam_width)) for o in group] == expected


@settings(max_examples=150, deadline=None)
@given(group=oracle_groups(), cap=st.sampled_from([1, 2, 10]))
def test_group_greedy_equals_frame_by_frame_reference(group, cap):
    expected = [bits([reference_greedy_search(o, 0, cap)]) for o in group]
    with mock.patch.object(baselines, "MAX_SYMBOLS_PER_FRAME", cap):
        assert [bits([h]) for h in _greedy_searches(group)] == expected


@settings(max_examples=150, deadline=None)
@given(group=oracle_groups(tdt=True), d_max=st.integers(1, 5), cap=st.sampled_from([1, 2, 10]))
def test_group_tdt_greedy_equals_frame_by_frame_reference(group, d_max, cap):
    expected = [bits([reference_greedy_search(o, d_max, cap)]) for o in group]
    with mock.patch.object(baselines, "MAX_SYMBOLS_PER_FRAME", cap):
        assert [bits([h]) for h in _greedy_searches(group, d_max)] == expected


def test_group_searches_refuse_mixed_vocabularies_and_accept_empty_groups():
    group = [synth_oracle(), random_generative(3)]  # vocab 9 and 7
    with pytest.raises(ValidationError):
        _greedy_searches(group)
    with pytest.raises(ValidationError):
        _beam_searches(group, 2)
    assert _greedy_searches([]) == []
    assert _beam_searches([], 2) == []


@settings(max_examples=60, deadline=None)
@given(group=oracle_groups(), data=st.data())
def test_synthetic_group_rows_equal_the_stacking_default(group, data):
    group = [o for o in group if isinstance(o, SyntheticOracle)] or [synth_oracle()]
    utts = data.draw(st.lists(st.integers(0, len(group) - 1), max_size=12))
    frames = [data.draw(st.integers(1, group[u].num_frames)) for u in utts]
    histories = [tuple(range(1, data.draw(st.integers(0, 6)) + 1)) for _ in utts]
    args = (np.array(utts, dtype=np.int64), np.array(frames, dtype=np.int64))
    args += (np.array([len(h) for h in histories], dtype=np.int64), histories)
    rows = SyntheticOracle.token_log_prob_group(group)(*args)
    stacked = EmissionOracle.token_log_prob_group(group)(*args)
    assert rows.dtype == np.float64 and rows.shape == (len(utts), group[0].vocab_size + 1)
    assert rows.tobytes() == stacked.tobytes()


def test_synthetic_group_rows_reject_out_of_range_frames():
    group = [synth_oracle(), synth_oracle(num_frames=10)]
    rows = SyntheticOracle.token_log_prob_group(group)
    for utt, t in ((0, 0), (0, 13), (1, 11)):
        with pytest.raises(ValidationError) as raised:
            rows(np.array([0, utt]), np.array([1, t]), np.array([0, 0]), [(), ()])
        assert str(raised.value) == f"frame index {t} out of range [1, {group[utt].num_frames}]"


@settings(max_examples=60, deadline=None)
@given(group=oracle_groups(tdt=True), data=st.data())
def test_synthetic_duration_rows_equal_the_stacking_default(group, data):
    """Over groups of mixed d_max: the rows, -inf padding included, and the
    error of the first bad row (a frame out of range, or an oracle without a
    duration track), message and all."""
    group = group + data.draw(st.lists(st.just(synth_oracle()), max_size=1))  # d_max = 0
    utts = data.draw(st.lists(st.integers(0, len(group) - 1), max_size=12))
    frames = [data.draw(st.integers(0, group[u].num_frames + 1)) for u in utts]
    args = (np.array(utts, dtype=np.int64), np.array(frames, dtype=np.int64), [()] * len(utts))
    answers = []
    for cls in (SyntheticOracle, EmissionOracle):
        try:
            answers.append(cls.duration_log_prob_group(group)(*args).tobytes())
        except (ValidationError, ModeError) as exc:
            answers.append((type(exc), str(exc)))
    assert answers[0] == answers[1]
    if isinstance(answers[0], bytes):
        width = max(o.d_max for o in group) + 1
        assert len(answers[0]) == len(utts) * width * 8


class Forwarding(EmissionOracle):
    """A wrapper shaped like a tracing one: it answers the properties, which
    the base class defines, from the wrapped oracle, and forwards every
    other attribute through ``__getattr__``, ``duration_log_probs`` too."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        if name == "_inner":
            raise AttributeError(name)
        return getattr(self._inner, name)

    num_frames = property(lambda self: self._inner.num_frames)
    d_max = property(lambda self: self._inner.d_max)
    frame_seconds = property(lambda self: self._inner.frame_seconds)
    is_generative = property(lambda self: self._inner.is_generative)
    vocab_size = property(lambda self: self._inner.vocab_size)


def test_forwarding_wrappers_reach_the_wrapped_arrays(tmp_path):
    """Decodes, snapshots and the ASR searches of wrapped oracles equal
    those of the bare ones bit for bit; a group that mixes wrapped and bare
    oracles answers its rows through the group default."""
    bare = [
        SyntheticOracle(dataclasses.replace(random_generative(seed).config, d_max=3))
        for seed in range(5)
    ]
    wrapped = [Forwarding(oracle) for oracle in bare]
    keywords = [KeywordSpec("a", (1, 2)), KeywordSpec("b", (3,)), KeywordSpec("c", (4, 5, 6))]
    lattice = load_lattice(save_lattice(snapshot(bare[0], keywords[0]), tmp_path / "x.kwl"))

    def scores(oracles, lattice, config):
        jobs = [(o, keywords, f"u{i}") for i, o in enumerate(oracles)]
        jobs.append((lattice, keywords[:1], "lattice"))
        return [s.scores.tobytes() for streams in decode_keywords(jobs, config) for s in streams]

    for config in (DecodeConfig(), DecodeConfig(mode="tdt", d_max=3)):
        assert scores(wrapped, Forwarding(lattice), config) == scores(bare, lattice, config)
    for oracle, inner in zip(wrapped, bare):
        for keyword in keywords:
            got, want = snapshot(oracle, keyword), snapshot(inner, keyword)
            for field in ("log_y", "log_phi", "greedy_tokens", "greedy_durations"):
                assert getattr(got, field).tobytes() == getattr(want, field).tobytes()

    for d_max in (0, 3):
        assert bits(_greedy_searches(wrapped, d_max)) == bits(_greedy_searches(bare, d_max))
        assert bits([greedy_search(wrapped[0], d_max)]) == bits([greedy_search(bare[0], d_max)])
    beams = [bits(b) for b in _beam_searches(wrapped, 3)]
    assert beams == [bits(b) for b in _beam_searches(bare, 3)]
    assert bits(beam_search(wrapped[1], 3)) == bits(beam_search(bare[1], 3))

    mixed = [wrapped[0], bare[1], wrapped[2]]
    rows = SyntheticOracle.token_log_prob_group(mixed)
    assert rows.__qualname__ == "EmissionOracle.token_log_prob_group.<locals>.rows"
    args = (np.array([0, 1, 2, 0]), np.array([1, 2, 1, 3]), np.array([0, 1, 0, 2]))
    histories = [(), (1,), (), (2, 3)]
    want = SyntheticOracle.token_log_prob_group(bare)(*args, histories)
    assert rows(*args, histories).tobytes() == want.tobytes()
    durations = SyntheticOracle.duration_log_prob_group(mixed)
    assert durations.__qualname__ == "EmissionOracle.duration_log_prob_group.<locals>.rows"
    want = SyntheticOracle.duration_log_prob_group(bare)(*args[:2], histories)
    assert durations(*args[:2], histories).tobytes() == want.tobytes()


def test_suite_wide_asr_transcripts_equal_the_per_group_searches(tmp_path):
    """Each ASR search runs once over a three-epsilon suite; every utterance's
    transcript is the one its epsilon group's own search gives, bit for bit."""
    spec = SuiteGenSpec(
        keywords=("alpha", "bravo"), n_pos=2, n_neg=3, frames_min=30, frames_max=40,
        duration_min=1, duration_max=3, epsilons=(0.0, 0.3, 0.6), d_max=3, seed=11,
    )
    suite = load_manifest(gen_suite(tmp_path, spec).parent)
    got = _asr_transcripts(suite, 2, 4)
    for epsilon in spec.epsilons:
        utts = sorted((u for u in suite.utterances if u.epsilon == epsilon), key=lambda u: u.utt_id)
        oracles = [SyntheticOracle(u.synth) for u in utts]
        greedy = _greedy_searches(oracles)
        want = {
            "greedy_rnnt": greedy,
            "beam4_rnnt": [beams[0] for beams in _beam_searches(oracles, 4, greedy)],
            "greedy_tdt": _greedy_searches(oracles, 2),
        }
        assert list(got) == list(want)
        for name, hyps in want.items():
            assert bits([got[name][u.utt_id] for u in utts]) == bits(hyps)


@pytest.mark.parametrize(
    "baseline, candidate, cap", [("tdt", "rnnt", 2), ("rnnt", "tdt", 2), ("rnnt", "rnnt", 3)]
)
def test_greedy_tdt_row_hops_by_the_tdt_runs_cap(tmp_path, monkeypatch, baseline, candidate, cap):
    """The greedy TDT row hops by the cap of whichever run is TDT, the
    baseline included, and by the suite's (3 here) when neither is."""
    spec = SuiteGenSpec(
        keywords=("alpha",), n_pos=2, n_neg=2, frames_min=30, frames_max=40,
        duration_min=1, duration_max=3, d_max=3, seed=11,
    )
    suite_dir = gen_suite(tmp_path / "suite", spec).parent
    caps = []

    def spy(oracles, d_max=0):
        caps.append(d_max)
        return _greedy_searches(oracles, d_max)

    monkeypatch.setattr(runner, "_greedy_searches", spy)
    argv = ["bench", "--suite", str(suite_dir), "--baseline", baseline, "--candidate", candidate]
    argv += ["--d-max", "2", "--also-asr-baselines", "--beam-width", "2"]
    assert main([*argv, "--report", str(tmp_path / "report.json")]) == 0
    assert caps == [0, cap]
