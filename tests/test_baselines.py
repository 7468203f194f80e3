"""ASR decoding baselines: greedy, beam, keyword containment."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kws import (
    AsrConfig,
    CapabilityError,
    EmissionOracle,
    Hypothesis,
    KeywordSpec,
    ModeError,
    SyntheticJoinerConfig,
    SyntheticOracle,
    ValidationError,
    beam_search,
    greedy_search,
    keyword_hit,
    load_lattice,
    save_lattice,
    snapshot,
)


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

    def token_log_probs(self, t, history):
        row = self._table.get((t, tuple(history)))
        if row is None:
            row = np.zeros(self._vocab + 1)
            row[0] = 1.0
        with np.errstate(divide="ignore"):
            return np.log(row)

    def emission_rows(self, keyword, t):
        raise NotImplementedError

    def greedy_step(self, t, state):
        raise ModeError("no duration track")


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


def synth_oracle(seed=0, epsilon=0.0, d_max=0, num_frames=12):
    return SyntheticOracle(
        SyntheticJoinerConfig(
            vocab_size=9,
            num_frames=num_frames,
            alignment=((5, 2, 3), (2, 5, 3), (9, 8, 3)),
            epsilon=epsilon,
            d_max=d_max,
            duration_concentration=1.0,
            seed=seed,
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
            num_frames=num_frames,
            alignment=tuple(segments),
            epsilon=float(rng.uniform(0.0, 0.8)),
            d_max=0,
            duration_concentration=1.0,
            seed=seed,
        )
    )


def test_greedy_transcribes_planted_sequence():
    hyp = greedy_search(synth_oracle(), AsrConfig(mode="rnnt"))
    assert hyp.tokens == (5, 2, 9)
    assert hyp.emit_frames == (2, 5, 8)
    assert len(hyp.tokens) == len(hyp.emit_frames)


def test_greedy_tdt_skips_frames_and_keeps_tokens():
    class Counting(SyntheticOracle):
        def __init__(self, cfg):
            super().__init__(cfg)
            self.visited = set()

        def token_log_probs(self, t, history):
            self.visited.add(t)
            return super().token_log_probs(t, history)

    oracle = Counting(synth_oracle(d_max=4).config)
    hyp_rnnt = greedy_search(synth_oracle(), AsrConfig(mode="rnnt"))
    hyp_tdt = greedy_search(oracle, AsrConfig(mode="tdt", d_max=4))
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
    hyp = greedy_search(oracle, AsrConfig(mode="tdt", d_max=4))
    assert hyp.tokens == (5, 2, 9)
    assert hyp.emit_frames == (2, 5, 8)
    with pytest.raises(ValidationError):
        greedy_search(oracle, AsrConfig(mode="tdt", d_max=4, zero_duration_policy="error"))


def test_greedy_blank_everywhere_accumulates_blank_terms():
    oracle = SyntheticOracle(
        SyntheticJoinerConfig(
            vocab_size=5,
            num_frames=6,
            alignment=(),
            epsilon=0.2,
            d_max=0,
            duration_concentration=1.0,
            seed=0,
        )
    )
    hyp = greedy_search(oracle, AsrConfig(mode="rnnt"))
    assert hyp.tokens == ()
    expected = sum(float(oracle.token_log_probs(t, [])[0]) for t in range(1, 7))
    assert hyp.log_prob == pytest.approx(expected, abs=1e-12)


def test_greedy_rejects_file_backed_oracle(tmp_path):
    oracle = synth_oracle()
    data = snapshot(oracle, KeywordSpec("kw", (5, 2)))
    replay = load_lattice(save_lattice(data, tmp_path / "x.kwl"))
    with pytest.raises(CapabilityError):
        greedy_search(replay, AsrConfig(mode="rnnt"))
    with pytest.raises(CapabilityError):
        beam_search(replay, 2, AsrConfig(mode="rnnt"))


def test_beam_recovers_from_greedy_trap():
    greedy = greedy_search(TRAP, AsrConfig(mode="rnnt"))
    assert greedy.tokens == (1,)
    assert greedy.log_prob == pytest.approx(math.log(0.06), abs=1e-9)

    results = beam_search(TRAP, 2, AsrConfig(mode="rnnt"))
    assert results[0].tokens == (2,)
    assert results[0].log_prob == pytest.approx(math.log(0.45), abs=1e-9)
    assert [h.log_prob for h in results] == sorted(
        (h.log_prob for h in results), reverse=True
    )


def test_beam_one_equals_greedy_on_trap():
    greedy = greedy_search(TRAP, AsrConfig(mode="rnnt"))
    (top,) = beam_search(TRAP, 1, AsrConfig(mode="rnnt"))
    assert top.tokens == greedy.tokens
    assert top.log_prob == pytest.approx(greedy.log_prob, abs=1e-12)


def test_beam_width_validation_and_tdt_refusal():
    with pytest.raises(ValidationError):
        beam_search(TRAP, 0, AsrConfig(mode="rnnt"))
    with pytest.raises(ModeError):
        beam_search(synth_oracle(d_max=4), 4, AsrConfig(mode="tdt", d_max=4))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_beam_one_equals_greedy_property(seed):
    oracle = random_generative(seed)
    greedy = greedy_search(oracle, AsrConfig(mode="rnnt"))
    (top,) = beam_search(oracle, 1, AsrConfig(mode="rnnt"))
    assert top.tokens == greedy.tokens
    assert top.log_prob == pytest.approx(greedy.log_prob, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_beam_dominates_greedy_property(seed):
    oracle = random_generative(seed)
    greedy = greedy_search(oracle, AsrConfig(mode="rnnt"))
    results = beam_search(oracle, 4, AsrConfig(mode="rnnt"))
    assert results[0].log_prob >= greedy.log_prob - 1e-12


def test_emission_cap_stops_nonblank_loops():
    looping = ScriptedOracle(
        num_frames=1,
        vocab=1,
        table={(1, tuple([1] * n)): [0.1, 0.9] for n in range(0, 50)},
    )
    hyp = greedy_search(looping, AsrConfig(mode="rnnt", max_symbols_per_frame=10))
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


def test_asr_config_validation():
    with pytest.raises(ValidationError):
        AsrConfig(mode="tdt", d_max=0)
    with pytest.raises(ValidationError):
        AsrConfig(mode="rnnt", max_symbols_per_frame=0)
    with pytest.raises(ValidationError):
        AsrConfig(mode="nope")
    with pytest.raises(ValidationError):
        AsrConfig(mode="rnnt", d_max=-3)
    with pytest.raises(ValidationError):
        AsrConfig(mode="tdt", d_max=2, zero_duration_policy="skip")
