"""Conventional ASR decoding baselines plus keyword containment.

Greedy search takes the argmax over vocab-plus-blank at each frame: a
non-blank argmax is emitted (staying on the frame, capped per frame), blank
advances — by one frame in RNN-T mode, by the predicted duration (clamped to
at least 1) in TDT mode. The hypothesis log-prob accumulates token-track
probabilities only: one blank term per frame advance and one token term per
emission.

Beam search keeps B lineages per frame. Each lineage expands: when blank is
its local argmax the lineage commits (the blank-extended hypothesis joins the
frame's finished pool, log-sum-exp-merged on duplicate token sequences);
otherwise its token extensions compete in the alive pool, which is pruned to
the top B. The per-frame emission cap force-commits survivors. At B = 1 this
reproduces greedy search token-for-token. The returned list is sorted by
log-prob descending, and the top hypothesis never scores below greedy: if the
greedy token sequence was pruned away and would outrank the survivors it is
unioned back in.

Beam search is RNN-T-only; duration-aware beam decoding is out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decoder import RNNT, TDT, _check_search_config, _hop
from .emissions import BLANK_ID, EmissionOracle
from .errors import CapabilityError, ModeError, ValidationError


@dataclass(frozen=True)
class Hypothesis:
    tokens: tuple[int, ...]
    log_prob: float
    emit_frames: tuple[int, ...]


@dataclass(frozen=True)
class AsrConfig:
    mode: str = RNNT
    d_max: int = 0
    zero_duration_policy: str = "clamp"
    max_symbols_per_frame: int = 10

    def __post_init__(self) -> None:
        _check_search_config(self)
        if self.max_symbols_per_frame < 1:
            raise ValidationError("max_symbols_per_frame must be >= 1")


def _require_generative(oracle: EmissionOracle) -> None:
    if not oracle.is_generative:
        raise CapabilityError(
            f"{type(oracle).__name__} cannot answer arbitrary-history queries; "
            "ASR baselines need a generative oracle"
        )


def greedy_search(oracle: EmissionOracle, config: AsrConfig = AsrConfig()) -> Hypothesis:
    """Frame-wise argmax decode."""
    _require_generative(oracle)
    if config.mode == TDT and not oracle.supports_tdt:
        raise ModeError("TDT greedy requested but oracle has no duration track")
    tokens: list[int] = []
    emit_frames: list[int] = []
    log_prob = 0.0
    t = 1
    while t <= oracle.num_frames:
        emitted = 0
        while True:
            vec = oracle.token_log_probs(t, tokens)
            k = int(np.argmax(vec))
            if k == BLANK_ID or emitted >= config.max_symbols_per_frame:
                break
            log_prob += float(vec[k])
            tokens.append(k)
            emit_frames.append(t)
            emitted += 1
        log_prob += float(vec[BLANK_ID])
        if config.mode == TDT:
            t += _hop(int(np.argmax(oracle.duration_log_probs(t, tokens))), t, config)
        else:
            t += 1
    return Hypothesis(tuple(tokens), log_prob, tuple(emit_frames))


def beam_search(
    oracle: EmissionOracle, beam_width: int, config: AsrConfig = AsrConfig()
) -> list[Hypothesis]:
    """Breadth-first per-frame beam; see module docstring for the variant."""
    _require_generative(oracle)
    if beam_width < 1:
        raise ValidationError("beam_width must be >= 1")
    if config.mode == TDT:
        raise ModeError("beam search supports RNN-T mode only")

    beams: dict[tuple[int, ...], Hypothesis] = {(): Hypothesis((), 0.0, ())}
    for t in range(1, oracle.num_frames + 1):
        done: dict[tuple[int, ...], Hypothesis] = {}
        alive = list(beams.values())
        emitted = 0
        while alive:
            children: list[Hypothesis] = []
            for hyp in alive:
                vec = oracle.token_log_probs(t, list(hyp.tokens))
                k_best = int(np.argmax(vec))
                if k_best == BLANK_ID or emitted >= config.max_symbols_per_frame:
                    committed = Hypothesis(
                        hyp.tokens, hyp.log_prob + float(vec[BLANK_ID]), hyp.emit_frames
                    )
                    _merge(done, committed)
                    continue
                # Only this lineage's top candidates can survive the union
                # prune, so wider expansion is wasted work.
                top = _top_tokens(vec, beam_width)
                for k in top:
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
    greedy = greedy_search(oracle, config)
    if not results or results[0].log_prob < greedy.log_prob:
        results = [greedy] + [h for h in results if h.tokens != greedy.tokens]
        results = results[:beam_width]
    return results


def _merge(pool: dict[tuple[int, ...], Hypothesis], hyp: Hypothesis) -> None:
    existing = pool.get(hyp.tokens)
    if existing is None:
        pool[hyp.tokens] = hyp
    else:
        merged_lp = float(np.logaddexp(existing.log_prob, hyp.log_prob))
        keep = existing if existing.log_prob >= hyp.log_prob else hyp
        pool[hyp.tokens] = Hypothesis(keep.tokens, merged_lp, keep.emit_frames)


def _top_tokens(vec: np.ndarray, count: int) -> list[int]:
    token_scores = vec[1:]
    count = min(count, token_scores.size)
    idx = np.argpartition(-token_scores, count - 1)[:count]
    idx = idx[np.lexsort((idx, -token_scores[idx]))]
    return [int(i) + 1 for i in idx]


def keyword_hit(hypothesis: Hypothesis, keyword) -> tuple[bool, tuple[int, ...]]:
    """Whether keyword.tokens occurs contiguously in the hypothesis.

    Returns (hit, emit_frames of the first matched span; empty when no hit).
    """
    needle = tuple(keyword.tokens)
    hay = hypothesis.tokens
    U = len(needle)
    for i in range(len(hay) - U + 1):
        if hay[i : i + U] == needle:
            return True, hypothesis.emit_frames[i : i + U]
    return False, ()
