"""Conventional ASR decoding baselines plus keyword containment.

Greedy search takes the argmax over vocab-plus-blank at each frame: a
non-blank argmax is emitted (staying on the frame, capped per frame), blank
advances — by one frame in RNN-T mode, by the predicted duration (clamped to
at least 1) in TDT mode. The hypothesis log-prob accumulates token-track
probabilities only: one blank term per frame advance and one token term per
emission.

Beam search keeps B lineages per frame and expands them in rounds. When
blank is a lineage's local argmax the lineage commits: the blank-extended
hypothesis joins the frame's finished pool. Otherwise its top-B token
extensions compete in the alive pool, which is pruned to the top B by
log-prob, ties broken by token sequence. The per-frame emission cap
force-commits survivors. A token sequence joins a frame's pool at most once
(no lineage of a beam is a prefix of another, and a lineage either commits or
expands), so the pool needs no log-sum-exp merge. At B = 1 this reproduces
greedy search token-for-token. The returned list is sorted by log-prob
descending, and the top hypothesis never scores below greedy: if the greedy
token sequence was pruned away and would outrank the survivors it is unioned
back in.

Each round does its work once for all live lineages: one
``EmissionOracle.token_log_prob_rows`` query, one argmax, one top-k over the
expanding rows, and one array of child log-probs, of which only the children
that reach the B-th best log-prob (ties kept) become Python tuples. Every
log-prob is the same float64 sum, in the same order, as a per-lineage loop
would form, so results are bit-identical to it.

Beam search is RNN-T-only; duration-aware beam decoding is out of scope.
"""

from __future__ import annotations

import heapq
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


def _check_beam_width(beam_width: int) -> None:
    if beam_width < 1:
        raise ValidationError(f"beam_width must be >= 1, got {beam_width}")


def beam_search(
    oracle: EmissionOracle, beam_width: int, config: AsrConfig = AsrConfig()
) -> list[Hypothesis]:
    """Breadth-first per-frame beam; see module docstring for the variant."""
    _require_generative(oracle)
    _check_beam_width(beam_width)
    if config.mode == TDT:
        raise ModeError("beam search supports RNN-T mode only")

    # Lineages are (tokens, log_prob, emit_frames) tuples until the return.
    beams: list[tuple] = [((), 0.0, ())]
    for t in range(1, oracle.num_frames + 1):
        done: list[tuple] = []
        alive = beams
        emitted = 0
        while alive:
            rows = oracle.token_log_prob_rows(t, [tokens for tokens, _, _ in alive])
            if emitted >= config.max_symbols_per_frame:
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
            # Only each lineage's top candidates can survive the union prune,
            # so wider expansion is wasted work. Which of several tied tokens
            # argpartition keeps decides the result; it keeps the same ones
            # row by row as on each row alone. Their order does not matter:
            # children have distinct tokens, and the prune sorts by them.
            scores = rows[expand, 1:]
            count = min(beam_width, scores.shape[1])
            top = np.argpartition(-scores, count - 1, axis=1)[:, :count]
            parent_lp = np.array([alive[i][1] for i in expand])
            child_lp = (parent_lp[:, None] + np.take_along_axis(scores, top, axis=1)).ravel()
            # Children below the B-th largest log-prob cannot survive the
            # prune; ties with it are kept for the token-order tie rule.
            keep = range(child_lp.size)
            kth = child_lp.size - beam_width
            if kth > 0:
                keep = np.flatnonzero(child_lp >= np.partition(child_lp, kth)[kth]).tolist()
            top_tokens = (top + 1).ravel().tolist()
            child_lps = child_lp.tolist()
            children = []
            for j in keep:
                tokens, _, frames = alive[expand[j // count]]
                children.append((tokens + (top_tokens[j],), child_lps[j], frames + (t,)))
            alive = heapq.nsmallest(beam_width, children, key=_rank)
            emitted += 1
        beams = heapq.nsmallest(beam_width, done, key=_rank)

    results = [Hypothesis(*lineage) for lineage in beams]
    greedy = greedy_search(oracle, config)
    if not results or results[0].log_prob < greedy.log_prob:
        results = [greedy] + [h for h in results if h.tokens != greedy.tokens]
        results = results[:beam_width]
    return results


def _rank(lineage: tuple) -> tuple:
    """Sort key of a (tokens, log_prob, emit_frames) lineage: best first,
    ties broken by token sequence."""
    return -lineage[1], lineage[0]


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
