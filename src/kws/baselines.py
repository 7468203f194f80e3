"""Conventional ASR decoding baselines plus keyword containment.

``d_max``, the TDT duration cap, is the searches' one mode setting; 0 means
RNN-T, as ``EmissionOracle.d_max`` 0 does. Greedy search takes the argmax over
vocab-plus-blank at each frame: a non-blank argmax is emitted (staying on
the frame, at most ``MAX_SYMBOLS_PER_FRAME`` a frame), blank advances — by
one frame at ``d_max`` 0, by the predicted duration clamped to [1, d_max]
(a zero included, ``decoder._hops``) above it. The hypothesis log-prob
accumulates token-track probabilities only: one blank term per frame
advance and one token term per emission.

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

Both searches run on a group of utterances in lockstep rounds
(``_greedy_searches``, ``_beam_searches``); ``greedy_search`` and
``beam_search`` are their one-utterance case. Every live utterance sits at
its own frame, and one round advances all of them: one
``EmissionOracle.token_log_prob_group`` query answers a row per greedy
utterance or per live beam lineage, then one argmax and, for beam, one top-k
run over the rows of all utterances. All lineages of an utterance's frame are
in the same expansion round, so the emission cap is one counter per
utterance. TDT greedy then makes one ``duration_log_prob_group`` query for
the utterances that leave their frame, and hops them all at once. A group
of wrapped oracles takes both queries' ``EmissionOracle`` defaults.

The beam prune sorts integer keys, not token tuples. Under the no-prefix
invariant a lineage's token tuple orders as the key (its start-of-frame
beam's lexicographic rank, then the tokens it added this frame, padded with
-1), across the rounds of the finished pool too; within one round the
alive pool needs only (its parent's rank, its token). Per utterance the B best
are taken by (utterance, -log_prob, key) from one ``np.lexsort``. Lineages
are rows of integer arrays with backpointers into a tree of emitted tokens;
token tuples are built only for the returned hypotheses and for oracles that
read the histories. Every log-prob is the same float64 sum, in the same
order, as a per-lineage loop would form, so results are bit-identical to it.

Beam search's union guard takes the greedy RNN-T transcripts that its caller
already holds, so a group that runs both searches runs greedy once.

Beam search is RNN-T-only, so it takes no ``d_max``; duration-aware beam
decoding is out of scope.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .decoder import _hops
from .emissions import BLANK_ID, EmissionOracle
from .errors import CapabilityError, ModeError, ValidationError


@dataclass(frozen=True)
class Hypothesis:
    tokens: tuple[int, ...]
    log_prob: float
    emit_frames: tuple[int, ...]


# Tokens a search may emit at one frame before it must move on.
MAX_SYMBOLS_PER_FRAME = 10


def _require_generative(oracle: EmissionOracle) -> None:
    if not oracle.is_generative:
        raise CapabilityError(
            f"{type(oracle).__name__} cannot answer arbitrary-history queries; "
            "ASR baselines need a generative oracle"
        )


def _row_query(oracles: Sequence[EmissionOracle], d_max: int = 0):
    """The group's token row query, after the checks every search shares."""
    for oracle in oracles:
        _require_generative(oracle)
        if d_max and not oracle.supports_tdt:
            raise ModeError("TDT greedy requested but oracle has no duration track")
    vocab_sizes = sorted({oracle.vocab_size for oracle in oracles})
    if len(vocab_sizes) > 1:
        raise ValidationError(f"a search group must share one vocab_size, got {vocab_sizes}")
    return type(oracles[0]).token_log_prob_group(oracles)


def greedy_search(oracle: EmissionOracle, d_max: int = 0) -> Hypothesis:
    """Frame-wise argmax decode: RNN-T at ``d_max`` 0, TDT with hops capped
    at ``d_max`` above it."""
    return _greedy_searches([oracle], d_max)[0]


def _greedy_searches(oracles: Sequence[EmissionOracle], d_max: int = 0) -> list[Hypothesis]:
    """``greedy_search`` of every oracle of a group, in lockstep rounds."""
    if d_max < 0:
        raise ValidationError(f"d_max must be >= 0, got {d_max}")
    if not oracles:
        return []
    rows_of = _row_query(oracles, d_max)
    durations_of = type(oracles[0]).duration_log_prob_group(oracles) if d_max else None
    n = len(oracles)
    num_frames = np.array([oracle.num_frames for oracle in oracles], dtype=np.int64)
    t = np.ones(n, dtype=np.int64)
    emitted = np.zeros(n, dtype=np.int64)  # tokens emitted at the current frame
    lengths = np.zeros(n, dtype=np.int64)
    log_prob = np.zeros(n)
    tokens: list[list[int]] = [[] for _ in range(n)]
    emit_frames: list[list[int]] = [[] for _ in range(n)]
    live = np.flatnonzero(t <= num_frames)
    while live.size:
        frames = t[live]
        rows = rows_of(live, frames, lengths[live], [tokens[u] for u in live.tolist()])
        best = rows.argmax(axis=1)
        emit = (best != BLANK_ID) & (emitted[live] < MAX_SYMBOLS_PER_FRAME)
        best[~emit] = BLANK_ID
        log_prob[live] += rows[np.arange(live.size), best]
        for u, k, f in zip(live[emit].tolist(), best[emit].tolist(), frames[emit].tolist()):
            tokens[u].append(k)
            emit_frames[u].append(f)
        lengths[live] += emit
        emitted[live] = np.where(emit, emitted[live] + 1, 0)
        advance = live[~emit]
        if not d_max:
            t[advance] += 1
        elif advance.size:  # decoder._hops of each leaving utterance's argmax duration
            durations = durations_of(advance, t[advance], [tokens[u] for u in advance.tolist()])
            t[advance] += _hops(durations.argmax(axis=1), d_max)
        live = live[t[live] <= num_frames[live]]
    return [
        Hypothesis(tuple(tokens[u]), float(log_prob[u]), tuple(emit_frames[u]))
        for u in range(n)
    ]


def _check_beam_width(beam_width: int) -> None:
    if beam_width < 1:
        raise ValidationError(f"beam_width must be >= 1, got {beam_width}")


def beam_search(oracle: EmissionOracle, beam_width: int) -> list[Hypothesis]:
    """Breadth-first per-frame RNN-T beam; see module docstring for the variant."""
    return _beam_searches([oracle], beam_width)[0]


class _Lineages:
    """Backpointer tree of beam lineages: node i emitted ``token[i]`` at
    ``frame[i]`` after the lineage of node ``parent[i]``; node -1 is the
    empty lineage. The tree keeps every node a search made, so it is int32:
    node ids, tokens and frames each count entries of arrays that the search
    or its oracles hold, which stay far below 2**31."""

    def __init__(self) -> None:
        self._nodes = np.empty((3, 1024), dtype=np.int32)  # parent, token, frame
        self._size = 0
        self._tokens: dict[int, tuple[int, ...]] = {-1: ()}

    def add(self, parents: np.ndarray, tokens: np.ndarray, frames: np.ndarray) -> np.ndarray:
        first = self._size
        self._size += len(parents)
        if self._size > self._nodes.shape[1]:
            grown = np.empty((3, 2 * self._size), dtype=np.int32)
            grown[:, :first] = self._nodes[:, :first]
            self._nodes = grown
        self._nodes[:, first : self._size] = parents, tokens, frames
        return np.arange(first, self._size)

    def tokens(self, node: int) -> tuple[int, ...]:
        """The token tuple of a lineage, memoised along its path."""
        path = []
        while node not in self._tokens:
            path.append(node)
            node = int(self._nodes[0, node])
        tokens = self._tokens[node]
        for step in reversed(path):
            tokens = self._tokens[step] = tokens + (int(self._nodes[1, step]),)
        return tokens

    def hypotheses(
        self, nodes: np.ndarray, lengths: np.ndarray, log_probs: np.ndarray
    ) -> list[Hypothesis]:
        """The hypotheses of the lineages ending at ``nodes``, walked back
        together, one step of every lineage at a time."""
        tokens = np.zeros((len(nodes), int(lengths.max(initial=0))), dtype=np.int32)
        frames = np.zeros_like(tokens)
        node = nodes.copy()
        for step in range(tokens.shape[1]):
            walking = np.flatnonzero(lengths > step)
            at = node[walking]
            position = lengths[walking] - 1 - step
            tokens[walking, position] = self._nodes[1, at]
            frames[walking, position] = self._nodes[2, at]
            node[walking] = self._nodes[0, at]
        return [
            Hypothesis(tuple(tokens[i, :n].tolist()), log_prob, tuple(frames[i, :n].tolist()))
            for i, (n, log_prob) in enumerate(zip(lengths.tolist(), log_probs.tolist()))
        ]


class _Histories(Sequence):
    """The token histories of lineage nodes, each built when it is read."""

    def __init__(self, lineages: _Lineages, nodes: np.ndarray) -> None:
        self._lineages = lineages
        self._nodes = nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __getitem__(self, i: int) -> tuple[int, ...]:
        return self._lineages.tokens(int(self._nodes[i]))


# Columns of a beam pool row. The pool holds every lineage of every live
# utterance: alive ones and those of the current frame's finished pool
# (DONE = 1). ADDED is the first of MAX_SYMBOLS_PER_FRAME columns that hold
# the tokens added this frame, -1 padded.
_UTT, _NODE, _LEN, _START, _DONE, _ADDED = range(6)


def _first_of_each(groups: np.ndarray, count: int) -> np.ndarray:
    """Mask of the first ``count`` entries of each run of equal values in
    the sorted array ``groups``."""
    index = np.arange(groups.size)
    starts = np.ones(groups.size, dtype=bool)
    starts[1:] = groups[1:] != groups[:-1]
    return index - np.maximum.accumulate(np.where(starts, index, 0)) < count


def _lex_keys(pool: np.ndarray, rows: np.ndarray, width: int) -> list[np.ndarray]:
    """``np.lexsort`` keys, least significant first, that order the rows'
    lineages within an utterance as their token tuples: the start-of-frame
    beam's rank, then the first ``width`` added tokens."""
    return [pool[rows, _ADDED + c] for c in range(width - 1, -1, -1)] + [pool[rows, _START]]


def _beam_searches(
    oracles: Sequence[EmissionOracle],
    beam_width: int,
    greedy: Sequence[Hypothesis] | None = None,
) -> list[list[Hypothesis]]:
    """``beam_search`` of every oracle of a group, in lockstep rounds.

    ``greedy``, when given, holds ``greedy_search(oracle)`` of each oracle,
    in order, for the union guard.
    """
    for oracle in oracles:
        _require_generative(oracle)
    _check_beam_width(beam_width)
    if not oracles:
        return []
    rows_of = _row_query(oracles)
    cap = MAX_SYMBOLS_PER_FRAME
    n = len(oracles)
    num_frames = np.array([oracle.num_frames for oracle in oracles], dtype=np.int64)
    t = np.ones(n, dtype=np.int64)
    emitted = np.zeros(n, dtype=np.int64)
    lineages = _Lineages()
    # One empty lineage per utterance. Utterances leave the pool with their
    # last frame's beams, best first: pool rows and log-probs in ``finals``.
    pool = np.full((n, _ADDED + cap), -1, dtype=np.int64)
    pool[:, _UTT] = np.arange(n)
    pool[:, _LEN] = pool[:, _START] = pool[:, _DONE] = 0
    lp = np.zeros(n)
    finals = [(pool[num_frames < 1], lp[num_frames < 1])]
    pool, lp = pool[num_frames >= 1], lp[num_frames >= 1]
    while len(pool):
        alive = np.flatnonzero(pool[:, _DONE] == 0)
        utt = pool[alive, _UTT]
        rows = rows_of(
            utt, t[utt], pool[alive, _LEN], _Histories(lineages, pool[alive, _NODE])
        )
        commit = (rows.argmax(axis=1) == BLANK_ID) | (emitted[utt] >= cap)
        done = alive[commit]
        lp[done] += rows[commit, BLANK_ID]
        negated = rows[~commit, 1:]  # a copy: a round's one (rows x V) array once rows go
        del rows
        pool[done, _DONE] = 1
        keep = np.ones(len(pool), dtype=bool)
        expand = alive[~commit]
        children, children_lp = pool[:0], lp[:0]
        if expand.size:
            keep[expand] = False
            # Only each lineage's top candidates can survive the prune, so
            # wider expansion is wasted work. Which of several tied tokens
            # argpartition keeps decides the result; it keeps the same ones
            # row by row as on each row alone.
            np.negative(negated, out=negated)
            count = min(beam_width, negated.shape[1])
            top = np.argpartition(negated, count - 1, axis=1)[:, :count].copy()
            # lp - (-score) is bit-equal to lp + score.
            child_lp = (lp[expand][:, None] - np.take_along_axis(negated, top, axis=1)).ravel()
            del negated
            child_token = (top + 1).ravel()
            parent_utt = pool[expand, _UTT]
            # All alive lineages of an utterance are in the same round, so a
            # child's tuple orders as (its parent's tuple, its token).
            width = int(emitted[parent_utt].max())
            rank = np.empty(expand.size, dtype=np.int64)
            rank[np.lexsort((*_lex_keys(pool, expand, width), parent_utt))] = np.arange(expand.size)
            parent = np.repeat(np.arange(expand.size), count)
            child_utt = parent_utt[parent]
            order = np.lexsort((child_token, rank[parent], -child_lp, child_utt))
            order = order[_first_of_each(child_utt[order], beam_width)]
            rows_from = expand[parent[order]]
            children = pool[rows_from]
            children_lp = child_lp[order]
            tokens = child_token[order]
            child_utt = child_utt[order]
            children[:, _NODE] = lineages.add(pool[rows_from, _NODE], tokens, t[child_utt])
            children[:, _LEN] += 1
            children[np.arange(len(order)), _ADDED + emitted[child_utt]] = tokens
            emitted[parent_utt] += 1
        # Utterances none of whose lineages expanded end their frame: their
        # finished pool's B best are the next frame's beams.
        is_ending = np.zeros(n, dtype=bool)
        is_ending[utt] = True
        is_ending[pool[expand, _UTT]] = False
        ending = np.flatnonzero(is_ending)
        ending_rows = np.flatnonzero(is_ending[pool[:, _UTT]])
        keep[ending_rows] = False
        width = int(emitted[ending].max()) if ending.size else 0
        order = ending_rows[
            np.lexsort((*_lex_keys(pool, ending_rows, width), -lp[ending_rows], pool[ending_rows, _UTT]))
        ]
        beams = order[_first_of_each(pool[order, _UTT], beam_width)]
        t[ending] += 1
        emitted[ending] = 0
        over = t[pool[beams, _UTT]] > num_frames[pool[beams, _UTT]]
        if over.any():
            finals.append((pool[beams[over]], lp[beams[over]]))
            beams = beams[~over]
        starts = pool[beams]
        starts[np.lexsort((*_lex_keys(pool, beams, width), starts[:, _UTT])), _START] = np.arange(
            len(beams)
        )
        starts[:, _DONE] = 0
        starts[:, _ADDED:] = -1
        pool = np.concatenate((pool[keep], children, starts))
        lp = np.concatenate((lp[keep], children_lp, lp[beams]))

    if greedy is None:
        greedy = _greedy_searches(oracles)
    elif len(greedy) != n:
        raise ValidationError(f"{len(greedy)} greedy transcripts for {n} oracles")
    rows = np.concatenate([rows for rows, _ in finals])
    # Stable by utterance, so that each utterance's beams stay best first.
    order = np.argsort(rows[:, _UTT], kind="stable")
    log_probs = np.concatenate([log_probs for _, log_probs in finals])[order]
    hypotheses = iter(lineages.hypotheses(rows[order, _NODE], rows[order, _LEN], log_probs))
    results = []
    for count, guard in zip(np.bincount(rows[:, _UTT], minlength=n).tolist(), greedy):
        beams = [next(hypotheses) for _ in range(count)]
        if not beams or beams[0].log_prob < guard.log_prob:
            beams = [guard] + [h for h in beams if h.tokens != guard.tokens]
            beams = beams[:beam_width]
        results.append(beams)
    return results


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
