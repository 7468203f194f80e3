"""Streaming keyword-spotting DP search over transducer emission lattices.

The search maintains, per processed frame t, the column delta(t, 0..U) where
delta(t, u) is the best log-score over all monotonic alignment paths that have
consumed the first u keyword tokens by frame t. Recursion per column:

    delta(t, 0) = 0                                   (keyword may start anywhere)
    delta(t, u) = max(delta(t, u-1) + log_y(t, u-1),  (consume token u)
                      delta(t', u) + log_phi(t', u))  (blank over the hop)
    score(t)    = delta(t, U) + log_phi(t, U)

where t' is the previously processed frame. Ties prefer the token-consuming
transition. The first processed column has no horizontal terms (the virtual
t = 0 column contributes probability zero). In RNN-T mode every frame is
processed; in TDT mode the oracle's greedy track predicts a duration d and
frames t+1 .. t+d-1 are skipped outright (their score stays -inf and no
column is computed for them).

The TDT hop schedule comes from the oracle's greedy duration track, fetched
as one array (it depends on neither the keyword nor the greedy history):
one clip to [1, d_max] (``_hops``, the rule the ASR baselines' TDT greedy
search hops by too) and one integer loop over the hops. Emissions are
fetched for the processed frames only, by one ``emission_grids`` call that
returns them as one block already in the lane layout below: for every
keyword of an utterance at once by ``decode_keywords``, for its one keyword
and the frame it lands on by ``StreamingDecoder``.

One DP routine (``_lane_columns``) serves every decode. It advances many
lanes at once; a lane is one (utterance, keyword) pair, indexed by its own
count of processed columns rather than by frame, so RNN-T and TDT lanes of
different utterances step together without masks and TDT keeps its skipped
frames. ``decode_keywords`` batches whole utterances, up to 256 lanes per
sweep: the lanes of all keywords of an utterance share its hop schedule
and enter a batch side by side in one buffer write of the oracle's block; a
batch leaves as one (lane, frame) score block (``_ScoreBlock``), cut from
the DP's columns by one scatter (one transposed copy where every lane lands
on every frame), whose rows the ScoreStreams view.
``StreamingDecoder`` runs the same routine on one lane, one column at a
time, and fires by ``detect_events``' threshold and refractory rule as each
score lands. Offline event extraction works on a whole block: the live gate
walks every row's candidates in lockstep (``_gate_picks``), and one greedy
non-maximum suppression round picks the next peak of every row at once
(``_peak_picks``); ``detect_events`` and ``peak_events`` are their one-row
cases.
The routine sweeps anti-diagonals ("wavefronts") of the (column, u) grid:
cell (k, u) depends only on (k, u-1) and (k-1, u), so all cells with the
same k + u are independent and one wavefront costs a fixed handful of numpy
calls over every lane and every u.

Everything accumulates in f64 even though oracles store f32. A batch
left-pads shorter keywords with log-1 tokens (log_y = log_phi = 0), whose
prefix then stays exactly 0.0. A lane shorter than its batch runs on past
its own columns over whatever rows an earlier batch left there; no earlier
column reads a later one, and those columns are dropped. So every lane's
scores are bit-identical to a decode of that pair alone: each cell adds the
same two operands in the same order, and since no NaN, +inf or -0.0 can
reach a delta, the vectorized max returns the value the tie rule picks.
"""

from __future__ import annotations

import json
import math
import struct
from collections import deque
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_string  # json.dumps of a str
from operator import itemgetter
from time import perf_counter
from typing import Iterable, Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .emissions import EmissionOracle, KeywordSpec, NEG_INF
from .errors import ModeError, ProtocolError, ValidationError
from .metrics import SpeedCounters

RNNT = "rnnt"
TDT = "tdt"
ZERO_DURATION_POLICIES = ("clamp", "error")

# Lanes per batch of ``decode_keywords``, at most. A batch costs a fixed
# number of numpy calls per wavefront whatever its width, so wider batches
# run faster but hold more f32 rows at once: a buffer of 256 lanes allocated
# up front put perfbench's asr peak RSS at 46.7 MiB against 44.1 at 64. The
# buffer starts at 64 lanes and widens only as batches fill (see
# ``_LaneBatch``); so grown, peak RSS read 44.4, 44.3 and 43.8 MiB on asr
# (whose runs of 80 lanes never widen past 64) and 60.2, 60.1 and 60.2 MiB
# on bench (set by `kws gen` in its set-up) at caps of 64, 128 and 256. On
# the seed-1 bench suite 256 lanes cut the sweeps from 166 to 68 and the
# wavefront steps from 24,354 to 10,564.
_LANE_CHUNK = 256


def _check_search_config(config) -> None:
    """The mode, ``d_max`` and zero-duration policy checks that DecodeConfig
    and ``baselines.AsrConfig`` share."""
    if config.mode not in (RNNT, TDT):
        raise ValidationError(f"mode must be '{RNNT}' or '{TDT}', got {config.mode!r}")
    if config.d_max < 0:
        raise ValidationError(f"d_max must be >= 0, got {config.d_max}")
    if config.mode == TDT and config.d_max < 1:
        raise ValidationError("TDT mode requires d_max >= 1")
    if config.zero_duration_policy not in ZERO_DURATION_POLICIES:
        raise ValidationError(f"zero_duration_policy must be one of {ZERO_DURATION_POLICIES}")


@dataclass(frozen=True)
class DecodeConfig:
    """Search-time knobs; oracle-independent."""

    mode: str = RNNT
    d_max: int = 0
    zero_duration_policy: str = "clamp"
    threshold_log: float = NEG_INF
    refractory_frames: int = 34

    def __post_init__(self) -> None:
        _check_search_config(self)
        if math.isnan(self.threshold_log):
            raise ValidationError("threshold_log must not be NaN")
        if self.refractory_frames < 0:
            raise ValidationError("refractory_frames must be >= 0")


@dataclass(frozen=True)
class DetectionEvent:
    keyword: str
    frame: int
    log_score: float


@dataclass
class ScoreStream:
    """Per-frame keyword confidence for one utterance/keyword pair."""

    utt_id: str
    keyword: str
    frame_seconds: float
    scores: np.ndarray
    processed: np.ndarray
    columns_evaluated: int


def _check_mode(oracle: EmissionOracle, config: DecodeConfig) -> None:
    if config.mode == TDT and not oracle.supports_tdt:
        raise ModeError(
            f"TDT decode requested but oracle has no duration track (d_max={oracle.d_max})"
        )


class StreamingDecoder:
    """Frame-at-a-time DP search; never reads ahead of the delivered frame.

    Drive it by calling ``push(t)`` for t = 1..T in order; each call returns
    the detection events fired at that frame (empty for skipped frames).
    """

    def __init__(
        self,
        oracle: EmissionOracle,
        keyword: KeywordSpec,
        config: DecodeConfig,
        utt_id: str = "",
        counters: SpeedCounters | None = None,
    ) -> None:
        _check_mode(oracle, config)
        self._oracle = oracle
        self._keyword = keyword
        self._config = config
        self._utt_id = utt_id
        self.counters = counters if counters is not None else SpeedCounters()

        T = oracle.num_frames
        self._scores = np.full(T, NEG_INF, dtype=np.float64)
        self._processed = np.zeros(T, dtype=bool)
        self._columns = 0
        self._next_deliver = 1
        self._next_process = 1
        # One lane, one column per call. Before the first column
        # delta(0, u > 0) = -inf, so the first keeps only the vertical chain.
        self._delta = _first_column(keyword.num_tokens, 1)
        self._edges = _edge_buffer(1, keyword.num_tokens, 1)
        self._score = np.empty((1, 1))
        # Read one entry per processed frame, never one ahead of it.
        self._durations = oracle.greedy_durations() if config.mode == TDT else None
        # The first frame that may fire: ``detect_events``' rule, one frame at a time.
        self._next_fire = 1
        self._finished = False

    def push(self, t: int) -> list[DetectionEvent]:
        """Announce that frame t is available; process or skip it."""
        if self._finished:
            raise ProtocolError("decoder already finished")
        if t != self._next_deliver:
            raise ProtocolError(
                f"frames must arrive in order: expected {self._next_deliver}, got {t}"
            )
        if t > self._oracle.num_frames:
            raise ProtocolError(f"frame {t} beyond oracle's {self._oracle.num_frames} frames")
        self._next_deliver += 1
        if t < self._next_process:
            return []  # skipped by a duration hop; score stays -inf
        return self._process(t)

    def _process(self, t: int) -> list[DetectionEvent]:
        # The offline block query, for this one frame: (1, 2, 1, U + 1).
        block = self._oracle.emission_grids((self._keyword,), np.array([t]))
        self.counters.oracle_queries += 1
        U = self._keyword.num_tokens

        tick = perf_counter()
        edges = self._edges
        edges[U, 1] = edges[U + 1, 1]  # the previous column becomes column 0
        edges[U + 1, :, :, 0] = block[0, :, 0]
        self._delta = _lane_columns(edges, self._delta, 1, self._score)
        score = float(self._score[0, 0])
        self.counters.search_wall_seconds += perf_counter() - tick

        self._scores[t - 1] = score
        self._processed[t - 1] = True
        self._columns += 1
        self.counters.columns_evaluated += 1

        config = self._config
        if config.mode == TDT:
            self.counters.oracle_queries += 1
            (hop,) = _hops(self._durations[t - 1 : t], config, [t]).tolist()
            self._next_process = t + hop
        else:
            self._next_process = t + 1

        if t < self._next_fire or not math.isfinite(score) or score < config.threshold_log:
            return []
        self._next_fire = t + max(config.refractory_frames, 1)
        return [DetectionEvent(self._keyword.name, t, score)]

    def finish(self) -> ScoreStream:
        self._finished = True
        return ScoreStream(
            utt_id=self._utt_id,
            keyword=self._keyword.name,
            frame_seconds=self._oracle.frame_seconds,
            scores=self._scores,
            processed=self._processed,
            columns_evaluated=self._columns,
        )


def _first_column(U: int, lanes: int) -> np.ndarray:
    """delta before any frame: 0.0 at u = 0, -inf above."""
    delta = np.full((U + 1, lanes), NEG_INF)
    delta[0] = 0.0
    return delta


def _edge_buffer(columns: int, U: int, lanes: int) -> np.ndarray:
    """Zeroed edge log-probs for ``_lane_columns``: (columns + 1 + 2U, 2, U + 1, lanes) f32."""
    return np.zeros((columns + 1 + 2 * U, 2, U + 1, lanes), dtype=np.float32)


def _lane_columns(
    edges: np.ndarray, first: np.ndarray, columns: int, scores: np.ndarray
) -> np.ndarray:
    """The DP over ``columns`` processed columns of every lane at once.

    ``edges[U + k, 0, u]`` holds log_y(k, u) (u < U) and ``edges[U + k, 1, u]``
    log_phi(k, u) for column k = 0..columns, column 0 being the one before
    the first; the U rows before and after are zero padding. ``first``
    (U+1, lanes) f64 is column 0's delta. Fills ``scores[k - 1]`` with
    delta(k, U) + log_phi(k, U) for k >= 1 and returns the last column.
    """
    _, _, U1, lanes = edges.shape
    U = U1 - 1
    s0, s1, s2, s3 = edges.strides
    # wave[s, :, u] = edges[U + s - u, :, u]: cell (k, u) lies on wavefront
    # s = k + u and reads only wavefront s - 1. Cells off the grid (k < 0 or
    # k > columns) read padding and are never read back.
    wave = as_strided(
        edges[U:], shape=(columns + U + 1, 2, U1, lanes), strides=(s0, s1, s2 - s0, s3)
    )
    prev, cur, last = first.copy(), np.empty_like(first), np.empty_like(first)
    cur[0] = last[0] = 0.0
    moves = np.empty((2, U1, lanes))  # [0]: consume a token, [1]: blank over the hop
    for s in range(1, columns + U + 1):
        np.add(prev, wave[s - 1], out=moves)
        np.maximum(moves[0, :U], moves[1, 1:], out=cur[1:])
        if s <= U:
            cur[s] = first[s]  # column 0 is given, not computed
        else:
            np.add(cur[U], wave[s, 1, U], out=scores[s - U - 1])
        if s >= columns:
            last[s - columns] = cur[s - columns]
        prev, cur = cur, prev
    return last


def _hops(durations: np.ndarray, config, landed=None) -> np.ndarray:
    """How far a search hops from frames with greedy durations ``durations``:
    each duration clipped to [1, d_max]. Given ``landed``, the 1-based
    frames the durations were read at, the 'error' policy raises at the
    first of them whose duration is 0. ``config`` is a DecodeConfig or a
    ``baselines.AsrConfig``."""
    if landed is not None and config.zero_duration_policy == "error":
        zeros = np.flatnonzero(durations < 1)
        if len(zeros):
            raise ValidationError(
                f"greedy track predicted duration 0 at frame {int(landed[zeros[0]])} "
                "(zero_duration_policy='error')"
            )
    return np.maximum(np.minimum(durations, config.d_max), 1)


def _hop_schedule(oracle: EmissionOracle, config: DecodeConfig) -> np.ndarray:
    """1-based frames a decode processes: all of them in RNN-T mode, the greedy
    track's hops in TDT mode (``_hops``). The track is keyword-independent."""
    T = oracle.num_frames
    if config.mode != TDT:
        return np.arange(1, T + 1)
    durations = oracle.greedy_durations()
    hops = _hops(durations, config).tolist()
    landed = []
    t = 1
    while t <= T:
        landed.append(t)
        t += hops[t - 1]
    frames = np.array(landed, dtype=np.int64)
    if config.zero_duration_policy == "error":
        # Every landing up to the first zero duration is the same under both
        # policies, so that landing is where an 'error' walk would stop.
        _hops(durations[frames - 1], config, frames)
    return frames


@dataclass
class _PendingUtterance:
    utt_id: str
    num_frames: int
    frame_seconds: float
    frames: np.ndarray
    keywords: list[str]


@dataclass
class _ScoreBlock:
    """The scores of one lane batch as one (lanes, W) block, W being the
    frame count of its longest utterance.

    Row i + k holds keyword k of the utterance whose first lane is i; the
    utterances are in input order, so their rows are too. A row's frames
    past its own utterance's are -inf and unprocessed, so that a gate or a
    peak search over the whole block picks what it would pick row by row.
    """

    utts: list[tuple[_PendingUtterance, int]]  # (utterance, first lane)
    scores: np.ndarray  # (lanes, W) f64
    processed: np.ndarray  # (lanes, W) bool

    def streams(self) -> Iterator[list[ScoreStream]]:
        """One list per utterance of one ScoreStream per keyword, each a row view."""
        for utt, i in self.utts:
            T, n = utt.num_frames, len(utt.frames)
            yield [
                ScoreStream(
                    utt.utt_id, keyword, utt.frame_seconds,
                    self.scores[i + k, :T], self.processed[i + k, :T], n,
                )
                for k, keyword in enumerate(utt.keywords)
            ]

    def events(self, rows: np.ndarray, frames: np.ndarray) -> list[list[DetectionEvent]]:
        """One event list per row, from the picks of ``_gate_picks`` or ``_peak_picks``."""
        names = [keyword for utt, _ in self.utts for keyword in utt.keywords]
        return _row_events(names, self.scores, rows, frames)


class _LaneBatch:
    """f32 edge buffer for whole utterances, reused batch after batch.

    ``add`` puts the K lanes of one utterance side by side at ``edges[...,
    i:i + K]`` in ``_lane_columns``'s layout with one write of the oracle's
    emission block, whose lanes are already left-padded with log-1 entries
    (0.0) to its widest keyword, and one write of log-1 entries below that
    width; lanes shorter than the batch's longest read stale rows past their
    own columns, which only dropped columns use. A batch holds up to
    ``width`` lanes, or one utterance with more keywords than that, and
    closes at an utterance boundary. ``width`` starts at min(64,
    ``_LANE_CHUNK``), and after each full batch grows to the lanes of all
    full batches so far, up to ``_LANE_CHUNK``: the buffer never holds more
    lanes than have been decoded before it, so a run of few lanes never
    allocates the widest one. An utterance that does not fit first decodes
    the batch so far, so the old buffer is freed before a larger one is
    allocated. Each decoded batch queues one ``_ScoreBlock`` on ``blocks``.
    """

    def __init__(self, counters: SpeedCounters) -> None:
        self.counters = counters
        self.width = min(64, _LANE_CHUNK)
        self._closed = 0  # lanes of the full batches so far
        self.edges = _edge_buffer(0, 0, self.width)
        self.utts: list[tuple[_PendingUtterance, int]] = []  # (utterance, first lane)
        self.lanes = self._columns = self._tokens = 0
        self.blocks: deque[_ScoreBlock] = deque()

    def add(self, utt: _PendingUtterance, block: np.ndarray) -> None:
        """Queue ``utt`` with its (K, 2, n, u + 1) emission block."""
        K, _, n, u1 = block.shape
        if not K:
            self.utts.append((utt, self.lanes))
            return
        u = u1 - 1
        if self.lanes and self.lanes + K > self.width:
            self._close()
        rows, _, U1, L = self.edges.shape
        U = U1 - 1
        C = rows - 1 - 2 * U
        if n > C or u > U or max(K, self.width) > L:
            self.decode()
            del self.edges  # freed before its successor is allocated
            U = max(u, U)
            self.edges = _edge_buffer(max(n, C), U, max(K, self.width, L))
        i = self.lanes
        lanes = self.edges[U + 1 : U + 1 + n, :, :, i : i + K]
        lanes[:, :, U - u :] = block.transpose(2, 1, 3, 0)
        if u < U:
            lanes[:, :, : U - u] = 0.0  # log 1 below a narrower utterance's keywords
        self.utts.append((utt, i))
        self.lanes += K
        self._columns = max(self._columns, n)
        self._tokens = max(self._tokens, u)
        if self.lanes >= self.width:
            self._close()

    def _close(self) -> None:
        """Decode a full batch; the next may hold as many lanes as all so far."""
        self._closed += self.lanes
        self.decode()
        self.width = min(max(self.width, self._closed), _LANE_CHUNK)

    def decode(self) -> None:
        """Run the DP over the batch, queue its score block, and empty it."""
        if not self.utts:
            return
        L, C, U = self.lanes, self._columns, self._tokens
        W = max(utt.num_frames for utt, _ in self.utts)
        scores = np.full((L, W), NEG_INF)
        processed = np.zeros((L, W), dtype=bool)
        if L:
            U_buf = self.edges.shape[2] - 1
            skip = U_buf - U  # padding rows no lane of this batch needs
            edges = self.edges[skip:, :, skip:, :L]
            columns = np.empty((C, L))
            tick = perf_counter()
            _lane_columns(edges, _first_column(U, L), C, columns)
            self.counters.search_wall_seconds += perf_counter() - tick
            # Column k of lane l lands at the lane's k-th processed frame;
            # the columns past a lane's own are dropped.
            lane_frames = [utt.frames for utt, _ in self.utts for _ in utt.keywords]
            n = np.fromiter(map(len, lane_frames), np.int64, L)
            live = np.arange(C) < n[:, None]
            if all(len(utt.frames) == utt.num_frames for utt, _ in self.utts):
                # Every lane lands on every frame (RNN-T): a transposed copy,
                # which costs about a third of the scatter below.
                np.copyto(scores[:, :C], columns.T, where=live)
                processed[:, :C] = live
            else:
                at = np.concatenate(lane_frames)
                at += np.repeat(np.arange(L) * W - 1, n)
                scores.reshape(-1)[at] = columns.T[live]
                processed.reshape(-1)[at] = True
        self.blocks.append(_ScoreBlock(self.utts, scores, processed))
        self.utts = []
        self.lanes = self._columns = self._tokens = 0


def _decode_blocks(
    utterances: Iterable[tuple[EmissionOracle, Sequence[KeywordSpec], str]],
    config: DecodeConfig,
    counters: SpeedCounters,
) -> Iterator[_ScoreBlock]:
    """``decode_keywords`` with the scores of each lane batch as one block."""
    queries_per_column = 2 if config.mode == TDT else 1
    batch = _LaneBatch(counters)
    for oracle, keywords, utt_id in utterances:
        tick = perf_counter()
        _check_mode(oracle, config)
        frames = _hop_schedule(oracle, config)
        utt = _PendingUtterance(
            utt_id, oracle.num_frames, oracle.frame_seconds, frames,
            [keyword.name for keyword in keywords],
        )
        batch.add(utt, oracle.emission_grids(keywords, frames))
        columns = len(keywords) * len(frames)
        counters.columns_evaluated += columns
        counters.oracle_queries += queries_per_column * columns
        counters.total_wall_seconds += perf_counter() - tick
        while batch.blocks:
            yield batch.blocks.popleft()
    tick = perf_counter()
    batch.decode()
    counters.total_wall_seconds += perf_counter() - tick
    yield from batch.blocks


def decode_keywords(
    utterances: Iterable[tuple[EmissionOracle, Sequence[KeywordSpec], str]],
    config: DecodeConfig,
    counters: SpeedCounters | None = None,
) -> Iterator[list[ScoreStream]]:
    """Whole-utterance decodes of many (oracle, keywords, utt_id) triples.

    Yields, in input order, one list per utterance with one ScoreStream per
    keyword, as soon as its batch is decoded; every stream is a row view of
    its batch's one score block. Each utterance's hop schedule is
    computed once, and one ``emission_grids`` call fetches the rows of all
    its keywords at the scheduled frames only, as one block; its lanes join
    a batch together, and an oracle is not held once its rows are fetched.
    Scores are bit-identical to one ``StreamingDecoder`` per pair, and
    counted the same way: per pair and processed frame, one row query plus,
    in TDT mode, one greedy query, as a per-column decode would make them.
    ``search_wall_seconds`` brackets the batched column loops;
    ``total_wall_seconds`` covers schedules, row fetches and batches, not the
    time spent drawing from ``utterances``, building the streams or in the
    caller.
    """
    counters = counters if counters is not None else SpeedCounters()
    for block in _decode_blocks(utterances, config, counters):
        yield from block.streams()


def decode_kws(
    oracle: EmissionOracle,
    keyword: KeywordSpec,
    config: DecodeConfig,
    utt_id: str = "",
    counters: SpeedCounters | None = None,
) -> ScoreStream:
    """Whole-utterance decode of one (utterance, keyword) pair."""
    ((stream,),) = decode_keywords([(oracle, (keyword,), utt_id)], config, counters)
    return stream


def detect_events(stream: ScoreStream, config: DecodeConfig) -> list[DetectionEvent]:
    """Recover detection events from an already-computed ScoreStream: the
    one-row case of ``_gate_picks``, the rule ``StreamingDecoder`` fires by."""
    scores = stream.scores[None]
    picks = _gate_picks(scores, stream.processed[None], config)
    (events,) = _row_events([stream.keyword], scores, *picks)
    return events


def _gate_picks(
    scores: np.ndarray, processed: np.ndarray, config: DecodeConfig
) -> tuple[np.ndarray, np.ndarray]:
    """The live gate on every row of an (L, W) score block at once.

    A processed frame fires when its score is finite, at least the
    threshold, and ``refractory_frames`` or more after its row's last fire.
    Returns the (row, frame index) pairs that fire, sorted by row, then
    frame. The rows walk their candidates in lockstep, one fire per live row
    a round.
    """
    L, W = scores.shape
    passing = processed & np.isfinite(scores) & (scores >= config.threshold_log)
    cand = np.flatnonzero(passing)  # row * W + frame index, sorted
    # Candidates are distinct frames, so a refractory of 0 acts as 1, and
    # one of W or more leaves one fire per row.
    step = max(min(config.refractory_frames, W), 1)
    bounds = np.searchsorted(cand, np.arange(L + 1) * W)
    pos, end = bounds[:-1], bounds[1:]  # each row's candidates
    fired = [np.empty(0, dtype=np.int64)]
    while True:
        live = pos < end
        pos, end = pos[live], end[live]
        if not len(pos):
            break
        at = cand[pos]
        fired.append(at)
        pos = np.searchsorted(cand, at + step)
    return np.divmod(np.sort(np.concatenate(fired)), max(W, 1))


def _row_events(
    names: Sequence[str], scores: np.ndarray, rows: np.ndarray, frames: np.ndarray
) -> list[list[DetectionEvent]]:
    """One event list per row of ``scores``, named ``names[row]``, from the
    (row, frame index) picks of ``_gate_picks`` or ``_peak_picks``."""
    events = [[] for _ in names]
    for row, idx, score in zip(rows.tolist(), frames.tolist(), scores[rows, frames].tolist()):
        events[row].append(DetectionEvent(names[row], idx + 1, score))
    return events


def _peak_picks(scores: np.ndarray, refractory_frames: int) -> tuple[np.ndarray, np.ndarray]:
    """Greedy non-maximum suppression on every row of a (K, T) score block.

    Returns the (row, frame index) pairs picked, sorted by row, then frame.
    Each round takes every live row's highest finite score, the earliest
    frame on ties (``argmax``), suppresses +-refractory_frames around it and
    drops the rows that have none left; picks lie more than the refractory
    apart, so there are at most ceil(T / (refractory + 1)) rounds with picks.
    Non-finite scores are never picked (skipped frames are -inf). The
    refractory is clipped to T, so it may be any non-negative integer.
    """
    if refractory_frames < 0:
        raise ValidationError("refractory_frames must be >= 0")
    K, T = scores.shape
    r = min(refractory_frames, T)
    # Rows padded with r frames of -inf on each side, so a suppression never
    # runs off its row.
    W = T + 2 * r
    work = np.full((K, W), NEG_INF)
    np.copyto(work[:, r : r + T], scores, where=np.isfinite(scores))
    flat = work.reshape(-1)
    reach = np.arange(-r, r + 1)
    rows, picks = np.arange(K if T else 0), [np.empty(0, dtype=np.int64)]
    while len(rows):
        at = rows * W + (work if len(rows) == K else work[rows]).argmax(axis=1)
        found = flat[at] > NEG_INF
        rows, at = rows[found], at[found]
        picks.append(at)
        flat[at[:, None] + reach] = NEG_INF
    rows, cols = np.divmod(np.sort(np.concatenate(picks)), W)
    return rows, cols - r


def peak_events(stream: ScoreStream, refractory_frames: int) -> list[DetectionEvent]:
    """Threshold-free event extraction: greedy non-maximum suppression.

    Repeatedly takes the highest finite score (earliest frame on ties) and
    suppresses +-refractory_frames around it. ``detect_events`` is the
    live-detection rule; this offline form yields the per-utterance event
    list that threshold sweeps rank, since the event at a peak would fire at
    any threshold at or below its score. It is the one-row case of the
    block routine that ``bench`` runs on the negatives of a lane batch at
    once (``_peak_picks``).
    """
    scores = stream.scores[None]
    (events,) = _row_events([stream.keyword], scores, *_peak_picks(scores, refractory_frames))
    return events


def dump_delta_matrix(oracle: EmissionOracle, keyword: KeywordSpec, config: DecodeConfig) -> str:
    """CSV of delta(t, u) over all processed frames; skipped frames are empty cells."""
    decoder = StreamingDecoder(oracle, keyword, config)
    U = keyword.num_tokens
    lines = ["t," + ",".join(f"u{u}" for u in range(U + 1))]
    for t in range(1, oracle.num_frames + 1):
        decoder.push(t)
        if decoder._processed[t - 1]:  # the column it carries is delta(t, .)
            lines.append(str(t) + "," + ",".join(repr(v) for v in decoder._delta[:, 0].tolist()))
        else:
            lines.append(str(t) + "," * (U + 1))
    decoder.finish()
    return "\n".join(lines) + "\n"


def _encode_float(value: float) -> float | str:
    if value == NEG_INF:
        return "-inf"
    if value == math.inf:
        return "inf"
    return float(value)


def _score_text(value: float) -> str:
    """The JSON text of a score in a record: ``_encode_float``'s value as
    ``json.dumps`` writes it (float.__repr__ is json's own float formatter)."""
    value = float(value)
    return float.__repr__(value) if math.isfinite(value) else json.dumps(_encode_float(value))


_F64, _I64 = struct.Struct("=d"), struct.Struct("=q")


class _ScoreTexts(dict):
    """Score texts keyed by the f64 bit pattern, which keeps -0.0 apart from
    0.0; each is made on its first lookup. Scores repeat a lot (126 distinct
    values over the 107,526 frames of the seed-1 perfbench suite in RNN-T
    mode), so one table serves a whole lane batch."""

    def __missing__(self, bits: int) -> str:
        (value,) = _F64.unpack(_I64.pack(bits))
        text = self[bits] = _score_text(value)
        return text


def _joined(texts, keys: list) -> str:
    """``", ".join(texts[k] for k in keys)``, with every lookup in one call."""
    if len(keys) > 1:
        return ", ".join(itemgetter(*keys)(texts))
    return "".join([texts[k] for k in keys])


_BOOL_TEXT = ("false", "true")


def scorestream_record(
    stream: ScoreStream, events: Sequence[DetectionEvent], texts: _ScoreTexts | None = None
) -> str:
    """The JSONL line of one utterance's record, without its newline.

    It is ``json.dumps(record, sort_keys=True)`` of the record's fields, with
    -inf and +inf written as the strings "-inf" and "inf", put together
    field by field in key order: json encodes the strings and
    ``frame_seconds``, and the ``processed`` and ``scores`` arrays and the
    events' scores are joined from texts. ``texts`` is the score-text table
    to look each score up in; a caller that makes many records passes one
    table for all of them (``decode_suite`` passes one per lane batch), and
    without it the record makes its own. It changes no output.
    """
    if texts is None:
        texts = _ScoreTexts()
    bits = np.asarray(stream.scores, dtype=np.float64).view(np.int64).tolist()
    events_text = ", ".join(
        f'{{"frame": {e.frame}, "keyword": {_json_string(e.keyword)}, '
        f'"log_score": {_score_text(e.log_score)}}}'
        for e in events
    )
    return (
        f'{{"columns_evaluated": {stream.columns_evaluated}, "events": [{events_text}], '
        f'"frame_seconds": {json.dumps(stream.frame_seconds)}, '
        f'"keyword": {_json_string(stream.keyword)}, '
        f'"processed": [{_joined(_BOOL_TEXT, stream.processed.tolist())}], '
        f'"scores": [{_joined(texts, bits)}], "utt_id": {_json_string(stream.utt_id)}}}'
    )
