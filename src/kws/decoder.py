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
one clip to [1, d_max] and one integer loop over the hops. Emissions are
fetched for the processed frames only: by ``decode_keywords`` for every
keyword of an utterance in one ``emission_grids`` call, which returns them
as one block already in the lane layout below, by ``StreamingDecoder`` one
row per processed frame.

One DP routine (``_lane_columns``) serves every decode. It advances many
lanes at once; a lane is one (utterance, keyword) pair, indexed by its own
count of processed columns rather than by frame, so RNN-T and TDT lanes of
different utterances step together without masks and TDT keeps its skipped
frames. ``decode_keywords`` batches whole utterances, up to 256 lanes per
sweep: the lanes of all keywords of an utterance share its hop schedule,
enter a batch side by side in one buffer write of the oracle's block and
leave it as the rows of one (K, T) score block; ``StreamingDecoder`` runs
the same routine on one lane, one column at a time. Offline event
extraction works on such a block too: one greedy non-maximum suppression
round picks the next peak of every keyword of an utterance at once
(``_peak_picks``; ``peak_events`` is its one-row case).
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

import math
from collections import deque
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Iterable, Iterator, Sequence

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


class _EventGate:
    """Threshold + refractory logic shared by streaming and offline paths."""

    def __init__(self, keyword: str, config: DecodeConfig) -> None:
        self._keyword = keyword
        self._threshold = config.threshold_log
        self._refractory = config.refractory_frames
        self._last_fire: int | None = None

    def offer(self, t: int, score: float) -> DetectionEvent | None:
        if not math.isfinite(score) or score < self._threshold:
            return None
        if self._last_fire is not None and t - self._last_fire < self._refractory:
            return None
        self._last_fire = t
        return DetectionEvent(keyword=self._keyword, frame=t, log_score=score)


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
        column_sink: Callable[[int, list[float]], None] | None = None,
    ) -> None:
        _check_mode(oracle, config)
        self._oracle = oracle
        self._keyword = keyword
        self._config = config
        self._utt_id = utt_id
        self.counters = counters if counters is not None else SpeedCounters()
        self._column_sink = column_sink

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
        self._gate = _EventGate(keyword.name, config)
        self.events: list[DetectionEvent] = []
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
        row_y, row_phi = self._oracle.emission_rows(self._keyword, t)
        self.counters.oracle_queries += 1
        U = self._keyword.num_tokens

        tick = perf_counter()
        edges = self._edges
        edges[U, 1] = edges[U + 1, 1]  # the previous column becomes column 0
        edges[U + 1, 0, :U, 0] = row_y
        edges[U + 1, 1, :, 0] = row_phi
        self._delta = _lane_columns(edges, self._delta, 1, self._score)
        score = float(self._score[0, 0])
        self.counters.search_wall_seconds += perf_counter() - tick

        self._scores[t - 1] = score
        self._processed[t - 1] = True
        self._columns += 1
        self.counters.columns_evaluated += 1
        if self._column_sink is not None:
            self._column_sink(t, self._delta[:, 0].tolist())

        if self._config.mode == TDT:
            self.counters.oracle_queries += 1
            self._next_process = t + _hop(int(self._durations[t - 1]), t, self._config)
        else:
            self._next_process = t + 1

        event = self._gate.offer(t, score)
        if event is None:
            return []
        self.events.append(event)
        return [event]

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


def _zero_duration_error(t: int) -> ValidationError:
    return ValidationError(
        f"greedy track predicted duration 0 at frame {t} (zero_duration_policy='error')"
    )


def _hop(duration: int, t: int, config: DecodeConfig) -> int:
    """Frames to advance after processing frame t, given the greedy duration.
    ``config`` may also be a ``baselines.AsrConfig``, which has the same fields."""
    d = min(duration, config.d_max)
    if d < 1:
        if config.zero_duration_policy == "error":
            raise _zero_duration_error(t)
        d = 1
    return d


def _hop_schedule(oracle: EmissionOracle, config: DecodeConfig) -> np.ndarray:
    """1-based frames a decode processes: all of them in RNN-T mode, the greedy
    track's hops in TDT mode, each hop being ``_hop`` of the landed frame's
    duration. The track is keyword-independent."""
    T = oracle.num_frames
    if config.mode != TDT:
        return np.arange(1, T + 1)
    durations = np.minimum(oracle.greedy_durations(), config.d_max)
    hops = np.maximum(durations, 1).tolist()
    landed = []
    t = 1
    while t <= T:
        landed.append(t)
        t += hops[t - 1]
    frames = np.array(landed, dtype=np.int64)
    if config.zero_duration_policy == "error":
        # Every landing up to the first zero duration is the same under both
        # policies, so that landing is where an 'error' walk would stop.
        zeros = frames[durations[frames - 1] < 1]
        if len(zeros):
            raise _zero_duration_error(int(zeros[0]))
    return frames


@dataclass
class _PendingUtterance:
    utt_id: str
    num_frames: int
    frame_seconds: float
    frames: np.ndarray
    keywords: list[str]
    scores: np.ndarray | None = None  # (K, T) f64, set once its batch is decoded

    def streams(self) -> list[ScoreStream]:
        """One ScoreStream per keyword, each a row of the score block."""
        processed = np.zeros(self.scores.shape, dtype=bool)
        processed[:, self.frames - 1] = True
        n = len(self.frames)
        return [
            ScoreStream(self.utt_id, keyword, self.frame_seconds, self.scores[k], processed[k], n)
            for k, keyword in enumerate(self.keywords)
        ]


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
    allocated.
    """

    def __init__(self, counters: SpeedCounters) -> None:
        self.counters = counters
        self.width = min(64, _LANE_CHUNK)
        self._closed = 0  # lanes of the full batches so far
        self.edges = _edge_buffer(0, 0, self.width)
        self.utts: list[tuple[_PendingUtterance, int]] = []  # (utterance, first lane)
        self.lanes = self._columns = self._tokens = 0

    def add(self, utt: _PendingUtterance, block: np.ndarray) -> None:
        """Queue ``utt`` with its (K, 2, n, u + 1) emission block."""
        K, _, n, u1 = block.shape
        if not K:
            utt.scores = np.empty((0, utt.num_frames))
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
        """Run the DP over the batch, set each utterance's score block, and empty it."""
        L, C, U = self.lanes, self._columns, self._tokens
        if not L:
            return
        U_buf = self.edges.shape[2] - 1
        skip = U_buf - U  # padding rows no lane of this batch needs
        edges = self.edges[skip:, :, skip:, :L]
        scores = np.empty((C, L))
        tick = perf_counter()
        _lane_columns(edges, _first_column(U, L), C, scores)
        self.counters.search_wall_seconds += perf_counter() - tick

        for utt, i in self.utts:
            K, n = len(utt.keywords), len(utt.frames)
            utt.scores = np.full((K, utt.num_frames), NEG_INF)
            utt.scores[:, utt.frames - 1] = scores[:n, i : i + K].T
        self.utts = []
        self.lanes = self._columns = self._tokens = 0


def _decode_blocks(
    utterances: Iterable[tuple[EmissionOracle, Sequence[KeywordSpec], str]],
    config: DecodeConfig,
    counters: SpeedCounters,
) -> Iterator[_PendingUtterance]:
    """``decode_keywords`` with each utterance's scores as one (K, T) block."""
    queries_per_column = 2 if config.mode == TDT else 1
    pending: deque[_PendingUtterance] = deque()
    batch = _LaneBatch(counters)
    for oracle, keywords, utt_id in utterances:
        tick = perf_counter()
        _check_mode(oracle, config)
        frames = _hop_schedule(oracle, config)
        utt = _PendingUtterance(
            utt_id, oracle.num_frames, oracle.frame_seconds, frames,
            [keyword.name for keyword in keywords],
        )
        pending.append(utt)
        batch.add(utt, oracle.emission_grids(keywords, frames))
        columns = len(keywords) * len(frames)
        counters.columns_evaluated += columns
        counters.oracle_queries += queries_per_column * columns
        counters.total_wall_seconds += perf_counter() - tick
        while pending and pending[0].scores is not None:
            yield pending.popleft()
    tick = perf_counter()
    batch.decode()
    counters.total_wall_seconds += perf_counter() - tick
    yield from pending


def decode_keywords(
    utterances: Iterable[tuple[EmissionOracle, Sequence[KeywordSpec], str]],
    config: DecodeConfig,
    counters: SpeedCounters | None = None,
) -> Iterator[list[ScoreStream]]:
    """Whole-utterance decodes of many (oracle, keywords, utt_id) triples.

    Yields, in input order, one list per utterance with one ScoreStream per
    keyword, as soon as its batch is decoded; the streams of an utterance
    are the rows of one score block. Each utterance's hop schedule is
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
    for utt in _decode_blocks(utterances, config, counters):
        yield utt.streams()


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
    """Recover detection events from an already-computed ScoreStream.

    Same events as the streaming path's gate: a processed frame fires when its
    score is finite, at least the threshold, and ``refractory_frames`` or more
    after the last fire.
    """
    scores = stream.scores
    passing = stream.processed & np.isfinite(scores) & (scores >= config.threshold_log)
    cand = np.flatnonzero(passing)
    # Candidates are distinct frames, so a refractory of 0 acts as 1.
    step = max(config.refractory_frames, 1)
    fired, pos = [], 0
    while pos < len(cand):
        idx = int(cand[pos])
        fired.append(idx)
        pos = int(np.searchsorted(cand, idx + step))
    return [
        DetectionEvent(stream.keyword, idx + 1, score)
        for idx, score in zip(fired, scores[fired].tolist())
    ]


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
    suppresses +-refractory_frames around it. The causal gate above is the
    live-detection path; this offline form yields the per-utterance event
    list that threshold sweeps rank, since the event at a peak would fire at
    any threshold at or below its score. It is the one-row case of the
    block routine that ``bench`` runs on all keywords of an utterance at
    once (``_peak_picks``).
    """
    _, frames = _peak_picks(stream.scores[None], refractory_frames)
    return [
        DetectionEvent(stream.keyword, idx + 1, score)
        for idx, score in zip(frames.tolist(), stream.scores[frames].tolist())
    ]


def dump_delta_matrix(oracle: EmissionOracle, keyword: KeywordSpec, config: DecodeConfig) -> str:
    """CSV of delta(t, u) over all processed frames; skipped frames are empty cells."""
    captured: dict[int, list[float]] = {}
    decoder = StreamingDecoder(
        oracle, keyword, config, column_sink=lambda t, delta: captured.__setitem__(t, delta)
    )
    for t in range(1, oracle.num_frames + 1):
        decoder.push(t)
    decoder.finish()

    U = keyword.num_tokens
    lines = ["t," + ",".join(f"u{u}" for u in range(U + 1))]
    for t in range(1, oracle.num_frames + 1):
        delta = captured.get(t)
        if delta is None:
            lines.append(str(t) + "," * (U + 1))
        else:
            lines.append(str(t) + "," + ",".join(repr(v) for v in delta))
    return "\n".join(lines) + "\n"


def _encode_float(value: float) -> float | str:
    if value == NEG_INF:
        return "-inf"
    if value == math.inf:
        return "inf"
    return float(value)


def scorestream_record(stream: ScoreStream, events: Sequence[DetectionEvent]) -> dict:
    """JSON-safe record for one utterance (-inf encoded as the string "-inf")."""
    scores = stream.scores.tolist()
    for idx in np.flatnonzero(np.isinf(stream.scores)).tolist():
        scores[idx] = _encode_float(scores[idx])
    return {
        "utt_id": stream.utt_id,
        "keyword": stream.keyword,
        "frame_seconds": stream.frame_seconds,
        "scores": scores,
        "processed": stream.processed.tolist(),
        "columns_evaluated": stream.columns_evaluated,
        "events": [
            {"keyword": e.keyword, "frame": e.frame, "log_score": _encode_float(e.log_score)}
            for e in events
        ],
    }


def _field(record: dict, name: str, where: str = "score-stream record"):
    try:
        return record[name]
    except KeyError:
        raise ValidationError(f"{where} has no field {name!r}") from None


def parse_scorestream_record(record: dict) -> tuple[ScoreStream, list[DetectionEvent]]:
    """Inverse of ``scorestream_record``. A missing field, a score that is not
    a number or is NaN, or a ``processed`` list of another length than
    ``scores`` raises ``ValidationError`` naming the field."""
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
