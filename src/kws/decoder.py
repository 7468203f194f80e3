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
column is computed for them). The greedy track does not depend on the
keyword, so ``decode_keywords`` decodes all keywords of an utterance on one
hop schedule; ``StreamingDecoder`` and it share one column update.

Everything accumulates in f64 even though oracles store f32.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Sequence

import numpy as np

from .emissions import EmissionOracle, KeywordSpec, NEG_INF
from .errors import ModeError, ProtocolError, ValidationError
from .metrics import SpeedCounters

RNNT = "rnnt"
TDT = "tdt"
ZERO_DURATION_POLICIES = ("clamp", "error")


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
        self._delta: list[float] | None = None
        self._phi_last: list[float] | None = None
        self._greedy_state: object = oracle.initial_greedy_state()
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
        phi = row_phi.tolist()
        U = self._keyword.num_tokens

        tick = perf_counter()
        delta = _column(self._delta, self._phi_last, row_y.tolist(), U)
        score = delta[U] + phi[U]
        self.counters.search_wall_seconds += perf_counter() - tick

        self._delta = delta
        self._phi_last = phi
        self._scores[t - 1] = score
        self._processed[t - 1] = True
        self._columns += 1
        self.counters.columns_evaluated += 1
        if self._column_sink is not None:
            self._column_sink(t, list(delta))

        if self._config.mode == TDT:
            step, self._greedy_state = self._oracle.greedy_step(t, self._greedy_state)
            self.counters.oracle_queries += 1
            self._next_process = t + _hop(step.duration, t, self._config)
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


def _column(
    prev_delta: list[float] | None, prev_phi: list[float] | None, y: list[float], U: int
) -> list[float]:
    """The DP column delta(t, 0..U) from the previous processed column.

    ``prev_delta`` is None at the first processed frame, where the virtual
    t = 0 column carries probability zero and only the vertical chain is left.
    """
    delta = [0.0] * (U + 1)
    if prev_delta is None:
        for u in range(1, U + 1):
            delta[u] = delta[u - 1] + y[u - 1]
    else:
        for u in range(1, U + 1):
            vertical = delta[u - 1] + y[u - 1]
            horizontal = prev_delta[u] + prev_phi[u]
            delta[u] = vertical if vertical >= horizontal else horizontal
    return delta


def _hop(duration: int, t: int, config: DecodeConfig) -> int:
    """Frames to advance after processing frame t, given the greedy duration.
    ``config`` may also be a ``baselines.AsrConfig``, which has the same fields."""
    d = min(duration, config.d_max)
    if d < 1:
        if config.zero_duration_policy == "error":
            raise ValidationError(
                f"greedy track predicted duration 0 at frame {t} "
                "(zero_duration_policy='error')"
            )
        d = 1
    return d


def _hop_schedule(oracle: EmissionOracle, config: DecodeConfig) -> np.ndarray:
    """1-based frames a decode processes: all of them in RNN-T mode, the greedy
    track's hops in TDT mode. The track is keyword-independent."""
    T = oracle.num_frames
    if config.mode != TDT:
        return np.arange(1, T + 1)
    frames = []
    state = oracle.initial_greedy_state()
    t = 1
    while t <= T:
        frames.append(t)
        step, state = oracle.greedy_step(t, state)
        t += _hop(step.duration, t, config)
    return np.array(frames, dtype=np.int64)


def decode_keywords(
    oracle: EmissionOracle,
    keywords: Sequence[KeywordSpec],
    config: DecodeConfig,
    utt_id: str = "",
    counters: SpeedCounters | None = None,
) -> list[ScoreStream]:
    """Whole-utterance decode of several keywords on one shared hop schedule.

    Bit-identical to one ``StreamingDecoder`` per keyword, and counted the
    same way: per keyword, one row query per processed frame plus, in TDT
    mode, one greedy query, although the schedule is computed only once.
    ``search_wall_seconds`` brackets each keyword's column loop;
    ``total_wall_seconds`` covers the whole call.
    """
    tick = perf_counter()
    _check_mode(oracle, config)
    counters = counters if counters is not None else SpeedCounters()
    frames = _hop_schedule(oracle, config)
    n = len(frames)
    queries_per_column = 2 if config.mode == TDT else 1
    streams = []
    for keyword in keywords:
        log_y, log_phi = oracle.emission_grid(keyword, frames)
        ys = log_y.tolist()
        phis = log_phi.tolist()
        U = keyword.num_tokens
        column_scores = []
        search_tick = perf_counter()
        delta = prev_phi = None
        for y, phi in zip(ys, phis):
            delta = _column(delta, prev_phi, y, U)
            column_scores.append(delta[U] + phi[U])
            prev_phi = phi
        counters.search_wall_seconds += perf_counter() - search_tick
        counters.columns_evaluated += n
        counters.oracle_queries += queries_per_column * n

        scores = np.full(oracle.num_frames, NEG_INF, dtype=np.float64)
        scores[frames - 1] = column_scores
        processed = np.zeros(oracle.num_frames, dtype=bool)
        processed[frames - 1] = True
        streams.append(
            ScoreStream(
                utt_id=utt_id,
                keyword=keyword.name,
                frame_seconds=oracle.frame_seconds,
                scores=scores,
                processed=processed,
                columns_evaluated=n,
            )
        )
    counters.total_wall_seconds += perf_counter() - tick
    return streams


def decode_kws(
    oracle: EmissionOracle,
    keyword: KeywordSpec,
    config: DecodeConfig,
    utt_id: str = "",
    counters: SpeedCounters | None = None,
) -> ScoreStream:
    """Whole-utterance decode; returns the full ScoreStream."""
    return decode_keywords(oracle, [keyword], config, utt_id=utt_id, counters=counters)[0]


def detect_events(stream: ScoreStream, config: DecodeConfig) -> list[DetectionEvent]:
    """Recover detection events from an already-computed ScoreStream.

    Uses the same gate as the streaming path, so results are identical.
    """
    gate = _EventGate(stream.keyword, config)
    events = []
    for idx in np.flatnonzero(stream.processed).tolist():
        event = gate.offer(idx + 1, float(stream.scores[idx]))
        if event is not None:
            events.append(event)
    return events


def peak_events(stream: ScoreStream, refractory_frames: int) -> list[DetectionEvent]:
    """Threshold-free event extraction: greedy non-maximum suppression.

    Repeatedly takes the highest finite score (earliest frame on ties) and
    suppresses +-refractory_frames around it. The causal gate above is the
    live-detection path; this offline form yields the per-utterance event
    list that threshold sweeps rank, since the event at a peak would fire at
    any threshold at or below its score.
    """
    if refractory_frames < 0:
        raise ValidationError("refractory_frames must be >= 0")
    scores = stream.scores
    # Only finite scores can become events, and skipped frames (-inf) sort
    # last anyway, so the walk covers the processed frames alone.
    finite = np.flatnonzero(np.isfinite(scores))
    order = finite[np.lexsort((finite, -scores[finite]))]
    suppressed = np.zeros(len(scores), dtype=bool)
    events = []
    for idx in order.tolist():
        score = float(scores[idx])
        if suppressed[idx]:
            continue
        events.append(DetectionEvent(stream.keyword, idx + 1, score))
        lo = max(0, idx - refractory_frames)
        suppressed[lo : idx + refractory_frames + 1] = True
    events.sort(key=lambda e: e.frame)
    return events


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
    return {
        "utt_id": stream.utt_id,
        "keyword": stream.keyword,
        "frame_seconds": stream.frame_seconds,
        "scores": [_encode_float(s) for s in stream.scores.tolist()],
        "processed": [bool(p) for p in stream.processed.tolist()],
        "columns_evaluated": stream.columns_evaluated,
        "events": [
            {"keyword": e.keyword, "frame": e.frame, "log_score": _encode_float(e.log_score)}
            for e in events
        ],
    }


def parse_scorestream_record(record: dict) -> tuple[ScoreStream, list[DetectionEvent]]:
    stream = ScoreStream(
        utt_id=record["utt_id"],
        keyword=record["keyword"],
        frame_seconds=record["frame_seconds"],
        # float() reads both JSON numbers and the "-inf"/"inf" strings.
        scores=np.array([float(s) for s in record["scores"]], dtype=np.float64),
        processed=np.array(record["processed"], dtype=bool),
        columns_evaluated=record["columns_evaluated"],
    )
    events = [
        DetectionEvent(
            keyword=e["keyword"], frame=e["frame"], log_score=float(e["log_score"])
        )
        for e in record.get("events", [])
    ]
    return stream, events
