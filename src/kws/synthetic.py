"""Generative synthetic emission oracle built from a planted alignment.

The utterance timeline is tiled in order by segments, each a token and a
duration in frames; token 0 (blank) marks a gap, a segment whose ideal
symbol is blank. Emission distributions mix a point mass on the ideal symbol
with uniform noise mass epsilon spread over all V+1 symbols:

    mass(sym) = epsilon / (V + 1) + (1 - epsilon) * [sym == ideal]

so at epsilon = 0 distributions are point masses and at epsilon = 0.5, V = 9
the ideal symbol carries 0.55 and every other symbol 0.05.

Ideal symbols per track:

* keyword track at (t, u): blank on gaps; inside a matched keyword occurrence
  whose position within the keyword is m, blank when m <= u (that token is
  already consumed by the prefix) else the segment token; the segment token on
  filler segments. This is the minimal conditioning under which the planted
  alignment path scores 1 at epsilon = 0.
* generative track at (t, n) where n = emitted non-blank token count: blank on
  gaps; blank when the covering segment's ordinal j (its place among the
  segments that are not gaps) satisfies j <= n; else the segment token.

The duration track is history-independent: at every frame of a segment the
ideal duration is min(segment duration, D_max); on gaps it is 1. The duration
distribution puts ``duration_concentration`` mass on the ideal duration and
spreads the rest uniformly over the other D_max values of {0..D_max}.

Every query is answered from per-frame arrays filled at construction by one
``np.repeat`` over the segments: the covering token, the covering segment's
ordinal and the ideal duration. Gaps are matched by no keyword and have no
ordinal, so adjacent gaps answer every query as one gap would.

* Keyword track (``emission_grids``): a row depends on its frame only
  through the keyword position of the covering segment and the class of its
  token for the keyword (blank, absent from the keyword, or which keyword
  token it is). So a keyword set's distinct rows form one small table
  (``_KeywordRows``), built once per keyword set and epsilon and shared by
  every oracle. One pass over the segment tokens matches every keyword of a
  query (``_segment_positions``); the block is one gather from the table at
  the (keyword, segment) row codes of the queried frames, with no loop over
  the keywords. ``StreamingDecoder`` makes the same query, one frame at a
  time.
* Greedy tracks (``greedy_durations``, ``greedy_tokens``) and duration
  vectors (``duration_log_probs``, ``duration_log_prob_group``) are closed
  forms of the per-frame ideal duration and ordinal, so no
  (d_max + 1)-squared table is built, whatever d_max.
* Generative track: it depends on a history only through its length n, so
  ``token_log_prob_rows`` reads no history's tokens, and a group of oracles
  answers many rows in one query (``token_log_prob_group``) from their
  per-frame arrays, concatenated with per-oracle offsets.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .emissions import (
    BLANK_ID, EmissionOracle, KeywordSpec, NEG_INF, _check_numbers, _index, _store_integers,
)
from .errors import ModeError, ValidationError
from .lattice import D_MAX_LIMIT


@dataclass(frozen=True)
class SyntheticJoinerConfig:
    """Planted ground truth plus noise/duration knobs for one utterance.

    The alignment is two columns of one length: segment i has token
    ``tokens[i]`` (0 marks a gap) and covers ``durations[i]`` frames from
    frame 1 + ``sum(durations[:i])``. ``num_frames`` is their sum. Emissions
    are a closed-form function of the alignment and epsilon. The message of
    every refusal begins with the name of the field it refuses.
    """

    vocab_size: int
    tokens: tuple[int, ...]
    durations: tuple[int, ...]
    epsilon: float = 0.0
    d_max: int = 0
    duration_concentration: float = 1.0
    frame_seconds: float = 0.03
    num_frames: int = field(init=False)

    def __post_init__(self) -> None:
        _store_integers(self, "vocab_size", "d_max")
        _check_numbers(self, "epsilon", "duration_concentration", "frame_seconds")
        tokens, durations = _integers("tokens", self.tokens), _integers("durations", self.durations)
        object.__setattr__(self, "tokens", tokens)
        object.__setattr__(self, "durations", durations)
        object.__setattr__(self, "num_frames", sum(durations))
        if self.vocab_size < 1:
            raise ValidationError("vocab_size must be >= 1")
        if len(durations) != len(tokens):
            raise ValidationError(
                f"durations has {len(durations)} entries, but 'tokens' has {len(tokens)}"
            )
        if not durations:
            raise ValidationError("durations must cover at least one frame, got no segment")
        if min(durations) < 1:
            i, duration = next((i, d) for i, d in enumerate(durations) if d < 1)
            raise ValidationError(f"durations[{i}] must be >= 1, got {duration}")
        if min(tokens) < 0 or max(tokens) > self.vocab_size:
            i, token = next((i, t) for i, t in enumerate(tokens) if not 0 <= t <= self.vocab_size)
            raise ValidationError(f"tokens[{i}] must be in [0, {self.vocab_size}], got {token}")
        if not 0.0 <= self.epsilon < 1.0:
            raise ValidationError(f"epsilon must be in [0, 1), got {self.epsilon}")
        if not 0 <= self.d_max <= D_MAX_LIMIT:
            raise ValidationError(f"d_max must be in [0, {D_MAX_LIMIT}], got {self.d_max}")
        if not 0.0 < self.duration_concentration <= 1.0:
            raise ValidationError("duration_concentration must be in (0, 1]")
        if not (math.isfinite(self.frame_seconds) and self.frame_seconds > 0):
            raise ValidationError(
                f"frame_seconds must be finite and > 0, got {self.frame_seconds}"
            )

    @property
    def duration_seconds(self) -> float:
        return self.num_frames * self.frame_seconds


def _integers(name: str, column) -> tuple[int, ...]:
    """``column`` as a tuple of the ints ``_index`` gives; an entry it
    refuses raises ValidationError naming ``name[i]``."""
    try:
        if set(map(type, column)) <= {int}:  # a C-level scan spares per-entry calls
            return tuple(column)
    except TypeError as exc:  # not iterable
        raise ValidationError(f"{name} must be a sequence of integers, got {column!r:.80}") from exc
    entries = []
    for i, value in enumerate(column):
        try:
            entries.append(_index(value))
        except TypeError as exc:
            raise ValidationError(f"{name}[{i}] must be an integer, got {value!r}") from exc
    return tuple(entries)


class SyntheticOracle(EmissionOracle):
    """Emission oracle answering all tracks for one SyntheticJoinerConfig."""

    def __init__(self, config: SyntheticJoinerConfig) -> None:
        self._cfg = config
        n = len(config.tokens)
        tokens = np.fromiter(config.tokens, dtype=np.int64, count=n)
        durations = np.fromiter(config.durations, dtype=np.int64, count=n)
        planted = tokens != BLANK_ID
        self._seg_token_ids = tokens[planted]  # the tokens of the segments that are not gaps
        self._seg_tokens = tuple(self._seg_token_ids.tolist())

        # Per segment: covering token (0 = gap), ordinal among the segments
        # that are not gaps (1-based, 0 = gap) and ideal duration
        # (min(duration, d_max), 1 on gaps), repeated over its frames.
        runs = np.empty((3, n), dtype=np.int64)
        runs[0] = tokens
        np.multiply(np.cumsum(planted), planted, out=runs[1])
        runs[2] = np.where(planted, np.minimum(durations, config.d_max), 1)
        # Per-frame planted state, 0-indexed by t-1.
        self._content, self._seg_ord, self._ideal_durations = np.repeat(runs, durations, axis=1)

        V = config.vocab_size
        eps = config.epsilon
        # eps/(V+1) can underflow to exactly 0 for subnormal eps; log(0) = -inf.
        noise = eps / (V + 1)
        self._log_noise = math.log(noise) if noise > 0 else NEG_INF
        self._log_ideal = math.log(noise + (1.0 - eps))
        # The f32 values every keyword-track row holds.
        self._ideal32 = float(np.float32(self._log_ideal))
        self._noise32 = float(np.float32(self._log_noise))

        if config.d_max > 0:
            # The duration vector at ideal duration i puts log_concentrated
            # on i and log_spread on each of the other d_max values.
            concentration = config.duration_concentration
            with np.errstate(divide="ignore"):
                self._log_spread = float(np.log((1.0 - concentration) / config.d_max))
            self._log_concentrated = math.log(concentration)
            # Its argmax, the greedy duration, is i when i carries strictly
            # more mass, else 0, the first of the others (every i is >= 1).
            self._ideal_is_greedy = self._log_concentrated > self._log_spread

    @property
    def config(self) -> SyntheticJoinerConfig:
        return self._cfg

    @property
    def num_frames(self) -> int:
        return self._cfg.num_frames

    @property
    def d_max(self) -> int:
        return self._cfg.d_max

    @property
    def frame_seconds(self) -> float:
        return self._cfg.frame_seconds

    @property
    def is_generative(self) -> bool:
        return True

    @property
    def vocab_size(self) -> int:
        return self._cfg.vocab_size

    # Keyword track

    def _rows(self, keywords: Sequence[KeywordSpec]) -> "_KeywordRows":
        rows = _keyword_rows(tuple(keywords), self._ideal32, self._noise32)
        V = self._cfg.vocab_size
        if rows.top > V:
            name = next(keyword.name for keyword in keywords if max(keyword.tokens) > V)
            raise ValidationError(f"keyword {name!r} has token-ids above vocab_size {V}")
        return rows

    def _segment_positions(self, rows: "_KeywordRows") -> np.ndarray:
        """(K, n + 1) keyword position m in [1, U] of each of the n segments
        that are not gaps inside a matched occurrence of keyword k, else 0;
        column 0 stands for gaps.

        Occurrences are non-overlapping runs of consecutive segments whose
        tokens equal keyword.tokens, matched greedily left to right. One pass
        over the segment tokens serves every keyword of the query.
        """
        keys, starting = rows.keys, rows.starting
        toks = self._seg_tokens
        seg_pos = np.zeros((len(keys), len(toks) + 1), dtype=np.int64)
        free = [0] * len(keys)  # first segment a next occurrence of keyword k may start at
        for i, token in enumerate(toks):
            for k in starting.get(token, ()):
                key = keys[k]
                U = len(key)
                if i >= free[k] and toks[i : i + U] == key:
                    seg_pos[k, i + 1 : i + 1 + U] = np.arange(1, U + 1)
                    free[k] = i + U
        return seg_pos

    def emission_grids(
        self, keywords: Sequence[KeywordSpec], frames: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """The (K, 2, n, U + 1) f32 emission block at the n frames, in ``out``
        when it is given.

        Each (keyword, frame) entry is one gather from the keyword set's row
        table, at the code of the covering segment's keyword position and
        token class; no step loops over the keywords. The gather goes to a
        contiguous block, which one copy moves into ``out``: a gather
        straight into a strided ``out`` is buffered, and slower.
        """
        self._check_frames(frames)
        if not len(keywords):
            return np.zeros((0, 2, len(frames), 1), dtype=np.float32) if out is None else out
        rows = self._rows(keywords)
        # Each segment token's class in the keyword set; column 0 is the gaps'.
        tokens = self._seg_token_ids
        at = np.minimum(np.searchsorted(rows.tokens, tokens), len(rows.tokens) - 1)
        classes = np.zeros(len(tokens) + 1, dtype=np.int64)
        classes[1:] = np.where(rows.tokens[at] == tokens, at + 2, 1)
        codes = self._segment_positions(rows) * rows.classes_per_position + rows.codes[:, classes]
        block = np.take(rows.table, codes[:, self._seg_ord[frames - 1]], axis=0)
        block = block.transpose(0, 2, 1, 3)
        if out is None:
            return block
        out[...] = block
        return out

    # Generative track

    def token_log_prob_rows(self, t: int, histories: Sequence[Sequence[int]]) -> np.ndarray:
        self._check_frame(t)
        shape = (len(histories), self._cfg.vocab_size + 1)
        rows = np.full(shape, self._log_noise, dtype=np.float64)
        ordinal, token = int(self._seg_ord[t - 1]), int(self._content[t - 1])
        for i, history in enumerate(histories):
            # The covering segment's token while fewer tokens than its
            # ordinal have been emitted, else blank (also on gaps).
            rows[i, token if ordinal > len(history) else BLANK_ID] = self._log_ideal
        return rows

    @classmethod
    def token_log_prob_group(cls, oracles: Sequence[EmissionOracle]):
        """The generative track of a group from its concatenated per-frame
        arrays. It depends on a history only through its length, so the
        rows read ``lengths`` and never ``histories``. A group holding any
        oracle whose ``token_log_prob_rows`` is not this class's (a wrapper,
        or a subclass that overrides it) takes the stacking default."""
        # __class__, not the module's global name, which a tracer may have
        # swapped for a wrapper.
        own = __class__.token_log_prob_rows
        if any(getattr(type(o), "token_log_prob_rows", None) is not own for o in oracles):
            return super().token_log_prob_group(oracles)
        num_frames = np.array([o.num_frames for o in oracles], dtype=np.int64)
        offsets = np.cumsum(num_frames) - num_frames
        seg_ord = np.concatenate([o._seg_ord for o in oracles])
        content = np.concatenate([o._content for o in oracles])
        log_noise = np.array([o._log_noise for o in oracles])[:, None]
        log_ideal = np.array([o._log_ideal for o in oracles])
        width = oracles[0].vocab_size + 1

        def rows(utts, frames, lengths, histories) -> np.ndarray:
            bad = np.flatnonzero((frames < 1) | (frames > num_frames[utts]))
            if bad.size:
                oracles[utts[bad[0]]]._check_frame(int(frames[bad[0]]))
            at = offsets[utts] + frames - 1
            # The covering segment's token while fewer tokens than its
            # ordinal have been emitted, else blank (also on gaps).
            ideal = np.where(seg_ord[at] > lengths, content[at], BLANK_ID)
            out = np.repeat(log_noise[utts], width, axis=1)
            out[np.arange(len(utts)), ideal] = log_ideal[utts]
            return out

        return rows

    def duration_log_probs(self, t: int, history: Sequence[int] = ()) -> np.ndarray:
        self._check_duration_track()
        self._check_frame(t)
        vec = np.full(self._cfg.d_max + 1, self._log_spread)
        vec[self._ideal_durations[t - 1]] = self._log_concentrated
        return vec

    @classmethod
    def duration_log_prob_group(cls, oracles: Sequence[EmissionOracle]):
        """The group's duration rows from its concatenated ideal durations;
        a group holding another kind of oracle, or one without a duration
        track, takes the stacking default."""
        methods = {getattr(type(o), "duration_log_probs", None) for o in oracles}
        if methods != {__class__.duration_log_probs} or not all(o.d_max for o in oracles):
            return super().duration_log_prob_group(oracles)
        num_frames = np.array([o.num_frames for o in oracles], dtype=np.int64)
        offsets = np.cumsum(num_frames) - num_frames
        ideal = np.concatenate([o._ideal_durations for o in oracles])
        d_max = np.array([o.d_max for o in oracles])
        within = np.arange(d_max.max() + 1) <= d_max[:, None]
        spread = np.array([o._log_spread for o in oracles])[:, None]
        concentrated = np.array([o._log_concentrated for o in oracles])

        def rows(utts, frames, histories) -> np.ndarray:
            bad = np.flatnonzero((frames < 1) | (frames > num_frames[utts]))
            if bad.size:
                oracles[utts[bad[0]]]._check_frame(int(frames[bad[0]]))
            out = np.where(within[utts], spread[utts], NEG_INF)
            out[np.arange(len(utts)), ideal[offsets[utts] + frames - 1]] = concentrated[utts]
            return out

        return rows

    # Greedy track

    def _check_duration_track(self) -> None:
        if not self.supports_tdt:
            raise ModeError("oracle has no duration track (d_max=0)")

    def greedy_durations(self) -> np.ndarray:
        self._check_duration_track()
        return np.where(self._ideal_is_greedy, self._ideal_durations, 0)

    def greedy_tokens(self) -> np.ndarray:
        self._check_duration_track()
        # One greedy step per frame emits each segment's token once, at its
        # first frame, where the ordinal changes: there the emitted count is
        # the number of earlier segments.
        first = np.diff(self._seg_ord, prepend=0) != 0
        return np.where(first, self._content, BLANK_ID)


class _KeywordRows:
    """The distinct keyword-track rows of a keyword set, at one pair of f32
    ideal and noise log-probs, in the lane layout of ``emission_grids``.

    A row pair (log_y, log_phi) depends on its frame only through the
    keyword position m in [0, U] of the covering segment and the class of
    the covering token for the keyword: 0 for blank, 1 for a token the
    keyword lacks, 2 + j for the keyword's token at its first position j.
    ``table[codes[k, g] + m * classes_per_position]`` is keyword k's
    (2, U + 1) row pair at position m for a token of class g in the whole
    set: 0 for blank, 1 for a token no keyword holds, 2 + i for
    ``tokens[i]``.
    """

    def __init__(self, keywords: tuple[KeywordSpec, ...], ideal: float, noise: float) -> None:
        self.keys = [keyword.tokens for keyword in keywords]
        self.top = max(max(key) for key in self.keys)
        self.starting: dict[int, list[int]] = {}  # first token -> keywords that start with it
        for k, key in enumerate(self.keys):
            self.starting.setdefault(key[0], []).append(k)
        K = len(self.keys)
        widths = np.array([len(key) for key in self.keys])
        U = int(widths.max())
        padded = np.zeros((K, U), dtype=np.int64)  # tokens; 0 past a keyword's width
        for k, key in enumerate(self.keys):
            padded[k, : len(key)] = key
        self.tokens = np.unique(padded[padded > 0])

        C = self.classes_per_position = U + 2
        # The token each class stands for (-1: none), and each set class's
        # class for every keyword.
        class_token = np.full((K, C), -1, dtype=np.int64)
        class_token[:, 2:] = np.where(padded > 0, padded, -1)
        equal = padded[:, :, None] == self.tokens  # (K, U, D)
        codes = np.ones((K, len(self.tokens) + 2), dtype=np.int64)
        codes[:, 0] = 0
        codes[:, 2:] = np.where(equal.any(axis=1), 2 + equal.argmax(axis=1), 1)
        self.codes = codes + (np.arange(K) * (U + 1) * C)[:, None]

        # Lane p of keyword k holds its token position u = p - (U - width).
        u = np.arange(U + 1) - (U - widths)[:, None]  # (K, U + 1)
        token_at = np.where(
            (u >= 0) & (u < widths[:, None]),
            np.take_along_axis(padded, np.clip(u, 0, U - 1), axis=1),
            0,
        )
        m = np.arange(U + 1)[:, None]
        # At node (frame, u) the ideal symbol is blank when position 1..u of
        # a matched occurrence covers the frame (that token is consumed by
        # the prefix), else the covering token (blank on gaps).
        consumed = ((m > 0) & (m <= u[:, None, :]))[:, :, None, :]  # (K, M, 1, U + 1)
        y_ideal = ~consumed & (token_at[:, None, None, :] == class_token[:, None, :, None])
        phi_ideal = consumed | (np.arange(C) == 0)[:, None]
        pick = np.float32([0.0, noise, ideal])  # off the keyword, noise, ideal
        table = np.empty((K, U + 1, C, 2, U + 1), dtype=np.float32)
        table[..., 0, :] = pick[((u >= 0) & (u < widths[:, None]))[:, None, None] * (1 + y_ideal)]
        table[..., 1, :] = pick[((u >= 0) & (u <= widths[:, None]))[:, None, None] * (1 + phi_ideal)]
        self.table = table.reshape(-1, 2, U + 1)


# Shared by every oracle: a bench run queries one keyword set at one epsilon
# for each of its negatives, and `kws gen` snapshots each keyword at each
# epsilon (40 sets of one keyword for the 20 default keywords and 2 epsilons).
_keyword_rows = functools.lru_cache(maxsize=128)(_KeywordRows)
