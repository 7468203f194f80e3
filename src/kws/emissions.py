"""Keyword specs and the emission-oracle interface.

An emission oracle stands in for a trained transducer joiner. Decoders ask it
two kinds of questions:

* keyword-track emissions: the log-probability of the next keyword token
  (``log_y``) or of blank (``log_phi``) at lattice node (t, u), where u is the
  number of keyword tokens already consumed. A decode asks for the frames it
  processes only, for every keyword of an utterance at once
  (``emission_grids``), as a TDT joiner runs only where the predicted
  durations land;
* the greedy duration track (duration-aware oracles only): the argmax
  duration at every frame, as one array (``greedy_durations``). It depends
  on neither the keyword nor the greedy history, so one array serves every
  keyword of an utterance and a decode needs no per-frame calls. The
  per-frame ``greedy_step`` also gives the argmax token, which threads an
  opaque greedy-history handle; lattice snapshots record that token track,
  also as one array (``_greedy_tokens``).

Generative oracles additionally answer full-vocabulary queries conditioned on
an arbitrary emitted-token history, which is what the ASR baselines need:
one history at a time (``token_log_probs``), many histories at one frame
(``token_log_prob_rows``), or many (utterance, frame, history) rows of a
group of oracles at once (``token_log_prob_group``), which is what the
baselines' lockstep rounds ask. The group query's default stacks one
``token_log_prob_rows`` call per utterance and frame, so wrapping oracles and
history-dependent ones keep working; oracles that can answer a whole group
from arrays override it.

Oracles are immutable after construction and safe to share across concurrent
decoders; greedy-history handles are per-stream values.
"""

from __future__ import annotations

import operator
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import CapabilityError, ModeError, ValidationError

BLANK_ID = 0
NEG_INF = float("-inf")


@dataclass(frozen=True)
class KeywordSpec:
    """A keyword as a sequence of non-blank token-ids (blank y0 is implicit)."""

    name: str
    tokens: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ValidationError(f"keyword name must be a non-empty string, got {self.name!r}")
        try:
            # operator.index, not int(): 4.7 or "4" is an error, not token 4.
            tokens = tuple(operator.index(t) for t in self.tokens)
        except TypeError as exc:
            raise ValidationError(
                f"keyword {self.name!r} token ids must be integers, got {self.tokens!r}"
            ) from exc
        object.__setattr__(self, "tokens", tokens)
        if len(self.tokens) < 1:
            raise ValidationError(f"keyword {self.name!r} must have at least one token")
        if any(t < 1 for t in self.tokens):
            raise ValidationError(
                f"keyword {self.name!r} has token-ids below 1 (0 is reserved for blank)"
            )

    @property
    def num_tokens(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class GreedyStepOutput:
    """Argmax token/duration at one frame of the greedy track."""

    token: int
    duration: int
    log_token_prob: float
    log_duration_prob: float


class EmissionOracle(ABC):
    """Source of the log-probabilities a trained joiner would produce."""

    @property
    @abstractmethod
    def num_frames(self) -> int:
        """Total frame count T; frames are addressed 1..T."""

    @property
    @abstractmethod
    def d_max(self) -> int:
        """Maximum predictable duration; 0 means no duration track (RNN-T only)."""

    @property
    @abstractmethod
    def frame_seconds(self) -> float:
        """Wall-clock seconds represented by one frame."""

    @property
    def supports_tdt(self) -> bool:
        return self.d_max > 0

    @property
    def is_generative(self) -> bool:
        """Whether arbitrary-history full-vocabulary queries are answerable."""
        return False

    def _check_frame(self, t: int) -> None:
        if not 1 <= t <= self.num_frames:
            raise ValidationError(
                f"frame index {t} out of range [1, {self.num_frames}]"
            )

    @abstractmethod
    def emission_rows(self, keyword: KeywordSpec, t: int) -> tuple[np.ndarray, np.ndarray]:
        """Keyword-track emissions for one frame.

        Returns ``(log_y_row, log_phi_row)`` where ``log_y_row[u]`` is
        log y(t, u) for u in [0, U-1] and ``log_phi_row[u]`` is log phi(t, u)
        for u in [0, U]. Rows are f32 and must not be mutated by callers.
        """

    def emission_grids(
        self, keywords: Sequence[KeywordSpec], frames: np.ndarray
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Keyword-track emissions of many keywords at the same frames.

        ``frames`` holds 1-based frame indices. Returns one ``(log_y,
        log_phi)`` pair per keyword, in order, of shapes (len(frames), U) and
        (len(frames), U + 1), row i being ``emission_rows(keyword,
        frames[i])``. This default stacks those rows, one call per keyword
        and frame, so an oracle that wraps or delegates ``emission_rows``
        still sees every row; oracles that hold whole grids or can answer
        all keywords together override it.
        """
        grids = []
        for keyword in keywords:
            U = keyword.num_tokens
            log_y = np.empty((len(frames), U), dtype=np.float32)
            log_phi = np.empty((len(frames), U + 1), dtype=np.float32)
            for i, t in enumerate(frames):
                log_y[i], log_phi[i] = self.emission_rows(keyword, int(t))
            grids.append((log_y, log_phi))
        return grids

    def _check_frames(self, frames: np.ndarray) -> None:
        if len(frames) and not (1 <= frames.min() and frames.max() <= self.num_frames):
            raise ValidationError(
                f"frame indices must lie in [1, {self.num_frames}]"
            )

    def initial_greedy_state(self) -> object:
        return None

    @abstractmethod
    def greedy_step(self, t: int, state: object) -> tuple[GreedyStepOutput, object]:
        """Argmax token and duration at frame t given greedy history ``state``.

        Raises ModeError when the oracle has no duration track (d_max = 0).
        """

    def greedy_durations(self) -> np.ndarray:
        """The greedy duration at every frame: int64[T], entry t - 1 for frame t.

        Contract: the duration track depends on neither the keyword nor the
        greedy history, so entry t - 1 equals ``greedy_step(t, state).duration``
        for every ``state``. Durations are not capped at any decode's
        ``d_max``; int64 leaves room for any cap. This default walks
        ``greedy_step`` over frames 1..T from the initial state, one call per
        frame, so an oracle that wraps or delegates ``greedy_step`` still
        sees every step; oracles that hold the track as an array override it.
        Raises ModeError when the oracle has no duration track (d_max = 0).
        """
        durations = np.empty(self.num_frames, dtype=np.int64)
        state = self.initial_greedy_state()
        for t in range(1, self.num_frames + 1):
            step, state = self.greedy_step(t, state)
            durations[t - 1] = step.duration
        return durations

    def _greedy_tokens(self) -> np.ndarray:
        """The greedy token at every frame: int64[T], entry t - 1 for frame t.

        Unlike the duration track this one threads the greedy history: it is
        the token of ``greedy_step`` walked over frames 1..T from the initial
        state, which is what this default does, one call per frame. Lattice
        snapshots record it. Raises ModeError when the oracle has no
        duration track (d_max = 0).
        """
        tokens = np.empty(self.num_frames, dtype=np.int64)
        state = self.initial_greedy_state()
        for t in range(1, self.num_frames + 1):
            step, state = self.greedy_step(t, state)
            tokens[t - 1] = step.token
        return tokens

    # Generative interface; non-generative oracles inherit the refusals.

    @property
    def vocab_size(self) -> int:
        raise CapabilityError(f"{type(self).__name__} is not generative")

    def token_log_probs(self, t: int, history: Sequence[int]) -> np.ndarray:
        """Full token distribution (V+1 log-probs, index 0 = blank) at frame t
        given the emitted non-blank token history."""
        raise CapabilityError(f"{type(self).__name__} is not generative")

    def token_log_prob_rows(self, t: int, histories: Sequence[Sequence[int]]) -> np.ndarray:
        """Full token distributions at frame t for many histories at once.

        Returns a (len(histories), V+1) float64 array, row i being
        ``token_log_probs(t, histories[i])``. This default stacks those rows,
        one call per history, so an oracle that wraps or delegates
        ``token_log_probs`` still sees every row; oracles that can answer
        all histories together override it.
        """
        rows = np.empty((len(histories), self.vocab_size + 1), dtype=np.float64)
        for i, history in enumerate(histories):
            rows[i] = self.token_log_probs(t, history)
        return rows

    @classmethod
    def token_log_prob_group(
        cls, oracles: Sequence["EmissionOracle"]
    ) -> Callable[[np.ndarray, np.ndarray, np.ndarray, Sequence[Sequence[int]]], np.ndarray]:
        """The full token distributions of a group of oracles, many rows at once.

        The oracles must share one ``vocab_size``. Returns ``rows(utts,
        frames, lengths, histories)``, which takes int arrays ``utts``
        (indices into ``oracles``), ``frames`` and ``lengths``, and a sequence
        of token histories, ``lengths[i] == len(histories[i])``, and returns a
        (len(utts), V+1) float64 array whose row i is
        ``oracles[utts[i]].token_log_prob_rows(frames[i], [histories[i]])[0]``.
        This default makes one ``token_log_prob_rows`` call per distinct
        (utterance, frame) pair of the rows and stacks the results, so an
        oracle that wraps or delegates the per-utterance queries still sees
        every row. An override may read ``lengths`` instead of ``histories``
        only where its distributions depend on a history through its length
        alone.
        """

        def rows(utts, frames, lengths, histories) -> np.ndarray:
            out = np.empty((len(utts), oracles[0].vocab_size + 1), dtype=np.float64)
            batches: dict[tuple[int, int], list[int]] = {}
            for i, key in enumerate(zip(np.asarray(utts).tolist(), np.asarray(frames).tolist())):
                batches.setdefault(key, []).append(i)
            for (u, t), index in batches.items():
                out[index] = oracles[u].token_log_prob_rows(t, [histories[i] for i in index])
            return out

        return rows

    def duration_log_probs(self, t: int, history: Sequence[int] = ()) -> np.ndarray:
        """Duration distribution (D_max+1 log-probs over {0..D_max}) at frame t."""
        if not self.supports_tdt:
            raise ModeError(f"{type(self).__name__} has no duration track (d_max=0)")
        raise CapabilityError(f"{type(self).__name__} is not generative")
