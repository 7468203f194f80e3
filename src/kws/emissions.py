"""Keyword specs and the emission-oracle contract.

An emission oracle stands in for a trained transducer joiner. The paper's
search is frame-asynchronous: a TDT joiner runs only on the frames its
predicted durations land on. So decoders ask an oracle for whole arrays,
never for one greedy step at a time:

* keyword-track emissions of every keyword of an utterance at the frames a
  decode processes, as one block in the decoder's lane layout
  (``emission_grids``), written straight into the decoder's own staging
  buffer when it passes one; ``StreamingDecoder`` makes the same query for
  each frame it lands on, a block of one keyword and one frame;
* the greedy duration track, one array (``greedy_durations``), which tells
  a TDT search where to land. It depends on neither the keyword nor the
  greedy history, so one array serves every keyword of an utterance;
* for the ASR baselines, full-vocabulary distributions under arbitrary
  emitted-token histories: many histories at one frame
  (``token_log_prob_rows``), or many (utterance, frame, history) rows of a
  group of oracles at once (``token_log_prob_group``), and durations alike
  (``duration_log_prob_group``).

``EmissionOracle`` states which oracle defines which of these. Oracles are
immutable after construction and safe to share across concurrent decoders.
"""

from __future__ import annotations

import numbers
import operator
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import CapabilityError, ValidationError

BLANK_ID = 0
NEG_INF = float("-inf")


def _index(value) -> int:
    """``operator.index(value)``, which refuses 4.7 and "4" where int() would
    not, and also refuses a bool: JSON's ``true`` is not the integer 1."""
    if type(value) is bool:
        raise TypeError(f"a bool is not an integer: {value!r}")
    return operator.index(value)


def _store_integers(config, *names: str) -> None:
    """Store each named field of the frozen dataclass ``config`` as the int
    ``_index`` gives; a field it refuses raises ValidationError."""
    for name in names:
        value = getattr(config, name)
        try:
            object.__setattr__(config, name, _index(value))
        except TypeError as exc:
            raise ValidationError(f"{name} must be an integer, got {value!r}") from exc


def _check_numbers(config, *names: str) -> None:
    """Refuse with ValidationError each named field of ``config`` that is not
    a real number, a bool included: JSON's ``false`` is not 0.0."""
    for name in names:
        value = getattr(config, name)
        if type(value) is bool or not isinstance(value, numbers.Real):
            raise ValidationError(f"{name} must be a number, got {value!r}")


@dataclass(frozen=True)
class KeywordSpec:
    """A keyword as a sequence of non-blank token-ids (blank y0 is implicit)."""

    name: str
    tokens: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ValidationError(f"keyword name must be a non-empty string, got {self.name!r}")
        try:
            tokens = tuple(map(_index, self.tokens))
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


class EmissionOracle(ABC):
    """Source of the log-probabilities a trained joiner would produce.

    Every oracle has the three abstract properties below. Its query methods
    depend on what it can answer:

    * a keyword-track oracle (every oracle) defines
      ``emission_grids(keywords, frames, out=None)``, the emissions of K
      keywords at n 1-based frames as one f32 block of shape
      (K, 2, n, U + 1), U the widest keyword's token count, in the
      decoder's lane layout: a keyword k of w tokens has log y(t, u)
      at ``[k, 0, i, U - w + u]`` for u in [0, w - 1] and log phi(t, u) at
      ``[k, 1, i, U - w + u]`` for u in [0, w], with t = frames[i]; every
      other entry is 0.0 (log 1). Without ``out`` the block is new or a
      read-only view. ``out`` is a writable f32 array of that shape and any
      strides, such as a transposed slot of a decoder's buffer: the oracle
      makes every refusal of the query before it writes, then writes every
      entry of ``out`` and nothing else, and returns ``out``;
    * a duration-aware oracle (``d_max > 0``) also defines
      ``greedy_durations()``: the argmax duration at every frame, int64[T],
      entry t - 1 for frame t, not capped at any decode's d_max. It raises
      ModeError when ``d_max == 0``;
    * a generative oracle (``is_generative``) also defines ``vocab_size``
      and ``token_log_prob_rows(t, histories)``, the (len(histories), V + 1)
      float64 token distributions (index 0 = blank) at frame t under each
      emitted-token history, and, if duration-aware,
      ``duration_log_probs(t, history)``, the d_max + 1 log-probs of the
      durations {0..d_max} at frame t.

    The base class defines none of these five methods, not even as abstract
    methods or refusals, so a wrapper that forwards unknown attributes to an
    inner oracle (``__getattr__``) reaches the inner oracle's own arrays: an
    abstract method would make such a wrapper impossible to instantiate, and
    a concrete one would hide the forward. It defines the refusal of
    ``vocab_size``, which a wrapper must forward by name, and the group
    defaults ``token_log_prob_group`` and ``duration_log_prob_group``, which
    a wrapper inherits: they stack one-oracle answers, so every row reaches
    the wrapper's own methods. An oracle class may override them.
    Rows and blocks must not be mutated by callers.
    """

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
    def is_generative(self) -> bool:
        """Whether arbitrary-history full-vocabulary queries are answerable."""
        return False

    def _check_frame(self, t: int) -> None:
        if not 1 <= t <= self.num_frames:
            raise ValidationError(
                f"frame index {t} out of range [1, {self.num_frames}]"
            )

    def _check_frames(self, frames: np.ndarray) -> None:
        if len(frames) and not (1 <= frames.min() and frames.max() <= self.num_frames):
            raise ValidationError(
                f"frame indices must lie in [1, {self.num_frames}]"
            )

    @property
    def vocab_size(self) -> int:
        raise CapabilityError(f"{type(self).__name__} is not generative")

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
        (utterance, frame) pair of the rows and stacks the results. An
        override may read ``lengths`` instead of ``histories`` only where its
        distributions depend on a history through its length alone.
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

    @classmethod
    def duration_log_prob_group(cls, oracles: Sequence["EmissionOracle"]) -> Callable:
        """Like ``token_log_prob_group``, for durations: ``rows(utts, frames,
        histories)`` gives a (len(utts), W) float64 array, W the group's widest
        ``d_max + 1``, whose row i is ``duration_log_probs(frames[i],
        histories[i])`` of ``oracles[utts[i]]``, padded with -inf, which keeps
        its argmax. This default stacks one such call per row."""
        width = max((oracle.d_max for oracle in oracles), default=0) + 1

        def rows(utts, frames, histories) -> np.ndarray:
            out = np.full((len(utts), width), NEG_INF)
            for i, (u, t) in enumerate(zip(np.asarray(utts).tolist(), np.asarray(frames).tolist())):
                row = oracles[u].duration_log_probs(t, histories[i])
                out[i, : len(row)] = row
            return out

        return rows
