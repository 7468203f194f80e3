"""Brute-force alignment enumeration for property-testing the DP search.

A path emits the keyword's U tokens in order. It starts with a vertical
(token-consuming) move at any processed frame; at zero prior cost, mirroring
the search's free start delta(t, 0) = 1. From node (f, u) it may move
vertically to (f, u+1) at cost log_y(f, u) or horizontally to the next
processed frame f' at cost log_phi(f, u). A path is complete when it sits at
(end_frame, U); the caller's Score adds log_phi(end_frame, U) on top.

Pinning the first move to be vertical makes every path unique (a leading
horizontal would be identical to starting later), so with m processed frames
the path count is exactly C(m - 1 + U, U).

This is exponential by design and hard-capped at end_frame <= 12, U <= 4;
larger instances raise instead of approximating.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .emissions import EmissionOracle, KeywordSpec, NEG_INF
from .errors import SizeLimitError, ValidationError

MAX_END_FRAME = 12
MAX_TOKENS = 4

VERTICAL = "vertical"
HORIZONTAL = "horizontal"


@dataclass(frozen=True)
class AlignmentPath:
    """entries = (t, u, move) after each move; log_score sums the move costs."""

    entries: tuple[tuple[int, int, str], ...]
    log_score: float


def _path_rows(
    oracle: EmissionOracle,
    keyword: KeywordSpec,
    end_frame: int,
    hop_sequence: Sequence[int] | None,
) -> tuple[list[int], list[list[float]], list[list[float]]] | None:
    """(processed frames, log_y rows, log_phi rows) of the paths ending at
    ``end_frame``, or None when it is not a processed frame. The rows come
    from one ``emission_grids`` block, as Python floats."""
    if end_frame > MAX_END_FRAME or keyword.num_tokens > MAX_TOKENS:
        raise SizeLimitError(
            f"brute force capped at end_frame <= {MAX_END_FRAME} and U <= {MAX_TOKENS}; "
            f"got end_frame={end_frame}, U={keyword.num_tokens}"
        )
    if end_frame < 1 or end_frame > oracle.num_frames:
        raise ValidationError(f"end_frame {end_frame} outside [1, {oracle.num_frames}]")
    if hop_sequence is None:
        frames = list(range(1, end_frame + 1))
    else:
        frames = [int(f) for f in hop_sequence]
        if any(b <= a for a, b in zip(frames, frames[1:])):
            raise ValidationError("hop_sequence must be strictly increasing")
        if frames and frames[0] < 1:
            raise ValidationError("hop_sequence frames must be >= 1")
        # Hops beyond end_frame cannot matter to paths ending there.
        frames = [f for f in frames if f <= end_frame]
    if not frames or frames[-1] != end_frame:
        return None
    ((log_y, log_phi),) = oracle.emission_grids([keyword], np.array(frames, dtype=np.int64))
    return frames, log_y[:, :-1].tolist(), log_phi.tolist()


def brute_force_score(
    oracle: EmissionOracle,
    keyword: KeywordSpec,
    end_frame: int,
    hop_sequence: Sequence[int] | None = None,
) -> tuple[float, AlignmentPath | None]:
    """Reference Score[end_frame]: max path score plus log_phi(end_frame, U).

    ``hop_sequence`` lists the processed frames (all frames when None).
    Returns (-inf, None) when end_frame is not a processed frame.
    """
    rows = _path_rows(oracle, keyword, end_frame, hop_sequence)
    if rows is None:
        return NEG_INF, None
    frames, y, phi = rows
    U = keyword.num_tokens
    last = len(frames) - 1

    best_score = NEG_INF
    best_path: AlignmentPath | None = None
    # Depth-first over every path; left-to-right accumulation matches the
    # DP's association order, so agreement is exact.
    stack: list[tuple[int, int, float, tuple]] = []
    for start in range(len(frames)):
        stack.append((start, 1, y[start][0], ((frames[start], 1, VERTICAL),)))
    while stack:
        i, u, score, entries = stack.pop()
        if u == U and i == last:
            if best_path is None or score > best_score:
                best_score = score
                best_path = AlignmentPath(entries, score)
            continue
        if u < U:
            stack.append((i, u + 1, score + y[i][u], entries + ((frames[i], u + 1, VERTICAL),)))
        if i < last:
            stack.append(
                (i + 1, u, score + phi[i][u], entries + ((frames[i + 1], u, HORIZONTAL),))
            )
    if best_path is None:
        return NEG_INF, None
    return best_score + phi[last][U], best_path
