"""Exhaustive alignment enumeration: counts, scores, agreement with the DP."""

import math
from itertools import combinations
from typing import Iterator, Sequence

import numpy as np
import pytest

from kws import (
    DecodeConfig,
    FileLatticeOracle,
    KeywordSpec,
    LatticeData,
    NEG_INF,
    SizeLimitError,
    ValidationError,
    AlignmentPath,
    EmissionOracle,
    brute_force_score,
    decode_kws,
    random_proper_lattice,
)
from kws.brute_force import HORIZONTAL, VERTICAL, _path_rows


def count_alignment_paths(num_processed: int, num_tokens: int) -> int:
    """Closed form for the number of paths ending at the last processed frame."""
    if num_processed < 1:
        return 0
    return math.comb(num_processed - 1 + num_tokens, num_tokens)


def enumerate_alignment_paths(
    oracle: EmissionOracle,
    keyword: KeywordSpec,
    end_frame: int,
    hop_sequence: Sequence[int] | None = None,
) -> Iterator[AlignmentPath]:
    """Yield every complete path ending at (end_frame, U), scores excluded
    of the final blank factor: a recursive reference beside
    ``brute_force_score``'s stack walk."""
    rows = _path_rows(oracle, keyword, end_frame, hop_sequence)
    if rows is None:
        return
    frames, y, phi = rows
    U = keyword.num_tokens
    last = len(frames) - 1

    def walk(i: int, u: int, score: float, entries: list) -> Iterator[AlignmentPath]:
        if u == U:
            if i == last:
                yield AlignmentPath(tuple(entries), score)
        else:
            entries.append((frames[i], u + 1, VERTICAL))
            yield from walk(i, u + 1, score + y[i][u], entries)
            entries.pop()
        if i < last:
            entries.append((frames[i + 1], u, HORIZONTAL))
            yield from walk(i + 1, u, score + phi[i][u], entries)
            entries.pop()

    for start in range(len(frames)):
        # First move is the vertical at the start frame.
        entries = [(frames[start], 1, VERTICAL)]
        yield from walk(start, 1, y[start][0], entries)


def grid_oracle(y, phi, d_max=0, durations=None):
    with np.errstate(divide="ignore"):
        log_y = np.log(np.asarray(y, dtype=np.float32))
        log_phi = np.log(np.asarray(phi, dtype=np.float32))
    T, U = log_y.shape
    kwargs = {}
    if d_max > 0:
        kwargs = {
            "greedy_tokens": np.zeros(T, dtype=np.uint32),
            "greedy_durations": np.asarray(durations, dtype=np.uint16),
        }
    return FileLatticeOracle(
        LatticeData(
            keyword=KeywordSpec("kw", tuple(range(1, U + 1))),
            frame_seconds=0.03,
            log_y=log_y,
            log_phi=log_phi,
            d_max=d_max,
            **kwargs,
        )
    )


def test_path_count_formula():
    assert count_alignment_paths(1, 1) == 1
    assert count_alignment_paths(3, 1) == 3
    assert count_alignment_paths(3, 2) == 6
    assert count_alignment_paths(5, 4) == math.comb(8, 4)


def test_enumeration_matches_count_and_is_duplicate_free():
    rng = np.random.default_rng(0)
    for _ in range(10):
        data = random_proper_lattice(rng, t_max=6, u_max=3)
        oracle = FileLatticeOracle(data)
        U = data.keyword.num_tokens
        for end in range(1, oracle.num_frames + 1):
            paths = list(enumerate_alignment_paths(oracle, data.keyword, end))
            assert len(paths) == count_alignment_paths(end, U)
            keys = {p.entries for p in paths}
            assert len(keys) == len(paths)
            for p in paths:
                ts = [e[0] for e in p.entries]
                us = [e[1] for e in p.entries]
                assert ts == sorted(ts)
                assert us == sorted(us)
                assert us[-1] == U
                assert ts[-1] == end


def test_single_frame_single_path():
    # One frame per token: the only path is the vertical chain at that frame.
    oracle = grid_oracle([[0.5, 0.25]], [[0.9, 0.8, 0.7]])
    paths = list(enumerate_alignment_paths(oracle, oracle.keyword, 1))
    assert len(paths) == 1
    score, best = brute_force_score(oracle, oracle.keyword, 1)
    y_row, phi_row = oracle._data.log_y[0], oracle._data.log_phi[0]  # as stored
    assert score == float(y_row[0]) + float(y_row[1]) + float(phi_row[2])
    assert best.entries == paths[0].entries


def test_constant_emission_reference_values():
    oracle = grid_oracle([[0.6]] * 3, [[0.4, 0.5]] * 3)
    for t in (1, 2, 3):
        score, _ = brute_force_score(oracle, oracle.keyword, t)
        assert score == pytest.approx(math.log(0.3), abs=1e-6)


def test_brute_force_equals_enumeration_max():
    rng = np.random.default_rng(1)
    for _ in range(10):
        data = random_proper_lattice(rng, t_max=6, u_max=3)
        oracle = FileLatticeOracle(data)
        end = oracle.num_frames
        y_grid = data.log_y.astype(np.float64)
        phi_grid = data.log_phi.astype(np.float64)
        best = NEG_INF
        for p in enumerate_alignment_paths(oracle, data.keyword, end):
            total = 0.0
            frame = p.entries[0][0]
            for t, u, move in p.entries:
                if move == "vertical":
                    total += float(data.log_y[t - 1, u - 1])
                else:
                    # Horizontal moves pay the blank at the frame they leave.
                    total += float(data.log_phi[frame - 1, u])
                frame = t
            total += float(data.log_phi[end - 1, data.keyword.num_tokens])
            best = max(best, total)
            assert total == pytest.approx(
                p.log_score + float(data.log_phi[end - 1, data.keyword.num_tokens]),
                abs=1e-9,
            )
        score, _ = brute_force_score(oracle, data.keyword, end)
        assert score == pytest.approx(best, abs=1e-9)
        assert y_grid.shape[0] == phi_grid.shape[0]


def test_dp_agrees_on_small_batch():
    rng = np.random.default_rng(2)
    config = DecodeConfig(mode="rnnt")
    for _ in range(20):
        data = random_proper_lattice(rng, t_max=10, u_max=4)
        oracle = FileLatticeOracle(data)
        stream = decode_kws(oracle, data.keyword, config)
        for t in range(1, oracle.num_frames + 1):
            reference, _ = brute_force_score(oracle, data.keyword, t)
            assert float(stream.scores[t - 1]) == pytest.approx(reference, abs=1e-9)


def test_tdt_hop_sequence_agreement():
    rng = np.random.default_rng(3)
    for _ in range(10):
        T = int(rng.integers(4, 11))
        U = int(rng.integers(1, 4))
        y = rng.uniform(0.05, 0.9, size=(T, U))
        phi = rng.uniform(0.05, 0.9, size=(T, U + 1))
        durations = rng.integers(1, 4, size=T)
        oracle = grid_oracle(y, phi, d_max=3, durations=durations)
        stream = decode_kws(oracle, oracle.keyword, DecodeConfig(mode="tdt", d_max=3))
        hops = [t + 1 for t in np.flatnonzero(stream.processed)]
        for t in range(1, T + 1):
            prefix = [h for h in hops if h <= t]
            if t not in prefix:
                reference, best = brute_force_score(
                    oracle, oracle.keyword, t, hop_sequence=prefix
                )
                assert reference == NEG_INF and best is None
            else:
                reference, _ = brute_force_score(
                    oracle, oracle.keyword, t, hop_sequence=prefix
                )
                assert float(stream.scores[t - 1]) == pytest.approx(reference, abs=1e-9)


def test_size_guard():
    oracle = grid_oracle(np.full((13, 1), 0.5), np.full((13, 2), 0.5))
    with pytest.raises(SizeLimitError):
        brute_force_score(oracle, oracle.keyword, 13)
    oracle = grid_oracle(np.full((4, 5), 0.5), np.full((4, 6), 0.5))
    with pytest.raises(SizeLimitError):
        brute_force_score(oracle, oracle.keyword, 4)


def test_hop_sequence_validation():
    oracle = grid_oracle(np.full((5, 1), 0.5), np.full((5, 2), 0.5))
    with pytest.raises(ValidationError):
        brute_force_score(oracle, oracle.keyword, 0)
    with pytest.raises(ValidationError):
        brute_force_score(oracle, oracle.keyword, 6)
    with pytest.raises(ValidationError):
        brute_force_score(oracle, oracle.keyword, 4, hop_sequence=[3, 2])
    with pytest.raises(ValidationError):
        brute_force_score(oracle, oracle.keyword, 4, hop_sequence=[2, 2, 4])
    with pytest.raises(ValidationError):
        brute_force_score(oracle, oracle.keyword, 4, hop_sequence=[0, 2, 4])
    # Hops past end_frame are irrelevant and silently ignored.
    score, _ = brute_force_score(oracle, oracle.keyword, 4, hop_sequence=[2, 4, 5])
    same, _ = brute_force_score(oracle, oracle.keyword, 4, hop_sequence=[2, 4])
    assert score == same
