"""KWL1 binary lattice format: layout, round-trip, rejection, replay fidelity."""

import json
import math
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kws import (
    BadMagicError,
    FileLatticeOracle,
    KeywordSpec,
    LatticeData,
    LatticeValueError,
    SidecarError,
    SyntheticJoinerConfig,
    SyntheticOracle,
    TruncatedLatticeError,
    UnsupportedVersionError,
    ValidationError,
    load_lattice,
    random_proper_lattice,
    read_lattice,
    save_lattice,
    snapshot,
)
from kws.lattice import read_lattice_header

from test_synthetic_oracle import columns, frame_rows, keyword_grids, stacked_grids

HEADER = struct.Struct("<4sHIIHf")


def tiny_data(d_max=0):
    T, U = 4, 2
    log_y = np.log(np.full((T, U), 0.25, dtype=np.float32))
    log_phi = np.log(np.full((T, U + 1), 0.5, dtype=np.float32))
    kwargs = {}
    if d_max > 0:
        kwargs = {"greedy_durations": np.array([1, 2, 1, 2], dtype=np.uint16)}
    return LatticeData(
        keyword=KeywordSpec("tiny", (5, 6)),
        frame_seconds=0.03,
        log_y=log_y,
        log_phi=log_phi,
        d_max=d_max,
        **kwargs,
    )


def test_header_layout_is_frozen(tmp_path):
    path = save_lattice(tiny_data(), tmp_path / "x.kwl")
    raw = path.read_bytes()
    magic, version, T, U, d_max, frame_seconds = HEADER.unpack(raw[: HEADER.size])
    assert magic == b"KWL1"
    assert version == 2
    assert (T, U, d_max) == (4, 2, 0)
    assert frame_seconds == pytest.approx(0.03, abs=1e-7)
    # Body: f32 log_y T*U + f32 log_phi T*(U+1), nothing else for d_max=0.
    assert len(raw) == HEADER.size + 4 * (4 * 2) + 4 * (4 * 3)


def test_duration_track_extends_body(tmp_path):
    path = save_lattice(tiny_data(d_max=2), tmp_path / "x.kwl")
    raw = path.read_bytes()
    assert len(raw) == HEADER.size + 4 * 8 + 4 * 12 + 2 * 4


def test_round_trip_preserves_everything(tmp_path):
    data = tiny_data(d_max=2)
    loaded = read_lattice(save_lattice(data, tmp_path / "x.kwl"))
    assert loaded.keyword == data.keyword
    assert loaded.d_max == 2
    np.testing.assert_array_equal(loaded.log_y, data.log_y)
    np.testing.assert_array_equal(loaded.log_phi, data.log_phi)
    np.testing.assert_array_equal(loaded.greedy_durations, data.greedy_durations)


def test_save_is_byte_deterministic(tmp_path):
    a = save_lattice(tiny_data(d_max=2), tmp_path / "a.kwl").read_bytes()
    b = save_lattice(tiny_data(d_max=2), tmp_path / "b.kwl").read_bytes()
    assert a == b
    sidecar_a = (tmp_path / "a.json").read_text()
    sidecar_b = (tmp_path / "b.json").read_text()
    assert sidecar_a == sidecar_b


def test_bad_magic_rejected(tmp_path):
    path = save_lattice(tiny_data(), tmp_path / "x.kwl")
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(bytes(raw))
    with pytest.raises(BadMagicError):
        read_lattice(path)


def test_unsupported_version_rejected(tmp_path):
    path = save_lattice(tiny_data(), tmp_path / "x.kwl")
    raw = bytearray(path.read_bytes())
    raw[4:6] = struct.pack("<H", 9)
    path.write_bytes(bytes(raw))
    with pytest.raises(UnsupportedVersionError):
        read_lattice(path)


def as_version_1(path):
    """Rewrite the KWL1 file at ``path`` in the version-1 layout, which held
    a u32 greedy token per frame before the duration track."""
    raw = bytearray(path.read_bytes())
    _, _, T, U, d_max, _ = HEADER.unpack(raw[: HEADER.size])
    raw[4:6] = struct.pack("<H", 1)
    if d_max > 0:
        tokens_at = HEADER.size + 4 * (T * U + T * (U + 1))
        raw[tokens_at:tokens_at] = bytes(4 * T)
    path.write_bytes(bytes(raw))


def test_version_1_file_is_refused_naming_both_versions(tmp_path):
    path = save_lattice(tiny_data(d_max=2), tmp_path / "x.kwl")
    as_version_1(path)
    for read in (read_lattice, read_lattice_header):
        with pytest.raises(UnsupportedVersionError) as err:
            read(path)
        assert str(err.value) == f"{path}: version 1 unsupported (reader speaks 2)"


def test_truncated_body_names_byte_counts(tmp_path):
    path = save_lattice(tiny_data(), tmp_path / "x.kwl")
    raw = path.read_bytes()
    path.write_bytes(raw[:-4])
    with pytest.raises(TruncatedLatticeError) as err:
        read_lattice(path)
    message = str(err.value)
    expected = 4 * 8 + 4 * 12
    assert str(expected) in message
    assert str(expected - 4) in message


@pytest.mark.parametrize("T", [2**32 - 1, 5])
def test_header_claiming_more_than_the_file_fails_before_the_body_is_read(
    tmp_path, monkeypatch, T
):
    """A header whose T needs more bytes than the file holds (16 GiB of
    log_y alone at T = 2**32 - 1) fails as TruncatedLatticeError, naming
    both byte counts, after reading no more than the header."""
    path = save_lattice(tiny_data(d_max=2), tmp_path / "x.kwl")
    raw = bytearray(path.read_bytes())
    raw[6:10] = struct.pack("<I", T)
    path.write_bytes(bytes(raw))
    requested = []

    class Spy:
        """``os`` for the reader, recording the size of every read."""

        def __getattr__(self, name):
            return getattr(os, name)

        def read(self, fd, size):
            requested.append(size)
            return os.read(fd, size)

        def readv(self, fd, buffers):
            requested.append(sum(len(buffer) for buffer in buffers))
            return os.readv(fd, buffers)

    monkeypatch.setattr("kws.lattice.os", Spy())
    with pytest.raises(TruncatedLatticeError) as err:
        read_lattice(path)
    expected = 4 * T * 2 + 4 * T * 3 + 2 * T
    assert f"body has {len(raw) - HEADER.size} bytes" in str(err.value)
    assert f"require {expected}" in str(err.value)
    assert requested == [HEADER.size]
    # The header-only reader makes the same checks.
    with pytest.raises(TruncatedLatticeError) as header_err:
        read_lattice_header(path)
    assert str(header_err.value) == str(err.value)
    assert requested == [HEADER.size] * 2


def test_each_lattice_is_validated_once(tmp_path, monkeypatch):
    path = save_lattice(tiny_data(d_max=2), tmp_path / "x.kwl")
    calls = []
    validate = LatticeData.validate

    def counted(data):
        calls.append(data)
        validate(data)

    monkeypatch.setattr(LatticeData, "validate", counted)
    oracle = load_lattice(path)
    assert len(calls) == 1 and oracle.num_frames == 4
    # An oracle built from data that no reader has checked still validates it.
    FileLatticeOracle(tiny_data())
    assert len(calls) == 2
    bad = tiny_data()
    bad.log_y[0, 0] = 0.5
    with pytest.raises(LatticeValueError):
        FileLatticeOracle(bad)


def test_truncated_header_rejected(tmp_path):
    path = tmp_path / "x.kwl"
    path.write_bytes(b"KWL1\x01\x00")
    with pytest.raises(TruncatedLatticeError):
        read_lattice(path)


def test_trailing_garbage_rejected(tmp_path):
    path = save_lattice(tiny_data(), tmp_path / "x.kwl")
    path.write_bytes(path.read_bytes() + b"\x00\x00\x00\x00")
    with pytest.raises(TruncatedLatticeError):
        read_lattice(path)


def test_positive_log_prob_rejected(tmp_path):
    data = tiny_data()
    path = save_lattice(data, tmp_path / "x.kwl")
    raw = bytearray(path.read_bytes())
    bad = struct.pack("<f", 0.5)
    start = HEADER.size
    raw[start : start + 4] = bad
    path.write_bytes(bytes(raw))
    with pytest.raises(LatticeValueError):
        read_lattice(path)


@pytest.mark.parametrize("frame_seconds", [math.nan, math.inf])
def test_non_finite_frame_seconds_rejected(tmp_path, frame_seconds):
    data = tiny_data()
    path = save_lattice(data, tmp_path / "x.kwl")
    raw = bytearray(path.read_bytes())
    raw[HEADER.size - 4 : HEADER.size] = struct.pack("<f", frame_seconds)
    path.write_bytes(bytes(raw))
    with pytest.raises(LatticeValueError):
        read_lattice(path)
    data.frame_seconds = frame_seconds
    with pytest.raises(ValidationError):
        data.validate()


def test_duration_above_header_cap_rejected(tmp_path):
    path = save_lattice(tiny_data(d_max=2), tmp_path / "x.kwl")
    raw = bytearray(path.read_bytes())
    raw[-2:] = struct.pack("<H", 7)  # last greedy_duration
    path.write_bytes(bytes(raw))
    with pytest.raises(LatticeValueError):
        read_lattice(path)


def test_missing_sidecar_rejected(tmp_path):
    path = save_lattice(tiny_data(), tmp_path / "x.kwl")
    (tmp_path / "x.json").unlink()
    with pytest.raises(SidecarError):
        read_lattice(path)


def test_sidecar_token_count_must_match_header(tmp_path):
    path = save_lattice(tiny_data(), tmp_path / "x.kwl")
    sidecar = tmp_path / "x.json"
    meta = json.loads(sidecar.read_text())
    meta["keyword"]["tokens"] = [5]
    sidecar.write_text(json.dumps(meta))
    with pytest.raises(SidecarError):
        read_lattice(path)


@pytest.mark.parametrize(
    "sidecar",
    [
        b"\xff\xfe{}",
        b'{"keyword": {"name": "tiny", "tokens": ["x", 6]}}',
        b'{"keyword": {"name": ["tiny"], "tokens": [5, 6]}}',
        b'{"keyword": "tiny"}',
        b"[1, 2]",
        # int() would read these as token 6 and decode a keyword the file
        # does not state.
        b'{"keyword": {"name": "tiny", "tokens": [5, 6.7]}}',
        b'{"keyword": {"name": "tiny", "tokens": [5, "6"]}}',
        # json.loads would read both from bytes; neither is UTF-8 JSON.
        b'\xef\xbb\xbf{"keyword": {"name": "tiny", "tokens": [5, 6]}}',
        '{"keyword": {"name": "tiny", "tokens": [5, 6]}}'.encode("utf-16"),
    ],
    ids=[
        "not-utf8", "token-not-int", "name-not-string", "keyword-not-object", "list",
        "token-not-integral", "token-is-string", "utf8-bom", "utf16",
    ],
)
def test_malformed_sidecar_rejected(tmp_path, sidecar):
    path = save_lattice(tiny_data(), tmp_path / "x.kwl")
    (tmp_path / "x.json").write_bytes(sidecar)
    with pytest.raises(SidecarError):
        read_lattice(path)


@pytest.mark.parametrize("newline", [b"\r\n", b"\r"])
def test_sidecar_json_error_reports_the_text_position(tmp_path, newline):
    """Newlines count as text reading makes them: a broken CRLF or CR
    sidecar's error names the position that ``read_text`` gives."""
    path = save_lattice(tiny_data(), tmp_path / "x.kwl")
    sidecar = tmp_path / "x.json"
    broken = sidecar.read_bytes().replace(b"\n", newline).replace(b"]", b"", 1)
    sidecar.write_bytes(broken)
    with pytest.raises(json.JSONDecodeError) as expected:
        json.loads(sidecar.read_text(encoding="utf-8"))
    with pytest.raises(SidecarError) as info:
        read_lattice(path)
    assert str(info.value) == f"{sidecar}: not UTF-8 JSON ({expected.value})"


def test_wrong_keyword_query_rejected(tmp_path):
    oracle = load_lattice(save_lattice(tiny_data(), tmp_path / "x.kwl"))
    # Other tokens, of any length: the sidecar disagrees with the query, a
    # broken file rather than a bad argument.
    with pytest.raises(SidecarError, match=r"x\.kwl: .*\(5, 6\).*\(5, 6, 7\)"):
        oracle.emission_grids([KeywordSpec("other", (5, 6, 7))], np.array([1]))
    with pytest.raises(SidecarError, match=r"x\.kwl: .*\(5, 6\).*\(6, 5\)"):
        oracle.emission_grids([KeywordSpec("other", (6, 5))], np.array([1]))


def test_replay_matches_source_oracle(tmp_path):
    cfg = SyntheticJoinerConfig(
        vocab_size=9,
        **columns(((3, 2, 2), (7, 4, 1), (2, 6, 3)), 12),
        epsilon=0.4,
        d_max=3,
        duration_concentration=0.9,
    )
    source = SyntheticOracle(cfg)
    kw = KeywordSpec("kw", (3, 7))
    path = save_lattice(snapshot(source, kw), tmp_path / "x.kwl")
    replay, stored = load_lattice(path), read_lattice(path)
    assert replay.num_frames == source.num_frames
    assert replay.d_max == source.d_max
    for t in range(1, 13):
        # Each frame as streaming decodes query it: source rows are already
        # f32, so replay is bit-exact, and both are the stored rows.
        for oracle in (source, replay):
            y_row, phi_row = frame_rows(oracle, kw, t)
            assert y_row.tobytes() == stored.log_y[t - 1].tobytes()
            assert phi_row.tobytes() == stored.log_phi[t - 1].tobytes()
    source_track, replay_track = (o.greedy_durations() for o in (source, replay))
    assert replay_track.dtype == source_track.dtype == np.int64
    assert replay_track.tolist() == source_track.tolist()

    # Bulk row fetches: both oracles' blocks agree with their stacked
    # one-frame blocks and the stored rows, and frame indices outside [1, T]
    # are rejected.
    frames = np.array([1, 2, 5, 12])
    want = [stored.log_y[frames - 1], stored.log_phi[frames - 1]]
    for oracle in (source, replay):
        default = stacked_grids(oracle, [kw, kw], frames)
        block = oracle.emission_grids([kw, kw], frames)
        # The block equals the stacked rows, padding included.
        assert block.shape == default.shape == (2, 2, len(frames), kw.num_tokens + 1)
        assert block.dtype == default.dtype == np.float32
        assert block.tobytes() == default.tobytes()
        for grid in (*keyword_grids(block, [kw, kw]), *keyword_grids(default, [kw, kw])):
            for got, expected in zip(grid, want):
                assert got.tobytes() == expected.tobytes()
        for bad in ([0, 1], [12, 13], [-1]):
            with pytest.raises(ValidationError):
                oracle.emission_grids([kw], np.array(bad))
    with pytest.raises(SidecarError, match=r"x\.kwl: .*\(3, 7\).*\(5, 6, 7\)"):
        replay.emission_grids([kw, KeywordSpec("other", (5, 6, 7))], frames)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    d_max=st.integers(min_value=0, max_value=3),
)
def test_random_lattice_round_trip_bit_exact(tmp_path_factory, seed, d_max):
    rng = np.random.default_rng(seed)
    data = random_proper_lattice(rng, t_max=8, u_max=4, d_max=d_max)
    out = tmp_path_factory.mktemp("rt") / "x.kwl"
    loaded = read_lattice(save_lattice(data, out))
    np.testing.assert_array_equal(loaded.log_y, data.log_y)
    np.testing.assert_array_equal(loaded.log_phi, data.log_phi)
    if d_max > 0:
        np.testing.assert_array_equal(loaded.greedy_durations, data.greedy_durations)


class GreedyScriptOracle(FileLatticeOracle):
    """Replays ``data``'s emissions with a scripted duration track, whose
    values need not fit the lattice's field."""

    def __init__(self, data, durations):
        super().__init__(data)
        self._durations = durations

    d_max = property(lambda self: 3)

    def greedy_durations(self):
        return np.array(self._durations, dtype=np.int64)


@pytest.mark.parametrize("durations", [[1, 70000, 1, 1], [1, -1, 1, 1]])
def test_snapshot_refuses_greedy_values_its_fields_cannot_hold(durations):
    data = tiny_data()
    oracle = GreedyScriptOracle(data, durations)
    with pytest.raises(ValidationError, match="greedy_duration"):
        snapshot(oracle, data.keyword)


def test_snapshot_records_the_oracle_greedy_tracks(tmp_path):
    data = tiny_data()
    oracle = GreedyScriptOracle(data, [3, 0, 2, 1])
    replay = load_lattice(save_lattice(snapshot(oracle, data.keyword), tmp_path / "x.kwl"))
    assert replay.greedy_durations().tolist() == [3, 0, 2, 1]


def test_d_max_must_fit_the_header_field(tmp_path):
    data = tiny_data(d_max=3)
    data.d_max = 65536
    with pytest.raises(ValidationError, match="D_max must be in"):
        save_lattice(data, tmp_path / "x.kwl")
    assert not (tmp_path / "x.kwl").exists()


def _patch(offset, data):
    def edit(kwl, sidecar):
        raw = bytearray(kwl.read_bytes())
        raw[offset : offset + len(data)] = data
        kwl.write_bytes(bytes(raw))

    return edit


def _write(target, data):
    def edit(kwl, sidecar):
        path = kwl if target == "kwl" else sidecar
        path.unlink()
        if data is None:
            path.mkdir()
        elif data != "missing":
            path.write_bytes(data)

    return edit


def _greedy_duration(value):
    """Rewrite x.kwl with D_max 2 and its first greedy duration set to ``value``."""

    def edit(kwl, sidecar):
        save_lattice(tiny_data(d_max=2), kwl)
        T, U = 4, 2
        durations = HEADER.size + 4 * (T * U + T * (U + 1))
        _patch(durations, struct.pack("<H", value))(kwl, sidecar)

    return edit


# (edit of a tiny lattice x.kwl and its sidecar x.json, error type, message).
READER_ERRORS = {
    "bad-magic": (_patch(0, b"XXXX"), BadMagicError, "{kwl}: not a KWL1 file (magic b'XXXX')"),
    "short-header": (
        _write("kwl", b"KWL1\x01\x00"),
        TruncatedLatticeError,
        "{kwl}: header needs 20 bytes, file has 6",
    ),
    "version": (
        _patch(4, struct.pack("<H", 9)),
        UnsupportedVersionError,
        "{kwl}: version 9 unsupported (reader speaks 2)",
    ),
    "no-frames": (
        _patch(6, struct.pack("<I", 0)),
        LatticeValueError,
        "{kwl}: header T=0, U=2; both must be >= 1",
    ),
    "short-body": (
        lambda kwl, sidecar: kwl.write_bytes(kwl.read_bytes()[:-4]),
        TruncatedLatticeError,
        "{kwl}: body has 76 bytes, header dimensions require 80",
    ),
    "positive": (
        _patch(HEADER.size, struct.pack("<f", 0.5)),
        LatticeValueError,
        "{kwl}: log_y contains log-probabilities > 0",
    ),
    "nan": (
        _patch(HEADER.size + 4 * 8, struct.pack("<f", math.nan)),  # the first log_phi entry
        LatticeValueError,
        "{kwl}: log_phi contains NaN",
    ),
    "greedy-duration": (
        _greedy_duration(3),
        LatticeValueError,
        "{kwl}: greedy_duration exceeds D_max=2",
    ),
    "frame-seconds": (
        _patch(HEADER.size - 4, struct.pack("<f", math.nan)),
        LatticeValueError,
        "{kwl}: frame_seconds must be finite and > 0, got nan",
    ),
    "missing-sidecar": (
        _write("json", "missing"),
        SidecarError,
        "{kwl}: missing sidecar x.json",
    ),
    "sidecar-not-json": (
        _write("json", b"{"),
        SidecarError,
        "{json}: not UTF-8 JSON (Expecting property name enclosed in double quotes: "
        "line 1 column 2 (char 1))",
    ),
    "sidecar-list": (
        _write("json", b"[1, 2]"),
        SidecarError,
        "{json}: bad keyword record (list indices must be integers or slices, not str)",
    ),
    "sidecar-tokens": (
        _write("json", b'{"keyword": {"name": "tiny", "tokens": [5]}}'),
        SidecarError,
        "{json}: keyword has 1 tokens, header says U=2",
    ),
    "missing-lattice": (
        _write("kwl", "missing"),
        FileNotFoundError,
        "[Errno 2] No such file or directory: '{kwl}'",
    ),
    "lattice-directory": (
        _write("kwl", None),
        IsADirectoryError,
        "[Errno 21] Is a directory: '{kwl}'",
    ),
    "sidecar-directory": (
        _write("json", None),
        IsADirectoryError,
        "[Errno 21] Is a directory: '{json}'",
    ),
}


@pytest.mark.parametrize("case", sorted(READER_ERRORS))
def test_reader_errors_are_the_same_for_str_and_path(tmp_path, case):
    """Each reader error has one type and one text, whether the lattice is
    named by a ``str`` or a ``Path``; the texts are the ones every earlier
    reader gave, except that a value error names the file too."""
    edit, error, message = READER_ERRORS[case]
    kwl = save_lattice(tiny_data(), tmp_path / "x.kwl")
    sidecar = tmp_path / "x.json"
    edit(kwl, sidecar)
    for path in (kwl, str(kwl)):
        with pytest.raises(error) as info:
            read_lattice(path)
        assert type(info.value) is error
        assert str(info.value) == message.format(kwl=kwl, json=sidecar)
