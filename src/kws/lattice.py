"""KWL1 binary lattice files: bit-exact replayable keyword-conditioned emissions.

Layout (all little-endian):

    header (20 bytes, struct ``<4sHIIHf``):
        magic ``KWL1`` | version u16 = 1 | T u32 | U u32 | D_max u16 | frame_seconds f32
    body:
        log_y   f32[T][U]      keyword-track next-token log-probs
        log_phi f32[T][U+1]    keyword-track blank log-probs
        if D_max > 0:
            greedy_token    u32[T]
            greedy_duration u16[T]

A JSON sidecar (same basename, ``.json``) stores the keyword name, token-ids,
and provenance metadata. Sidecars carry no timestamps so identical content
always produces identical bytes.

One parser, ``_parse``, reads and checks the header for both readers:
``read_lattice`` goes on to read the body and the sidecar, and
``read_lattice_header`` stops after the header. Files are read through
``os.open``, ``fstat`` and ``readv`` on the path's string, with no file
object or pathlib call, since a suite command opens hundreds of small files.
"""

from __future__ import annotations

import errno
import json
import math
import os
import stat
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .emissions import EmissionOracle, KeywordSpec
from .errors import (
    BadMagicError,
    DimensionMismatchError,
    LatticeValueError,
    ModeError,
    SidecarError,
    TruncatedLatticeError,
    UnsupportedVersionError,
    ValidationError,
)

MAGIC = b"KWL1"
VERSION = 1
_HEADER = struct.Struct("<4sHIIHf")
D_MAX_LIMIT = 0xFFFF  # the header's D_max field is a u16


@dataclass
class LatticeData:
    """In-memory image of one KWL1 file."""

    keyword: KeywordSpec
    frame_seconds: float
    log_y: np.ndarray
    log_phi: np.ndarray
    d_max: int = 0
    greedy_tokens: np.ndarray | None = None
    greedy_durations: np.ndarray | None = None
    provenance: dict = field(default_factory=dict)

    @property
    def num_frames(self) -> int:
        return int(self.log_y.shape[0])

    @property
    def num_tokens(self) -> int:
        return int(self.log_y.shape[1])

    def validate(self) -> None:
        T, U = self.log_y.shape
        if T < 1 or U < 1:
            raise ValidationError("lattice needs T >= 1 and U >= 1")
        if U != self.keyword.num_tokens:
            raise DimensionMismatchError(
                f"log_y has U={U} but keyword {self.keyword.name!r} "
                f"has {self.keyword.num_tokens} tokens"
            )
        if self.log_phi.shape != (T, U + 1):
            raise DimensionMismatchError(
                f"log_phi shape {self.log_phi.shape} != {(T, U + 1)}"
            )
        for name, arr in (("log_y", self.log_y), ("log_phi", self.log_phi)):
            # NaN propagates through max and fails too.
            if not np.maximum.reduce(arr, axis=None) <= 0:
                if np.isnan(arr).any():
                    raise LatticeValueError(f"{name} contains NaN")
                raise LatticeValueError(f"{name} contains log-probabilities > 0")
        if not 0 <= self.d_max <= D_MAX_LIMIT:
            raise ValidationError(f"D_max must be in [0, {D_MAX_LIMIT}], got {self.d_max}")
        if self.d_max > 0:
            if self.greedy_tokens is None or self.greedy_durations is None:
                raise ValidationError("d_max > 0 requires a greedy-track channel")
            if self.greedy_tokens.shape != (T,) or self.greedy_durations.shape != (T,):
                raise DimensionMismatchError("greedy-track channel must have one entry per frame")
            if self.greedy_durations.max() > self.d_max:
                raise LatticeValueError(
                    f"greedy_duration exceeds D_max={self.d_max}"
                )
        if not (math.isfinite(self.frame_seconds) and self.frame_seconds > 0):
            raise ValidationError(
                f"frame_seconds must be finite and > 0, got {self.frame_seconds}"
            )


def save_lattice(data: LatticeData, path: str | Path) -> Path:
    """Write ``data`` to ``path`` plus its JSON sidecar; returns the lattice path."""
    data.validate()
    path = Path(path)
    T, U = data.log_y.shape
    parts = [
        _HEADER.pack(MAGIC, VERSION, T, U, data.d_max, data.frame_seconds),
        np.ascontiguousarray(data.log_y, dtype="<f4").tobytes(),
        np.ascontiguousarray(data.log_phi, dtype="<f4").tobytes(),
    ]
    if data.d_max > 0:
        parts.append(np.ascontiguousarray(data.greedy_tokens, dtype="<u4").tobytes())
        parts.append(np.ascontiguousarray(data.greedy_durations, dtype="<u2").tobytes())
    path.write_bytes(b"".join(parts))
    sidecar = {
        "keyword": {"name": data.keyword.name, "tokens": list(data.keyword.tokens)},
        "provenance": data.provenance,
    }
    path.with_suffix(".json").write_text(json.dumps(sidecar, sort_keys=True, indent=2) + "\n")
    return path


def _open(path: str) -> tuple[int, int]:
    """A read-only descriptor of ``path`` and the file's size. A directory
    raises the IsADirectoryError, naming ``path``, that ``open`` raises."""
    fd = os.open(path, os.O_RDONLY)
    status = os.fstat(fd)
    if stat.S_ISDIR(status.st_mode):
        os.close(fd)
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    return fd, status.st_size


def _fill(fd: int, buffer: bytearray) -> int:
    """Read into ``buffer`` until it is full or the file ends; the bytes read."""
    view = memoryview(buffer)
    done = 0
    while done < len(view):
        got = os.readv(fd, [view[done:]])
        if not got:
            break
        done += got
    return done


def _sidecar_path(path: str) -> str:
    """``Path(path).with_suffix(".json")`` for a path in normal form: the last
    component's suffix, a dot that neither starts nor ends it, is replaced."""
    dot = path.rfind(".")
    if path.rfind("/") + 1 < dot < len(path) - 1:
        path = path[:dot]
    return path + ".json"


def _parse(path: str, with_body: bool) -> tuple[int, int, int, float, bytearray | None]:
    """(T, U, D_max, frame_seconds, body) of the KWL1 file at ``path``; the body
    is None unless ``with_body``. Every header and size check runs either way.

    The header is checked against the file's size before the body is read,
    so a header that claims more data than the file holds costs no read of
    it, whatever its dimensions."""
    fd, size = _open(path)
    try:
        header = os.read(fd, _HEADER.size)
        if header[:4] != MAGIC:
            raise BadMagicError(f"{path}: not a KWL1 file (magic {header[:4]!r})")
        if len(header) < _HEADER.size:
            raise TruncatedLatticeError(
                f"{path}: header needs {_HEADER.size} bytes, file has {len(header)}"
            )
        _, version, T, U, d_max, frame_seconds = _HEADER.unpack(header)
        if version != VERSION:
            raise UnsupportedVersionError(f"{path}: version {version} unsupported (reader speaks {VERSION})")
        if T < 1 or U < 1:
            raise LatticeValueError(f"{path}: header T={T}, U={U}; both must be >= 1")
        expected = 4 * (T * U + T * (U + 1)) + (6 * T if d_max > 0 else 0)
        actual = size - _HEADER.size
        body = None
        if actual == expected and with_body:
            body = bytearray(expected)  # writable, so the arrays over it need no copy
            actual = _fill(fd, body)
    finally:
        os.close(fd)
    if actual != expected:
        raise TruncatedLatticeError(
            f"{path}: body has {actual} bytes, header dimensions require {expected}"
        )
    return T, U, d_max, frame_seconds, body


def read_lattice_header(path: str | Path) -> tuple[int, int, int, float]:
    """(T, U, D_max, frame_seconds) of a KWL1 file, after the checks of
    ``read_lattice`` that need no body or sidecar; reads 20 bytes."""
    return _parse(os.fspath(path), False)[:4]


def read_lattice(path: str | Path) -> LatticeData:
    """Parse and validate one KWL1 file plus its sidecar. Errors name
    ``path`` as given; a ``Path`` names it as ``str`` of it."""
    path = os.fspath(path)
    T, U, d_max, frame_seconds, body = _parse(path, True)
    # One f32 view over both float channels.
    floats = T * U + T * (U + 1)  # log_y, then log_phi
    grid = np.frombuffer(body, dtype="<f4", count=floats)
    log_y = grid[: T * U].reshape(T, U)
    log_phi = grid[T * U :].reshape(T, U + 1)
    greedy_tokens = greedy_durations = None
    if d_max > 0:
        greedy_tokens = np.frombuffer(body, dtype="<u4", count=T, offset=4 * floats)
        greedy_durations = np.frombuffer(body, dtype="<u2", count=T, offset=4 * floats + 4 * T)

    sidecar_path = _sidecar_path(path)
    try:
        # Decoded here, not by json.loads, which would also take UTF-16 and
        # UTF-32 text or a byte-order mark; newlines as read_text reads them,
        # so a JSON error reports the same position.
        fd, size = _open(sidecar_path)
        try:
            raw = bytearray(size)
            text = raw[: _fill(fd, raw)].decode("utf-8")
        finally:
            os.close(fd)
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        sidecar = json.loads(text)
    except FileNotFoundError as exc:
        raise SidecarError(f"{path}: missing sidecar {os.path.basename(sidecar_path)}") from exc
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise SidecarError(f"{sidecar_path}: not UTF-8 JSON ({exc})") from exc
    try:
        keyword = KeywordSpec(
            name=sidecar["keyword"]["name"],
            tokens=tuple(sidecar["keyword"]["tokens"]),
        )
    except (LookupError, TypeError, ValueError, ArithmeticError) as exc:
        raise SidecarError(f"{sidecar_path}: bad keyword record ({exc})") from exc
    if keyword.num_tokens != U:
        raise SidecarError(
            f"{sidecar_path}: keyword has {keyword.num_tokens} tokens, header says U={U}"
        )

    data = LatticeData(
        keyword=keyword,
        frame_seconds=frame_seconds,
        log_y=log_y,
        log_phi=log_phi,
        d_max=d_max,
        greedy_tokens=greedy_tokens,
        greedy_durations=greedy_durations,
        provenance=sidecar.get("provenance", {}),
    )
    try:
        data.validate()
    except (ValidationError, LatticeValueError) as exc:
        raise LatticeValueError(f"{path}: {exc}") from exc
    return data


class FileLatticeOracle(EmissionOracle):
    """Replay oracle over one keyword-conditioned LatticeData."""

    def __init__(
        self, data: LatticeData, path: str | Path | None = None, *, _validated: bool = False
    ) -> None:
        if not _validated:  # read_lattice has already validated what it returns
            data.validate()
        self._data = data
        self._source = str(path) if path is not None else "in-memory lattice"

    @property
    def keyword(self) -> KeywordSpec:
        return self._data.keyword

    @property
    def num_frames(self) -> int:
        return self._data.num_frames

    @property
    def d_max(self) -> int:
        return self._data.d_max

    @property
    def frame_seconds(self) -> float:
        return float(self._data.frame_seconds)

    @property
    def provenance(self):
        """The sidecar's provenance record, as read."""
        return self._data.provenance

    def _check_keyword(self, keyword: KeywordSpec) -> None:
        stored = self._data.keyword
        if keyword.tokens != stored.tokens:
            raise SidecarError(
                f"{self._source}: sidecar keyword {stored.name!r} {stored.tokens} "
                f"disagrees with the queried keyword {keyword.name!r} {keyword.tokens}"
            )

    def emission_grids(
        self, keywords: Sequence[KeywordSpec], frames: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        self._check_frames(frames)
        for keyword in keywords:
            self._check_keyword(keyword)
        # Every keyword is the stored one, so all lanes are the same.
        U = self._data.num_tokens
        if out is None:
            out = np.empty((len(keywords), 2, len(frames), U + 1), dtype=np.float32)
        rows = frames - 1  # np.take gathers them in half the time of indexing
        out[:, 0, :, :U] = np.take(self._data.log_y, rows, axis=0)
        out[:, 0, :, U] = 0.0
        out[:, 1] = np.take(self._data.log_phi, rows, axis=0)
        return out

    def _check_greedy_track(self) -> None:
        if not self.supports_tdt:
            raise ModeError("lattice has no greedy track (D_max=0); TDT mode unavailable")

    def greedy_durations(self) -> np.ndarray:
        self._check_greedy_track()
        # int64, not the stored u16: np.minimum(u16, cap) overflows for a
        # cap above 65535.
        return self._data.greedy_durations.astype(np.int64)

    def greedy_tokens(self) -> np.ndarray:
        self._check_greedy_track()
        return self._data.greedy_tokens.astype(np.int64)


def load_lattice(path: str | Path) -> FileLatticeOracle:
    """Open a KWL1 file as a file-backed emission oracle; its data is
    validated once, by ``read_lattice``."""
    return FileLatticeOracle(read_lattice(path), path, _validated=True)


def _channel(values: np.ndarray, dtype: str, name: str) -> np.ndarray:
    """``values`` as ``dtype``; a value the type cannot hold raises ValidationError."""
    info = np.iinfo(dtype)
    if len(values) and not (info.min <= values.min() and values.max() <= info.max):
        raise ValidationError(f"{name} must lie in [{info.min}, {info.max}]")
    return values.astype(dtype)


def snapshot(oracle, keyword: KeywordSpec, provenance: dict | None = None) -> LatticeData:
    """Freeze an oracle's keyword-conditioned view (plus greedy track) to LatticeData.

    The greedy channel is the oracle's greedy token and duration tracks, each
    one int64 array (``greedy_tokens``, ``greedy_durations``), written as
    u32 and u16; a value out of the field's range raises ValidationError.
    """
    ((log_y, log_phi),) = oracle.emission_grids([keyword], np.arange(1, oracle.num_frames + 1))
    greedy_tokens = greedy_durations = None
    if oracle.d_max > 0:
        greedy_tokens = _channel(oracle.greedy_tokens(), "<u4", "greedy_token")
        greedy_durations = _channel(oracle.greedy_durations(), "<u2", "greedy_duration")
    return LatticeData(
        keyword=keyword,
        frame_seconds=oracle.frame_seconds,
        log_y=log_y[:, : keyword.num_tokens],
        log_phi=log_phi,
        d_max=oracle.d_max,
        greedy_tokens=greedy_tokens,
        greedy_durations=greedy_durations,
        provenance=provenance or {},
    )
