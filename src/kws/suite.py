"""Deterministic synthetic evaluation suites.

A suite is a directory:

    suite/
      manifest.json
      lattices/{utt_id}.kwl
      lattices/{utt_id}.json

Every utterance timeline is fully tiled with segments (no gaps): positives
carry exactly one keyword occurrence at a uniformly random slot among filler
segments; negatives are all fillers. Filler tokens come from a pool disjoint
from every keyword's token range, so keyword tokens never appear outside
planted occurrences. Each utterance's planted alignment is embedded in the
manifest (so generative decoding can reconstruct the oracle) and also frozen
to a keyword-conditioned KWL1 lattice: positives conditioned on their label
keyword, negatives on a round-robin keyword recorded as ``lattice_keyword``.

The manifest (schema ``kws-suite-manifest@3``) states each fact once: the
top level holds the suite-wide ones, and each utterance record its own, with
its planted alignment as two integer columns of one length, ``tokens`` and
``durations``, which are a SyntheticJoinerConfig's own two columns: the
config owns their rules, and this module adds only the JSON layout and the
rule that a suite has no gaps, so it refuses a token 0. Its text is
``json.dumps(..., sort_keys=True)`` by json's C encoder, with each utterance
record on its own line of the ``utterances`` list.
A suite command opens a lattice through ``SuiteManifest.lattice``, which
holds it to its record and the suite: the same frame count, D_max and
frame_seconds (as the header's 32-bit float) and, where the sidecar's
provenance names an utterance, the same utterance. ``decode`` and
``bench`` also hold every lattice header to them before the first decode,
since the records' frame counts, with the keywords that a run decodes,
size its lane buffer, and a negative's record alone sizes the arrays of its
SyntheticOracle.

Alignments are drawn from per-utterance child seeds (suite_seed, utt_index),
so generation order and parallelism never change output; a fixed seed yields
byte-identical trees. Each utterance's draws are batched (one array draw per
field) yet leave its generator exactly where one draw per segment would.
SuiteGenSpec holds each epsilon, d_max, duration_concentration and
frame_seconds to SyntheticJoinerConfig's rules, as ``load_manifest`` does,
and adds only gen's own: lattice headers hold frame_seconds as an f32, in
which it must stay finite and > 0; a keyword name must not hold '/' or NUL,
which cannot be part of an utterance's file name; and gen_suite checks that
every keyword fits before it creates a directory.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .emissions import BLANK_ID, KeywordSpec
from .errors import ManifestError, ValidationError
from .lattice import (
    FileLatticeOracle,
    load_lattice,
    read_lattice_header,
    save_lattice,
    snapshot,
)
from .synthetic import SyntheticJoinerConfig, SyntheticOracle

MANIFEST_SCHEMA = "kws-suite-manifest@3"
# json.dumps(value, sort_keys=True), by json's C encoder.
_encode = json.JSONEncoder(sort_keys=True).encode
# Where manifest.json holds its utterance records: in the "utterances" list.
_UTTERANCES = '"utterances": []'

DEFAULT_KEYWORD_NAMES = (
    "almost", "anything", "behind", "captain", "children",
    "company", "continued", "country", "everything", "hardly",
    "himself", "husband", "moment", "morning", "necessary",
    "perhaps", "silent", "something", "therefore", "together",
)
FILLER_TOKENS = 40  # filler tokens are the top ids of the vocabulary
KEYWORD_LENGTHS = (3, 6)  # the fewest and the most tokens of a keyword


@dataclass(frozen=True)
class SuiteGenSpec:
    """Everything gen_suite needs; defaults give a small smoke-scale suite."""

    keywords: tuple[str, ...] = DEFAULT_KEYWORD_NAMES
    n_pos: int = 10
    n_neg: int = 20
    frames_min: int = 120
    frames_max: int = 240
    duration_min: int = 2
    duration_max: int = 4
    epsilons: tuple[float, ...] = (0.0,)
    d_max: int = 4
    duration_concentration: float = 1.0
    seed: int = 0
    frame_seconds: float = 0.03

    def __post_init__(self) -> None:
        if len(self.keywords) < 1:
            raise ValidationError("need at least one keyword name")
        if len(set(self.keywords)) != len(self.keywords):
            raise ValidationError("keyword names must be unique")
        for name in self.keywords:  # each is part of its positives' file names
            if not {"/", "\0"}.isdisjoint(str(name)):
                raise ValidationError(f"keyword name {name!r} holds '/' or NUL, unfit for a file")
        if self.n_pos < 1 or self.n_neg < 1:
            raise ValidationError("n_pos and n_neg must be >= 1")
        if not 1 <= self.frames_min <= self.frames_max:
            raise ValidationError("need 1 <= frames_min <= frames_max")
        if not 1 <= self.duration_min <= self.duration_max:
            raise ValidationError("need 1 <= duration_min <= duration_max")
        for eps in self.epsilons:  # the config owns the rules of these four
            _config_value(eps, "epsilon")
        for name in ("d_max", "duration_concentration", "frame_seconds"):
            _config_value(getattr(self, name), name)
        if len(self.epsilons) < 1:
            raise ValidationError("need at least one epsilon")
        tags = [_epsilon_tag(eps) for eps in self.epsilons]
        if len(set(tags)) < len(tags):  # they would write the same utterances
            raise ValidationError(f"epsilons {self.epsilons} repeat an utterance id suffix: {tags}")
        if self.seed < 0:  # numpy seeds only from non-negative integers
            raise ValidationError(f"the seed must be >= 0, got {self.seed}")
        # Lattice headers store frame_seconds as f32; it must survive that.
        with np.errstate(over="ignore"):
            stored = np.float32(self.frame_seconds)
        if not (np.isfinite(stored) and stored > 0):
            raise ValidationError(
                f"frame_seconds must be finite and > 0 as a 32-bit float, got {self.frame_seconds}"
            )


def _epsilon_tag(epsilon: float) -> str:
    return f"-e{epsilon:.2f}"


def _draw_keywords(spec: SuiteGenSpec) -> tuple[tuple[KeywordSpec, ...], int]:
    """Keyword token sequences on disjoint id blocks; returns (keywords, vocab_size)."""
    rng = np.random.default_rng([spec.seed, 0])
    keywords = []
    next_id = 1
    for name in spec.keywords:
        length = int(rng.integers(KEYWORD_LENGTHS[0], KEYWORD_LENGTHS[1] + 1))
        ids = list(range(next_id, next_id + length))
        rng.shuffle(ids)
        next_id += length
        keywords.append(KeywordSpec(name=name, tokens=tuple(ids)))
    vocab_size = next_id - 1 + FILLER_TOKENS
    return tuple(keywords), vocab_size


def _tile_segments(
    rng: np.random.Generator,
    spec: SuiteGenSpec,
    num_frames: int,
    keyword: KeywordSpec | None,
    filler_tokens: np.ndarray,
) -> tuple[list[int], list[int]]:
    """The (tokens, durations) of segments that cover frames [1, num_frames]
    in order; plant the keyword if given.

    The draws are batched but leave ``rng`` exactly where one draw per
    segment would: durations until they cover ``num_frames``, then one
    filler token per slot, then the keyword's slot. The slot count comes
    from an over-draw that is then undone, so only the needed durations are
    drawn for real.
    """
    low, high = spec.duration_min, spec.duration_max + 1
    state = rng.bit_generator.state
    # Every duration is >= duration_min, so this many always cover the frames.
    ends = np.cumsum(rng.integers(low, high, size=-(-num_frames // low)))
    slots = int(np.searchsorted(ends, num_frames)) + 1
    rng.bit_generator.state = state
    durations = rng.integers(low, high, size=slots)
    durations[-1] -= ends[slots - 1] - num_frames  # the final slot absorbs the remainder
    truncated_last = durations[-1] < spec.duration_min

    tokens = filler_tokens[rng.integers(0, len(filler_tokens), size=slots)]
    if keyword is not None:
        U = keyword.num_tokens
        usable = slots - (1 if truncated_last else 0)
        if usable < U:
            raise ValidationError(
                f"keyword {keyword.name!r} ({U} segments) does not fit in "
                f"{num_frames} frames at these durations"
            )
        at = int(rng.integers(0, usable - U + 1))
        tokens[at : at + U] = keyword.tokens
    return tokens.tolist(), durations.tolist()


def _utterance_alignment(
    spec: SuiteGenSpec,
    utt_index: int,
    keyword: KeywordSpec | None,
    filler_tokens: np.ndarray,
) -> tuple[list[int], list[int]]:
    """(tokens, durations) of one utterance, drawn from its child seed."""
    rng = np.random.default_rng([spec.seed, 1 + utt_index])
    num_frames = int(rng.integers(spec.frames_min, spec.frames_max + 1))
    return _tile_segments(rng, spec, num_frames, keyword, filler_tokens)


def gen_suite(out_dir: str | Path, spec: SuiteGenSpec) -> Path:
    """Write one suite tree; returns the manifest path."""
    keywords, vocab_size = _draw_keywords(spec)
    filler_tokens = np.arange(vocab_size - FILLER_TOKENS + 1, vocab_size + 1)

    # Even the worst duration draws must leave room to plant the longest keyword.
    guaranteed_slots = spec.frames_min // spec.duration_max
    longest = max(kw.num_tokens for kw in keywords)
    if longest > guaranteed_slots:
        raise ValidationError(
            f"longest keyword needs {longest} segments but frames_min={spec.frames_min} "
            f"guarantees only {guaranteed_slots} full slots at duration_max={spec.duration_max}"
        )

    out_dir = Path(out_dir)
    lattice_dir = out_dir / "lattices"
    lattice_dir.mkdir(parents=True, exist_ok=True)

    # (utt stem, label keyword or None, lattice keyword, utt_index for seeding)
    plans: list[tuple[str, KeywordSpec | None, KeywordSpec, int]] = []
    index = 0
    for kw in keywords:
        for i in range(spec.n_pos):
            plans.append((f"pos-{kw.name}-{i:03d}", kw, kw, index))
            index += 1
    for j in range(spec.n_neg):
        round_robin = keywords[j % len(keywords)]
        plans.append((f"neg-{j:03d}", None, round_robin, index))
        index += 1

    facts = {
        "frame_seconds": spec.frame_seconds,
        "d_max": spec.d_max,
        "duration_concentration": spec.duration_concentration,
        "vocab_size": vocab_size,
    }
    # Each utterance record becomes its manifest line as soon as it is built.
    records: list[str] = []
    for stem, label_kw, lattice_kw, utt_index in plans:
        # Every epsilon of an utterance shares its planted alignment.
        tokens, durations = _utterance_alignment(spec, utt_index, label_kw, filler_tokens)
        alignment = {"tokens": tokens, "durations": durations}
        for epsilon in spec.epsilons:
            utt_id = stem + _epsilon_tag(epsilon)
            data = snapshot(
                SyntheticOracle(SyntheticJoinerConfig(**alignment, epsilon=epsilon, **facts)),
                lattice_kw,
                provenance={
                    "generator": "kws.suite",
                    "suite_seed": spec.seed,
                    "utt_id": utt_id,
                    "epsilon": epsilon,
                },
            )
            save_lattice(data, lattice_dir / f"{utt_id}.kwl")
            record = {
                "utt_id": utt_id,
                "label": label_kw.name if label_kw is not None else None,
                "epsilon": epsilon,
                "lattice": f"lattices/{utt_id}.kwl",
                "lattice_keyword": lattice_kw.name,
                **alignment,
            }
            records.append(_encode(record))

    manifest = {
        "schema": MANIFEST_SCHEMA,
        "seed": spec.seed,
        **facts,
        "keywords": [{"name": kw.name, "tokens": list(kw.tokens)} for kw in keywords],
        "utterances": [],
    }
    # The records go where the empty list stands, one a line. No other text of
    # the manifest can read like that key: a quote inside a JSON string is escaped.
    head, tail = _encode(manifest).split(_UTTERANCES)
    manifest_path = out_dir / "manifest.json"
    with manifest_path.open("w", encoding="utf-8") as out:
        out.write(f'{head}"utterances": [\n{records[0]}')
        for record in records[1:]:
            out.write(f",\n{record}")
        out.write(f"\n]{tail}\n")
    return manifest_path


@dataclass(frozen=True)
class Utterance:
    utt_id: str
    label: str | None
    lattice: str
    lattice_keyword: str
    synth: SyntheticJoinerConfig

    @property
    def epsilon(self) -> float:
        return self.synth.epsilon

    @property
    def num_frames(self) -> int:
        return self.synth.num_frames

    @property
    def duration_seconds(self) -> float:
        return self.synth.duration_seconds


@dataclass(frozen=True)
class SuiteManifest:
    root: Path
    seed: int
    d_max: int
    keywords: tuple[KeywordSpec, ...]
    utterances: tuple[Utterance, ...]

    @property
    def keywords_by_name(self) -> dict[str, KeywordSpec]:
        return {kw.name: kw for kw in self.keywords}

    def positives(self, keyword: str, epsilon: float | None = None) -> list[Utterance]:
        return [
            u
            for u in self.utterances
            if u.label == keyword and (epsilon is None or u.epsilon == epsilon)
        ]

    def negatives(self, epsilon: float | None = None) -> list[Utterance]:
        return [
            u
            for u in self.utterances
            if u.label is None and (epsilon is None or u.epsilon == epsilon)
        ]

    def lattice_path(self, utt: Utterance) -> Path:
        return self.root / utt.lattice

    def _check_header(
        self, utt: Utterance, frames: int, d_max: int, frame_seconds: float
    ) -> None:
        """Hold the frame count, D_max and frame_seconds of ``utt``'s lattice
        header to its record's frame count and the suite's ``d_max`` and
        ``frame_seconds``, which the header stores as a 32-bit float."""
        stated = utt.synth.frame_seconds
        header = (frames, d_max, frame_seconds)
        if header == (utt.num_frames, self.d_max, float(np.float32(stated))):
            return
        manifest, path = self.root / "manifest.json", self.lattice_path(utt)
        if frames != utt.num_frames:
            raise ManifestError(
                f"{manifest}: utterance {utt.utt_id!r}: field 'durations': "
                f"{utt.num_frames} frames, but {path} has {frames} frames"
            )
        if d_max != self.d_max:
            raise ManifestError(
                f"{manifest}: top level: field 'd_max': {self.d_max}, but {path} has D_max {d_max}"
            )
        raise ManifestError(
            f"{manifest}: top level: field 'frame_seconds': {stated}, "
            f"but {path} has {frame_seconds}"
        )

    def lattice(self, utt: Utterance) -> FileLatticeOracle:
        """``utt``'s lattice, whose header must agree with its record and the
        suite (``check_lattice_headers``) and which, when its sidecar's
        provenance names an utterance, must be ``utt``'s. Suite commands open
        lattices here, by the global ``load_lattice`` that a tracer swaps."""
        oracle = load_lattice(os.path.join(self.root, utt.lattice))
        self._check_header(utt, oracle.num_frames, oracle.d_max, oracle.frame_seconds)
        provenance = oracle.provenance
        if isinstance(provenance, dict) and provenance.get("utt_id", utt.utt_id) != utt.utt_id:
            raise ManifestError(
                f"{self.root / 'manifest.json'}: utterance {utt.utt_id!r}: field 'lattice': "
                f"{self.lattice_path(utt)} was written for utterance {provenance['utt_id']!r}"
            )
        return oracle

    def check_lattice_headers(self, utterances) -> None:
        """Hold the lattice header of each of ``utterances`` to its record and
        the suite: its frame count, D_max and frame_seconds (a header that
        disagrees is a broken file, not a decode that fails later), reading
        no lattice body or sidecar. The frame counts size arrays before a
        lattice is read: the sum of a record's ``durations`` a
        SyntheticOracle's per-frame arrays, and the records' frame counts a
        decode run's lane buffer."""
        for utt in utterances:
            frames, _, d_max, frame_seconds = read_lattice_header(
                os.path.join(self.root, utt.lattice)
            )
            self._check_header(utt, frames, d_max, frame_seconds)


# Everything a malformed manifest can make the parsing below raise.
_CONTENT_ERRORS = (LookupError, TypeError, ValueError, ArithmeticError)
# The top-level facts that every utterance's config takes, and the fields of
# the top level and of an utterance record: each fact once.
_SUITE_FACTS = ("frame_seconds", "d_max", "duration_concentration", "vocab_size")
_TOP_FIELDS = {"schema", "seed", *_SUITE_FACTS, "keywords", "utterances"}
_RECORD_FIELDS = {"utt_id", "label", "epsilon", "lattice", "lattice_keyword", "tokens", "durations"}


def _field(path: Path, where: str, record, name: str, parse=lambda value: value, *args):
    """``parse(record[name], *args)``; a content failure becomes a
    ManifestError that names the manifest, the record and the field."""
    try:
        return parse(record[name], *args)
    except _CONTENT_ERRORS as exc:
        raise ManifestError(f"{path}: {where}: field {name!r}: {exc!r}") from exc


def _only(path: Path, where: str, record: dict, fields: set) -> None:
    """Refuse a field of ``record`` outside ``fields``, such as a copy of a
    fact that another field states."""
    if not record.keys() <= fields:
        name = min(record.keys() - fields)
        raise ManifestError(f"{path}: {where}: field {name!r}: not a {MANIFEST_SCHEMA} field")


def _require(ok, message: str):
    def parse(value):
        if not ok(value):
            raise ValueError(f"{message}, got {value!r}")
        return value

    return parse


def _column(value) -> list:
    """An alignment column's JSON layout, a list; the config checks its entries."""
    if type(value) is not list:
        raise ValueError(f"expected a list, got {value!r:.80}")
    return value


def _config_value(value, name: str):
    """``value``, once a SyntheticJoinerConfig takes it as its ``name``."""
    SyntheticJoinerConfig(**{"vocab_size": 1, "tokens": (1,), "durations": (1,), name: value})
    return value


def _synth(path: Path, where: str, record: dict, facts: dict) -> SyntheticJoinerConfig:
    """The config of ``record``'s columns and epsilon under the suite-wide
    ``facts``, which must tile its frames: a token 0 marks a gap, and a
    suite has none. A refusal becomes a ManifestError naming the field."""
    field = partial(_field, path, where, record)
    tokens, durations = field("tokens", _column), field("durations", _column)
    epsilon = field("epsilon")
    try:
        synth = SyntheticJoinerConfig(tokens=tokens, durations=durations, epsilon=epsilon, **facts)
        if BLANK_ID in synth.tokens:
            i = synth.tokens.index(BLANK_ID)
            raise ValidationError(f"tokens[{i}] is 0, a gap, which no suite has")
    except ValidationError as exc:  # each message begins with the field at fault
        name = str(exc).partition(" ")[0].partition("[")[0]
        raise ManifestError(f"{path}: {where}: field {name!r}: {exc!r}") from exc
    return synth


def _keywords(records) -> tuple[KeywordSpec, ...]:
    keywords = tuple(KeywordSpec(name=k["name"], tokens=tuple(k["tokens"])) for k in records)
    names = set()
    for keyword in keywords:
        if keyword.name in names:
            raise ValueError(f"duplicate keyword name {keyword.name!r}")
        names.add(keyword.name)
    return keywords


def load_manifest(suite_dir: str | Path) -> SuiteManifest:
    """Read ``suite_dir/manifest.json``; content that does not parse or
    validate raises ManifestError."""
    suite_dir = Path(suite_dir)
    manifest_path = suite_dir / "manifest.json"
    try:
        raw = json.loads(manifest_path.read_text(encoding="utf-8"))
    except ValueError as exc:  # UnicodeDecodeError, JSONDecodeError
        raise ManifestError(f"{manifest_path}: not UTF-8 JSON ({exc})") from exc
    top = partial(_field, manifest_path, "top level", raw)
    top("schema", _require(lambda v: v == MANIFEST_SCHEMA, f"expected {MANIFEST_SCHEMA!r}"))
    _only(manifest_path, "top level", raw, _TOP_FIELDS)
    seed = top("seed", _require(lambda v: type(v) is int and v >= 0, "expected an integer >= 0"))
    facts = {name: top(name, _config_value, name) for name in _SUITE_FACTS}
    keywords = top("keywords", _keywords)
    names = {kw.name for kw in keywords}
    known = _require(lambda v: v in names, "unknown keyword")
    text = _require(lambda v: isinstance(v, str), "expected a string")
    utterances = []
    records = top(
        "utterances", _require(lambda v: isinstance(v, list) and v, "expected a non-empty list")
    )
    utt_ids = set()
    new = _require(lambda v: v not in utt_ids, "duplicate utterance id")
    for index, rec in enumerate(records):
        utt_id = _field(manifest_path, f"utterance {index}", rec, "utt_id", lambda v: new(text(v)))
        utt_ids.add(utt_id)
        where = f"utterance {utt_id!r}"
        _only(manifest_path, where, rec, _RECORD_FIELDS)
        field = partial(_field, manifest_path, where, rec)
        utterances.append(Utterance(
            utt_id=utt_id,
            label=field("label", lambda v: v if v is None else known(v)),
            lattice=field("lattice", text),
            lattice_keyword=field("lattice_keyword", known),
            synth=_synth(manifest_path, where, rec, facts),
        ))
    return SuiteManifest(
        root=suite_dir,
        seed=seed,
        d_max=facts["d_max"],
        keywords=keywords,
        utterances=tuple(utterances),
    )
