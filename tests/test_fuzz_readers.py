"""Truncated, bit-flipped and field-replaced suite files: readers raise only
KwsError subclasses, and the CLI answers with an exit code, never a traceback."""

import json
import math
import re
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kws import (
    BLANK_ID,
    KwsError,
    ManifestError,
    SuiteGenSpec,
    gen_suite,
    load_manifest,
    read_lattice,
)
from kws.cli import main
from kws.lattice import D_MAX_LIMIT

SPEC = SuiteGenSpec(
    keywords=("alpha",),
    n_pos=1,
    n_neg=1,
    frames_min=18,
    frames_max=24,
    duration_min=2,
    duration_max=3,
    d_max=3,
    seed=5,
)
UTT = "pos-alpha-000-e0.00"
LATTICE = f"lattices/{UTT}.kwl"
TARGETS = ("manifest.json", LATTICE, f"lattices/{UTT}.json")


@pytest.fixture(scope="module")
def suite_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz") / "suite"
    gen_suite(root, SPEC)
    return root


def corrupt(data: bytes, cut: int | None, flips: list[tuple[int, int]]) -> bytes:
    """``data`` cut short at ``cut``, or with the given (byte, bit) flips."""
    if cut is not None:
        return data[: cut % len(data)]
    buf = bytearray(data)
    for pos, bit in flips:
        buf[pos % len(buf)] ^= 1 << bit
    return bytes(buf)


@settings(max_examples=30, deadline=None)
@given(
    target=st.sampled_from(TARGETS),
    cut=st.none() | st.integers(min_value=0, max_value=1 << 16),
    flips=st.lists(
        st.tuples(st.integers(min_value=0, max_value=1 << 16), st.integers(0, 7)),
        min_size=1,
        max_size=3,
    ),
)
def test_corrupted_suite_files_fail_typed(suite_dir, target, cut, flips):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "suite"
        shutil.copytree(suite_dir, root)
        path = root / target
        path.write_bytes(corrupt(path.read_bytes(), cut, flips))
        try:
            if target == "manifest.json":
                load_manifest(root)
            else:
                read_lattice(root / LATTICE)
        except KwsError:
            reader_failed = True
        else:
            reader_failed = False

        out = str(Path(tmp) / "out")
        codes = [
            main(["decode", "--suite", str(root), "--mode", mode, "--d-max", "3", "--out", out])
            for mode in ("rnnt", "tdt")
        ]
        codes.append(main(["dump-delta", "--suite", str(root), "--utt", UTT, "--out", out]))
        assert set(codes) <= {0, 1, 2}
        if reader_failed:
            assert 0 not in codes


# The fields of an utterance record, and fields that no @3 record holds.
FIELDS = (
    "utt_id", "label", "epsilon", "lattice", "lattice_keyword", "tokens", "durations",
    "num_frames", "duration_seconds", "synth",
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=8,
)
BUMP, HUGE = "its last entry + 1", "its last entry + 10**30"


def consistent(suite, manifest) -> None:
    """Every utterance's config holds the top level's facts and its record's
    epsilon, and tiles its frames with the record's columns."""
    assert type(suite.seed) is int and suite.seed >= 0
    assert type(suite.d_max) is int and 0 <= suite.d_max <= D_MAX_LIMIT
    assert type(manifest["vocab_size"]) is int
    assert math.isfinite(manifest["frame_seconds"]) and manifest["frame_seconds"] > 0
    assert 0 < manifest["duration_concentration"] <= 1
    names = [kw.name for kw in suite.keywords]
    assert len(set(names)) == len(names)
    records = {record["utt_id"]: record for record in manifest["utterances"]}
    assert len(records) == len(suite.utterances)
    for utt in suite.utterances:
        record, synth = records[utt.utt_id], utt.synth
        durations = record["durations"]
        assert type(utt.num_frames) is int and utt.num_frames == sum(durations)
        assert synth.tokens == tuple(record["tokens"]) and synth.durations == tuple(durations)
        assert BLANK_ID not in synth.tokens
        assert type(utt.epsilon) is not bool and utt.epsilon == record["epsilon"]
        assert math.isfinite(utt.duration_seconds)
        assert synth.frame_seconds == manifest["frame_seconds"]
        assert synth.d_max == suite.d_max == manifest["d_max"]
        assert synth.vocab_size == manifest["vocab_size"]
        assert synth.duration_concentration == manifest["duration_concentration"]


def check_commands(root: Path, tmp: str, loaded: bool) -> None:
    """decode and bench answer with an exit code, 2 for a manifest that does
    not load."""
    out = str(Path(tmp) / "out")
    codes = [
        main(["decode", "--suite", str(root), "--mode", "tdt", "--d-max", "3", "--out", out]),
        main(["bench", "--suite", str(root), "--report", out]),
    ]
    assert set(codes) <= {0, 1, 2}
    if not loaded:
        assert codes == [2, 2]


@settings(max_examples=40, deadline=None)
@given(
    utterance=st.integers(0, 1),
    field=st.sampled_from(FIELDS),
    value=st.none() | st.sampled_from([BUMP, HUGE]) | JSON_VALUES.map(lambda v: [v]),
)
@example(utterance=0, field="num_frames", value=[26])
@example(utterance=0, field="synth", value=[{}])
@example(utterance=1, field="duration_seconds", value=[math.inf])
@example(utterance=1, field="durations", value=BUMP)
@example(utterance=0, field="durations", value=HUGE)
@example(utterance=1, field="tokens", value=BUMP)
@example(utterance=0, field="tokens", value=HUGE)
@example(utterance=1, field="epsilon", value=[0.5])
@example(utterance=1, field="epsilon", value=[False])
@example(utterance=0, field="utt_id", value=["neg-000-e0.00"])  # the other record's id
@example(utterance=0, field="label", value=[None])
def test_replaced_manifest_fields_fail_typed(suite_dir, utterance, field, value):
    """One field of one utterance record is deleted (``value`` None), has its
    last entry raised, or is set to an arbitrary JSON value; a field that no
    @3 record holds is so added. A manifest that loads is consistent; one
    that does not fails with a ManifestError that names the manifest, the
    utterance and the field, and the CLI exits 2."""
    manifest = json.loads((suite_dir / "manifest.json").read_text(encoding="utf-8"))
    record = manifest["utterances"][utterance]
    utt_id = record["utt_id"]
    if value is None:
        record.pop(field, None)
    elif value in (BUMP, HUGE):
        if isinstance(record.get(field), list):
            record[field][-1] += 1 if value == BUMP else 10**30
    else:
        record[field] = value[0]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "suite"
        shutil.copytree(suite_dir, root)
        (root / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        try:
            suite = load_manifest(root)
        except ManifestError as exc:
            suite = None
            message = str(exc)
            # A duplicate id is found at the later of the two records.
            where = r"utterance \d" if field == "utt_id" else re.escape(f"utterance {utt_id!r}")
            assert re.match(rf"{re.escape(str(root / 'manifest.json'))}: {where}: field ", message)
            assert repr(field) in message
        if suite is not None:
            consistent(suite, manifest)
        check_commands(root, tmp, suite is not None)


ALIGNMENT_EDITS = (
    "shorten", "lengthen", "float", "integral float", "string", "bool", "null", "zero",
    "negative", "not a list", "empty",
)


@settings(max_examples=40, deadline=None)
@given(
    utterance=st.integers(0, 1),
    edit=st.sampled_from(ALIGNMENT_EDITS),
    column=st.sampled_from(["tokens", "durations"]),
    index=st.integers(0, 1 << 8),
)
def test_malformed_alignment_columns_fail_at_load(suite_dir, utterance, edit, column, index):
    """An alignment is two columns of positive JSON integers of one length,
    tokens and durations. A shorter or longer column, an entry that is a
    float, a string, a boolean, null, zero or negative, a column that is not
    a list or is empty: each is a ManifestError at load that names the
    manifest, the utterance and the column, and the entry where one is at
    fault."""
    manifest = json.loads((suite_dir / "manifest.json").read_text(encoding="utf-8"))
    record = manifest["utterances"][utterance]
    entries = record[column]
    entry = index % len(entries)
    odd = {
        "float": entries[entry] + 0.5, "integral float": float(entries[entry]),
        "string": str(entries[entry]), "bool": True, "null": None, "zero": 0,
        "negative": -entries[entry],
    }
    if edit == "shorten":
        del entries[entry]
    elif edit == "lengthen":
        entries.insert(entry, entries[entry])
    elif edit in odd:
        entries[entry] = odd[edit]
    elif edit == "not a list":
        record[column] = {str(i): value for i, value in enumerate(entries)}
    else:
        entries.clear()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "suite"
        root.mkdir()
        (root / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(ManifestError) as info:
            load_manifest(root)
    message = str(info.value)
    assert message.startswith(f"{root / 'manifest.json'}: utterance {record['utt_id']!r}: field ")
    assert repr(column) in message
    if edit in ("float", "integral float", "string", "bool", "null"):
        assert f"{column}[{entry}] must be an integer, got {odd[edit]!r}" in message


TOP_FIELDS = (
    "schema", "seed", "frame_seconds", "d_max", "duration_concentration", "vocab_size",
    "keywords", "utterances", "epsilons",
)
DUPLICATE = "a copy of the list's first item appended"


@settings(max_examples=40, deadline=None)
@given(
    field=st.sampled_from(TOP_FIELDS),
    value=st.none() | st.just(DUPLICATE) | JSON_VALUES.map(lambda v: [v]),
)
@example(field="seed", value=["x"])
@example(field="seed", value=[-3])
@example(field="seed", value=[True])
@example(field="frame_seconds", value=["abc"])
@example(field="frame_seconds", value=[-1.0])
@example(field="frame_seconds", value=[True])
@example(field="d_max", value=[1.5])
@example(field="d_max", value=[True])
@example(field="d_max", value=[70000])
@example(field="epsilons", value=[[0.0]])
@example(field="keywords", value=DUPLICATE)
@example(field="utterances", value=DUPLICATE)
@example(field="frame_seconds", value=[0.02])
@example(field="vocab_size", value=[7])
@example(field="vocab_size", value=[45.0])  # the right size, as a float
@example(field="d_max", value=[2])
@example(field="seed", value=[99])
@example(field="duration_concentration", value=[0.25])
@example(field="duration_concentration", value=[1.5])
@example(field="duration_concentration", value=["x"])
def test_replaced_top_level_fields_fail_typed(suite_dir, field, value):
    """One top-level manifest field is deleted (``value`` None), gets a copy
    of its first item appended, or is replaced by an arbitrary JSON value;
    the epsilons, which no @3 top level holds, are so added. A manifest that
    loads is consistent: its seed, frame length, D_max, vocabulary size and
    duration concentration are in range and held by every utterance's
    config, and its keyword names and utterance ids are unique. One that
    does not fails with a ManifestError naming the manifest, the top level
    and the field, and the CLI exits 2. A vocabulary too small for a
    record's tokens is found at that record, which the message names, with
    the token entry and the vocabulary's bound."""
    manifest = json.loads((suite_dir / "manifest.json").read_text(encoding="utf-8"))
    if value is None:
        manifest.pop(field, None)
    elif value == DUPLICATE:
        if isinstance(manifest.get(field), list):
            manifest[field].append(manifest[field][0])
    else:
        manifest[field] = value[0]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "suite"
        shutil.copytree(suite_dir, root)
        (root / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        try:
            suite = load_manifest(root)
        except ManifestError as exc:
            suite = None
            message = str(exc)
            assert message.startswith(f"{root / 'manifest.json'}: ")
            if field == "vocab_size" and "top level" not in message:
                assert re.search(r"field 'tokens': .*tokens\[\d+\] must be in \[0, ", message)
            elif field not in ("keywords", "utterances"):
                assert f": top level: field {field!r}" in message
            if value == DUPLICATE and field in ("keywords", "utterances"):
                assert "duplicate" in message
        if suite is not None:
            consistent(suite, manifest)
            utt_ids = [u.utt_id for u in suite.utterances]
            assert len(set(utt_ids)) == len(utt_ids)
        check_commands(root, tmp, suite is not None)
