"""Truncated, bit-flipped and field-replaced suite files: readers raise only
KwsError subclasses, and the CLI answers with an exit code, never a traceback."""

import json
import math
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kws import KwsError, ManifestError, SuiteGenSpec, gen_suite, load_manifest, read_lattice
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


# (where, name): a field of an utterance record or of its synth.
FIELDS = [
    *(("record", name) for name in (
        "utt_id", "label", "epsilon", "num_frames", "duration_seconds", "lattice",
        "lattice_keyword", "synth",
    )),
    *(("synth", name) for name in (
        "vocab_size", "num_frames", "alignment", "epsilon", "d_max", "duration_concentration",
        "seed", "frame_seconds",
    )),
]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=8,
)


@settings(max_examples=40, deadline=None)
@given(
    utterance=st.integers(0, 1),
    field=st.sampled_from(FIELDS),
    value=st.none() | JSON_VALUES.map(lambda v: [v]),
)
@example(utterance=0, field=("record", "num_frames"), value=[26.5])
@example(utterance=1, field=("record", "num_frames"), value=[1])
@example(utterance=0, field=("record", "duration_seconds"), value=[math.inf])
@example(utterance=0, field=("record", "duration_seconds"), value=[1000.0])
@example(utterance=1, field=("synth", "num_frames"), value=[10**30])
@example(utterance=1, field=("record", "epsilon"), value=[0.5])
@example(utterance=0, field=("synth", "frame_seconds"), value=[0.02])
@example(utterance=1, field=("synth", "vocab_size"), value=[99])
@example(utterance=0, field=("synth", "d_max"), value=[2])
@example(utterance=1, field=("synth", "seed"), value=[99])
@example(utterance=0, field=("synth", "seed"), value=[[]])  # unhashable
@example(utterance=0, field=("synth", "duration_concentration"), value=[0.25])
def test_replaced_manifest_fields_fail_typed(suite_dir, utterance, field, value):
    """One field of one utterance record, or of its synth, is deleted
    (``value`` None) or replaced by an arbitrary JSON value. A manifest that
    loads has records that agree with its top-level seed, epsilons, frame
    length, vocabulary size, D_max and duration concentration."""
    manifest = json.loads((suite_dir / "manifest.json").read_text(encoding="utf-8"))
    record = manifest["utterances"][utterance]
    where, name = field
    target = record if where == "record" else record["synth"]
    if value is None:
        del target[name]
    else:
        target[name] = value[0]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "suite"
        shutil.copytree(suite_dir, root)
        (root / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        try:
            suite = load_manifest(root)
        except ManifestError:
            suite = None
        if suite is not None:
            for utt in suite.utterances:
                assert type(utt.num_frames) is int and utt.num_frames == utt.synth.num_frames
                assert utt.epsilon == utt.synth.epsilon
                assert utt.duration_seconds == utt.num_frames * utt.synth.frame_seconds
                assert math.isfinite(utt.duration_seconds)
                assert utt.epsilon in manifest["epsilons"]
                assert utt.synth.frame_seconds == manifest["frame_seconds"]
                assert utt.synth.d_max == suite.d_max
                assert utt.synth.seed == suite.seed
            assert {utt.synth.vocab_size for utt in suite.utterances} == {manifest["vocab_size"]}
            assert {utt.synth.duration_concentration for utt in suite.utterances} == {
                manifest["duration_concentration"]
            }

        out = str(Path(tmp) / "out")
        codes = [
            main(["decode", "--suite", str(root), "--mode", "tdt", "--d-max", "3", "--out", out]),
            main(["bench", "--suite", str(root), "--report", out]),
        ]
        assert set(codes) <= {0, 1, 2}
        if suite is None:
            assert codes == [2, 2]


ALIGNMENT_EDITS = (
    "shorten", "two columns", "four columns", "float", "integral float", "string",
    "no columns", "one column empty",
)


@settings(max_examples=40, deadline=None)
@given(
    utterance=st.integers(0, 1),
    edit=st.sampled_from(ALIGNMENT_EDITS),
    column=st.integers(0, 2),
    index=st.integers(0, 1 << 8),
)
def test_malformed_alignment_columns_fail_at_load(suite_dir, utterance, edit, column, index):
    """A synth alignment is three integer columns of one length (tokens,
    starts, durations). Unequal lengths, two or four columns, a float or a
    string entry, no columns or one empty column: each is a ManifestError at
    load that names the manifest, the utterance and the synth."""
    manifest = json.loads((suite_dir / "manifest.json").read_text(encoding="utf-8"))
    record = manifest["utterances"][utterance]
    columns = record["synth"]["alignment"]
    entry = index % len(columns[0])
    if edit == "shorten":
        del columns[column][entry]
    elif edit == "two columns":
        del columns[column]
    elif edit == "four columns":
        columns.insert(column, list(columns[column]))
    elif edit == "float":
        columns[column][entry] += 0.5
    elif edit == "integral float":
        columns[column][entry] = float(columns[column][entry])
    elif edit == "string":
        columns[column][entry] = str(columns[column][entry])
    elif edit == "no columns":
        columns.clear()
    else:
        columns[column].clear()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "suite"
        root.mkdir()
        (root / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(ManifestError) as info:
            load_manifest(root)
    message = str(info.value)
    assert message.startswith(f"{root / 'manifest.json'}: utterance {record['utt_id']!r}: ")
    assert "field 'synth'" in message and "alignment" in message


TOP_FIELDS = (
    "schema", "seed", "frame_seconds", "d_max", "duration_concentration", "vocab_size",
    "epsilons", "keywords", "utterances",
)
DUPLICATE = "a copy of the list's first item appended"


@settings(max_examples=40, deadline=None)
@given(
    field=st.sampled_from(TOP_FIELDS),
    value=st.none() | st.just(DUPLICATE) | JSON_VALUES.map(lambda v: [v]),
)
@example(field="seed", value=["x"])
@example(field="seed", value=[-3])
@example(field="frame_seconds", value=["abc"])
@example(field="frame_seconds", value=[-1.0])
@example(field="d_max", value=[1.5])
@example(field="epsilons", value=[[5]])
@example(field="keywords", value=DUPLICATE)
@example(field="utterances", value=DUPLICATE)
@example(field="epsilons", value=[[0.0, 0.5]])
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
    of its first item appended, or is replaced by an arbitrary JSON value: a
    manifest that loads holds a suite seed, frame length, D_max and epsilons
    in range and unique keyword names and utterance ids; one that does not
    fails with a ManifestError naming the manifest, and the CLI exits 2.
    The seed, epsilons, frame length, vocabulary size, D_max and duration
    concentration, in (0, 1], must also agree with every record."""
    manifest = json.loads((suite_dir / "manifest.json").read_text(encoding="utf-8"))
    if value is None:
        del manifest[field]
    elif value == DUPLICATE:
        if isinstance(manifest[field], list):
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
            assert str(root / "manifest.json") in message
            if field != "keywords" and field != "utterances":
                assert f"field {field!r}" in message
            if value == DUPLICATE and field in ("keywords", "utterances"):
                assert "duplicate" in message
        if suite is not None:
            assert type(suite.seed) is int and suite.seed >= 0
            frame_seconds = manifest["frame_seconds"]
            assert math.isfinite(frame_seconds) and frame_seconds > 0
            assert type(suite.d_max) is int and 0 <= suite.d_max <= D_MAX_LIMIT
            assert all(0 <= eps < 1 for eps in manifest["epsilons"])
            assert {u.epsilon for u in suite.utterances} == set(manifest["epsilons"])
            assert type(manifest["vocab_size"]) is int
            assert 0 < manifest["duration_concentration"] <= 1
            for utt in suite.utterances:
                assert utt.synth.frame_seconds == frame_seconds
                assert utt.synth.d_max == suite.d_max
                assert utt.synth.vocab_size == manifest["vocab_size"]
                assert utt.synth.seed == suite.seed
                assert utt.synth.duration_concentration == manifest["duration_concentration"]
            names = [kw.name for kw in suite.keywords]
            assert len(set(names)) == len(names)
            utt_ids = [u.utt_id for u in suite.utterances]
            assert len(set(utt_ids)) == len(utt_ids)

        out = str(Path(tmp) / "out")
        codes = [
            main(["decode", "--suite", str(root), "--mode", "tdt", "--d-max", "3", "--out", out]),
            main(["bench", "--suite", str(root), "--report", out]),
        ]
        assert set(codes) <= {0, 1, 2}
        if suite is None:
            assert codes == [2, 2]
