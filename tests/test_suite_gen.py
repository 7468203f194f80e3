"""Synthetic suite generation: determinism, planted alignments, manifest IO."""

import hashlib
import importlib.resources
import itertools
import json
import math
import tracemalloc
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kws import (
    BLANK_ID,
    DecodeConfig,
    KeywordSpec,
    ManifestError,
    SuiteGenSpec,
    SyntheticOracle,
    ValidationError,
    decode_kws,
    gen_suite,
    load_lattice,
    load_manifest,
)
from kws import suite as suite_module
from kws.cli import main
from kws.suite import _tile_segments

SPEC = SuiteGenSpec(
    keywords=("alpha", "bravo"),
    n_pos=2,
    n_neg=3,
    frames_min=30,
    frames_max=40,
    duration_min=2,
    duration_max=3,
    epsilons=(0.0, 0.5),
    d_max=3,
    seed=11,
)


@pytest.fixture(scope="module")
def suite_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("suite")
    gen_suite(root, SPEC)
    return root


@pytest.fixture(scope="module")
def manifest(suite_dir):
    return load_manifest(suite_dir)


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


def occurrence_count(tokens, needle):
    count = i = 0
    while i <= len(tokens) - len(needle):
        if tokens[i : i + len(needle)] == needle:
            count += 1
            i += len(needle)
        else:
            i += 1
    return count


def test_same_seed_gives_byte_identical_trees(suite_dir, tmp_path):
    again = tmp_path / "again"
    gen_suite(again, SPEC)
    assert tree_bytes(again) == tree_bytes(suite_dir)


def tree_sha256(root: Path) -> str:
    digest = hashlib.sha256()
    for path, data in tree_bytes(root).items():
        digest.update(f"{path}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def as_schema_2(text: str) -> dict:
    """The content of a manifest's text in the kws-suite-manifest@2 layout,
    which copied the suite-wide facts into every record's ``synth``, each
    record's epsilon and frame count beside it, and the epsilons to the top
    level, and stored each alignment's start frames as a third column."""
    raw = json.loads(text)
    facts = {name: raw[name] for name in (
        "seed", "frame_seconds", "d_max", "duration_concentration", "vocab_size",
    )}
    raw["schema"] = "kws-suite-manifest@2"
    raw["epsilons"] = list(dict.fromkeys(record["epsilon"] for record in raw["utterances"]))
    for record in raw["utterances"]:
        tokens, durations = record.pop("tokens"), record.pop("durations")
        starts = list(itertools.accumulate(durations, initial=1))
        num_frames = starts.pop() - 1
        record["num_frames"] = num_frames
        record["duration_seconds"] = num_frames * raw["frame_seconds"]
        record["synth"] = {
            **facts,
            "num_frames": num_frames,
            "epsilon": record["epsilon"],
            "alignment": [tokens, starts, durations],
        }
    return raw


def as_schema_1(text: str) -> str:
    """A manifest's text in the kws-suite-manifest@1 layout, which was the
    @2 content with each alignment as one [token, start, duration] list per
    segment."""
    raw = as_schema_2(text)
    raw["schema"] = "kws-suite-manifest@1"
    for record in raw["utterances"]:
        record["synth"]["alignment"] = [list(s) for s in zip(*record["synth"]["alignment"])]
    return json.dumps(raw, sort_keys=True, indent=2) + "\n"


# Digests of whole gen trees, recorded with the per-draw generator, the
# per-frame greedy walk and @1 manifests; batching must not move a byte, and
# the manifest may change only in its layout. The @3 manifests' own digests,
# in the one-record-per-line layout, are recorded too.
GOLDEN_TREES = [
    (SPEC, "85b673d9961f057c8387104773ca4f58a322054be35c5e0cc8e9a4721c0bf1cb"),
    (
        SuiteGenSpec(
            keywords=("a", "b", "c"), n_pos=2, n_neg=2, frames_min=50, frames_max=90,
            duration_min=1, duration_max=7, epsilons=(0.2,), d_max=5,
            duration_concentration=0.1, seed=4,
        ),
        "ba048f774d2c697001ad855d5f17385981ac0c3f2cf975a1678c3fa229de40e8",
    ),
]


GOLDEN_MANIFESTS = {
    SPEC.seed: "c41737f393a5389a0b8f0107639bab37fdb911b8280c75f61b486fbe6c13e685",
    4: "72e904465afc0fc8673de4ab9a2ad702987995f9e5c341dfb08d9fb0d34c858f",
}


@pytest.mark.parametrize("spec, sha256", GOLDEN_TREES)
def test_gen_trees_match_recorded_digests(tmp_path, spec, sha256):
    manifest = gen_suite(tmp_path, spec)
    text = manifest.read_text(encoding="utf-8")
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_MANIFESTS[spec.seed]
    manifest.write_text(as_schema_1(text), encoding="utf-8")
    assert tree_sha256(tmp_path) == sha256


@pytest.fixture(scope="module")
def perfbench_suite(tmp_path_factory):
    """The perfbench bench suite (600 utterances, epsilon 0 and 0.4), made
    under tracemalloc; returns (root, peak traced bytes of gen_suite)."""
    gen_suite(tmp_path_factory.mktemp("warm-up"), SuiteGenSpec(keywords=("a",), n_pos=1, n_neg=1))
    root = tmp_path_factory.mktemp("perfbench")
    spec = SuiteGenSpec(n_pos=10, n_neg=100, epsilons=(0.0, 0.4), d_max=4, seed=1)
    tracemalloc.start()
    try:
        gen_suite(root, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return root, peak


def one_record_per_line(text: str) -> str:
    """The manifest text of ``json.loads(text)``: ``json.dumps(...,
    sort_keys=True)`` of the top level, with each utterance record so dumped
    on its own line of the "utterances" list, and a final newline."""
    raw = json.loads(text)
    records = ",\n".join(json.dumps(record, sort_keys=True) for record in raw["utterances"])
    head, tail = json.dumps({**raw, "utterances": []}, sort_keys=True).split('"utterances": []')
    return f'{head}"utterances": [\n{records}\n]{tail}\n'


def test_gen_files_equal_json_dumps_of_their_content(perfbench_suite):
    root, _ = perfbench_suite
    text = (root / "manifest.json").read_text(encoding="utf-8")
    assert text == one_record_per_line(text)
    assert text.count("\n") == 600 + 2
    assert len(text.encode()) <= 400_000  # 652,343 bytes in the @2 layout
    sidecars = sorted((root / "lattices").glob("*.json"))
    assert len(sidecars) == 600
    for path in sidecars:
        text = path.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


def test_gen_peak_memory_stays_below_twice_the_manifest(perfbench_suite):
    # Records are written as text one at a time: neither the record dicts
    # nor the manifest's text is ever held whole.
    root, peak = perfbench_suite
    assert peak < 2 * (root / "manifest.json").stat().st_size


def _tile_segments_per_draw(rng, spec, num_frames, keyword, filler_tokens):
    """The generator as first written: one draw per duration and per slot."""
    durations = []
    total = 0
    while total < num_frames:
        d = int(rng.integers(spec.duration_min, spec.duration_max + 1))
        d = min(d, num_frames - total)
        durations.append(d)
        total += d
    truncated_last = durations[-1] < spec.duration_min
    slots = len(durations)
    tokens = [int(rng.choice(filler_tokens)) for _ in range(slots)]
    if keyword is not None:
        U = keyword.num_tokens
        usable = slots - (1 if truncated_last else 0)
        if usable < U:
            raise ValidationError("does not fit")
        at = int(rng.integers(0, usable - U + 1))
        tokens[at : at + U] = list(keyword.tokens)
    segments = []
    start = 1
    for token, duration in zip(tokens, durations):
        segments.append((token, start, duration))
        start += duration
    return tuple(segments)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    num_frames=st.integers(1, 300),
    duration_min=st.integers(1, 6),
    spread=st.sampled_from([0, 0, 1, 3, 8]),
    keyword_len=st.sampled_from([None, 1, 3, 6]),
    pool=st.integers(1, 50),
)
def test_batched_tiling_equals_the_per_draw_generator(
    seed, num_frames, duration_min, spread, keyword_len, pool
):
    """Same segments, same refusal and the same generator state afterwards,
    so every later draw of an utterance is unchanged too. The batched
    generator gives tokens and durations; each segment starts where the
    durations before it end, from frame 1."""
    spec = SuiteGenSpec(duration_min=duration_min, duration_max=duration_min + spread)
    keyword = None if keyword_len is None else KeywordSpec("k", tuple(range(1, keyword_len + 1)))
    filler = np.arange(100, 100 + pool)
    outcomes = []
    for tile in (_tile_segments, _tile_segments_per_draw):
        rng = np.random.default_rng([seed, 1])
        try:
            segments = tile(rng, spec, num_frames, keyword, filler)
        except ValidationError:
            segments = "refused"
        if tile is _tile_segments and segments != "refused":
            tokens, durations = segments
            segments = tuple(zip(tokens, itertools.accumulate(durations, initial=1), durations))
        outcomes.append((segments, rng.bit_generator.state, rng.integers(0, 2**62)))
    assert outcomes[0] == outcomes[1]
    segments = outcomes[0][0]
    if segments != "refused":
        assert all(type(v) is int for segment in segments for v in segment)
        assert sum(duration for _, _, duration in segments) == num_frames


def test_different_seed_changes_output(suite_dir, tmp_path):
    other = tmp_path / "other"
    gen_suite(other, SuiteGenSpec(**{**SPEC.__dict__, "seed": 12}))
    assert tree_bytes(other) != tree_bytes(suite_dir)


def test_tree_layout(suite_dir, manifest):
    assert (suite_dir / "manifest.json").is_file()
    expected = (len(SPEC.keywords) * SPEC.n_pos + SPEC.n_neg) * len(SPEC.epsilons)
    assert len(manifest.utterances) == expected
    for utt in manifest.utterances:
        lattice = manifest.lattice_path(utt)
        assert lattice == suite_dir / "lattices" / f"{utt.utt_id}.kwl"
        assert lattice.is_file()
        assert lattice.with_suffix(".json").is_file()


def test_manifest_validates_against_shipped_schema(suite_dir):
    """The schema holds each fact once: a record that regains its frame
    count or its synth, or a top level that regains the epsilons, fails."""
    schema = json.loads(
        importlib.resources.files("kws").joinpath("schemas/manifest.schema.json").read_text()
    )
    text = (suite_dir / "manifest.json").read_text()
    jsonschema.validate(json.loads(text), schema)
    edits = [
        lambda raw: raw["utterances"][0]["durations"].clear(),
        lambda raw: raw["utterances"][0].update(num_frames=sum(raw["utterances"][0]["durations"])),
        lambda raw: raw["utterances"][0].update(synth=as_schema_2(text)["utterances"][0]["synth"]),
        lambda raw: raw.update(epsilons=list(SPEC.epsilons)),
    ]
    for edit in edits:
        raw = json.loads(text)
        edit(raw)
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(raw, schema)


def test_schema_1_manifest_is_refused_naming_both_schemas(suite_dir, tmp_path):
    """So is a @2 manifest."""
    text = (suite_dir / "manifest.json").read_text(encoding="utf-8")
    for old, content in (("1", as_schema_1(text)), ("2", json.dumps(as_schema_2(text)))):
        root = write_manifest(tmp_path / f"suite-{old}", content.encode())
        with pytest.raises(ManifestError) as info:
            load_manifest(root)
        assert str(info.value) == (
            f"{root / 'manifest.json'}: top level: field 'schema': ValueError(\"expected "
            f"'kws-suite-manifest@3', got 'kws-suite-manifest@{old}'\")"
        )
        assert main(["decode", "--suite", str(root)]) == 2


def test_records_rebuild_the_generated_configs(tmp_path, monkeypatch):
    """Each utterance's SyntheticJoinerConfig, as load_manifest rebuilds it
    from the top level and its record, equals the one gen_suite drew."""
    drawn = []

    def oracle(config):
        drawn.append(config)
        return SyntheticOracle(config)

    monkeypatch.setattr(suite_module, "SyntheticOracle", oracle)
    spec, _ = GOLDEN_TREES[1]
    manifest = load_manifest(gen_suite(tmp_path, spec).parent)
    assert [utt.synth for utt in manifest.utterances] == drawn
    assert {utt.synth.duration_concentration for utt in manifest.utterances} == {0.1}


@pytest.mark.parametrize("seed", [-1, True, 1.0])
def test_negative_suite_seed_is_refused_at_load(suite_dir, tmp_path, seed):
    """The suite seed must be an integer >= 0, as numpy seeds only from those."""
    raw = json.loads((suite_dir / "manifest.json").read_text())
    raw["seed"] = seed
    root = write_manifest(tmp_path / "suite", json.dumps(raw).encode())
    with pytest.raises(ManifestError) as info:
        load_manifest(root)
    assert str(info.value) == (
        f"{root / 'manifest.json'}: top level: field 'seed': "
        f"ValueError('expected an integer >= 0, got {seed!r}')"
    )


def test_positives_plant_exactly_one_occurrence(manifest):
    by_name = manifest.keywords_by_name
    for utt in manifest.utterances:
        if utt.label is None:
            continue
        assert occurrence_count(utt.synth.tokens, by_name[utt.label].tokens) == 1


def test_negatives_never_contain_keyword_tokens(manifest):
    keyword_tokens = {tok for kw in manifest.keywords for tok in kw.tokens}
    for utt in manifest.negatives():
        assert keyword_tokens.isdisjoint(utt.synth.tokens)
        assert utt.lattice_keyword in manifest.keywords_by_name


def test_planted_segments_are_never_truncated(manifest):
    # The final tiling slot may absorb a short remainder; the keyword must not land on it.
    by_name = manifest.keywords_by_name
    for utt in manifest.utterances:
        if utt.label is None:
            continue
        needle = by_name[utt.label].tokens
        tokens = utt.synth.tokens
        for i in range(len(tokens) - len(needle) + 1):
            if tokens[i : i + len(needle)] == needle:
                for duration in utt.synth.durations[i : i + len(needle)]:
                    assert SPEC.duration_min <= duration <= SPEC.duration_max


def test_alignments_tile_the_whole_timeline(manifest):
    for utt in manifest.utterances:
        assert BLANK_ID not in utt.synth.tokens  # no gaps
        assert sum(utt.synth.durations) == utt.num_frames
        assert SPEC.frames_min <= utt.num_frames <= SPEC.frames_max
        assert utt.duration_seconds == pytest.approx(utt.num_frames * SPEC.frame_seconds)


def test_keyword_token_blocks_are_disjoint(manifest):
    seen: set[int] = set()
    for kw in manifest.keywords:
        assert len(set(kw.tokens)) == len(kw.tokens)
        assert seen.isdisjoint(kw.tokens)
        seen.update(kw.tokens)


def test_lattice_files_match_manifest_records(manifest):
    utt = manifest.positives("alpha", epsilon=0.0)[0]
    data = load_lattice(manifest.lattice_path(utt))
    assert data.keyword.name == utt.lattice_keyword
    assert data.keyword.tokens == manifest.keywords_by_name[utt.lattice_keyword].tokens
    assert data.num_frames == utt.num_frames
    assert data.d_max == SPEC.d_max


def test_negative_at_zero_epsilon_never_scores(manifest):
    utt = manifest.negatives(epsilon=0.0)[0]
    oracle = load_lattice(manifest.lattice_path(utt))
    stream = decode_kws(oracle, oracle.keyword, DecodeConfig(threshold_log=float("-inf")))
    assert all(math.isinf(s) and s < 0 for s in stream.scores)


def test_manifest_round_trip_filters(suite_dir, manifest):
    raw = json.loads((suite_dir / "manifest.json").read_text())
    assert len(manifest.positives("alpha")) == SPEC.n_pos * len(SPEC.epsilons)
    assert len(manifest.positives("alpha", epsilon=0.5)) == SPEC.n_pos
    assert len(manifest.negatives()) == SPEC.n_neg * len(SPEC.epsilons)
    assert manifest.seed == SPEC.seed
    assert manifest.d_max == SPEC.d_max
    assert {utt.epsilon for utt in manifest.utterances} == set(SPEC.epsilons)
    assert raw["frame_seconds"] == SPEC.frame_seconds


def test_load_rejects_wrong_schema_and_labels(suite_dir, tmp_path):
    raw = json.loads((suite_dir / "manifest.json").read_text())

    bad_schema = tmp_path / "bad-schema"
    bad_schema.mkdir()
    tampered = {**raw, "schema": "something-else@9"}
    (bad_schema / "manifest.json").write_text(json.dumps(tampered))
    with pytest.raises(ValidationError):
        load_manifest(bad_schema)

    bad_label = tmp_path / "bad-label"
    bad_label.mkdir()
    tampered = json.loads(json.dumps(raw))
    tampered["utterances"][0]["label"] = "not-a-keyword"
    (bad_label / "manifest.json").write_text(json.dumps(tampered))
    with pytest.raises(ValidationError):
        load_manifest(bad_label)


@pytest.mark.parametrize("utterances", [[], {"pos-alpha-000-e0.00": {}}])
def test_load_wants_a_non_empty_utterance_list(suite_dir, tmp_path, utterances):
    raw = json.loads((suite_dir / "manifest.json").read_text())
    raw["utterances"] = utterances
    root = write_manifest(tmp_path / "suite", json.dumps(raw).encode())
    with pytest.raises(ManifestError, match="field 'utterances': .*expected a non-empty list"):
        load_manifest(root)


def write_manifest(root: Path, content: bytes) -> Path:
    root.mkdir()
    (root / "manifest.json").write_bytes(content)
    return root


@pytest.mark.parametrize(
    "field,value",
    [
        # Fields of no @3 record, each a copy of a fact the record states.
        ("synth", None),
        ("num_frames", 0),
        ("num_frames", 26.5),
        ("num_frames", "synth + 1"),
        ("num_frames", "synth as a float"),
        ("num_frames", True),
        ("num_frames", "exact"),
        ("duration_seconds", 0.0),
        ("duration_seconds", math.inf),
        ("duration_seconds", math.nan),
        ("duration_seconds", "1.5"),
        ("duration_seconds", 1000.0),
        # The record's own fields, deleted (None) or malformed.
        ("lattice_keyword", None),
        ("lattice_keyword", "not-a-keyword"),
        ("lattice", 7),
        ("epsilon", None),
        ("epsilon", 1.0),
        ("epsilon", False),
        ("epsilon", "0.5"),
        ("tokens", None),
        ("tokens", "empty"),
        ("tokens", "shorter"),
        ("tokens", "above the vocabulary"),
        ("durations", None),
        ("durations", "shorter"),
        ("durations", "a zero"),
        ("durations", "a bool"),
    ],
)
def test_load_names_the_file_utterance_and_field(suite_dir, tmp_path, field, value):
    """A record's own field deleted (``value`` None) or made malformed, or a
    field that no @3 record holds added to it: the ManifestError names the
    manifest, the utterance and the field."""
    raw = json.loads((suite_dir / "manifest.json").read_text())
    record = raw["utterances"][1]
    frames = sum(record["durations"])
    edits = {
        "synth + 1": lambda: frames + 1,
        "synth as a float": lambda: float(frames),
        "exact": lambda: frames,
        "empty": list,
        "shorter": lambda: record[field][:-1],
        "above the vocabulary": lambda: [raw["vocab_size"] + 1, *record["tokens"][1:]],
        "a zero": lambda: [0, *record["durations"][1:]],
        "a bool": lambda: [True, *record["durations"][1:]],
    }
    value = edits[value]() if isinstance(value, str) and value in edits else value
    if value is None and field in record:
        del record[field]
    else:
        record[field] = value
    root = write_manifest(tmp_path / "suite", json.dumps(raw).encode())
    with pytest.raises(ManifestError) as info:
        load_manifest(root)
    message = str(info.value)
    assert str(root / "manifest.json") in message
    assert repr(record["utt_id"]) in message
    assert repr(field) in message


# A top level whose every field is well-formed, but for its keywords and utterances.
TOP = (
    '"schema": "kws-suite-manifest@3", "seed": 0, "frame_seconds": 0.03, "d_max": 0, '
    '"duration_concentration": 1.0, "vocab_size": 9'
)


@pytest.mark.parametrize(
    "content",
    [
        b"[]",
        f'{{{TOP}, "keywords": [], "utterances": [7]}}'.encode(),
        f'{{{TOP}, "keywords": [], "utterances": [{{"utt_id": 7}}]}}'.encode(),
        b"\xff\xfe{}",
        b'{"schema": "kws-suite-manifest@3"',
    ],
    ids=["list", "utterance-not-object", "utt-id-not-string", "not-utf8", "truncated"],
)
def test_load_maps_malformed_content_to_manifest_error(tmp_path, content):
    with pytest.raises(ManifestError):
        load_manifest(write_manifest(tmp_path / "suite", content))


def test_keyword_that_cannot_fit_is_rejected(tmp_path):
    cramped = SuiteGenSpec(
        keywords=("alpha",),
        n_pos=1,
        n_neg=1,
        frames_min=6,
        frames_max=10,
        duration_min=2,
        duration_max=4,
        seed=0,
    )
    with pytest.raises(ValidationError):
        gen_suite(tmp_path / "cramped", cramped)


def test_gen_refuses_bad_specs_before_the_disk_is_touched(tmp_path):
    cramped = SuiteGenSpec(keywords=("alpha",), frames_min=6, frames_max=10, seed=0)
    with pytest.raises(ValidationError, match="longest keyword needs"):
        gen_suite(tmp_path / "cramped", cramped)
    assert not (tmp_path / "cramped").exists()


def test_spec_validation():
    with pytest.raises(ValidationError):
        SuiteGenSpec(keywords=("a", "a"))
    with pytest.raises(ValidationError):
        SuiteGenSpec(n_pos=0)
    with pytest.raises(ValidationError):
        SuiteGenSpec(epsilons=(1.0,))
    with pytest.raises(ValidationError):
        SuiteGenSpec(frames_min=10, frames_max=5)
    with pytest.raises(ValidationError):
        SuiteGenSpec(duration_min=3, duration_max=2)
    with pytest.raises(ValidationError):
        SuiteGenSpec(d_max=-1)
    with pytest.raises(ValidationError, match="d_max must be in"):
        SuiteGenSpec(d_max=65536)
    assert SuiteGenSpec(d_max=65535).d_max == 65535  # KWL1 stores D_max as a u16
    for concentration in (0.0, -0.5, 1.5, math.nan):
        with pytest.raises(ValidationError, match="duration_concentration"):
            SuiteGenSpec(duration_concentration=concentration)
    # The lattice header stores frame_seconds as f32: 1e300 overflows it and
    # 1e-50 rounds to 0.
    for frame_seconds in (0.0, -0.03, math.nan, math.inf, 1e300, 1e-50, 3.5e38):
        with pytest.raises(ValidationError, match="frame_seconds"):
            SuiteGenSpec(frame_seconds=frame_seconds)
    for frame_seconds in (1e-44, 3.4e38):  # a subnormal and near the f32 maximum
        assert SuiteGenSpec(frame_seconds=frame_seconds).frame_seconds == frame_seconds


@pytest.mark.parametrize("epsilons", [(0.0, 0.0), (0.001, 0.004)])
def test_epsilons_that_share_an_utterance_id_are_refused(tmp_path, epsilons):
    """Both epsilons would name their utterances "...-e0.00": the second
    would overwrite the first one's lattices and repeat its ids."""
    with pytest.raises(ValidationError, match="utterance id"):
        SuiteGenSpec(epsilons=epsilons)
    argv = ["gen", "--out", str(tmp_path / "suite")]
    assert main([*argv, *(f"--epsilon={e}" for e in epsilons)]) == 1
    assert not (tmp_path / "suite").exists()


def test_negative_seed_is_refused_before_the_disk_is_touched(tmp_path):
    # numpy seeds only from non-negative integers; its own error is a raw ValueError.
    with pytest.raises(ValidationError, match="the seed must be >= 0, got -1"):
        gen_suite(tmp_path / "suite", SuiteGenSpec(**{**SPEC.__dict__, "seed": -1}))
    assert not (tmp_path / "suite").exists()
