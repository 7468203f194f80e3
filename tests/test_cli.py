"""Command line interface: exit codes, determinism, file outputs."""

import cProfile
import importlib.resources
import importlib.util
import json
import math
import pstats
import shutil
import subprocess
import sys
import tracemalloc
from collections import deque
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from kws import (
    DecodeConfig,
    KeywordSpec,
    LatticeData,
    ManifestError,
    SidecarError,
    ValidationError,
    bench,
    decode_keywords,
    decode_suite,
    detect_events,
    greedy_search,
    load_lattice,
    load_manifest,
    read_lattice,
    save_lattice,
)
from kws import decoder, runner
from kws.cli import main

GEN_FLAGS = [
    "--keywords", "alpha", "bravo",
    "--n-pos", "1",
    "--n-neg", "2",
    "--frames-min", "24",
    "--frames-max", "30",
    "--duration-min", "2",
    "--duration-max", "3",
    "--epsilon", "0.0",
    "--epsilon", "0.5",
    "--d-max", "3",
]


def load_schema(name):
    return json.loads(importlib.resources.files("kws").joinpath(f"schemas/{name}").read_text())


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


@pytest.fixture(scope="module")
def base_suite(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli") / "suite"
    assert main(["gen", "--out", str(root), *GEN_FLAGS, "--seed", "7"]) == 0
    return root


@pytest.fixture(scope="module")
def ones_suite(tmp_path_factory):
    # All segment durations are 1, so a TDT decode cannot skip anything.
    root = tmp_path_factory.mktemp("cli-ones") / "suite"
    argv = [
        "gen", "--out", str(root),
        "--keywords", "alpha",
        "--n-pos", "1", "--n-neg", "1",
        "--frames-min", "12", "--frames-max", "16",
        "--duration-min", "1", "--duration-max", "1",
        "--epsilon", "0.3", "--d-max", "2", "--seed", "3",
    ]
    assert main(argv) == 0
    return root


def test_gen_is_deterministic(base_suite, tmp_path):
    again = tmp_path / "again"
    assert main(["gen", "--out", str(again), *GEN_FLAGS, "--seed", "7"]) == 0
    assert tree_bytes(again) == tree_bytes(base_suite)


def test_kws_seed_env_fallback(base_suite, tmp_path, monkeypatch):
    monkeypatch.setenv("KWS_SEED", "7")
    from_env = tmp_path / "from-env"
    assert main(["gen", "--out", str(from_env), *GEN_FLAGS]) == 0
    assert tree_bytes(from_env) == tree_bytes(base_suite)

    monkeypatch.setenv("KWS_SEED", "not-a-number")
    assert main(["gen", "--out", str(tmp_path / "junk"), *GEN_FLAGS]) == 1


@pytest.mark.parametrize("command", [["gen", "--out", "{tmp}"], ["oracle-check", "--cases", "1"]])
def test_negative_seed_is_a_usage_error(command, tmp_path, monkeypatch, capsys):
    # numpy refuses negative seeds with a raw ValueError.
    command = [arg.format(tmp=tmp_path / "suite") for arg in command]
    assert main([*command, "--seed=-1"]) == 1
    monkeypatch.setenv("KWS_SEED", "-3")
    assert main(command) == 1
    assert capsys.readouterr().err.count("error: the seed must be >= 0") == 2


@pytest.mark.parametrize(
    "flags",
    [
        ["--duration-concentration", "0"],
        ["--frames-min", "6", "--frames-max", "10"],  # the longest keyword cannot fit
        ["--frame-seconds", "1e300"],  # overflows the header's f32
        ["--frame-seconds", "1e-50"],  # rounds to 0 in the header's f32
        ["--d-max", "70000"],  # above the header's u16
    ],
)
def test_gen_refuses_bad_flags_before_the_disk_is_touched(flags, tmp_path, capsys):
    out = tmp_path / "suite"
    assert main(["gen", "--out", str(out), *GEN_FLAGS, *flags, "--seed", "1"]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_manifest_d_max_above_the_lattice_field_is_a_broken_file(base_suite, tmp_path, capsys):
    suite = tmp_path / "suite"
    shutil.copytree(base_suite, suite)
    manifest = json.loads((suite / "manifest.json").read_text())
    manifest["utterances"][0]["synth"]["d_max"] = 70000
    (suite / "manifest.json").write_text(json.dumps(manifest))
    assert main(["bench", "--suite", str(suite), "--target-far", "0"]) == 2
    err = capsys.readouterr().err
    assert "d_max must be in [0, 65535]" in err and "'synth'" in err


@pytest.mark.parametrize("field, value", [("num_frames", 26.5), ("vocab_size", 9.5), ("d_max", 2.5)])
def test_manifest_non_integral_synth_size_is_a_broken_file(
    field, value, base_suite, tmp_path, capsys
):
    suite = tmp_path / "suite"
    shutil.copytree(base_suite, suite)
    manifest = json.loads((suite / "manifest.json").read_text())
    negative = next(u for u in manifest["utterances"] if u["label"] is None)
    negative["synth"][field] = value
    (suite / "manifest.json").write_text(json.dumps(manifest))
    assert main(["bench", "--suite", str(suite), "--target-far", "0"]) == 2
    err = capsys.readouterr().err
    assert f"utterance {negative['utt_id']!r}: field 'synth'" in err
    assert f"{field} must be an integer, got {value!r}" in err


@pytest.mark.parametrize(
    "field, value",
    [("num_frames", 26.5), ("num_frames", "synth + 1"), ("duration_seconds", math.inf)],
)
def test_manifest_utterance_frames_and_duration_must_be_exact(
    field, value, base_suite, tmp_path, capsys
):
    suite = tmp_path / "suite"
    shutil.copytree(base_suite, suite)
    manifest = json.loads((suite / "manifest.json").read_text())
    negative = next(u for u in manifest["utterances"] if u["label"] is None)
    negative[field] = negative["synth"]["num_frames"] + 1 if value == "synth + 1" else value
    (suite / "manifest.json").write_text(json.dumps(manifest))  # inf is written as Infinity
    for command in (["bench", "--target-far", "0"], ["decode"]):
        assert main([*command, "--suite", str(suite)]) == 2
        err = capsys.readouterr().err
        assert str(suite / "manifest.json") in err
        assert f"utterance {negative['utt_id']!r}: field {field!r}" in err


def test_decode_out_file_holds_the_stdout_lines(base_suite, tmp_path, capsys):
    out = tmp_path / "scores.jsonl"
    for argv in (["--mode", "rnnt"], ["--mode", "tdt", "--d-max", "3"]):
        assert main(["decode", "--suite", str(base_suite), *argv]) == 0
        printed = capsys.readouterr().out
        assert main(["decode", "--suite", str(base_suite), *argv, "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote 8 score streams to {out}\n"
        assert out.read_text(encoding="utf-8") == printed
        assert printed.count("\n") == 8 and not printed.endswith("\n\n")


def test_decode_writes_valid_scorestream_jsonl(base_suite, tmp_path):
    out = tmp_path / "scores.jsonl"
    assert main(["decode", "--suite", str(base_suite), "--out", str(out)]) == 0
    schema = load_schema("scorestream.schema.json")
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 8  # (2 keywords x 1 pos + 2 neg) x 2 epsilons
    for record in records:
        jsonschema.validate(record, schema)
    assert [r["utt_id"] for r in records] == sorted(r["utt_id"] for r in records)


@pytest.mark.parametrize("mode", ["rnnt", "tdt"])
def test_decode_lines_equal_json_dumps_of_the_reference_records(base_suite, tmp_path, mode):
    """Every `kws decode` line is `json.dumps(record, sort_keys=True)` of the
    per-frame reference record of its utterance's score stream."""
    from test_decoder import _scorestream_record_reference

    out = tmp_path / "scores.jsonl"
    assert main(["decode", "--suite", str(base_suite), "--mode", mode, "--d-max", "3",
                 "--out", str(out)]) == 0
    suite = load_manifest(base_suite)
    config = DecodeConfig(mode=mode, d_max=3 if mode == "tdt" else 0)
    utts = sorted(suite.utterances, key=lambda u: u.utt_id)
    lattices = (
        (load_lattice(suite.lattice_path(u)), (suite.keywords_by_name[u.lattice_keyword],), u.utt_id)
        for u in utts
    )
    expected = [
        json.dumps(_scorestream_record_reference(stream, detect_events(stream, config)),
                   sort_keys=True)
        for (stream,) in decode_keywords(lattices, config)
    ]
    assert out.read_text(encoding="utf-8").splitlines() == expected


def test_decode_stdout_default(base_suite, capsys):
    assert main(["decode", "--suite", str(base_suite)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 8
    json.loads(lines[0])


def drop_wall(obj):
    """Copy of a report without its wall-clock ("wall") keys."""
    if isinstance(obj, dict):
        return {k: drop_wall(v) for k, v in obj.items() if k != "wall"}
    if isinstance(obj, list):
        return [drop_wall(v) for v in obj]
    return obj


def test_lane_batching_does_not_change_outputs(base_suite, tmp_path, monkeypatch, capsys):
    """`kws decode` JSONL (both modes, through --out and stdout) and `kws
    bench` reports without "wall" are the same whatever the lane batch
    width, so wherever the batch boundaries fall."""

    def outputs(tag, *flags):
        run = {}
        for mode in ("rnnt", "tdt"):
            out = tmp_path / f"{tag}-{mode}.jsonl"
            argv = ["decode", "--suite", str(base_suite), "--mode", mode, "--d-max", "3"]
            assert main([*argv, *flags, "--out", str(out)]) == 0
            run[mode] = out.read_bytes()
            capsys.readouterr()
            assert main([*argv, *flags]) == 0
            run[f"{mode}-stdout"] = capsys.readouterr().out
        report = tmp_path / f"{tag}-report.json"
        argv = ["bench", "--suite", str(base_suite), "--d-max", "3", "--report", str(report)]
        assert main([*argv, *flags]) == 0
        run["bench"] = drop_wall(json.loads(report.read_text()))
        return run

    default = outputs("default")
    assert default["rnnt-stdout"].encode() == default["rnnt"]
    for chunk in (1, 2, 3, 5):
        monkeypatch.setattr(decoder, "_LANE_CHUNK", chunk)
        assert outputs(f"chunk{chunk}") == default


def test_batched_beam_does_not_change_asr_report(base_suite, tmp_path, monkeypatch):
    """`kws bench --also-asr-baselines` gives the same report without "wall",
    and the same beam hypotheses, when the per-lineage reference beam search
    transcribes each utterance in place of the lockstep group search."""
    from test_baselines import bits, reference_beam_search

    def run(tag, beam):
        hypotheses = []

        def recorded(*args):
            results = beam(*args)
            hypotheses.extend(bits(beams) for beams in results)
            return results

        monkeypatch.setattr(runner, "_beam_searches", recorded)
        report = tmp_path / f"{tag}.json"
        argv = ["bench", "--suite", str(base_suite), "--d-max", "3", "--report", str(report)]
        assert main([*argv, "--also-asr-baselines", "--beam-width", "3"]) == 0
        return json.dumps(drop_wall(json.loads(report.read_text()))), hypotheses

    def per_utterance(oracles, beam_width, config, greedy):
        # The union guard's transcripts are the group's greedy RNN-T ones.
        assert bits(greedy) == bits(greedy_search(oracle, config) for oracle in oracles)
        return [reference_beam_search(oracle, beam_width, config) for oracle in oracles]

    batched = run("batched", runner._beam_searches)
    assert '"beam3_rnnt"' in batched[0] and batched[1]
    assert run("reference", per_utterance) == batched


@pytest.mark.parametrize("wrap_oracles", [False, True], ids=["leaf", "oracle"])
def test_traced_benchmark_pass_gives_the_untraced_asr_report(base_suite, tmp_path, wrap_oracles):
    """perfbench's tracer swaps timing wrappers into the kws modules, and in
    its oracle pass wraps every oracle; a bench with ASR rows run under it
    gives the report of an untraced run. The wrapped oracles answer the
    array queries of the untraced path, so no per-row, per-step or
    per-history query is made; only TDT greedy's duration queries are, one
    per row of each group query, which wrapped oracles answer through the
    stacking default. Bare oracles answer each group query as one."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    argv = ["bench", "--suite", str(base_suite), "--d-max", "3"]
    argv += ["--also-asr-baselines", "--beam-width", "3"]
    assert main([*argv, "--report", str(tmp_path / "plain.json")]) == 0
    tracer = tracing.Tracer("test")
    with tracing.instrument(tracer, wrap_oracles, load_manifest(base_suite)) as swapped:
        assert main([*argv, "--report", str(tmp_path / "traced.json")]) == 0
    assert "kws.synthetic.SyntheticOracle" in swapped
    traced, plain = (json.loads((tmp_path / f"{tag}.json").read_text()) for tag in ("traced", "plain"))
    assert drop_wall(traced) == drop_wall(plain)
    assert set(tracer.queries) <= {"synthetic.duration_probs"}
    if wrap_oracles:
        assert tracer.queries["synthetic.duration_probs"][0] > 0
    else:
        assert "synthetic.duration_probs" not in tracer.queries


def test_asr_bench_runs_each_search_once_over_the_whole_suite(base_suite, tmp_path):
    """An untraced bench with ASR rows runs greedy RNN-T, beam and greedy TDT
    once each over every utterance, not once per epsilon group, and TDT
    greedy asks for its durations by group query, never one frame at a time."""
    assert len(json.loads((base_suite / "manifest.json").read_text())["epsilons"]) == 2
    argv = ["bench", "--suite", str(base_suite), "--d-max", "3", "--also-asr-baselines"]
    profile = cProfile.Profile()
    assert profile.runcall(main, [*argv, "--report", str(tmp_path / "report.json")]) == 0
    calls = {}
    for (path, _, name), (_, count, *_) in pstats.Stats(profile).stats.items():
        calls[Path(path).name, name] = calls.get((Path(path).name, name), 0) + count
    assert calls.get(("synthetic.py", "duration_log_probs"), 0) == 0
    assert calls[("baselines.py", "_greedy_searches")] == 2  # RNN-T and TDT
    assert calls[("baselines.py", "_beam_searches")] == 1


def test_benchmark_selftest_passes():
    """perfbench's self-test runs every workload, traced and untraced, at
    tiny size, so an oracle API change that breaks a traced pass fails here.
    It writes only under the ignored .perfbench_out/."""
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=root, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "selftest passed"


def test_tdt_equals_rnnt_on_all_ones_durations(ones_suite, tmp_path):
    rnnt_out = tmp_path / "rnnt.jsonl"
    tdt_out = tmp_path / "tdt.jsonl"
    assert main(["decode", "--suite", str(ones_suite), "--mode", "rnnt", "--out", str(rnnt_out)]) == 0
    assert (
        main(
            [
                "decode", "--suite", str(ones_suite),
                "--mode", "tdt", "--d-max", "2",
                "--out", str(tdt_out),
            ]
        )
        == 0
    )
    assert rnnt_out.read_bytes() == tdt_out.read_bytes()


def test_tdt_on_suite_without_duration_track_fails(tmp_path):
    root = tmp_path / "no-durations"
    argv = [
        "gen", "--out", str(root),
        "--keywords", "alpha",
        "--n-pos", "1", "--n-neg", "1",
        "--frames-min", "12", "--frames-max", "14",
        "--duration-min", "2", "--duration-max", "3",
        "--d-max", "0", "--seed", "1",
    ]
    assert main(argv) == 0
    assert main(["decode", "--suite", str(root), "--mode", "tdt", "--d-max", "2"]) == 1


def test_threshold_prob_is_an_alias_for_threshold_log(base_suite, tmp_path):
    via_prob = tmp_path / "prob.jsonl"
    via_log = tmp_path / "log.jsonl"
    args = ["decode", "--suite", str(base_suite)]
    assert main([*args, "--threshold-prob", "0.5", "--out", str(via_prob)]) == 0
    assert main([*args, "--threshold-log", str(math.log(0.5)), "--out", str(via_log)]) == 0
    assert via_prob.read_bytes() == via_log.read_bytes()

    assert main([*args, "--threshold-prob", "0.0"]) == 1
    assert main([*args, "--threshold-prob", "0.5", "--threshold-log", "-1.0"]) == 1


def test_dump_delta_hand_traced(tmp_path):
    # Constant emissions: y = 0.6, phi = (0.4, 0.5). The best path into u=1 is
    # always the fresh vertical step, so delta(t,1) = log 0.6 on every row.
    log_y = np.log(np.full((3, 1), 0.6, dtype=np.float32))
    log_phi = np.log(np.tile(np.float32([0.4, 0.5]), (3, 1)))
    path = tmp_path / "tiny.kwl"
    save_lattice(LatticeData(KeywordSpec("kw", (4,)), 0.03, log_y, log_phi), path)

    out = tmp_path / "delta.csv"
    assert main(["dump-delta", "--lattice", str(path), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,u0,u1"
    assert len(lines) == 4
    for t, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        assert cells[0] == str(t)
        assert float(cells[1]) == 0.0
        assert float(cells[2]) == pytest.approx(math.log(0.6), abs=1e-6)


def test_dump_delta_source_flags(base_suite, tmp_path, capsys):
    utt_id = json.loads((base_suite / "manifest.json").read_text())["utterances"][0]["utt_id"]
    assert main(["dump-delta", "--suite", str(base_suite), "--utt", utt_id]) == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert header.startswith("t,u0,")

    lattice = str(base_suite / "lattices" / f"{utt_id}.kwl")
    assert main(["dump-delta", "--lattice", lattice, "--suite", str(base_suite)]) == 1
    assert main(["dump-delta", "--suite", str(base_suite)]) == 1
    capsys.readouterr()
    # --utt picks an utterance of --suite; with --lattice it is refused, not ignored.
    assert main(["dump-delta", "--lattice", lattice, "--utt", utt_id]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "--utt" in captured.err
    assert main(["dump-delta", "--lattice", str(tmp_path / "missing.kwl")]) == 2


def test_truncated_lattice_exits_2(base_suite, tmp_path):
    source = next((base_suite / "lattices").glob("*.kwl"))
    clipped = tmp_path / source.name
    clipped.write_bytes(source.read_bytes()[:-7])
    (tmp_path / source.with_suffix(".json").name).write_bytes(
        source.with_suffix(".json").read_bytes()
    )
    assert main(["dump-delta", "--lattice", str(clipped)]) == 2


def test_missing_suite_exits_2(tmp_path):
    assert main(["decode", "--suite", str(tmp_path / "nope")]) == 2


@pytest.mark.parametrize(
    "command,flags",
    [
        ("decode", ["--mode", "bogus"]),
        ("decode", ["--mode", "tdt", "--d-max", "0"]),
        ("bench", ["--d-max", "x"]),
        ("bench", ["--d-max", "0"]),
        ("bench", ["--beam-width", "0", "--also-asr-baselines"]),
        ("bench", ["--target-far", "-1"]),
        ("bench", ["--target-far", "nan"]),
        # Flags argparse refuses, --jobs among them, exit 1 too, not 2.
        ("decode", ["--jobs", "2"]),
        ("bench", ["--jobs", "2"]),
        ("decode", ["--no-such-flag"]),
    ],
)
def test_usage_errors_are_reported_before_the_suite_is_read(tmp_path, command, flags):
    assert main([command, "--suite", str(tmp_path / "nope"), *flags]) == 1


def test_argparse_errors_exit_1_and_help_exits_0(capsys):
    assert main(["no-such-command"]) == 1
    assert main([]) == 1
    assert "usage: kws" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0


def broken_manifest_texts(raw):
    """Manifests whose content is broken in ways a reader must name, as bytes."""
    no_synth = json.loads(json.dumps(raw))
    del no_synth["utterances"][0]["synth"]
    return {
        "missing-synth": json.dumps(no_synth).encode(),
        "top-level-list": json.dumps([raw]).encode(),
        "latin-1": json.dumps({**raw, "note": "caf\u00e9"}, ensure_ascii=False).encode("latin-1"),
    }


@pytest.mark.parametrize("case", ["missing-synth", "top-level-list", "latin-1"])
def test_broken_manifest_exits_2(base_suite, tmp_path, case):
    raw = json.loads((base_suite / "manifest.json").read_text())
    suite = tmp_path / "suite"
    suite.mkdir()
    (suite / "manifest.json").write_bytes(broken_manifest_texts(raw)[case])
    assert main(["decode", "--suite", str(suite)]) == 2
    assert main(["bench", "--suite", str(suite)]) == 2


@pytest.mark.parametrize(
    "field, value", [("seed", 99), ("duration_concentration", 0.25), ("duration_concentration", 0)]
)
def test_top_level_field_that_disagrees_with_the_records_exits_2(
    base_suite, tmp_path, capsys, field, value
):
    """The suite seed and duration concentration the report would show are
    the records' own: a top level edited away from them, or out of (0, 1],
    is a broken manifest."""
    suite = tmp_path / "suite"
    shutil.copytree(base_suite, suite)
    manifest = json.loads((suite / "manifest.json").read_text())
    assert {u["synth"][field] for u in manifest["utterances"]} == {manifest[field]} != {value}
    manifest[field] = value
    (suite / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ManifestError, match=f"top level: field {field!r}"):
        load_manifest(suite)
    assert main(["bench", "--suite", str(suite), "--report", str(tmp_path / "r.json")]) == 2
    assert f"top level: field {field!r}" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize(
    "sidecar",
    [b"\xff{}", b'{"keyword": {"name": "alpha", "tokens": ["x"]}}'],
    ids=["not-utf8", "token-not-int"],
)
def test_broken_sidecar_exits_2(base_suite, tmp_path, sidecar):
    source = next((base_suite / "lattices").glob("*.kwl"))
    copy = tmp_path / source.name
    copy.write_bytes(source.read_bytes())
    copy.with_suffix(".json").write_bytes(sidecar)
    assert main(["dump-delta", "--lattice", str(copy)]) == 2


def copy_suite(base_suite, tmp_path):
    suite = tmp_path / "suite"
    shutil.copytree(base_suite, suite)
    return suite


def test_sidecar_keyword_that_disagrees_with_the_manifest_exits_2(base_suite, tmp_path, capsys):
    suite = copy_suite(base_suite, tmp_path)
    sidecar = next((suite / "lattices").glob("*.json"))
    meta = json.loads(sidecar.read_text())
    stored = meta["keyword"]["tokens"]
    swapped = [stored[1], stored[0], *stored[2:]]
    meta["keyword"]["tokens"] = swapped
    sidecar.write_text(json.dumps(meta))
    assert main(["decode", "--suite", str(suite)]) == 2
    err = capsys.readouterr().err
    assert str(sidecar.with_suffix(".kwl")) in err
    assert str(tuple(stored)) in err and str(tuple(swapped)) in err


@pytest.mark.parametrize("command", ["decode", "bench", "dump-delta"])
def test_lattice_whose_frame_count_disagrees_with_its_record_exits_2(
    base_suite, tmp_path, capsys, command
):
    """Two lattices of one keyword swapped on disk: each reads cleanly, but
    neither has its record's frame count, so a suite command that opens one
    names the utterance, the lattice and both counts, and exits 2, leaving
    no output file behind."""
    suite = copy_suite(base_suite, tmp_path)
    manifest = json.loads((suite / "manifest.json").read_text())
    records = {u["utt_id"]: u for u in manifest["utterances"]}
    pos, neg = records["pos-alpha-000-e0.00"], records["neg-000-e0.00"]
    assert pos["lattice_keyword"] == neg["lattice_keyword"]
    assert pos["num_frames"] != neg["num_frames"]
    for suffix in (".kwl", ".json"):
        a, b = ((suite / r["lattice"]).with_suffix(suffix) for r in (pos, neg))
        a_bytes = a.read_bytes()
        a.write_bytes(b.read_bytes())
        b.write_bytes(a_bytes)
    out = str(tmp_path / "out")
    argv = {
        "decode": ["decode", "--suite", str(suite), "--out", out],
        "bench": ["bench", "--suite", str(suite), "--report", out],
        "dump-delta": ["dump-delta", "--suite", str(suite), "--utt", pos["utt_id"], "--out", out],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    # decode opens the lattices in utterance-id order and bench checks every
    # negative's lattice header before its first run, so both meet neg-000 first.
    record, other = (pos, neg) if command == "dump-delta" else (neg, pos)
    assert f"utterance {record['utt_id']!r}" in err
    assert (
        f"{record['num_frames']}, but {suite / record['lattice']} has "
        f"{other['num_frames']} frames"
    ) in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["suite"]


@pytest.fixture(scope="module")
def seed_5_suite(tmp_path_factory):
    root = tmp_path_factory.mktemp("seed-5") / "suite"
    argv = ["--n-pos", "3", "--n-neg", "10", "--epsilon", "0.0", "--epsilon", "0.4", "--seed", "5"]
    assert main(["gen", "--out", str(root), *argv]) == 0
    return root


@pytest.mark.parametrize("command", ["decode", "bench"])
def test_lattices_swapped_between_utterances_of_one_length_exit_2(
    seed_5_suite, tmp_path, capsys, command
):
    """The epsilon 0.0 and 0.4 copies of one positive share an alignment, so
    their lattices have one frame count; only their sidecars' provenance
    tells them apart. Swapped on disk, both commands name the utterance, its
    lattice and the utterance the lattice was written for, and exit 2."""
    suite = copy_suite(seed_5_suite, tmp_path)
    own, other = "pos-almost-000-e0.00", "pos-almost-000-e0.40"
    for suffix in (".kwl", ".json"):
        a, b = (suite / "lattices" / f"{utt_id}{suffix}" for utt_id in (own, other))
        a_bytes = a.read_bytes()
        a.write_bytes(b.read_bytes())
        b.write_bytes(a_bytes)
    out = str(tmp_path / "out")
    argv = {
        "decode": ["decode", "--suite", str(suite), "--out", out],
        "bench": ["bench", "--suite", str(suite), "--report", out],
    }[command]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: {suite / 'manifest.json'}: utterance {own!r}: field 'lattice': "
        f"{suite / 'lattices' / own}.kwl was written for utterance {other!r}\n"
    )


def test_negative_claiming_more_frames_than_its_lattice_exits_2(base_suite, tmp_path, capsys):
    """A negative whose record and synth agree on 10**15 frames: bench compares
    the claim with the lattice header before any oracle sizes arrays by it."""
    suite = copy_suite(base_suite, tmp_path)
    manifest = json.loads((suite / "manifest.json").read_text())
    negative = next(u for u in manifest["utterances"] if u["label"] is None)
    frames = negative["num_frames"]
    negative["num_frames"] = negative["synth"]["num_frames"] = 10**15
    negative["duration_seconds"] = 10**15 * negative["synth"]["frame_seconds"]
    (suite / "manifest.json").write_text(json.dumps(manifest))
    assert load_manifest(suite)
    assert main(["bench", "--suite", str(suite), "--report", str(tmp_path / "out")]) == 2
    assert (
        f"utterance {negative['utt_id']!r}: field 'num_frames': {10**15}, "
        f"but {suite / negative['lattice']} has {frames} frames"
    ) in capsys.readouterr().err


@pytest.mark.parametrize("where", ["manifest", "sidecar"])
def test_non_integral_token_id_exits_2(base_suite, tmp_path, where):
    suite = copy_suite(base_suite, tmp_path)
    manifest = json.loads((suite / "manifest.json").read_text())
    if where == "manifest":
        manifest["keywords"][0]["tokens"][0] += 0.7
        (suite / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ManifestError, match="'keywords'"):
            load_manifest(suite)
    else:
        sidecar = suite / manifest["utterances"][0]["lattice"].replace(".kwl", ".json")
        meta = json.loads(sidecar.read_text())
        meta["keyword"]["tokens"][0] += 0.7
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(SidecarError, match="integers"):
            read_lattice(sidecar.with_suffix(".kwl"))
    assert main(["decode", "--suite", str(suite)]) == 2


@pytest.mark.parametrize("edit", [lambda token: token + 0.7, str], ids=["float", "string"])
def test_non_integral_alignment_entry_exits_2(base_suite, tmp_path, edit):
    suite = copy_suite(base_suite, tmp_path)
    manifest = json.loads((suite / "manifest.json").read_text())
    utterance = next(u for u in manifest["utterances"] if u["synth"]["alignment"][0])
    tokens = utterance["synth"]["alignment"][0]
    tokens[0] = edit(tokens[0])
    (suite / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ManifestError, match="'synth'.*integer"):
        load_manifest(suite)
    assert main(["bench", "--suite", str(suite)]) == 2


@pytest.mark.parametrize("value", [7.5, "7", True, False, None])
@pytest.mark.parametrize("column", [0, 1, 2])
def test_alignment_entry_error_names_its_column_and_entry(base_suite, tmp_path, capsys, column,
                                                          value):
    """A non-integer alignment entry, a JSON boolean included (Python would
    take it for 0 or 1 and score another alignment), exits 2 with a short
    message that names the column and the entry, not the whole alignment."""
    suite = copy_suite(base_suite, tmp_path)
    manifest = json.loads((suite / "manifest.json").read_text())
    utterance = next(u for u in manifest["utterances"] if len(u["synth"]["alignment"][0]) > 2)
    utterance["synth"]["alignment"][column][2] = value
    (suite / "manifest.json").write_text(json.dumps(manifest))
    name = ("tokens", "starts", "durations")[column]
    assert main(["bench", "--suite", str(suite)]) == 2
    err = capsys.readouterr().err
    assert f"alignment {name}[2] must be an integer, got {value!r}" in err
    assert repr(utterance["utt_id"]) in err and len(err) < 400


def test_manifest_keyword_longer_than_its_lattice_exits_2(base_suite, tmp_path, capsys):
    suite = copy_suite(base_suite, tmp_path)
    manifest = json.loads((suite / "manifest.json").read_text())
    keyword = manifest["keywords"][0]
    stored = tuple(keyword["tokens"])
    keyword["tokens"].append(stored[-1])
    (suite / "manifest.json").write_text(json.dumps(manifest))
    assert main(["decode", "--suite", str(suite)]) == 2
    err = capsys.readouterr().err
    lattices = [
        str(suite / u["lattice"])
        for u in manifest["utterances"]
        if u["lattice_keyword"] == keyword["name"]
    ]
    assert any(path in err for path in lattices)
    assert str(stored) in err and str(tuple(keyword["tokens"])) in err


def test_oracle_check_exit_contract(capsys):
    argv = ["oracle-check", "--cases", "5", "--t-max", "6", "--u-max", "3", "--seed", "2"]
    assert main(argv) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["cases"] == 5
    assert result["max_abs_deviation"] <= 1e-9

    assert main([*argv, "--tolerance", "-1.0"]) == 1


@pytest.mark.parametrize(
    "flags",
    [
        ["--t-max", "0"],
        ["--t-max", "-3"],
        ["--u-max", "0"],
        ["--t-max", "13"],
        ["--u-max", "5"],
        ["--cases", "0"],
        ["--tolerance", "nan"],
        ["--tolerance=-1e-9"],
    ],
)
def test_oracle_check_bad_arguments_exit_1_before_any_case(flags, capsys, monkeypatch):
    def no_case(*args, **kwargs):
        raise AssertionError("a case ran")

    monkeypatch.setattr(runner, "random_proper_lattice", no_case)
    assert main(["oracle-check", "--cases", "3", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err and captured.err.startswith("error: ")


def test_oracle_check_bounds_raise_validation_error():
    for t_max, u_max in ((0, 4), (12, 0), (13, 4), (12, 5)):
        with pytest.raises(ValidationError, match="t_max and u_max"):
            runner.oracle_check(cases=1, seed=0, t_max=t_max, u_max=u_max)
    assert runner.oracle_check(cases=2, seed=0, t_max=1, u_max=1)["max_abs_deviation"] == 0.0


def test_oracle_check_negative_seed_raises_validation_error(monkeypatch):
    def no_case(*args, **kwargs):
        raise AssertionError("a case ran before the seed was checked")

    monkeypatch.setattr(runner, "random_proper_lattice", no_case)
    with pytest.raises(ValidationError, match="the seed must be >= 0, got -1"):
        runner.oracle_check(cases=1, seed=-1)


def test_bench_report_and_exit_codes(base_suite, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    argv = [
        "bench", "--suite", str(base_suite),
        "--baseline", "rnnt", "--candidate", "tdt", "--d-max", "3",
        "--report", str(report_path),
        "--also-asr-baselines", "--beam-width", "3",
    ]
    assert main(argv) == 0
    table = capsys.readouterr().out
    assert "macro-recall" in table
    report = json.loads(report_path.read_text())
    jsonschema.validate(report, load_schema("report.schema.json"))
    assert report["schema"] == "kws-bench-report@1"
    assert {g["epsilon"] for g in report["groups"]} == {0.0, 0.5}

    assert main(["bench", "--suite", str(base_suite), "--target-far", "-1"]) == 1


def _no_constants(name):
    raise ValueError(f"{name} is not JSON")


def test_target_far_nan_is_refused_and_inf_reported_as_json(base_suite, tmp_path):
    configs = (DecodeConfig(mode="rnnt"), DecodeConfig(mode="tdt", d_max=3))
    with pytest.raises(ValidationError, match="target_far"):
        bench(load_manifest(base_suite), *configs, target_far=math.nan)
    report_path = tmp_path / "report.json"
    argv = ["bench", "--suite", str(base_suite), "--report", str(report_path)]
    assert main([*argv, "--target-far", "nan"]) == 1
    assert not report_path.exists()

    # +inf is no budget: the report stays strict JSON and every keyword gets
    # a finite threshold.
    assert main([*argv, "--target-far", "inf"]) == 0
    report = json.loads(report_path.read_text(), parse_constant=_no_constants)
    jsonschema.validate(report, load_schema("report.schema.json"))
    assert report["target_far"] == "inf"
    for group in report["groups"]:
        for run in (group["baseline"], group["candidate"]):
            assert all(math.isfinite(e["threshold"]) for e in run["per_keyword"])


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "kws.cli", "oracle-check", "--cases", "2", "--t-max", "5", "--u-max", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["cases"] == 2


def _traced(fn) -> tuple[int, int]:
    """(peak, held) bytes of calling ``fn``: its traced peak, and what its
    result still holds once it returns."""
    tracemalloc.start()
    try:
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
        del result
        return peak, held
    finally:
        tracemalloc.stop()


def test_decode_suite_holds_one_record_at_a_time(tmp_path, capsys):
    """`decode_suite` yields its records lazily: drawing them one by one
    peaks within a few records of the decode's own working set, where a list
    of all of them holds every record at once; `kws decode` still counts
    every line it writes."""
    root = tmp_path / "suite"
    flags = ["--keywords", "alpha", "--n-pos", "60", "--n-neg", "60", "--epsilon", "0.3",
             "--frames-min", "150", "--frames-max", "200", "--seed", "5"]
    assert main(["gen", "--out", str(root), *flags]) == 0
    suite = load_manifest(root)
    config = DecodeConfig(mode="rnnt")
    records = decode_suite(suite, config)
    one = next(records)
    assert iter(records) is records  # a generator, not a list
    _, record_bytes = _traced(lambda: json.loads(json.dumps(one)))
    count = len(suite.utterances)

    def lattices():
        for utt in sorted(suite.utterances, key=lambda u: u.utt_id):
            oracle = load_lattice(suite.lattice_path(utt))
            yield oracle, (suite.keywords_by_name[utt.lattice_keyword],), utt.utt_id

    drain = lambda iterable: deque(iterable, maxlen=0)  # noqa: E731
    decode_only, _ = _traced(lambda: drain(decode_keywords(lattices(), config)))
    streamed, _ = _traced(lambda: drain(decode_suite(suite, config)))
    _, held = _traced(lambda: list(decode_suite(suite, config)))
    assert streamed <= decode_only + 3 * record_bytes
    assert held >= count * record_bytes  # what a list of the records holds

    out = tmp_path / "out.jsonl"
    assert main(["decode", "--suite", str(root), "--mode", "rnnt", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == count
    assert f"wrote {count} score streams to {out}" in capsys.readouterr().out
