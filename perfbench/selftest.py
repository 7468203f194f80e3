#!/usr/bin/env python3
"""Self-test of the benchmark at tiny size; exits non-zero on the first failure.

Run from the root of a kws source checkout:

    python3 perfbench/selftest.py

It shows that
* the correctness checks bite: one tampered score in a copy of a decoded
  output, or one tampered recall in a copy of a bench report, makes
  failed_frac > 0, while the untouched outputs pass;
* every metric named in BENCHMARK.json is printed with its unit, for every
  workload, with and without tracing;
* the benchmark exits non-zero, printing no result, in a directory that holds
  only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

SEED = 5
# Tiny suites, each with the flags of its workload's full-size one.
TINY_SIZES = {
    "decode": ("--keywords", "almost", "anything", "behind", "--n-pos", "2", "--n-neg", "4"),
    "bench": ("--keywords", "almost", "anything", "behind", "--n-pos", "2", "--n-neg", "4"),
    "asr": ("--keywords", "almost", "anything", "--n-pos", "2", "--n-neg", "3"),
}
TINY = {name: dataclasses.replace(w, size=TINY_SIZES[name]) for name, w in run.WORKLOADS.items()}


def fail(message: str) -> None:
    raise SystemExit(f"selftest FAILED: {message}")


def failed_frac(checker: run.OutputChecker, label: str, output: Path) -> tuple[float, list[str]]:
    ops = run.Ops()
    ops.record(label, run.guarded(checker.check, label, output))
    return ops.failed_frac, ops.problems


def tiny_suite(workload: run.Workload, work: Path):
    from kws import load_manifest

    suite_dir = work / f"suite-{workload.name}"
    problems, _ = run.run_cli(["gen", "--out", str(suite_dir), *workload.gen_flags(SEED)])
    if problems:
        fail(f"gen: {problems}")
    return suite_dir, load_manifest(suite_dir)


def test_decode_checks_bite(work: Path) -> None:
    from checks import decode_digest, read_jsonl, stream_sample

    workload = TINY["decode"]
    suite_dir, suite = tiny_suite(workload, work)
    label, argv = workload.argv(suite_dir, work)[1]
    problems, _ = run.run_cli(argv)
    if problems:
        fail(f"{label}: {problems}")
    output = Path(argv[-1])
    records = read_jsonl(output)
    reference = {label: decode_digest(records)}
    frac, problems = failed_frac(run.OutputChecker(workload, suite, SEED, dict(reference)), label, output)
    if frac != 0.0:
        fail(f"untouched decode output fails its checks: {problems}")

    # One finite score of a re-decoded, noisy record, changed in a copy.
    target = next(
        r for r in stream_sample(records, SEED)
        if not r["utt_id"].endswith("-e0.00") and any(s != "-inf" for s in r["scores"])
    )
    index = next(i for i, s in enumerate(target["scores"]) if s != "-inf")
    target["scores"][index] = float(target["scores"][index]) - 0.5
    tampered = work / "tampered.jsonl"
    tampered.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
    for ref, expect in ((reference, "digest"), ({}, "streaming re-decode")):
        frac, problems = failed_frac(run.OutputChecker(workload, suite, SEED, dict(ref)), label, tampered)
        if not frac > 0 or not any(expect in p for p in problems):
            fail(f"tampered score not caught by the {expect} check: {problems}")
    print(f"ok: a tampered decode score gives failed_frac {frac}")


def test_report_checks_bite(work: Path) -> None:
    workload = TINY["bench"]
    suite_dir, suite = tiny_suite(workload, work)
    label, argv = workload.argv(suite_dir, work)[0]
    problems, _ = run.run_cli(argv)
    if problems:
        fail(f"{label}: {problems}")
    output = Path(argv[-1])
    frac, problems = failed_frac(run.OutputChecker(workload, suite, SEED, {}), label, output)
    if frac != 0.0:
        fail(f"untouched bench report fails its checks: {problems}")
    report = json.loads(output.read_text())
    group = next(g for g in report["groups"] if g["epsilon"] == 0.0)
    group["candidate"]["macro_recall"] = 0.95
    tampered = work / "tampered-report.json"
    tampered.write_text(json.dumps(report))
    frac, problems = failed_frac(run.OutputChecker(workload, suite, SEED, {}), label, tampered)
    if not frac > 0:
        fail("tampered bench report not caught")
    print(f"ok: a tampered bench report gives failed_frac {frac}")


def test_metrics_printed(work: Path) -> None:
    """Runs run.main in-process on the tiny suites, with one short set-up."""
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    # Recorded digests are for the full-size suites.
    run.WORKLOADS, run.SETUP_SECONDS, run.REFERENCE = TINY, 0.0, work / "no-reference.json"
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = run.main(["--workload", workload, "--seed", str(SEED),
                                 "--seconds", "1", "--trace", str(trace)])
            if code != 0:
                fail(f"{workload} trace {trace} exited {code}")
            result = json.loads(stdout.getvalue().strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                fail(f"{workload} trace {trace}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                fail(f"{workload} trace {trace}: {result['attempted']} attempted, {result['failed']} failed")
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            if printed != expected[trace]:
                fail(f"{workload} trace {trace}: printed {printed}, expected {expected[trace]}")
            for name, m in result["metrics"].items():
                if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
                    fail(f"{workload} trace {trace}: {name} = {m['value']!r}")
            if trace == 0 and any(m["value"] <= 0 for m in result["metrics"].values()):
                fail(f"{workload}: an end-to-end metric is not positive")
    print("ok: every BENCHMARK.json metric is printed with its unit")


def test_refuses_without_program(work: Path) -> None:
    bare = work / "bare"
    bare.mkdir()
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "decode", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        fail(f"ran without the program: exit {proc.returncode}, stdout {proc.stdout[-500:]!r}")
    print(f"ok: without the program the benchmark exits {proc.returncode} and prints no result")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    run.OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT_DIR))
    try:
        test_decode_checks_bite(work)
        test_report_checks_bite(work)
        test_metrics_printed(work)
        test_refuses_without_program(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
