#!/usr/bin/env python3
"""Benchmark of the kws command line on three workloads: decode, bench, asr.

Run from the root of a kws source checkout:

    python3 perfbench/run.py --workload decode --seed 1 --seconds 25 --trace 0

The program is imported from ``src/`` of the checkout that holds this file;
without it the run exits with code 2. Each run generates its suite from
``--seed`` with ``kws gen`` (timed, several times, as ``setup_s``), then one
closed-loop client calls ``kws.cli.main`` for each of the workload's
commands, starting the next only after the previous one returns, and repeats
that pass until ``--seconds`` seconds have passed. Every output is checked (see checks.py). The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-module metrics of separate traced passes with ``--trace 1`` (see
tracing.py). A run also writes its environment stamp, result and spans under
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE = BENCH_DIR / "reference.json"

# Set-up runs at least SETUP_REPEATS times and until SETUP_SECONDS have
# been spent; setup_s is the mean.
SETUP_REPEATS = 3
SETUP_SECONDS = 8.0
# On a shared host the CPU's speed swings up to 1.5x with other tenants'
# load, in stretches that outlast a run. After each step of a run the
# benchmark times a fixed reference computation for CALIBRATION_SHARE of the
# step's time, and reports every end-to-end time in reference seconds: wall
# seconds x REFERENCE_ROUND_S / the mean round time of the same phase (set-up
# or passes).
CALIBRATION_SHARE = 0.2
CALIBRATION_FRAMES = 4000
REFERENCE_ROUND_S = 0.03
D_MAX = 4
BEAM_WIDTH = 10
TARGET_FAR = 0.0

GEN_COMMON = (
    "--epsilon", "0.0", "--epsilon", "0.4", "--d-max", str(D_MAX),
    "--duration-min", "2", "--duration-max", "4",
)
# The ROADMAP baseline suite: 20 default keywords, 600 utterances.
KWS_SIZE = ("--n-pos", "10", "--n-neg", "100")
# Few keywords, so greedy and beam transcription (per utterance) carry most
# of the time rather than the keyword decodes (per utterance x keyword).
ASR_SIZE = ("--keywords", "almost", "anything", "behind", "captain", "--n-pos", "4", "--n-neg", "16")
BENCH_ARGV = (
    "bench", "--suite", "{suite}", "--baseline", "rnnt", "--candidate", "tdt",
    "--d-max", str(D_MAX), "--target-far", str(TARGET_FAR),
)


@dataclass(frozen=True)
class Workload:
    name: str
    size: tuple  # `kws gen` flags that size the suite
    # (label, argv); "{suite}" and "{out}" are filled in, the last argument
    # is the command's output file.
    commands: tuple
    beam_width: int | None = None

    def gen_flags(self, seed: int) -> list[str]:
        return [*self.size, *GEN_COMMON, "--seed", str(seed)]

    def argv(self, suite_dir: Path, out_dir: Path) -> list[tuple[str, list[str]]]:
        fill = {"suite": str(suite_dir), "out": str(out_dir)}
        return [(label, [a.format(**fill) for a in argv]) for label, argv in self.commands]


WORKLOADS = {
    "decode": Workload(
        "decode",
        KWS_SIZE,
        (
            ("rnnt", ("decode", "--suite", "{suite}", "--mode", "rnnt", "--out", "{out}/rnnt.jsonl")),
            ("tdt", ("decode", "--suite", "{suite}", "--mode", "tdt", "--d-max", str(D_MAX),
                     "--out", "{out}/tdt.jsonl")),
        ),
    ),
    "bench": Workload("bench", KWS_SIZE, (("bench", BENCH_ARGV + ("--report", "{out}/report.json")),)),
    "asr": Workload(
        "asr",
        ASR_SIZE,
        (("asr", BENCH_ARGV + ("--also-asr-baselines", "--beam-width", str(BEAM_WIDTH),
                               "--report", "{out}/report.json")),),
        beam_width=BEAM_WIDTH,
    ),
}

# name -> (unit, power of the calibration factor that converts it).
END_TO_END = {
    "setup_s": ("s", 1),
    "wall_s": ("s", 1),
    "rnnt_frames_per_s": ("frames/s", -1),
    "tdt_frames_per_s": ("frames/s", -1),
    "peak_rss_mb": ("MiB", 0),
}


class Calibration:
    """Machine speed, from a reference computation timed between a run's steps.

    The computation is a small log-space DP in numpy driven from Python, like
    the decoder's inner loop. It belongs to the benchmark, not to the
    program, so a change to the program cannot move it.
    """

    def __init__(self) -> None:
        import numpy as np

        self._np = np
        self._emit = np.random.default_rng(0).standard_normal((2, CALIBRATION_FRAMES, 6))
        self.rounds = 0
        self.seconds = 0.0
        self._round()  # warm-up, not counted

    def _round(self) -> float:
        np = self._np
        stay, advance = self._emit
        tick = perf_counter()
        column = np.full(6, -np.inf)
        column[0] = 0.0
        best = []
        for t in range(CALIBRATION_FRAMES):
            moved = np.concatenate(([-np.inf], column[:-1] + advance[t, 1:]))
            column = np.logaddexp(column + stay[t], moved)
            best.append(float(column.max()))
        return perf_counter() - tick

    def after(self, work_seconds: float) -> None:
        """Time rounds for CALIBRATION_SHARE of the work just done; at least one."""
        spent = 0.0
        while spent == 0.0 or spent < CALIBRATION_SHARE * work_seconds:
            spent += self._round()
            self.rounds += 1
        self.seconds += spent

    @property
    def factor(self) -> float:
        """Reference seconds per wall-clock second."""
        return REFERENCE_ROUND_S * self.rounds / self.seconds


class Ops:
    """Operations attempted and failed; an operation is one CLI command."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def run_cli(argv: list[str]) -> tuple[list[str], float]:
    """One in-process `kws` command: (problems, wall seconds)."""
    from kws.cli import main

    sink = io.StringIO()
    tick = perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            code = main(argv)
    except SystemExit as exc:  # argparse rejects the flags
        code = exc.code
    except Exception:
        traceback.print_exc()
        code = "exception"
    seconds = perf_counter() - tick
    return ([] if code == 0 else [f"kws {argv[0]} exited with {code}"]), seconds


def guarded(check, *args) -> list[str]:
    """Run a check; a check that crashes on the output is a failed check."""
    try:
        return check(*args)
    except Exception as exc:  # malformed output
        return [f"output could not be checked: {exc!r}"]


class OutputChecker:
    """Checks every output of one workload's commands."""

    def __init__(self, workload: Workload, suite, seed: int, reference: dict) -> None:
        self.workload = workload
        self.suite = suite
        self.seed = seed
        self.reference = reference
        self.first_raw: dict[str, str] = {}
        self.reports: list[dict] = []

    def check(self, label: str, path: Path) -> list[str]:
        from checks import check_decode, check_report, read_jsonl, report_digest

        if self.workload.name == "decode":
            raw = hashlib.sha256(path.read_bytes()).hexdigest()
            if label in self.first_raw:
                # Full checks ran on the first output; later ones must match it.
                return [] if raw == self.first_raw[label] else ["output differs from the first run's"]
            self.first_raw[label] = raw
            return check_decode(
                read_jsonl(path), self.suite, decode_configs()[label], self.seed, self.reference.get(label)
            )
        report = json.loads(path.read_text(encoding="utf-8"))
        if not self.reports:
            self.reference.setdefault(label, report_digest(report))
        self.reports.append(report)
        asr_rows = asr_row_names(self.suite) if self.workload.beam_width else ()
        return check_report(report, asr_rows, self.reference[label])


def decode_configs() -> dict:
    from kws import DecodeConfig

    return {"rnnt": DecodeConfig(mode="rnnt"), "tdt": DecodeConfig(mode="tdt", d_max=D_MAX)}


def asr_row_names(suite) -> tuple[str, ...]:
    rows = ("greedy_rnnt", f"beam{BEAM_WIDTH}_rnnt")
    return rows + (("greedy_tdt",) if suite.d_max > 0 else ())


def load_reference(workload: Workload, seed: int) -> dict:
    """Reference digests for this seed, {label: digest}; empty when none is recorded."""
    if not REFERENCE.is_file():
        return {}
    refs = json.loads(REFERENCE.read_text(encoding="utf-8"))
    entry = refs["workloads"].get(workload.name, {}).get(str(seed))
    if entry is None:
        return {}
    return entry if isinstance(entry, dict) else {workload.name: entry}


def setup(workload: Workload, seed: int, work: Path, ops: Ops, repeats: int,
          seconds: float = 0.0, tracer=None, calibration=None):
    """Generate the suite at least `repeats` times and for at least `seconds`.

    Returns (suite dir, manifest, seconds each).
    """
    from kws import load_manifest

    times = []
    suite_dir = None
    while len(times) < repeats or sum(times) < seconds:
        i = len(times)
        if suite_dir is not None:
            shutil.rmtree(suite_dir)
        suite_dir = work / f"suite-{i}"
        argv = ["gen", "--out", str(suite_dir), *workload.gen_flags(seed)]
        tick = perf_counter()
        if tracer is None:
            problems, _ = run_cli(argv)
            suite = load_manifest(suite_dir)
        else:
            problems, _ = tracer.call("suite.gen", "", run_cli, argv)
            suite = tracer.call("suite.load_manifest", "", load_manifest, suite_dir)
        times.append(perf_counter() - tick)
        ops.record("gen", problems)
        if calibration is not None:
            calibration.after(times[-1])
    return suite_dir, suite, times


def run_commands(workload, suite_dir, out_dir, ops, checker, tracer=None,
                 wrap_oracles=False) -> dict[str, float] | None:
    """One pass over the workload's commands; {label: seconds}, None if any failed.

    With a tracer, the commands run instrumented, each under a root span.
    Outputs are checked after the whole pass, outside any instrumentation,
    so the peak memory a caller reads right after the commands does not
    include the checks.
    """
    from tracing import instrument

    out_dir.mkdir()
    times, results = {}, []
    traced = tracer is not None
    context = instrument(tracer, wrap_oracles, checker.suite) if traced else contextlib.nullcontext()
    with context as names:
        if traced:
            tracer.instrumented = names
        for label, argv in workload.argv(suite_dir, out_dir):
            if traced:
                problems, times[label] = tracer.call(f"cli.{argv[0]}", label, run_cli, argv)
            else:
                problems, times[label] = run_cli(argv)
            results.append((label, problems, Path(argv[-1])))
    times["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = False
    for label, problems, output in results:
        if traced and output.is_file():
            tracer.counts["cli.bytes_out"] += output.stat().st_size
        problems = problems or guarded(checker.check, label, output)
        ops.record(label, problems)
        failed = failed or bool(problems)
    shutil.rmtree(out_dir)
    return None if failed else times


def bench_frames(suite) -> int:
    """Input frames one bench run decodes in one mode: positives once, negatives per keyword."""
    total = 0
    for eps in {u.epsilon for u in suite.utterances}:
        total += sum(u.num_frames for kw in suite.keywords for u in suite.positives(kw.name, eps))
        total += len(suite.keywords) * sum(u.num_frames for u in suite.negatives(eps))
    return total


def report_totals(report: dict) -> dict[str, float]:
    """Summed counters of the baseline and candidate runs of one report."""
    out = {"rnnt_total_s": 0.0, "tdt_total_s": 0.0, "rnnt_search_s": 0.0, "tdt_search_s": 0.0,
           "rnnt_columns": 0, "tdt_columns": 0}
    for group in report["groups"]:
        for side, mode in (("baseline", "rnnt"), ("candidate", "tdt")):
            counters = group[side]["counters"]
            out[f"{mode}_total_s"] += counters["wall"]["total_seconds"]
            out[f"{mode}_search_s"] += counters["wall"]["search_seconds"]
            out[f"{mode}_columns"] += counters["columns_evaluated"]
    return out


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _per_second(work: float, seconds: float) -> float:
    return work / seconds if seconds else 0.0


def end_to_end(workload, suite, setup_times, passes, checker) -> tuple[dict, list[str]]:
    """Wall-clock end-to-end metrics from the untraced passes, plus headline lines.

    Pass timings are summarised as total work over total time, that is the
    mean over passes: the machine's speed drifts in stretches of seconds to
    tens of seconds, and across runs the mean varies less than the median.
    """
    wall = sum(p[label] for p in passes for label, _ in workload.commands)
    metrics = {
        "setup_s": sum(setup_times) / len(setup_times),
        "wall_s": wall / len(passes) if passes else 0.0,
    }
    headline = []
    if workload.name == "decode":
        frames = sum(u.num_frames for u in suite.utterances) * len(passes)
        for mode in ("rnnt", "tdt"):
            seconds = sum(p[mode] for p in passes)
            metrics[f"{mode}_frames_per_s"] = _per_second(frames, seconds)
        if metrics["rnnt_frames_per_s"]:
            ratio = metrics["tdt_frames_per_s"] / metrics["rnnt_frames_per_s"]
            headline.append(f"tdt_frames_per_s / rnnt_frames_per_s = {ratio:.3f}")
    else:
        # One bench command decodes both modes; each mode's time is the
        # report's own total for its run. That total covers lattice loads and
        # decodes only, not oracle construction, events or recall.
        totals = [report_totals(r) for r in checker.reports]
        frames = bench_frames(suite) * len(totals)
        for mode in ("rnnt", "tdt"):
            seconds = sum(t[f"{mode}_total_s"] for t in totals)
            metrics[f"{mode}_frames_per_s"] = _per_second(frames, seconds)
        for group_index, group in enumerate(checker.reports[0]["groups"] if checker.reports else []):
            speed = [r["groups"][group_index]["speedup"] for r in checker.reports]
            headline.append(
                f"epsilon {group['epsilon']}: relative_running "
                f"{_median([s['wall']['relative_running'] for s in speed]):.3f}, relative_search "
                f"{_median([s['wall']['relative_search'] for s in speed]):.3f}, column_ratio "
                f"{group['speedup']['column_ratio']:.3f}"
            )
    # Sampled after the first pass's commands, before any output is checked.
    metrics["peak_rss_mb"] = passes[0]["peak_rss_mb"] if passes else 0.0
    return metrics, headline


def traced(workload, seed, work, ops, reference) -> tuple[dict, dict]:
    """Per-module metrics from separate traced passes; returns (metrics, tracers)."""
    from tracing import Tracer, per_layer_metrics

    setup_tracer = Tracer("setup")
    suite_dir, suite, _ = setup(workload, seed, work, ops, 1, tracer=setup_tracer)
    checker = OutputChecker(workload, suite, seed, reference)
    times = run_commands(workload, suite_dir, work / "cli", ops, checker)
    untraced_wall = sum(times[label] for label, _ in workload.commands) if times else 0.0
    leaf, oracle = Tracer("leaf"), Tracer("oracle")
    run_commands(workload, suite_dir, work / "leaf", ops, checker, leaf)
    run_commands(workload, suite_dir, work / "oracle", ops, checker, oracle, wrap_oracles=True)

    # decode's commands run one mode each, so the leaf pass splits its time
    # by mode; bench's report carries its own per-mode counters.
    totals = report_totals(checker.reports[0]) if checker.reports else {}
    suite_stats = {
        "bytes": sum(p.stat().st_size for p in (suite_dir / "lattices").iterdir()),
        "utterances": len(suite.utterances),
        "frames": sum(u.num_frames for u in suite.utterances),
    }
    metrics = per_layer_metrics(setup_tracer, leaf, oracle, suite_stats, totals, untraced_wall)
    return metrics, {"setup": setup_tracer, "leaf": leaf, "oracle": oracle}


def environment(args, workload: Workload) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "gen_flags": workload.gen_flags(args.seed),
        "commands": [argv for _, argv in workload.argv(Path("SUITE"), Path("OUT"))],
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kws" / "__init__.py").is_file():
        print(f"error: no kws source at {SRC / 'kws'}; run from a kws checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import kws

    if Path(kws.__file__).resolve().parent != (SRC / "kws").resolve():
        print(f"error: imported kws from {kws.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    from tracing import PER_LAYER

    workload = WORKLOADS[args.workload]
    env = environment(args, workload)
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{workload.name}-", dir=OUT_DIR))
    ops = Ops()
    reference = load_reference(workload, args.seed)
    env["reference_digests"] = sorted(reference)
    headline: list[str] = []
    try:
        if args.trace:
            metrics, tracers = traced(workload, args.seed, work, ops, dict(reference))
            units = {name: unit for name, (unit, _) in PER_LAYER.items()}
            env["instrumented"] = tracers["leaf"].instrumented
            for tracer in tracers.values():
                tracer.write(OUT_DIR / f"spans-{workload.name}-{tracer.name}.jsonl.gz")
        else:
            setup_calibration, calibration = Calibration(), Calibration()
            suite_dir, suite, setup_times = setup(
                workload, args.seed, work, ops, SETUP_REPEATS, SETUP_SECONDS,
                calibration=setup_calibration,
            )
            checker = OutputChecker(workload, suite, args.seed, dict(reference))
            passes = []
            start = perf_counter()
            while True:
                times = run_commands(workload, suite_dir, work / f"pass-{len(passes)}", ops, checker)
                if times is not None:
                    passes.append(times)
                    calibration.after(sum(times[label] for label, _ in workload.commands))
                if perf_counter() - start >= args.seconds:
                    break
            env["passes"] = passes
            metrics, headline = end_to_end(workload, suite, setup_times, passes, checker)
            env["wall_clock_metrics"] = metrics
            env["calibration"] = {
                phase: {"rounds": c.rounds, "mean_round_s": c.seconds / c.rounds,
                        "factor": c.factor}
                for phase, c in (("setup", setup_calibration), ("passes", calibration))
            }
            metrics = {
                name: value * (setup_calibration if name == "setup_s" else calibration).factor
                ** END_TO_END[name][1]
                for name, value in metrics.items()
            }
            units = {name: unit for name, (unit, _) in END_TO_END.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_end"] = list(os.getloadavg())

    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    stamp = OUT_DIR / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    stamp.write_text(
        json.dumps({"environment": env, "headline": headline, "problems": ops.problems,
                    "failed_frac": ops.failed_frac, **result}, indent=2) + "\n",
        encoding="utf-8",
    )
    for problem in ops.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print("environment " + json.dumps(env))
    for line in headline:
        print(line)
    print(f"failed_frac = {ops.failed_frac} ({ops.failed} of {ops.attempted} commands)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
