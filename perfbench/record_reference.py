#!/usr/bin/env python3
"""Record the reference output digests of every workload for a range of seeds.

Run from the root of a kws source checkout whose outputs are known good:

    python3 perfbench/record_reference.py --seeds 0-31

For each seed it generates the full-size suites, runs each workload's
commands once, requires every seed-independent check to pass, and adds the
digests to ``perfbench/reference.json``. A benchmark run with a recorded
seed then compares each output's digest with the one recorded here.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def record(seed: int, work: Path) -> dict:
    from checks import check_decode, check_report, decode_digest, read_jsonl, report_digest
    from kws import load_manifest

    digests = {}
    suites = {}
    for workload in run.WORKLOADS.values():
        flags = tuple(workload.gen_flags(seed))
        if flags not in suites:
            suite_dir = work / f"suite-{len(suites)}"
            problems, _ = run.run_cli(["gen", "--out", str(suite_dir), *flags])
            if problems:
                raise SystemExit(f"seed {seed}: {problems}")
            suites[flags] = suite_dir
        suite_dir = suites[flags]
        suite = load_manifest(suite_dir)
        out_dir = work / workload.name
        out_dir.mkdir()
        for label, argv in workload.argv(suite_dir, out_dir):
            problems, _ = run.run_cli(argv)
            output = Path(argv[-1])
            if workload.name == "decode":
                records = read_jsonl(output)
                problems += check_decode(records, suite, run.decode_configs()[label], seed, None)
                digests.setdefault("decode", {})[label] = decode_digest(records)
            else:
                report = json.loads(output.read_text(encoding="utf-8"))
                asr_rows = run.asr_row_names(suite) if workload.beam_width else ()
                problems += check_report(report, asr_rows, None)
                digests[workload.name] = report_digest(report)
            if problems:
                raise SystemExit(f"seed {seed}, {workload.name} {label}: {problems}")
    return digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="range such as 0-31")
    args = parser.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)

    sys.path.insert(0, str(run.SRC))
    refs = {"workloads": {}}
    if run.REFERENCE.is_file():
        refs = json.loads(run.REFERENCE.read_text(encoding="utf-8"))
    run.OUT_DIR.mkdir(exist_ok=True)
    for seed in seeds:
        work = Path(tempfile.mkdtemp(prefix="record-", dir=run.OUT_DIR))
        try:
            digests = record(seed, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        for name, digest in digests.items():
            refs["workloads"].setdefault(name, {})[str(seed)] = digest
        run.REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"seed {seed}: recorded", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
