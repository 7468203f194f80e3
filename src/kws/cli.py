"""Command line interface for the keyword spotting toolkit.

Subcommands:
  gen           synthesize a benchmark suite (lattices + manifest)
  decode        decode every suite utterance, write score streams as JSONL
  bench         baseline-vs-candidate benchmark report (JSON + table)
  dump-delta    CSV dump of the score matrix for one utterance
  oracle-check  DP vs brute-force equivalence sweep on random lattices

Exit codes: 0 success, 1 invalid arguments or capability errors, 2 broken
files or I/O failures.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import json
import math
import os
import sys
from pathlib import Path

from .decoder import RNNT, TDT, ZERO_DURATION_POLICIES, DecodeConfig, dump_delta_matrix
from .emissions import NEG_INF
from .errors import (
    CapabilityError,
    LatticeFormatError,
    ManifestError,
    ModeError,
    ProtocolError,
    SizeLimitError,
    ValidationError,
)
from .lattice import load_lattice
from .runner import (
    _check_duration_track,
    bench,
    check_bench_args,
    decode_suite,
    format_report_table,
    oracle_check,
)
from .suite import SuiteGenSpec, gen_suite, load_manifest

USAGE_ERRORS = (ValidationError, ModeError, CapabilityError, ProtocolError, SizeLimitError)
# ManifestError is a ValidationError, so main() tests DATA_ERRORS first.
DATA_ERRORS = (LatticeFormatError, ManifestError, OSError, json.JSONDecodeError)


def _default_seed(value: int | None) -> int:
    """``value``, else ``KWS_SEED``, else 0; its consumers refuse a negative seed."""
    if value is not None:
        return value
    env = os.environ.get("KWS_SEED", "0")
    try:
        return int(env)
    except ValueError as exc:
        raise ValidationError(f"KWS_SEED must be an integer, got {env!r}") from exc


def _threshold_log(args: argparse.Namespace) -> float:
    if args.threshold_prob is not None:
        if args.threshold_log is not None:
            raise ValidationError("pass --threshold-log or --threshold-prob, not both")
        if not 0.0 < args.threshold_prob <= 1.0:
            raise ValidationError("--threshold-prob must be in (0, 1]")
        return math.log(args.threshold_prob)
    if args.threshold_log is not None:
        return args.threshold_log
    return NEG_INF


@contextlib.contextmanager
def _output(path):
    """Stdout when ``path`` is None, else a text file open under a temporary
    name beside ``path`` and renamed to it once the block ends without an
    error: a failed command leaves no partial file, and one that opens it
    before its work fails first on a path it cannot write, such as a
    directory, which the rename could not replace. A symlink is followed,
    so its target is written and the link stays; a FIFO or a device is
    opened and written in place, since a rename would replace it."""
    if path is None:
        yield sys.stdout
        return
    target = os.path.realpath(path)
    if os.path.isdir(target):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if os.path.exists(target) and not os.path.isfile(target):
        with open(target, "w", encoding="utf-8") as out:
            yield out
        return
    partial = Path(f"{target}.{os.getpid()}.tmp")
    try:
        with partial.open("w", encoding="utf-8") as out:
            yield out
        os.replace(partial, target)
    finally:
        partial.unlink(missing_ok=True)


def _add_decode_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mode", choices=(RNNT, TDT), default=RNNT)
    parser.add_argument("--d-max", type=int, default=0, help="TDT duration cap")
    parser.add_argument(
        "--zero-duration-policy", choices=ZERO_DURATION_POLICIES, default="clamp"
    )
    parser.add_argument("--threshold-log", type=float, default=None)
    parser.add_argument(
        "--threshold-prob",
        type=float,
        default=None,
        help="detection threshold as a probability (converted to log)",
    )
    parser.add_argument("--refractory-frames", type=int, default=34)


def _cmd_gen(args: argparse.Namespace) -> int:
    spec = SuiteGenSpec(
        keywords=tuple(args.keywords) if args.keywords else SuiteGenSpec().keywords,
        n_pos=args.n_pos,
        n_neg=args.n_neg,
        frames_min=args.frames_min,
        frames_max=args.frames_max,
        duration_min=args.duration_min,
        duration_max=args.duration_max,
        epsilons=tuple(args.epsilon) if args.epsilon else (0.0,),
        d_max=args.d_max,
        duration_concentration=args.duration_concentration,
        seed=_default_seed(args.seed),
        frame_seconds=args.frame_seconds,
    )
    manifest = gen_suite(Path(args.out), spec)
    print(manifest)
    return 0


def _cmd_decode(args: argparse.Namespace) -> int:
    config = DecodeConfig(
        mode=args.mode, d_max=args.d_max, zero_duration_policy=args.zero_duration_policy,
        threshold_log=_threshold_log(args), refractory_frames=args.refractory_frames,
    )
    written = 0
    with _output(args.out) as out:
        for line in decode_suite(load_manifest(Path(args.suite)), config):
            out.write(line + "\n")
            written += 1
    if args.out is not None:
        print(f"wrote {written} score streams to {args.out}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    baseline = DecodeConfig(mode=args.baseline, d_max=args.d_max)
    candidate = DecodeConfig(mode=args.candidate, d_max=args.d_max)
    # Usage errors come before any I/O.
    check_bench_args(args.target_far, args.also_asr_baselines, args.beam_width)
    with _output(args.report) if args.report is not None else contextlib.nullcontext() as out:
        report = bench(
            load_manifest(Path(args.suite)), baseline, candidate, target_far=args.target_far,
            also_asr_baselines=args.also_asr_baselines, beam_width=args.beam_width,
        )
        print(format_report_table(report))
        if out is not None:
            out.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    if args.report is not None:
        print(f"wrote report to {args.report}")
    return 0


def _cmd_dump_delta(args: argparse.Namespace) -> int:
    if (args.lattice is None) == (args.suite is None):
        raise ValidationError("pass exactly one of --lattice or --suite with --utt")
    if args.lattice is not None and args.utt is not None:
        raise ValidationError("--utt names an utterance of --suite; --lattice takes none")
    if args.suite is not None and args.utt is None:
        raise ValidationError("--suite requires --utt")
    config = DecodeConfig(mode=args.mode, d_max=args.d_max)
    with _output(args.out) as out:
        if args.lattice is not None:
            oracle = load_lattice(Path(args.lattice))
            keyword = oracle.keyword
        else:
            suite = load_manifest(Path(args.suite))
            _check_duration_track(suite, config)
            matches = [u for u in suite.utterances if u.utt_id == args.utt]
            if not matches:
                raise ValidationError(f"unknown utterance id {args.utt!r}")
            oracle = suite.lattice(matches[0])
            keyword = suite.keywords_by_name[matches[0].lattice_keyword]
        out.write(dump_delta_matrix(oracle, keyword, config))
    return 0


def _cmd_oracle_check(args: argparse.Namespace) -> int:
    # Written so that NaN, which fails every comparison, fails the check too.
    if not args.tolerance >= 0.0:
        raise ValidationError(f"--tolerance must be >= 0, got {args.tolerance}")
    result = oracle_check(
        cases=args.cases,
        seed=_default_seed(args.seed),
        t_max=args.t_max,
        u_max=args.u_max,
    )
    print(json.dumps(result, sort_keys=True))
    return 0 if result["max_abs_deviation"] <= args.tolerance else 1


class _ArgumentParser(argparse.ArgumentParser):
    """Raises a bad flag or value as ValidationError, so that it exits 1 like
    every other usage error (argparse itself exits 2, the broken-file code)."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise ValidationError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="kws", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="synthesize a benchmark suite")
    gen.add_argument("--out", required=True, help="output suite directory")
    gen.add_argument("--keywords", nargs="+", default=None)
    gen.add_argument("--n-pos", type=int, default=10)
    gen.add_argument("--n-neg", type=int, default=20)
    gen.add_argument("--frames-min", type=int, default=120)
    gen.add_argument("--frames-max", type=int, default=240)
    gen.add_argument("--duration-min", type=int, default=2)
    gen.add_argument("--duration-max", type=int, default=4)
    gen.add_argument(
        "--epsilon", type=float, action="append", default=None, help="repeatable"
    )
    gen.add_argument("--d-max", type=int, default=4)
    gen.add_argument("--duration-concentration", type=float, default=1.0)
    gen.add_argument("--seed", type=int, default=None, help="falls back to KWS_SEED, then 0")
    gen.add_argument("--frame-seconds", type=float, default=0.03)
    gen.set_defaults(func=_cmd_gen)

    decode = sub.add_parser("decode", help="decode a suite, emit score streams")
    decode.add_argument("--suite", required=True)
    decode.add_argument("--out", default=None, help="JSONL path (default: stdout)")
    _add_decode_flags(decode)
    decode.set_defaults(func=_cmd_decode)

    bench_p = sub.add_parser("bench", help="baseline vs candidate benchmark")
    bench_p.add_argument("--suite", required=True)
    bench_p.add_argument("--baseline", choices=(RNNT, TDT), default=RNNT)
    bench_p.add_argument("--candidate", choices=(RNNT, TDT), default=TDT)
    bench_p.add_argument("--d-max", type=int, default=4)
    bench_p.add_argument("--target-far", type=float, default=0.0, help="per hour")
    bench_p.add_argument("--report", default=None, help="JSON report path")
    bench_p.add_argument("--also-asr-baselines", action="store_true")
    bench_p.add_argument("--beam-width", type=int, default=10)
    bench_p.set_defaults(func=_cmd_bench)

    dump = sub.add_parser("dump-delta", help="CSV dump of one score matrix")
    dump.add_argument("--lattice", default=None, help="path to a .kwl file")
    dump.add_argument("--suite", default=None)
    dump.add_argument("--utt", default=None, help="utterance id inside --suite")
    dump.add_argument("--mode", choices=(RNNT, TDT), default=RNNT)
    dump.add_argument("--d-max", type=int, default=0)
    dump.add_argument("--out", default=None, help="CSV path (default: stdout)")
    dump.set_defaults(func=_cmd_dump_delta)

    check = sub.add_parser("oracle-check", help="DP vs brute-force sweep")
    check.add_argument("--cases", type=int, default=100)
    check.add_argument("--seed", type=int, default=None)
    check.add_argument("--t-max", type=int, default=12)
    check.add_argument("--u-max", type=int, default=4)
    check.add_argument("--tolerance", type=float, default=1e-9)
    check.set_defaults(func=_cmd_oracle_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
