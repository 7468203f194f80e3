"""Suite-level orchestration: batch decode, benchmark reports, oracle checks.

Benchmark oracle policy: positives decode through their on-disk lattice
(replay path; file load time is charged to total wall time), negatives decode
generatively against every keyword under test (a v1 lattice stores only one
keyword conditioning). Each negative builds one ``SyntheticOracle`` per run;
before the first run, ``bench`` refuses a TDT config on a suite without a
duration track and an epsilon group that it cannot score, and holds every
lattice's frame count to its header, the negatives' first (a header is all
of a negative's lattice that it reads). Each group's sorted utterances and
negative hours are worked out once (``_EpsilonGroup``) and serve all its
runs and rows. All utterances of a run go through one in-process decode,
with one lane buffer sized from the run's plan, each utterance's keywords
and frame count, which decodes them as batched (utterance, keyword) lanes
and hands back each lane batch's scores as one (lane, frame) block; its
``oracle_queries`` still count one row query per keyword per column, plus
one greedy query per keyword per column in TDT mode. Event scores come from
each block as a whole: a positive's best event is its row's highest finite
score, and the peak events of every keyword of the batch's negatives come
from one greedy non-maximum suppression over their rows. ``decode_suite``
runs the live gate over each block at once and gives the batch's records one
score-text table; it still makes and yields its records one at a time, so a
caller that writes each before drawing the next holds one. ASR baseline rows
always use the generative oracle: after every group's KWS runs, each
utterance of the suite builds one ``SyntheticOracle``, and each ASR search
runs once on all of them, in lockstep rounds (see ``baselines``) whose row
and duration queries go through the ``EmissionOracle`` group methods, which
wrapped oracles inherit as stacking defaults. The beam search's union guard
reuses the greedy RNN-T transcripts.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from itertools import islice
from time import perf_counter
from typing import Iterator

import numpy as np

from .baselines import (
    Hypothesis,
    _beam_searches,
    _check_beam_width,
    _greedy_searches,
    keyword_hit,
)
from .brute_force import brute_force_score
from .decoder import (
    RNNT,
    TDT,
    DecodeConfig,
    _decode_blocks,
    _encode_float,
    _gate_picks,
    _peak_picks,
    _ScoreTexts,
    decode_keywords,
    scorestream_record,
)
from .emissions import KeywordSpec, NEG_INF
from .errors import ManifestError, ModeError, ValidationError
from .lattice import FileLatticeOracle, LatticeData
from .metrics import (
    SpeedCounters,
    _check_target_far,
    macro_recall,
    recall_at_far,
    speedup,
)
from .suite import SuiteManifest, Utterance
from .synthetic import SyntheticOracle

REPORT_SCHEMA = "kws-bench-report@1"


def _by_id(utterances) -> list[Utterance]:
    return sorted(utterances, key=lambda u: u.utt_id)


def _config_echo(config: DecodeConfig) -> dict:
    echo = asdict(config)
    echo["threshold_log"] = _encode_float(config.threshold_log)
    return echo


def _check_duration_track(suite: SuiteManifest, *configs: DecodeConfig) -> None:
    """Refuse a TDT config on a suite with no duration track (d_max 0),
    whose lattices and synthetic oracles would refuse it one by one."""
    if suite.d_max == 0 and any(config.mode == TDT for config in configs):
        raise ModeError(
            f"{suite.root / 'manifest.json'}: top level: field 'd_max': 0, "
            "so the suite has no duration track for a TDT decode"
        )


def decode_suite(suite: SuiteManifest, config: DecodeConfig) -> Iterator[str]:
    """Decode every utterance against its lattice keyword; yields the JSONL
    line of each utterance's record (``scorestream_record``, no newline), in
    utterance-id order, with the live gate's events (streaming semantics),
    found for a whole lane batch at once. Lines are made one at a time, as
    the caller draws them, so none is held once the caller has moved on.
    Before the first, a TDT config is held to the suite's duration track and
    every lattice header to its record, in utterance-id order: the records'
    frame counts and their lattice keywords size the run's lane buffer."""
    _check_duration_track(suite, config)
    by_name = suite.keywords_by_name
    utts = _by_id(suite.utterances)
    suite.check_lattice_headers(utts)
    plan = [((by_name[utt.lattice_keyword],), utt.num_frames) for utt in utts]
    utterances = (
        (suite.lattice(utt), keywords, utt.utt_id) for utt, (keywords, _) in zip(utts, plan)
    )
    for block in _decode_blocks(utterances, plan, config, SpeedCounters()):
        events = block.events(*_gate_picks(block.scores, block.processed, config))
        texts = _ScoreTexts()
        for (stream,), stream_events in zip(block.streams(), events):
            yield scorestream_record(stream, stream_events, texts)


@dataclass(frozen=True)
class _EpsilonGroup:
    """One epsilon group's utterances, by ``utt_id``: each suite keyword's
    positives, and the negatives, with the hours every false-alarm rate divides by."""

    epsilon: float
    positives: tuple[list[Utterance], ...]
    negatives: list[Utterance]
    neg_hours: float


def _epsilon_groups(suite: SuiteManifest) -> list[_EpsilonGroup]:
    """The suite's epsilon groups, ascending. A group that bench cannot score
    (a keyword without positives, or no negatives) is a ManifestError."""
    groups = []
    for epsilon in sorted(set(u.epsilon for u in suite.utterances)):
        positives = tuple(_by_id(suite.positives(k.name, epsilon)) for k in suite.keywords)
        negatives = _by_id(suite.negatives(epsilon))
        where = f"{suite.root / 'manifest.json'}: epsilon {epsilon}"
        for keyword, utts in zip(suite.keywords, positives):
            if not utts:
                raise ManifestError(f"{where}: keyword {keyword.name!r} has no positives")
        if not negatives:
            raise ManifestError(f"{where}: the group has no negatives")
        hours = sum(u.duration_seconds for u in negatives) / 3600.0
        groups.append(_EpsilonGroup(epsilon, positives, negatives, hours))
    return groups


def _recall_run(
    suite: SuiteManifest, group: _EpsilonGroup, pos_scores: list[list[float]],
    neg_scores: list[list[float]], target_far: float,
) -> dict:
    """Each keyword's recall at the FA budget over ``group``, from its
    positives' scores and its negatives' events' scores (one list each per
    suite keyword), and their macro-recall."""
    per_keyword = []
    for keyword, pos, neg in zip(suite.keywords, pos_scores, neg_scores):
        rar = recall_at_far(pos, neg, group.neg_hours, target_far)
        per_keyword.append({
            "keyword": keyword.name,
            "recall": rar.recall,
            "threshold": _encode_float(rar.threshold),
            "false_alarms": rar.false_alarms,
            "fa_per_hour": rar.fa_per_hour,
            # All events observed on negative audio, before any thresholding.
            "negative_events": len(neg),
        })
    return {
        "per_keyword": per_keyword,
        "macro_recall": macro_recall([e["recall"] for e in per_keyword]),
    }


def _bench_one_run(
    suite: SuiteManifest, group: _EpsilonGroup, config: DecodeConfig, target_far: float
) -> tuple[dict, SpeedCounters]:
    """One run over ``group``: each keyword's positives, then the negatives."""
    # Events are collected with an open threshold; operating points are swept
    # afterwards from the observed scores.
    collect = replace(config, threshold_log=NEG_INF)
    counters = SpeedCounters()

    positives = [
        (u, (keyword,)) for keyword, utts in zip(suite.keywords, group.positives) for u in utts
    ]
    plan = [
        *((keywords, u.num_frames) for u, keywords in positives),
        *((suite.keywords, u.num_frames) for u in group.negatives),
    ]

    def utterances():
        for u, keywords in positives:
            tick = perf_counter()
            oracle = suite.lattice(u)
            counters.total_wall_seconds += perf_counter() - tick
            yield oracle, keywords, u.utt_id
        for u in group.negatives:
            yield SyntheticOracle(u.synth), suite.keywords, u.utt_id

    # Threshold-free peak event scores: a positive's best event, which is the
    # highest finite score of its one row, and every peak event of every
    # keyword of a negative. Positives come first, so the rows of a lane
    # batch's block are its positives' rows, then its negatives' (K each).
    pos_scores, neg_keywords, neg_scores = [], [], []
    seen = 0  # utterances in the blocks so far
    for block in _decode_blocks(utterances(), plan, collect, counters):
        p = min(max(len(positives) - seen, 0), len(block.utts))
        split = block.utts[p][1] if p < len(block.utts) else len(block.scores)
        seen += len(block.utts)
        pos = block.scores[:split]
        pos_scores += np.where(np.isfinite(pos), pos, NEG_INF).max(axis=1).tolist()
        neg = block.scores[split:]
        rows, frames = _peak_picks(neg, collect.refractory_frames)
        neg_keywords.append(rows % len(suite.keywords))
        neg_scores.append(neg[rows, frames])
    neg_keywords = np.concatenate([np.empty(0, dtype=np.int64), *neg_keywords])
    neg_scores = np.concatenate([np.empty(0), *neg_scores])
    pos = iter(pos_scores)  # each keyword's positives in turn
    run = _recall_run(
        suite, group, [list(islice(pos, len(utts))) for utts in group.positives],
        [neg_scores[neg_keywords == k].tolist() for k in range(len(suite.keywords))], target_far,
    )
    run["counters"] = counters.to_json_dict()
    return run, counters


def _asr_transcripts(
    suite: SuiteManifest, d_max: int, beam_width: int
) -> dict[str, dict[str, Hypothesis]]:
    """``{row name: {utt_id: transcript}}`` of every ASR baseline row, from
    one search per row over all of the suite's utterances (transcripts are
    label-independent); greedy TDT hops at most ``d_max`` frames."""
    utts = _by_id(suite.utterances)
    oracles = [SyntheticOracle(u.synth) for u in utts]
    greedy = _greedy_searches(oracles)
    transcripts = {
        "greedy_rnnt": greedy,
        f"beam{beam_width}_rnnt": [
            beams[0] for beams in _beam_searches(oracles, beam_width, greedy)
        ],
    }
    if suite.d_max > 0:
        transcripts["greedy_tdt"] = _greedy_searches(oracles, d_max)
    return {
        name: dict(zip((u.utt_id for u in utts), hyps)) for name, hyps in transcripts.items()
    }


def _asr_row(
    suite: SuiteManifest,
    group: _EpsilonGroup,
    transcripts: dict[str, Hypothesis],
    target_far: float,
) -> dict:
    """Containment recall at the FA budget, from degenerate hit/miss scores."""
    pos_scores, neg_scores = [], []
    for keyword, positives in zip(suite.keywords, group.positives):
        pos_scores.append([
            0.0 if keyword_hit(transcripts[u.utt_id], keyword)[0] else NEG_INF
            for u in positives
        ])
        neg_scores.append([
            0.0 for u in group.negatives if keyword_hit(transcripts[u.utt_id], keyword)[0]
        ])
    return _recall_run(suite, group, pos_scores, neg_scores, target_far)


def check_bench_args(target_far: float, also_asr_baselines: bool, beam_width: int) -> None:
    """The argument checks of ``bench`` that need no suite, so that a caller
    can make them before reading one."""
    _check_target_far(target_far)
    if also_asr_baselines:
        _check_beam_width(beam_width)


def bench(
    suite: SuiteManifest,
    baseline: DecodeConfig,
    candidate: DecodeConfig,
    target_far: float,
    also_asr_baselines: bool = False,
    beam_width: int = 10,
) -> dict:
    """Full benchmark report across the suite's epsilon groups."""
    check_bench_args(target_far, also_asr_baselines, beam_width)
    # A TDT run needs the suite's duration track, every group must be
    # scorable, and every lattice header match its record, the negatives'
    # first, before the first decode: a negative's record sizes its
    # SyntheticOracle, and the records size each run's lane buffer.
    _check_duration_track(suite, baseline, candidate)
    groups = _epsilon_groups(suite)
    positives = [u for u in suite.utterances if u.label is not None]
    suite.check_lattice_headers([*suite.negatives(), *positives])
    entries = []
    for group in groups:
        baseline_run, baseline_counters = _bench_one_run(suite, group, baseline, target_far)
        candidate_run, candidate_counters = _bench_one_run(suite, group, candidate, target_far)
        entries.append({
            "epsilon": group.epsilon,
            "negative_hours": group.neg_hours,
            "baseline": baseline_run,
            "candidate": candidate_run,
            "speedup": speedup(baseline_counters, candidate_counters).to_json_dict(),
        })
    # After every group's KWS runs, so that those run as they would alone.
    if also_asr_baselines:
        # The cap of whichever run is TDT, else the suite's (an RNN-T config's d_max is 0).
        d_max = candidate.d_max or baseline.d_max or suite.d_max
        transcripts = _asr_transcripts(suite, d_max, beam_width)
        for group, entry in zip(groups, entries):
            entry["asr"] = {
                name: _asr_row(suite, group, hyps, target_far)
                for name, hyps in transcripts.items()
            }
    return {
        "schema": REPORT_SCHEMA,
        "suite_seed": suite.seed,
        "target_far": _encode_float(target_far),
        "beam_width": beam_width if also_asr_baselines else None,
        "runs": {"baseline": _config_echo(baseline), "candidate": _config_echo(candidate)},
        "groups": entries,
    }


def format_report_table(report: dict) -> str:
    """Fixed-width stdout table mirroring the decoding-comparison layout."""
    lines = []
    base_cfg = report["runs"]["baseline"]
    cand_cfg = report["runs"]["candidate"]
    for group in report["groups"]:
        lines.append(
            f"epsilon={group['epsilon']:.2f}  negatives={group['negative_hours']:.3f}h  "
            f"target_far={float(report['target_far']):g}/h"
        )
        header = f"  {'model':<12}{'algorithm':<16}{'macro-recall':>12}{'columns':>12}{'col-ratio':>11}"
        lines.append(header)
        rows = [
            (base_cfg["mode"], "proposed", group["baseline"], ""),
            (cand_cfg["mode"], "proposed", group["candidate"], f"{group['speedup']['column_ratio']:.2f}x"),
        ]
        for model, algorithm, run, ratio in rows:
            lines.append(
                f"  {model:<12}{algorithm:<16}{run['macro_recall']:>12.3f}"
                f"{run['counters']['columns_evaluated']:>12}{ratio:>11}"
            )
        for name, row in group.get("asr", {}).items():
            algorithm, _, model = name.partition("_")
            lines.append(
                f"  {model:<12}{algorithm + '-asr':<16}{row['macro_recall']:>12.3f}"
                f"{'':>12}{'':>11}"
            )
        lines.append("")
    return "\n".join(lines)


def random_proper_lattice(
    rng: np.random.Generator,
    t_max: int = 12,
    u_max: int = 4,
    d_max: int = 0,
    duration_value: int | None = None,
) -> LatticeData:
    """Random normalized lattice: one Dirichlet draw per (t, u) node."""
    T = int(rng.integers(1, t_max + 1))
    U = int(rng.integers(1, u_max + 1))
    V = max(U, int(rng.integers(2, 7)))
    tokens = tuple(int(t) + 1 for t in rng.permutation(V)[:U])
    dist = rng.dirichlet(np.ones(V + 1), size=(T, U + 1))
    with np.errstate(divide="ignore"):
        log_dist = np.log(dist)
    log_phi = log_dist[:, :, 0].astype(np.float32)
    log_y = np.empty((T, U), dtype=np.float32)
    for u, token in enumerate(tokens):
        log_y[:, u] = log_dist[:, u, token]
    greedy_tokens = greedy_durations = None
    if d_max > 0:
        greedy_tokens = rng.integers(0, V + 1, size=T).astype(np.uint32)
        if duration_value is None:
            greedy_durations = rng.integers(0, d_max + 1, size=T).astype(np.uint16)
        else:
            greedy_durations = np.full(T, duration_value, dtype=np.uint16)
    return LatticeData(
        keyword=KeywordSpec("kw", tokens),
        frame_seconds=0.03,
        log_y=log_y,
        log_phi=log_phi,
        d_max=d_max,
        greedy_tokens=greedy_tokens,
        greedy_durations=greedy_durations,
    )


def oracle_check(cases: int, seed: int, t_max: int = 12, u_max: int = 4) -> dict:
    """DP-vs-brute-force equivalence sweep over random proper lattices."""
    if cases < 1:
        raise ValidationError("cases must be >= 1")
    if seed < 0:  # numpy seeds only from non-negative integers
        raise ValidationError(f"the seed must be >= 0, got {seed}")
    if not (1 <= t_max <= 12 and 1 <= u_max <= 4):
        raise ValidationError(
            f"t_max and u_max must lie in [1, 12] and [1, 4] (the brute-force cap), "
            f"got {t_max} and {u_max}"
        )
    rng = np.random.default_rng(seed)
    config = DecodeConfig(mode=RNNT)
    max_dev = 0.0
    for case in range(cases):
        data = random_proper_lattice(rng, t_max=t_max, u_max=u_max)
        oracle = FileLatticeOracle(data)
        ((stream,),) = decode_keywords([(oracle, (data.keyword,), "")], config)
        for t in range(1, oracle.num_frames + 1):
            reference, _ = brute_force_score(oracle, data.keyword, t)
            got = float(stream.scores[t - 1])
            if math.isinf(reference) and math.isinf(got):
                continue
            max_dev = max(max_dev, abs(reference - got))
    return {"cases": cases, "seed": seed, "max_abs_deviation": max_dev}
