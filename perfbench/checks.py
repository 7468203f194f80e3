"""Correctness checks on the outputs of the benchmark's commands.

Every check returns a list of problems; an empty list means the output
passed. Three kinds of check run:

* digests of the deterministic outputs, compared with references recorded
  for pinned seeds in ``reference.json``;
* facts that follow from the planted truth of the synthetic suite and so
  hold for every seed;
* a frame-by-frame re-decode of sampled ``decode`` records through
  ``StreamingDecoder.push``, which must give bit-equal scores.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import numpy as np

from kws import DecodeConfig, StreamingDecoder, load_lattice

STREAM_SAMPLE = 12


def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


def _scores(record: dict) -> np.ndarray:
    # float() reads both JSON numbers and the "-inf" string encoding.
    return np.array([float(s) for s in record["scores"]], dtype="<f8")


def decode_digest(records: list[dict]) -> str:
    """Digest of scores, processed mask, column count and events, in record order."""
    h = hashlib.sha256()
    for r in records:
        h.update(r["utt_id"].encode() + b"\0")
        h.update(_scores(r).tobytes())
        h.update(np.array(r["processed"], dtype=bool).tobytes())
        h.update(f"{r['columns_evaluated']};".encode())
        for e in r["events"]:
            h.update(f"{e['frame']}:{float(e['log_score'])!r};".encode())
    return h.hexdigest()


def drop_wall(obj):
    """Copy of a report without its wall-clock ("wall") keys."""
    if isinstance(obj, dict):
        return {k: drop_wall(v) for k, v in obj.items() if k != "wall"}
    if isinstance(obj, list):
        return [drop_wall(v) for v in obj]
    return obj


def report_digest(report: dict) -> str:
    text = json.dumps(drop_wall(report), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _digest_problem(name: str, digest: str, reference: str | None) -> list[str]:
    if reference is not None and digest != reference:
        return [f"{name}: digest {digest[:16]} differs from reference {reference[:16]}"]
    return []


def check_decode(
    records: list[dict], suite, config: DecodeConfig, seed: int, reference: str | None
) -> list[str]:
    """All checks on the records one ``kws decode`` wrote."""
    problems = []
    expected_ids = sorted(u.utt_id for u in suite.utterances)
    if [r["utt_id"] for r in records] != expected_ids:
        return [f"{config.mode}: records do not cover the suite's utterances in utt_id order"]
    by_id = {u.utt_id: u for u in suite.utterances}
    for r in records:
        utt = by_id[r["utt_id"]]
        scores = _scores(r)
        if len(scores) != utt.num_frames or len(r["processed"]) != utt.num_frames:
            problems.append(f"{r['utt_id']}: {len(scores)} scores for {utt.num_frames} frames")
            continue
        if sum(r["processed"]) != r["columns_evaluated"]:
            problems.append(f"{r['utt_id']}: processed frames != columns_evaluated")
        if utt.epsilon == 0.0:
            # Noise-free planted truth: a positive's planted path has
            # probability 1, and a negative never contains keyword tokens.
            finite = scores[np.isfinite(scores)]
            if utt.label is not None and (finite.size == 0 or finite.max() != 0.0):
                problems.append(f"{r['utt_id']}: noise-free positive's best score is not 0.0")
            if utt.label is None and finite.size:
                problems.append(f"{r['utt_id']}: noise-free negative has a finite score")
    problems += check_streaming(records, suite, config, seed)
    problems += _digest_problem(f"decode {config.mode}", decode_digest(records), reference)
    return problems


def stream_sample(records: list[dict], seed: int) -> list[dict]:
    """The records check_streaming re-decodes."""
    return random.Random(seed).sample(records, min(STREAM_SAMPLE, len(records)))


def check_streaming(records: list[dict], suite, config: DecodeConfig, seed: int) -> list[str]:
    """Re-decode sampled records frame by frame; scores must be bit-equal."""
    by_id = {u.utt_id: u for u in suite.utterances}
    problems = []
    for r in stream_sample(records, seed):
        utt = by_id[r["utt_id"]]
        oracle = load_lattice(suite.lattice_path(utt))
        keyword = suite.keywords_by_name[utt.lattice_keyword]
        decoder = StreamingDecoder(oracle, keyword, config, utt_id=utt.utt_id)
        events = []
        for t in range(1, oracle.num_frames + 1):
            events.extend(decoder.push(t))
        stream = decoder.finish()
        if stream.scores.astype("<f8").tobytes() != _scores(r).tobytes():
            problems.append(f"{utt.utt_id}: streaming re-decode scores are not bit-equal")
        if stream.processed.tolist() != r["processed"]:
            problems.append(f"{utt.utt_id}: streaming re-decode processed mask differs")
        got = [(e.frame, e.log_score) for e in events]
        want = [(e["frame"], float(e["log_score"])) for e in r["events"]]
        if got != want:
            problems.append(f"{utt.utt_id}: streaming re-decode events differ")
    return problems


def check_report(report: dict, asr_rows: tuple[str, ...], reference: str | None) -> list[str]:
    """All checks on one ``kws bench`` report."""
    problems = []
    for group in report["groups"]:
        rows = {"baseline": group["baseline"], "candidate": group["candidate"]}
        rows.update(group.get("asr", {}))
        if sorted(group.get("asr", {})) != sorted(asr_rows):
            problems.append(f"epsilon {group['epsilon']}: ASR rows {sorted(group.get('asr', {}))}")
        if group["epsilon"] == 0.0:
            for name, row in rows.items():
                if row["macro_recall"] != 1.0:
                    problems.append(f"epsilon 0: {name} macro_recall {row['macro_recall']} != 1.0")
    problems += _digest_problem("report", report_digest(report), reference)
    return problems
