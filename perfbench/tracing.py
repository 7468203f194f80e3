"""Traced runs of the workloads, and the per-module metrics built from them.

A traced pass runs the workload's real ``kws`` commands with timing wrappers
swapped into the program's module namespaces (``instrument``). Each wrapped
call becomes a span with its name, start, end, parent and utterance id, so
the spans follow whatever call sequence the program makes. Wrapped are the
public calls the commands reach: ``load_manifest``, ``decode_suite``,
``bench``, ``load_lattice``, ``SyntheticOracle``, ``decode_kws``,
``detect_events``/``peak_events``, ``scorestream_record``,
``recall_at_far``/``macro_recall``/``speedup`` and
``greedy_search``/``beam_search``/``keyword_hit``. A name is swapped in every
``kws`` module that holds it. Two passes run, one after the other:

* the leaf pass times those calls only. It gives call counts, busy time and
  the self time of the runner and of the CLI;
* the oracle pass also wraps every oracle in ``TimedOracle``, which times
  each emission-row, greedy-step and distribution query. It gives the
  per-query metrics of ``lattice`` and ``synthetic``, and the decoder's time
  outside those queries.

Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from kws import EmissionOracle, SpeedCounters

NEG_INF = float("-inf")

# Spans of the runner's entry points.
ENTRY = ("runner.decode_suite", "runner.bench")


class Tracer:
    """In-memory spans plus counters taken at the same call boundaries."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.spans: list[list] = []  # [name, start, end, parent index, utt_id]
        self._open = [-1]
        self.counts: dict[str, float] = defaultdict(float)
        # Oracle queries per kind: [calls, seconds].
        self.queries: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.greedy_steps: dict[str, set] = defaultdict(set)  # layer -> {(utt_id, t)}
        self.utts_built: set[str] = set()
        self.instrumented: list[str] = []  # module.name of every swapped name

    def call(self, name: str, utt: str, fn, *args, **kwargs):
        span = [name, 0.0, 0.0, self._open[-1], utt]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._open.pop()

    @property
    def current(self) -> str:
        """Name of the innermost open span."""
        return self.spans[self._open[-1]][0] if len(self._open) > 1 else ""

    def summary(self) -> dict[str, tuple[int, float]]:
        """Span name -> (count, busy seconds)."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for name, start, end, _, _ in self.spans:
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start
        return {k: tuple(v) for k, v in out.items()}

    def self_seconds(self, names) -> float:
        """Busy time of the spans called ``names``, minus that of their direct children."""
        own = {i for i, s in enumerate(self.spans) if s[0] in names}
        total = sum(self.spans[i][2] - self.spans[i][1] for i in own)
        return total - sum(end - start for _, start, end, parent, _ in self.spans if parent in own)

    def busy_by_root(self, names) -> dict[str, float]:
        """Busy time of the spans called ``names``, per utt id of their root span."""
        root: list[int] = []
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            root.append(i if parent < 0 else root[parent])
            if name in names:
                out[self.spans[root[i]][4]] += end - start
        return out

    def root_seconds(self) -> float:
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)

    def write(self, path: Path) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for name, start, end, parent, utt in self.spans:
                fh.write(json.dumps([self.name, name, start, end, parent, utt]) + "\n")


class TimedOracle(EmissionOracle):
    """Delegates every query to an oracle and times it into a tracer."""

    def __init__(self, inner: EmissionOracle, layer: str, tracer: Tracer, utt_id: str) -> None:
        self._inner = inner
        self._tracer = tracer
        self._utt = utt_id
        self._layer = layer
        self._steps = tracer.greedy_steps[layer]

    def __getattr__(self, name):
        if name == "_inner":
            raise AttributeError(name)
        return getattr(self._inner, name)

    @property
    def num_frames(self) -> int:
        return self._inner.num_frames

    @property
    def d_max(self) -> int:
        return self._inner.d_max

    @property
    def frame_seconds(self) -> float:
        return self._inner.frame_seconds

    @property
    def is_generative(self) -> bool:
        return self._inner.is_generative

    @property
    def vocab_size(self) -> int:
        return self._inner.vocab_size

    def initial_greedy_state(self):
        return self._inner.initial_greedy_state()

    def _timed(self, kind: str, fn, *args):
        tick = perf_counter()
        out = fn(*args)
        seconds = perf_counter() - tick
        entry = self._tracer.queries[f"{self._layer}.{kind}"]
        entry[0] += 1
        entry[1] += seconds
        if self._tracer.current == "decoder.decode":
            self._tracer.counts["decoder.oracle_s"] += seconds
        return out

    def emission_rows(self, keyword, t):
        return self._timed("rows", self._inner.emission_rows, keyword, t)

    def greedy_step(self, t, state):
        self._steps.add((self._utt, t))
        return self._timed("greedy", self._inner.greedy_step, t, state)

    def token_log_probs(self, t, history):
        return self._timed("token_probs", self._inner.token_log_probs, t, history)

    def duration_log_probs(self, t, history=()):
        return self._timed("duration_probs", self._inner.duration_log_probs, t, history)


def _wrappers(tr: Tracer, originals: dict, wrap_oracles: bool, synth_ids: dict) -> dict:
    """Timing stand-ins for the names in ``originals``, keyed by name."""
    o = originals

    def oracle(inner, layer: str, utt_id: str):
        return TimedOracle(inner, layer, tr, utt_id) if wrap_oracles else inner

    def load_manifest(*args, **kwargs):
        return tr.call("suite.load_manifest", "", o["load_manifest"], *args, **kwargs)

    def decode_suite(*args, **kwargs):
        return tr.call("runner.decode_suite", "", o["decode_suite"], *args, **kwargs)

    def bench(*args, **kwargs):
        return tr.call("runner.bench", "", o["bench"], *args, **kwargs)

    def load_lattice(path, *args, **kwargs):
        file = Path(path)
        inner = tr.call("lattice.load", file.stem, o["load_lattice"], path, *args, **kwargs)
        sidecar = file.with_suffix(".json")
        tr.counts["lattice.bytes_read"] += file.stat().st_size + (
            sidecar.stat().st_size if sidecar.is_file() else 0
        )
        return oracle(inner, "lattice", file.stem)

    def synthetic_oracle(config, *args, **kwargs):
        utt_id = synth_ids.get(config, f"synth-{hash(config):x}")
        inner = tr.call("synthetic.build", utt_id, o["SyntheticOracle"], config, *args, **kwargs)
        tr.utts_built.add(utt_id)
        return oracle(inner, "synthetic", utt_id)

    def decode_kws(oracle_, keyword, config, *args, **kwargs):
        counters = args[1] if len(args) > 1 else kwargs.get("counters")
        if counters is None:
            counters = kwargs["counters"] = SpeedCounters()
        before = (counters.columns_evaluated, counters.oracle_queries, counters.search_wall_seconds)
        utt_id = args[0] if args else kwargs.get("utt_id", "")
        stream = tr.call("decoder.decode", utt_id, o["decode_kws"], oracle_, keyword, config,
                         *args, **kwargs)
        c = tr.counts
        columns = counters.columns_evaluated - before[0]
        search = counters.search_wall_seconds - before[2]
        c["decoder.frames"] += oracle_.num_frames
        c["decoder.columns"] += columns
        c["decoder.oracle_queries"] += counters.oracle_queries - before[1]
        c["decoder.search_s"] += search
        c[f"{config.mode}.columns"] += columns
        c[f"{config.mode}.search_s"] += search
        return stream

    def events(name):
        def timed(stream, *args, **kwargs):
            found = tr.call("decoder.events", stream.utt_id, o[name], stream, *args, **kwargs)
            tr.counts["decoder.events"] += len(found)
            return found
        return timed

    def scorestream_record(stream, *args, **kwargs):
        return tr.call("decoder.record", stream.utt_id, o["scorestream_record"], stream, *args, **kwargs)

    def recall_at_far(pos_scores, neg_scores, *args, **kwargs):
        rar = tr.call("metrics.recall", "", o["recall_at_far"], pos_scores, neg_scores, *args, **kwargs)
        # recall_at_far walks the distinct finite observed scores upwards and
        # stops at the first that meets the budget.
        finite = sorted({s for s in [*pos_scores, *neg_scores] if s not in (NEG_INF, float("inf"))})
        tr.counts["metrics.thresholds_swept"] += (
            finite.index(rar.threshold) + 1 if rar.threshold in finite else len(finite)
        )
        return rar

    def plain(span: str, name: str):
        return lambda *args, **kwargs: tr.call(span, "", o[name], *args, **kwargs)

    def transcribe(span: str, name: str):
        def timed(oracle_, *args, **kwargs):
            tr.counts["baselines.frames"] += oracle_.num_frames
            utt_id = synth_ids.get(getattr(oracle_, "config", None), "")
            return tr.call(span, utt_id, o[name], oracle_, *args, **kwargs)
        return timed

    return {
        "load_manifest": load_manifest,
        "decode_suite": decode_suite,
        "bench": bench,
        "load_lattice": load_lattice,
        "SyntheticOracle": synthetic_oracle,
        "decode_kws": decode_kws,
        "detect_events": events("detect_events"),
        "peak_events": events("peak_events"),
        "scorestream_record": scorestream_record,
        "recall_at_far": recall_at_far,
        "macro_recall": plain("metrics.macro", "macro_recall"),
        "speedup": plain("metrics.speedup", "speedup"),
        "greedy_search": transcribe("baselines.greedy", "greedy_search"),
        "beam_search": transcribe("baselines.beam", "beam_search"),
        "keyword_hit": plain("baselines.hit", "keyword_hit"),
    }


@contextlib.contextmanager
def instrument(tracer: Tracer, wrap_oracles: bool, suite):
    """Swap timing wrappers into every ``kws`` module that holds a wrapped name.

    ``suite``'s utterances give span ids to the oracles built from their
    ``SyntheticJoinerConfig``. Yields the names swapped; every swap is undone
    on exit.
    """
    import kws

    originals = {name: getattr(kws, name) for name in (
        "load_manifest", "decode_suite", "bench", "load_lattice", "SyntheticOracle", "decode_kws",
        "detect_events", "scorestream_record", "recall_at_far", "macro_recall", "speedup",
        "greedy_search", "beam_search", "keyword_hit",
    )}
    from kws.decoder import peak_events

    originals["peak_events"] = peak_events
    synth_ids = {u.synth: u.utt_id for u in suite.utterances}
    wrappers = _wrappers(tracer, originals, wrap_oracles, synth_ids)
    swapped = []
    modules = [m for n, m in sys.modules.items() if n == "kws" or n.startswith("kws.")]
    try:
        for module in modules:
            for name, original in originals.items():
                if getattr(module, name, None) is original:
                    setattr(module, name, wrappers[name])
                    swapped.append((module, name, original))
        yield sorted({f"{m.__name__}.{n}" for m, n, _ in swapped})
    finally:
        for module, name, original in swapped:
            setattr(module, name, original)


# Per-layer metrics: name -> (unit, better). Counts that describe the input
# or a deterministic output should not move at all.
PER_LAYER = {
    "suite.gen_s": ("s", "lower"),
    "suite.load_manifest_s": ("s", "lower"),
    "suite.lattice_bytes_written": ("bytes", "lower"),
    "suite.utterances": ("count", "higher"),
    "suite.frames": ("frames", "higher"),
    "lattice.load_calls": ("count", "lower"),
    "lattice.load_s": ("s", "lower"),
    "lattice.bytes_read": ("bytes", "lower"),
    "lattice.rows_calls": ("count", "lower"),
    "lattice.rows_s": ("s", "lower"),
    "lattice.greedy_calls": ("count", "lower"),
    "lattice.greedy_s": ("s", "lower"),
    "synthetic.oracles_built": ("count", "lower"),
    "synthetic.build_s": ("s", "lower"),
    "synthetic.oracle_reuse": ("ratio", "higher"),
    "synthetic.rows_calls": ("count", "lower"),
    "synthetic.rows_s": ("s", "lower"),
    "synthetic.greedy_calls": ("count", "lower"),
    "synthetic.greedy_s": ("s", "lower"),
    "synthetic.greedy_reuse": ("ratio", "higher"),
    "synthetic.token_probs_calls": ("count", "lower"),
    "synthetic.token_probs_s": ("s", "lower"),
    "synthetic.duration_probs_calls": ("count", "lower"),
    "synthetic.duration_probs_s": ("s", "lower"),
    "decoder.decodes": ("count", "lower"),
    "decoder.decode_s": ("s", "lower"),
    "decoder.self_s": ("s", "lower"),
    "decoder.search_s": ("s", "lower"),
    "decoder.frames": ("frames", "higher"),
    "decoder.columns": ("count", "lower"),
    "decoder.skip_frac": ("ratio", "higher"),
    "decoder.oracle_queries": ("count", "lower"),
    "decoder.events_calls": ("count", "lower"),
    "decoder.events_s": ("s", "lower"),
    "decoder.events": ("count", "higher"),
    "decoder.record_s": ("s", "lower"),
    "runner.entry_s": ("s", "lower"),
    "runner.self_s": ("s", "lower"),
    "runner.rnnt_total_s": ("s", "lower"),
    "runner.tdt_total_s": ("s", "lower"),
    "runner.relative_running": ("ratio", "higher"),
    "runner.relative_search": ("ratio", "higher"),
    "runner.column_ratio": ("ratio", "higher"),
    "metrics.recall_calls": ("count", "lower"),
    "metrics.recall_s": ("s", "lower"),
    "metrics.thresholds_swept": ("count", "lower"),
    "baselines.greedy_calls": ("count", "lower"),
    "baselines.greedy_s": ("s", "lower"),
    "baselines.beam_calls": ("count", "lower"),
    "baselines.beam_s": ("s", "lower"),
    "baselines.hit_s": ("s", "lower"),
    "baselines.token_queries_per_frame": ("1/frame", "lower"),
    "cli.serialize_s": ("s", "lower"),
    "cli.bytes_out": ("bytes", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(
    setup: Tracer,
    leaf: Tracer,
    oracle: Tracer,
    suite_stats: dict,
    totals: dict,
    untraced_wall_s: float,
) -> dict[str, float]:
    """Every PER_LAYER metric; layers a workload does not use report 0.

    ``totals`` holds each mode's total and search seconds and columns, from
    the bench report's own counters; empty for decode, whose commands run
    one mode each, so the leaf pass gives them.
    """
    spans = leaf.summary()
    busy = lambda name: spans.get(name, (0, 0.0))[1]  # noqa: E731
    calls = lambda name: spans.get(name, (0, 0.0))[0]  # noqa: E731
    c = leaf.counts
    q = oracle.queries
    setup_spans = setup.summary()
    if not totals:
        # The runner charges a decode with its lattice load (SpeedCounters).
        charged = leaf.busy_by_root(("lattice.load", "decoder.decode"))
        totals = {f"{mode}_{key}": value for mode in ("rnnt", "tdt") for key, value in (
            ("total_s", charged[mode]), ("search_s", c[f"{mode}.search_s"]),
            ("columns", c[f"{mode}.columns"]),
        )}
    m = {
        "suite.gen_s": setup_spans["suite.gen"][1],
        "suite.load_manifest_s": setup_spans["suite.load_manifest"][1],
        "suite.lattice_bytes_written": suite_stats["bytes"],
        "suite.utterances": suite_stats["utterances"],
        "suite.frames": suite_stats["frames"],
        "lattice.load_calls": calls("lattice.load"),
        "lattice.load_s": busy("lattice.load"),
        "lattice.bytes_read": c["lattice.bytes_read"],
        "lattice.rows_calls": q["lattice.rows"][0],
        "lattice.rows_s": q["lattice.rows"][1],
        "lattice.greedy_calls": q["lattice.greedy"][0],
        "lattice.greedy_s": q["lattice.greedy"][1],
        "synthetic.oracles_built": calls("synthetic.build"),
        "synthetic.build_s": busy("synthetic.build"),
        "synthetic.oracle_reuse": _ratio(len(leaf.utts_built), calls("synthetic.build")),
        "synthetic.rows_calls": q["synthetic.rows"][0],
        "synthetic.rows_s": q["synthetic.rows"][1],
        "synthetic.greedy_calls": q["synthetic.greedy"][0],
        "synthetic.greedy_s": q["synthetic.greedy"][1],
        "synthetic.greedy_reuse": _ratio(
            len(oracle.greedy_steps["synthetic"]), q["synthetic.greedy"][0]
        ),
        "synthetic.token_probs_calls": q["synthetic.token_probs"][0],
        "synthetic.token_probs_s": q["synthetic.token_probs"][1],
        "synthetic.duration_probs_calls": q["synthetic.duration_probs"][0],
        "synthetic.duration_probs_s": q["synthetic.duration_probs"][1],
        "decoder.decodes": calls("decoder.decode"),
        "decoder.decode_s": busy("decoder.decode"),
        # The oracle pass's own wrapping slows its decodes, so its query
        # time is taken from the leaf pass's decode time.
        "decoder.self_s": busy("decoder.decode") - oracle.counts["decoder.oracle_s"],
        "decoder.search_s": c["decoder.search_s"],
        "decoder.frames": c["decoder.frames"],
        "decoder.columns": c["decoder.columns"],
        "decoder.skip_frac": 1.0 - _ratio(c["decoder.columns"], c["decoder.frames"]),
        "decoder.oracle_queries": c["decoder.oracle_queries"],
        "decoder.events_calls": calls("decoder.events"),
        "decoder.events_s": busy("decoder.events"),
        "decoder.events": c["decoder.events"],
        "decoder.record_s": busy("decoder.record"),
        "runner.entry_s": sum(busy(name) for name in ENTRY),
        "runner.self_s": leaf.self_seconds(ENTRY),
        "runner.rnnt_total_s": totals["rnnt_total_s"],
        "runner.tdt_total_s": totals["tdt_total_s"],
        "runner.relative_running": _ratio(totals["rnnt_total_s"], totals["tdt_total_s"]),
        "runner.relative_search": _ratio(totals["rnnt_search_s"], totals["tdt_search_s"]),
        "runner.column_ratio": _ratio(totals["rnnt_columns"], totals["tdt_columns"]),
        "metrics.recall_calls": calls("metrics.recall"),
        "metrics.recall_s": busy("metrics.recall"),
        "metrics.thresholds_swept": c["metrics.thresholds_swept"],
        "baselines.greedy_calls": calls("baselines.greedy"),
        "baselines.greedy_s": busy("baselines.greedy"),
        "baselines.beam_calls": calls("baselines.beam"),
        "baselines.beam_s": busy("baselines.beam"),
        "baselines.hit_s": busy("baselines.hit"),
        "baselines.token_queries_per_frame": _ratio(
            q["synthetic.token_probs"][0], oracle.counts["baselines.frames"]
        ),
        "cli.serialize_s": leaf.self_seconds(("cli.decode", "cli.bench")),
        "cli.bytes_out": c["cli.bytes_out"],
        "trace.overhead_s": oracle.root_seconds() - untraced_wall_s,
    }
    assert list(m) == list(PER_LAYER)
    return m
