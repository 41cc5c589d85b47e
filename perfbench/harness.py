"""What every workload shares: the report it fills, host facts, the
work-counter ledger, peak memory and the per-layer table."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from typing import Dict, Optional

from perfbench.calibration import Calibration, StepTimer
from perfbench.spans import SpanRecorder
from perfbench.stats import Outcome, summarize

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"
#: Committed witnesses (counters and fingerprints) per workload, size,
#: seed and unit; see :func:`check_expected`.
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

#: Gated metrics: every workload reports each of them.
END_TO_END_UNITS = {
    "setup_s": "s",
    "sim_s_per_wall_s": "sim_s/s",
    "peak_rss_mb": "MB",
}

#: Span name -> (layer, metric for its call count, metric for its
#: inclusive seconds).  ``None`` skips a metric.
SPAN_METRICS = {
    "engine.event": ("engine", "engine.events", "engine.run_s"),
    "connect.join": ("connect", "connect.joins", "connect.join_s"),
    "connect.bitfield": ("connect", "connect.links", "connect.bitfield_s"),
    "have.fanout": ("have", "have.broadcasts", "have.fanout_s"),
    "transfer.advance": ("transfer", "transfer.advance_calls", "transfer.advance_s"),
    "allocate.max_min": ("allocate", "allocate.calls", "allocate.s"),
    "select.next_request": ("select", "select.calls", "select.s"),
    "choke.round": ("choke", "choke.rounds", "choke.round_s"),
    "trace.emit": ("trace", "trace.events", "trace.encode_s"),
    "trace.replay": ("trace", None, "trace.replay_s"),
    "tracker.announce": ("tracker", None, None),
    "tracker.service": ("tracker", None, None),
    "tracker.sample": ("tracker", None, "tracker.sample_s"),
    "tracker.datagram": ("tracker", None, None),
    "campaign.run": ("campaign", None, None),
    "campaign.shard": ("campaign", None, None),
    "campaign.cache_load": ("campaign", None, "campaign.cache_load_s"),
    "campaign.analysis": ("campaign", None, "campaign.analysis_s"),
    "workloads.build": ("workloads", None, "workloads.build_s"),
}

LAYERS = (
    "engine", "connect", "have", "transfer", "allocate", "select",
    "choke", "trace", "tracker", "campaign", "workloads",
)

#: Per-layer metrics (``--trace 1``) and their units.  Workload-specific
#: end-to-end figures ride along here: they are 0 on workloads that do
#: not have the phase they time.
PER_LAYER_UNITS = {
    "engine.events": "count",
    "engine.run_s": "s",
    "engine.queue_depth_max": "count",
    "connect.joins": "count",
    "connect.join_s": "s",
    "connect.links": "count",
    "connect.bitfield_s": "s",
    "have.broadcasts": "count",
    "have.fanout_s": "s",
    "transfer.advance_calls": "count",
    "transfer.advance_s": "s",
    "transfer.local_messages": "count",
    "allocate.calls": "count",
    "allocate.s": "s",
    "allocate.flows_mean": "count",
    "allocate.recompute_ratio": "ratio",
    "select.calls": "count",
    "select.s": "s",
    "select.hit_ratio": "ratio",
    "choke.rounds": "count",
    "choke.round_s": "s",
    "choke.change_ratio": "ratio",
    "trace.events": "count",
    "trace.encode_s": "s",
    "trace.bytes": "bytes",
    "trace.replay_s": "s",
    "tracker.announces": "count",
    "tracker.sample_s": "s",
    "tracker.service_us": "us",
    "tracker.datagram_us": "us",
    "tracker.socket_loop_us": "us",
    "tracker.peers_ratio": "ratio",
    "tracker.generator_lag_ms": "ms",
    "campaign.executed": "count",
    "campaign.cache_hits": "count",
    "campaign.shard_busy_s": "s",
    "campaign.dispatch_idle_s": "s",
    "campaign.cache_load_s": "s",
    "campaign.analysis_s": "s",
    "workloads.build_s": "s",
    "blocks_per_s": "blocks/s",
    "campaign_cold_s": "s",
    "campaign_warm_s": "s",
    "announces_per_s": "1/s",
    "announce_p50_ms": "ms",
    "announce_p99_ms": "ms",
    "traced.overhead_pct": "%",
    "traced.spans": "count",
}
for _layer in LAYERS:
    PER_LAYER_UNITS["%s.self_s" % _layer] = "s"


class Report:
    """Everything one invocation measured and checked."""

    def __init__(self, workload: str, seed: int, size: str, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.size = size
        self.trace = trace
        self.outcome = Outcome()
        self.timings: Dict[str, list] = {}
        self.end_to_end: Dict[str, float] = {}
        self.extra: Dict[str, float] = {}
        self.counters: Dict[str, float] = {}
        #: Unit label (an instance, the campaign, the announce stream) ->
        #: its counters and fingerprints, compared with ``expected.json``.
        self.witnesses: Dict[str, dict] = {}
        self.layers: Dict[str, float] = {}
        self.notes: Dict[str, object] = {}
        self._calibration: Optional[Calibration] = None
        self._timers: list = []

    def sample(self, name: str, seconds: float) -> None:
        self.timings.setdefault(name, []).append(seconds)

    def timer(self) -> StepTimer:
        """A calibrated step timer; its calibration samples go into the
        details file."""
        if self._calibration is None:
            self._calibration = Calibration()
        timer = StepTimer(self._calibration)
        self._timers.append(timer)
        return timer

    def set_end_to_end(self, raw: Dict[str, float], calibrated: Dict[str, float]) -> None:
        """Record the end-to-end metrics: *calibrated* are the gated
        values (durations divided by the host factor of the calibration
        samples taken around them, rates multiplied by it, memory as
        measured); *raw* stay in the details file next to them."""
        self.notes["peak_rss_mb_self_children"] = [
            resource.getrusage(who).ru_maxrss / 1024.0
            for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
        ]
        self.notes["raw_end_to_end"] = dict(raw)
        self.end_to_end.update(calibrated)

    def expect_same(self, name: str, recorded, observed) -> bool:
        """Drift check: *observed* must equal the value recorded before."""
        return self.outcome.check(
            recorded == observed,
            "%s drifted: recorded %r, observed %r" % (name, recorded, observed),
        )

    def metrics(self) -> Dict[str, dict]:
        if self.trace:
            names, values = PER_LAYER_UNITS, self.layers
        else:
            names, values = END_TO_END_UNITS, self.end_to_end
        return {
            name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in names.items()
        }

    def as_json(self) -> dict:
        return {
            "correct": self.outcome.correct,
            "attempted": self.outcome.attempted,
            "failed": self.outcome.failed,
            "metrics": self.metrics(),
        }

    def details(self) -> dict:
        timings = dict(self.timings)
        calibration = [value for timer in self._timers for value in timer.samples]
        if calibration:
            timings["calibration_s"] = calibration
        return {
            "workload": self.workload,
            "seed": self.seed,
            "size": self.size,
            "trace": self.trace,
            "host": host_facts(),
            "result": self.as_json(),
            "failures": self.outcome.failures,
            "timings": {
                name: dict(summarize(values), samples=values)
                for name, values in timings.items()
            },
            "end_to_end": self.end_to_end,
            "workload_figures": self.extra,
            "counters": self.counters,
            "witnesses": self.witnesses,
            "layers": self.layers,
            "notes": self.notes,
        }


# ----------------------------------------------------------------------
# host facts and code identity
# ----------------------------------------------------------------------


def code_digest() -> str:
    """SHA-256 over the program's and the benchmark's Python sources."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", Path(__file__).resolve().parent):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_commit() -> Optional[str]:
    """The checkout's commit, or None outside a git work tree (git is not
    asked then: it would search the directories above the checkout)."""
    if not (ROOT / ".git").exists():
        return None
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return completed.stdout.strip() if completed.returncode == 0 else None


def host_facts() -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "commit": _git_commit(),
        "code_digest": code_digest(),
    }


def peak_rss_mb(children: int = 0) -> float:
    """Peak resident memory of this process plus *children* times the
    largest peak of any child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children * child) / 1024.0


# ----------------------------------------------------------------------
# committed witnesses and the work-counter ledger
# ----------------------------------------------------------------------


def load_expected() -> dict:
    try:
        return json.loads(EXPECTED_PATH.read_text())
    except FileNotFoundError:
        return {}


def check_expected(report: Report, expected: Optional[dict] = None) -> None:
    """Compare every unit's counters and fingerprints with the values
    committed in ``expected.json`` for this workload, size and seed; a
    difference means the program's results changed and fails the run.
    A traced run checks the subset of units it runs.  Seeds without
    committed values are only noted."""
    if expected is None:
        expected = load_expected()
    recorded = expected.get(report.workload, {}).get(report.size, {}).get(str(report.seed))
    if recorded is None:
        report.notes["expected"] = "no committed witnesses for this seed"
        return
    for label, witness in sorted(report.witnesses.items()):
        report.outcome.check(
            recorded.get(label) == witness,
            "%s differs from expected.json: committed %r, observed %r"
            % (label, recorded.get(label), witness),
        )
    report.notes["expected"] = "checked %d units" % len(report.witnesses)


def record_expected(report: Report) -> None:
    """Write this run's witnesses into ``expected.json`` (replacing the
    seed's entry): for seeds added to the gate, or after a change that
    is meant to alter the program's results."""
    expected = load_expected()
    sizes = expected.setdefault(report.workload, {})
    sizes.setdefault(report.size, {})[str(report.seed)] = report.witnesses
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")



def check_ledger(report: Report) -> None:
    """Compare the counters (in a traced run also the per-layer work
    counters) and the witnesses with earlier runs of the same workload,
    seed, size and code in this checkout; a difference is a drift and
    fails the run.  The first run records them."""
    path = OUT_DIR / "ledger.json"
    key = "%s|%s|%d|trace%d|%s" % (
        report.workload, report.size, report.seed, int(report.trace), code_digest()
    )
    entry = {"counters": report.counters, "witnesses": report.witnesses}
    try:
        ledger = json.loads(path.read_text())
    except (OSError, ValueError):
        ledger = {}
    if key in ledger:
        report.expect_same("ledger counters", ledger[key]["counters"], entry["counters"])
        report.expect_same("ledger witnesses", ledger[key]["witnesses"], entry["witnesses"])
        return
    ledger[key] = entry
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".json.%d.tmp" % os.getpid())
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, path)


# ----------------------------------------------------------------------
# per-layer table
# ----------------------------------------------------------------------


def layer_table(recorder: SpanRecorder) -> Dict[str, float]:
    """Per-layer metrics from the span aggregates and counters; metrics
    a workload has no spans for read 0."""
    table: Dict[str, float] = {}
    self_times = {layer: 0.0 for layer in LAYERS}
    for name, entry in recorder.aggregates().items():
        layer, count_metric, seconds_metric = SPAN_METRICS[name]
        self_times[layer] += entry["self_s"]
        if count_metric is not None:
            table[count_metric] = table.get(count_metric, 0.0) + entry["calls"]
        if seconds_metric is not None:
            table[seconds_metric] = table.get(seconds_metric, 0.0) + entry["total_s"]
    for layer, seconds in self_times.items():
        table["%s.self_s" % layer] = seconds
    aggregates = recorder.aggregates()
    counters = recorder.counters

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    table["select.hit_ratio"] = ratio(
        counters.get("select.hits", 0.0), table.get("select.calls", 0.0)
    )
    table["choke.change_ratio"] = ratio(
        counters.get("choke.changes", 0.0), table.get("choke.rounds", 0.0)
    )
    table["allocate.flows_mean"] = ratio(
        counters.get("allocate.flows", 0.0), table.get("allocate.calls", 0.0)
    )
    table["allocate.recompute_ratio"] = ratio(
        table.get("allocate.calls", 0.0), counters.get("allocate.ticks", 0.0)
    )
    table["tracker.announces"] = counters.get("tracker.announces", 0.0)
    table["tracker.peers_ratio"] = ratio(
        counters.get("tracker.returned", 0.0), counters.get("tracker.num_want", 0.0)
    )
    for span, metric in (
        ("tracker.service", "tracker.service_us"),
        ("tracker.datagram", "tracker.datagram_us"),
    ):
        entry = aggregates.get(span)
        if entry and entry["calls"]:
            table[metric] = 1e6 * entry["total_s"] / entry["calls"]
    for name in (
        "engine.queue_depth_max", "trace.bytes", "transfer.local_messages",
        "campaign.executed", "campaign.cache_hits", "campaign.shard_busy_s",
        "campaign.dispatch_idle_s",
    ):
        if name in counters:
            table[name] = counters[name]
    table["traced.spans"] = float(sum(recorder.calls))
    return table


#: Span-based work counters recorded next to the timings of a traced run.
LAYER_COUNTERS = (
    "select.calls", "choke.rounds", "allocate.calls", "connect.links",
    "have.broadcasts", "trace.events", "tracker.announces",
)


def add_layer_counters(report: Report) -> None:
    """Copy the span-based work counters into the run's counters."""
    for name in LAYER_COUNTERS:
        report.counters[name] = report.layers.get(name, 0.0)


def write_outputs(report: Report, recorder: Optional[SpanRecorder]) -> Path:
    """Write the full result (and the spans of a traced run) under
    ``.perfbench_out``; returns the result path."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = "%s-%s-seed%d-trace%d" % (
        report.workload, report.size, report.seed, int(report.trace)
    )
    path = OUT_DIR / (stem + ".json")
    path.write_text(json.dumps(report.details(), indent=1, sort_keys=True) + "\n")
    if recorder is not None:
        recorder.write(OUT_DIR / (stem + ".spans"))
    return path


def log(message: str) -> None:
    """Progress lines go to stderr; stdout carries the result."""
    print(message, file=sys.stderr, flush=True)
