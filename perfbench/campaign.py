"""The ``table1_campaign`` workload: every Table-I torrent through the
campaign runner, cold into a fresh cache, then warm from it.

The cold phase executes each shard in one of two worker processes, which
simulate and write the shard's trace into the cache.  A warm repetition
reruns the campaign (every shard must be a cache hit), serves every shard
from the cache through ``execute_shard`` (load, decode and replay the
trace into the live instrumentation) and computes the Fig. 1 entropy
summary of each.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import shutil
import time
from multiprocessing.connection import wait as wait_for_exit
from pathlib import Path
from typing import Optional

from perfbench.calibration import Calibration, StepTimer
from perfbench.harness import (
    WORK_DIR, Report, add_layer_counters, layer_table, log, peak_rss_mb,
)
from perfbench.spans import EngineSpans, SpanRecorder, traced
from perfbench.stats import median

WORKERS = 2
SIZES = {
    "full": {"torrents": None, "duration": 30.0, "min_warm": 3, "setup_reps": 40},
    "smoke": {"torrents": (2, 3), "duration": 10.0, "min_warm": 2, "setup_reps": 5},
}


def campaign_spec(seed: int, size: dict):
    from repro.campaign.spec import PAPER_TORRENT_IDS, CampaignSpec

    return CampaignSpec(
        name="perfbench-table1",
        torrent_ids=size["torrents"] or PAPER_TORRENT_IDS,
        scenarios=("smoke",),
        replicates=1,
        campaign_seed=seed,
        duration=size["duration"],
    )


def prepare(spec, cache_dir: Path):
    """What a campaign does before dispatching: expand the spec, derive
    every shard's cache key and look each up in a fresh cache."""
    from repro.campaign.cache import ShardCache, shard_cache_key
    from repro.campaign.spec import expand_spec

    shards = expand_spec(spec)
    cache = ShardCache(cache_dir)
    misses = [shard for shard in shards if cache.load(shard_cache_key(shard)) is None]
    return shards, misses


def traced_shard(payload: dict) -> dict:
    """Worker-side executor of the traced cold pass: runs the shard with
    the layer wrappers installed in the worker and returns the span
    aggregates next to the record (the cached record is untouched)."""
    from repro.campaign import runner as runner_module

    recorder = SpanRecorder(cap=0)
    original_build = runner_module.build_experiment
    built = []

    def build_with_engine_spans(*args, **kwargs):
        with recorder.span("workloads.build"):
            harness = original_build(*args, **kwargs)
        built.append((harness, EngineSpans(recorder)))
        harness.swarm.simulator.set_profiler(built[-1][1])
        return harness

    runner_module.build_experiment = build_with_engine_spans
    try:
        with traced(recorder):
            with recorder.span("campaign.shard"):
                record = runner_module.run_shard_payload(payload)
    finally:
        runner_module.build_experiment = original_build
    for harness, engine_spans in built:
        swarm = harness.swarm
        recorder.count("allocate.ticks", int(swarm.simulator.now // swarm.config.tick_interval))
        recorder.counters["engine.queue_depth_max"] = engine_spans.queue_depth_max
    record = dict(record)
    record["perfbench_layers"] = {
        "aggregates": recorder.aggregates(),
        "counters": recorder.counters,
    }
    return record


def trace_footer_fingerprint(path: Path) -> Optional[str]:
    """The fingerprint stored in a JSONL trace's ``trace_end`` footer."""
    with open(path, "rb") as handle:
        handle.seek(0, 2)
        handle.seek(max(0, handle.tell() - 4096))
        last = handle.read().splitlines()[-1]
    footer = json.loads(last)
    return footer.get("fingerprint") if footer.get("type") == "trace_end" else None


_WORKER_CALIBRATION: Optional[Calibration] = None


def calibrated_shard(payload: dict) -> dict:
    """Worker-side executor of the timed cold phase: runs the shard as one
    step calibrated by samples taken in the same worker just before and
    just after it, and returns the step's raw and calibrated seconds next
    to the record (the cached record is untouched)."""
    from repro.campaign import runner as runner_module

    global _WORKER_CALIBRATION
    if _WORKER_CALIBRATION is None:
        _WORKER_CALIBRATION = Calibration()
    timer = StepTimer(_WORKER_CALIBRATION)
    record = dict(timer.step("shard", runner_module.run_shard_payload, payload))
    record["perfbench_step_s"] = timer.steps["shard"][0]
    return record


def run_cold(report: Report, spec, cache_dir: Path, executor=None):
    """The cold phase; returns the campaign result and its wall seconds."""
    from repro.campaign.runner import CampaignRunner

    chosen = {} if executor is None else {"executor": executor}
    runner = CampaignRunner(spec, cache_dir=str(cache_dir), workers=WORKERS, **chosen)
    gc.collect()
    started = time.perf_counter()
    result = runner.run()
    wall = time.perf_counter() - started
    # The pool is shut down without waiting: wait here until its workers
    # have exited (their sentinels close whoever reaps them), so none
    # outlives the run.
    pending = [child.sentinel for child in multiprocessing.active_children()]
    deadline = time.monotonic() + 60.0
    while pending and time.monotonic() < deadline:
        ready = wait_for_exit(pending, timeout=deadline - time.monotonic())
        pending = [sentinel for sentinel in pending if sentinel not in ready]
    report.outcome.check(not pending, "%d campaign workers did not exit" % len(pending))
    counts = result.counts
    shards = counts["shards"]
    report.outcome.check(
        counts["ok"] == shards and counts["executed"] == shards,
        "cold campaign: %r" % (counts,),
    )
    return result, wall


def run_warm(report: Report, spec, cache_dir: Path, cold, recorder: Optional[SpanRecorder]):
    """One warm repetition; returns its wall seconds."""
    from repro.analysis.entropy import summarize_entropy
    from repro.campaign.cache import ShardCache
    from repro.campaign.runner import CampaignRunner, execute_shard
    from repro.campaign.spec import expand_spec

    gc.collect()
    started = time.perf_counter()
    result = CampaignRunner(spec, cache_dir=str(cache_dir), workers=WORKERS).run()
    cache = ShardCache(cache_dir)
    served = {}
    for shard in expand_spec(spec):
        record, instrumentation = execute_shard(
            shard, cache=cache, resume=True, want_instrumentation=True
        )
        if recorder is None:
            summary = summarize_entropy(instrumentation)
        else:
            with recorder.span("campaign.analysis"):
                summary = summarize_entropy(instrumentation)
        served[shard.shard_id] = (record, summary)
    wall = time.perf_counter() - started
    counts = result.counts
    report.outcome.check(
        result.fingerprint == cold.fingerprint,
        "warm manifest fingerprint %s != cold %s" % (result.fingerprint, cold.fingerprint),
    )
    report.outcome.check(
        counts["executed"] == 0 and counts["cache_hits"] == counts["shards"],
        "warm campaign executed shards: %r" % (counts,),
    )
    for shard_id, (record, __) in served.items():
        report.outcome.check(
            record.get("cache_hit") is True
            and record["trace_fingerprint"] == cold.records[shard_id]["trace_fingerprint"],
            "%s: served record differs from the cold one" % shard_id,
        )
    return wall


def check_traces(report: Report, cold, cache_dir: Path) -> int:
    """Every cached trace's footer carries its record's fingerprint;
    returns the bytes of trace the warm phase reads per repetition."""
    from repro.campaign.cache import ShardCache

    cache = ShardCache(cache_dir)
    total = 0
    for shard_id, record in sorted(cold.records.items()):
        path = cache.trace_path(record["key"])
        total += path.stat().st_size
        report.outcome.check(
            trace_footer_fingerprint(path) == record["trace_fingerprint"],
            "%s: trace footer does not match the record" % shard_id,
        )
    return total


def simulated_seconds(spec) -> float:
    """Simulated seconds of every shard: the local peer's join time
    (simulated during the build) plus the run window."""
    from repro.campaign.runner import resolve_scenario
    from repro.campaign.spec import expand_spec

    total = 0.0
    for shard in expand_spec(spec):
        scenario = resolve_scenario(shard)
        total += scenario.local_join_time + scenario.duration
    return total


def run_campaign(report: Report, seconds: float) -> Optional[SpanRecorder]:
    size = SIZES[report.size]
    spec = campaign_spec(report.seed, size)
    work = WORK_DIR / ("campaign-%d" % report.seed)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if report.trace:
            return _traced_pass(report, spec, work)
        started = time.perf_counter()
        # Every set-up repetition is a calibrated step.  The cold phase is
        # calibrated by the shards' steps in the workers: its wall time is
        # scaled by the busy-time-weighted host factor they saw.
        timer = report.timer()
        for index in range(size["setup_reps"]):
            target = work / ("setup-%d" % index)
            gc.collect()
            timer.step("setup", prepare, spec, target)
            shutil.rmtree(target)
        cache_dir = work / "cache"
        cold, cold_wall = run_cold(report, spec, cache_dir, calibrated_shard)
        shard_steps = [record["perfbench_step_s"] for record in cold.records.values()]
        cold_calibrated = cold_wall * (
            sum(cal for __, cal in shard_steps) / sum(raw for raw, __ in shard_steps)
        )
        report.notes["cold_shard_steps_s"] = shard_steps
        for setup_raw, __ in timer.steps["setup"]:
            report.sample("setup_s", setup_raw)
        report.sample("cold_s", cold_wall)
        log("table1_campaign cold: %.3f s" % cold_wall)
        trace_bytes = check_traces(report, cold, cache_dir)
        reps = 0
        while True:
            elapsed = time.perf_counter() - started
            if reps >= size["min_warm"] and (
                elapsed + median(report.timings["warm_s"]) > seconds
            ):
                break
            warm = run_warm(report, spec, cache_dir, cold, None)
            reps += 1
            report.sample("warm_s", warm)
        log("table1_campaign warm: %d repetitions, median %.3f s"
            % (reps, median(report.timings["warm_s"])))
        rss = peak_rss_mb(WORKERS)
        report.set_end_to_end(
            {
                "setup_s": median(report.timings["setup_s"]),
                "sim_s_per_wall_s": simulated_seconds(spec) / cold_wall,
                "peak_rss_mb": rss,
            },
            {
                "setup_s": median([cal for __, cal in timer.steps["setup"]]),
                "sim_s_per_wall_s": simulated_seconds(spec) / cold_calibrated,
                "peak_rss_mb": rss,
            },
        )
        report.extra["campaign_cold_s"] = cold_wall
        report.extra["campaign_warm_s"] = median(report.timings["warm_s"])
        _witness(report, cold, trace_bytes)
        return None
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _witness(report: Report, cold, trace_bytes: int) -> None:
    counters = {
        "shards": cold.counts["shards"],
        "executed": cold.counts["executed"],
        "trace_events": sum(r.get("trace_events", 0) for r in cold.records.values()),
        "trace_bytes": trace_bytes,
    }
    report.witnesses = {
        "campaign": {"counters": counters, "fingerprints": {"manifest": cold.fingerprint}}
    }
    report.counters = dict(counters)


def _traced_pass(report: Report, spec, work: Path) -> SpanRecorder:
    """Untraced cold phase, then a traced cold phase (spans recorded in
    the workers) and a traced warm repetition on the same seed."""
    from repro.campaign import runner as runner_module

    plain, plain_wall = run_cold(report, spec, work / "plain")
    plain_warm = run_warm(report, spec, work / "plain", plain, None)
    trace_bytes = check_traces(report, plain, work / "plain")
    recorder = SpanRecorder()
    # No span around the traced cold run: the coordinator only waits on
    # its workers there, and the workers record their own spans.
    spanned, spanned_wall = run_cold(report, spec, work / "traced", traced_shard)
    report.outcome.check(
        spanned.fingerprint == plain.fingerprint,
        "traced cold manifest %s != untraced %s" % (spanned.fingerprint, plain.fingerprint),
    )
    busy = 0.0
    for record in spanned.records.values():
        layers = record.get("perfbench_layers")
        if report.outcome.check(layers is not None, "traced shard lost its spans"):
            recorder.merge(layers["aggregates"], layers["counters"])
        busy += record.get("wall_seconds") or 0.0
    recorder.counters["campaign.executed"] = spanned.counts["executed"]
    recorder.counters["campaign.shard_busy_s"] = busy
    recorder.counters["campaign.dispatch_idle_s"] = WORKERS * spanned_wall - busy
    recorder.counters["trace.bytes"] = trace_bytes
    original_replay = runner_module.replay_instrumentation

    def replay_span(*args, **kwargs):
        with recorder.span("trace.replay"):
            return original_replay(*args, **kwargs)

    runner_module.replay_instrumentation = replay_span
    try:
        with traced(recorder):
            traced_warm = run_warm(report, spec, work / "traced", spanned, recorder)
    finally:
        runner_module.replay_instrumentation = original_replay
    recorder.counters["campaign.cache_hits"] = spanned.counts["shards"]
    log("table1_campaign: cold untraced %.3f s, traced %.3f s; warm %.3f / %.3f s"
        % (plain_wall, spanned_wall, plain_warm, traced_warm))
    report.layers = layer_table(recorder)
    report.layers["traced.overhead_pct"] = 100.0 * (spanned_wall / plain_wall - 1.0)
    report.layers["campaign_cold_s"] = plain_wall
    report.layers["campaign_warm_s"] = plain_warm
    _witness(report, plain, trace_bytes)
    add_layer_counters(report)
    return recorder

