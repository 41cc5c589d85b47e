"""The two simulation workloads: ``paper_t7`` and ``mega_swarm``.

Both run the default (fast) engine.  An *instance* is one input set made
from the seed: it is built (set-up, timed on its own), run over a fixed
simulated window (timed, in equal chunks with the calibration work
between them) and checked.  Repeating an instance must give the same
counters and fingerprints; a difference is a drift and fails the run.
"""

from __future__ import annotations

import gc
import hashlib
import time
from random import Random
from typing import Dict, List, Optional

from perfbench.calibration import StepTimer
from perfbench.harness import Report, add_layer_counters, layer_table, log, peak_rss_mb
from perfbench.spans import EngineSpans, SpanRecorder, traced
from perfbench.stats import median

#: Sizes: ``full`` is the benchmark, ``smoke`` the self-test size.
PAPER_SIZES = {
    "full": {"instances": 8, "window": 50.0, "chunks": 10, "traced_instances": 4},
    "smoke": {"instances": 2, "window": 5.0, "chunks": 2, "traced_instances": 1},
}
MEGA_SIZES = {
    "full": {"leechers": 1000, "pieces": 2048, "initial_pieces": 5, "arrivals": 60.0,
             "window": 40.0, "chunks": 20, "instances": 2, "traced_instances": 1,
             "extra_builds": 6},
    "smoke": {"leechers": 40, "pieces": 64, "initial_pieces": 1, "arrivals": 4.0,
              "window": 8.0, "chunks": 2, "instances": 2, "traced_instances": 1,
              "extra_builds": 1},
}
PAPER_TORRENT = 7


def sub_seeds(label: str, seed: int, count: int) -> List[int]:
    """*count* instance seeds derived from the run seed."""
    rng = Random("%s:%d" % (label, seed))
    return [rng.getrandbits(32) for __ in range(count)]


def piece_set_fingerprint(swarm) -> str:
    """Digest of every online peer's piece set, by address."""
    digest = hashlib.sha256()
    for address in sorted(swarm.peers):
        digest.update(address.encode())
        digest.update(swarm.peers[address].bitfield.to_bytes())
    return digest.hexdigest()


def run_window(timer: StepTimer, swarm, window: float, chunks: int, finish):
    """Advance *swarm* by *window* simulated seconds in *chunks* equal
    steps of the ``run`` phase; *finish* (``Swarm.run`` or the harness's
    ``run``) takes the last step, and its result is returned."""
    simulator = swarm.simulator
    start = simulator.now
    for index in range(1, chunks):
        timer.step("run", swarm.run, start + window * index / chunks - simulator.now)
    return timer.step("run", finish, start + window - simulator.now)


def conserved(result) -> bool:
    """Every byte uploaded was downloaded by someone (fluid, so within a
    relative 1e-9)."""
    up = sum(result.bytes_uploaded.values())
    down = sum(result.bytes_downloaded.values())
    return abs(up - down) <= 1e-9 * max(1.0, up)


# ----------------------------------------------------------------------
# paper_t7
# ----------------------------------------------------------------------


def paper_instance(
    seed: int, size: dict, timer: StepTimer, recorder: Optional[SpanRecorder] = None
) -> dict:
    """Build torrent 7 with an in-memory trace on the local peer, run the
    window, then replay the trace and compute the Fig. 1 summary."""
    from repro.analysis.entropy import summarize_entropy
    from repro.instrumentation.replay import replay_instrumentation
    from repro.instrumentation.trace import TraceRecorder
    from repro.workloads.torrents import build_experiment, scenario_by_id

    scenario = scenario_by_id(PAPER_TORRENT)
    trace = TraceRecorder()
    def build():
        if recorder is None:
            return build_experiment(scenario, seed=seed, trace_recorder=trace)
        with recorder.span("workloads.build"):
            return build_experiment(scenario, seed=seed, trace_recorder=trace)

    gc.collect()
    harness = timer.step("setup", build)
    swarm = harness.swarm
    simulator = swarm.simulator
    engine_spans = None
    if recorder is not None:
        engine_spans = EngineSpans(recorder)
        simulator.set_profiler(engine_spans)
    moved_before = swarm.result.bytes_moved
    live = run_window(timer, swarm, size["window"], size["chunks"], harness.run)
    trace_fingerprint = trace.close()
    simulator.set_profiler(None)
    finished = time.perf_counter()
    if recorder is None:
        replayed = replay_instrumentation(trace)
        summary = summarize_entropy(replayed)
    else:
        with recorder.span("trace.replay"):
            replayed = replay_instrumentation(trace)
        with recorder.span("campaign.analysis"):
            summary = summarize_entropy(replayed)
    analysed = time.perf_counter()
    live_summary = summarize_entropy(live)
    block_size = swarm.metainfo.geometry.block_size
    window_blocks = (swarm.result.bytes_moved - moved_before) / block_size
    trace_bytes = sum(len(line) + 1 for line in trace.lines())
    if recorder is not None:
        recorder.count("allocate.ticks", int(simulator.now // swarm.config.tick_interval))
        recorder.count("transfer.local_messages", live.messages_sent)
        recorder.count("trace.bytes", trace_bytes)
        recorder.counters["engine.queue_depth_max"] = max(
            recorder.counters.get("engine.queue_depth_max", 0),
            engine_spans.queue_depth_max,
        )
    return {
        "warm_s": analysed - finished,
        "window_blocks": window_blocks,
        "replay_matches": (
            replayed.messages_sent == live.messages_sent
            and summary.local_in_remote == live_summary.local_in_remote
            and summary.remote_in_local == live_summary.remote_in_local
        ),
        "conserved": conserved(swarm.result),
        "counters": {
            "events": simulator.events_processed,
            "local_messages": live.messages_sent,
            "trace_events": trace.events_emitted,
            "trace_bytes": trace_bytes,
            "announces": swarm.tracker.announce_count,
            "blocks_moved": int(swarm.result.bytes_moved // block_size),
        },
        "fingerprints": {
            "piece_sets": piece_set_fingerprint(swarm),
            "bytes_moved": repr(swarm.result.bytes_moved),
            "local_trace": trace_fingerprint,
        },
    }


def _check_instance(report: Report, label: str, result: dict) -> None:
    report.outcome.check(result["conserved"], "%s: uploaded != downloaded" % label)
    if "replay_matches" in result:
        report.outcome.check(
            result["replay_matches"], "%s: replayed trace differs from live run" % label
        )


def _record_or_compare(report: Report, recorded: Dict[str, dict], label: str, result: dict):
    """First sight of an instance records its counters and fingerprints;
    every repeat must reproduce them exactly."""
    witness = {"counters": result["counters"], "fingerprints": result["fingerprints"]}
    if label not in recorded:
        recorded[label] = witness
        return
    report.expect_same("%s counters" % label, recorded[label]["counters"], witness["counters"])
    report.expect_same(
        "%s fingerprints" % label, recorded[label]["fingerprints"], witness["fingerprints"]
    )


def _witness(report: Report, recorded: Dict[str, dict]) -> None:
    """Each instance is a unit of the committed witnesses; the counters
    are summed over them."""
    report.witnesses = recorded
    counters: Dict[str, float] = {}
    for label in sorted(recorded):
        for name, value in recorded[label]["counters"].items():
            counters[name] = counters.get(name, 0) + value
    report.counters = counters


def run_instances(
    report: Report, seeds: List[int], window: float, seconds: float, instance,
):
    """Timed run shared by both workloads: one pass over every instance,
    then repeats (instance 0 first) while the budget lasts.  Each repeat
    is a drift check and one more sample for that instance's median; the
    rate is the windows' total over the medians' total.  Every
    step of an instance (each build, each chunk of the window) is
    calibrated by the calibration samples on both sides of it."""
    recorded: Dict[str, dict] = {}
    walls: Dict[int, List[float]] = {}
    calibrated_walls: Dict[int, List[float]] = {}
    calibrated_setups: List[float] = []
    blocks: Dict[int, float] = {}
    order = list(range(len(seeds)))
    started = time.perf_counter()
    repeat = 0
    while True:
        if order:
            index = order.pop(0)
        else:
            index = repeat % len(seeds)
            elapsed = time.perf_counter() - started
            if elapsed * (1.0 + 1.0 / (len(seeds) + repeat)) > seconds:
                break
            repeat += 1
        label = "instance%d" % index
        timer = report.timer()
        result = instance(seeds[index], timer, None)
        _check_instance(report, label, result)
        _record_or_compare(report, recorded, label, result)
        run_raw, run_calibrated = timer.total("run")
        walls.setdefault(index, []).append(run_raw)
        calibrated_walls.setdefault(index, []).append(run_calibrated)
        blocks[index] = result["window_blocks"]
        for setup_raw, setup_calibrated in timer.steps["setup"]:
            report.sample("setup_s", setup_raw)
            calibrated_setups.append(setup_calibrated)
        report.sample("run_s", run_raw)
        if "warm_s" in result:
            report.sample("warm_s", result["warm_s"])
        log("%s %s: setup %.3f s, run %.3f s (calibrated %.3f s)"
            % (report.workload, label, timer.steps["setup"][0][0], run_raw, run_calibrated))
    wall = sum(median(walls[index]) for index in walls)
    calibrated_wall = sum(median(calibrated_walls[index]) for index in walls)
    rss = peak_rss_mb()
    report.set_end_to_end(
        {
            "setup_s": median(report.timings["setup_s"]),
            "sim_s_per_wall_s": window * len(walls) / wall,
            "peak_rss_mb": rss,
        },
        {
            "setup_s": median(calibrated_setups),
            "sim_s_per_wall_s": window * len(walls) / calibrated_wall,
            "peak_rss_mb": rss,
        },
    )
    report.extra["blocks_per_s"] = sum(blocks.values()) / wall
    _witness(report, recorded)


def run_paper(report: Report, seconds: float) -> Optional[SpanRecorder]:
    size = PAPER_SIZES[report.size]
    seeds = sub_seeds("paper_t7", report.seed, size["instances"])

    def instance(instance_seed, timer, recorder):
        return paper_instance(instance_seed, size, timer, recorder)

    if report.trace:
        return _traced_pass(report, seeds[: size["traced_instances"]], instance)
    run_instances(report, seeds, size["window"], seconds, instance)
    report.extra["campaign_warm_s"] = median(report.timings["warm_s"])
    return None


# ----------------------------------------------------------------------
# mega_swarm
# ----------------------------------------------------------------------


def build_mega(seed: int, size: dict):
    """One seed plus ``size["leechers"]`` arrivals evenly spaced over the
    first ``size["arrivals"]`` seconds, one-block 16 KiB pieces.  Each
    leecher arrives holding ``size["initial_pieces"]`` pieces drawn by
    *seed* and uploads at 4, 8, 12 or 16 KiB/s, a quarter each, in an
    order shuffled by *seed*; the seed uploads at 128 KiB/s.

    Leechers that arrive empty depend on the one seed until pieces
    spread, and when that happens varies so much with the seed that the
    blocks moved in the window ranged over a factor of four.  A few
    pieces each give every pair of leechers something to trade from the
    start, so the transfer volume is set by the capacities (within 2 %
    across seeds); the low capacities keep it near 7000 blocks, so
    joins, bitfields and the HAVE fan-out stay the bulk of the work."""
    from repro.protocol.bitfield import Bitfield
    from repro.protocol.metainfo import make_metainfo
    from repro.sim.config import KIB, PeerConfig, SwarmConfig
    from repro.sim.swarm import Swarm

    pieces, leechers = size["pieces"], size["leechers"]
    metainfo = make_metainfo(
        "perfbench-mega-%d" % pieces, num_pieces=pieces,
        piece_size=16 * KIB, block_size=16 * KIB,
    )
    swarm = Swarm(metainfo, SwarmConfig(seed=seed))
    rng = Random(seed)
    capacities = [(4, 8, 12, 16)[index % 4] for index in range(leechers)]
    rng.shuffle(capacities)
    swarm.add_peer(config=PeerConfig(upload_capacity=128 * KIB), is_seed=True)
    for index, capacity in enumerate(capacities):
        have = rng.sample(range(pieces), size["initial_pieces"])
        swarm.schedule_arrival(
            size["arrivals"] * index / leechers,
            config=PeerConfig(upload_capacity=capacity * KIB),
            initial_bitfield=Bitfield(pieces, have=have),
        )
    return swarm


def mega_instance(
    seed: int, size: dict, timer: StepTimer, recorder: Optional[SpanRecorder] = None
) -> dict:
    def build():
        if recorder is None:
            return build_mega(seed, size)
        with recorder.span("workloads.build"):
            return build_mega(seed, size)

    gc.collect()
    swarm = timer.step("setup", build)
    simulator = swarm.simulator
    engine_spans = None
    if recorder is not None:
        engine_spans = EngineSpans(recorder)
        simulator.set_profiler(engine_spans)
    result = run_window(timer, swarm, size["window"], size["chunks"], swarm.run)
    simulator.set_profiler(None)
    block_size = swarm.metainfo.geometry.block_size
    if recorder is not None:
        recorder.count("allocate.ticks", int(simulator.now // swarm.config.tick_interval))
        recorder.counters["engine.queue_depth_max"] = max(
            recorder.counters.get("engine.queue_depth_max", 0),
            engine_spans.queue_depth_max,
        )
    return {
        "window_blocks": result.bytes_moved / block_size,
        "conserved": conserved(result),
        "counters": {
            "events": simulator.events_processed,
            "announces": swarm.tracker.announce_count,
            "online_peers": len(swarm.peers),
            "blocks_moved": int(result.bytes_moved // block_size),
        },
        "fingerprints": {
            "piece_sets": piece_set_fingerprint(swarm),
            "bytes_moved": repr(result.bytes_moved),
        },
    }


def run_mega(report: Report, seconds: float) -> Optional[SpanRecorder]:
    size = MEGA_SIZES[report.size]
    seeds = sub_seeds("mega_swarm", report.seed, size["instances"])

    def instance(instance_seed, timer, recorder):
        if recorder is None:
            # The build alone is quick: time a few more for a steadier median.
            for __ in range(size["extra_builds"]):
                gc.collect()
                timer.step("setup", build_mega, instance_seed, size)
        return mega_instance(instance_seed, size, timer, recorder)

    if report.trace:
        return _traced_pass(report, seeds[: size["traced_instances"]], instance)
    run_instances(report, seeds, size["window"], seconds, instance)
    return None


# ----------------------------------------------------------------------
# traced pass (both workloads)
# ----------------------------------------------------------------------


def _traced_pass(report: Report, seeds: List[int], instance):
    """Untraced then traced run of each instance on the same seed: the
    fingerprints and counters must agree, the wall-time ratio is the
    tracing overhead."""
    recorded: Dict[str, dict] = {}
    recorder = SpanRecorder()
    plain_wall = traced_wall = 0.0
    plain_blocks = 0.0
    warm: List[float] = []
    for index, instance_seed in enumerate(seeds):
        label = "instance%d" % index
        plain_timer, traced_timer = StepTimer(), StepTimer()
        plain = instance(instance_seed, plain_timer, None)
        _check_instance(report, label, plain)
        _record_or_compare(report, recorded, label, plain)
        with traced(recorder):
            spanned = instance(instance_seed, traced_timer, recorder)
        _check_instance(report, label + " traced", spanned)
        _record_or_compare(report, recorded, label, spanned)
        plain_run = plain_timer.total("run")[0]
        traced_run = traced_timer.total("run")[0]
        plain_wall += plain_run
        traced_wall += traced_run
        plain_blocks += plain["window_blocks"]
        if "warm_s" in plain:
            warm.append(plain["warm_s"])
        log("%s %s: untraced %.3f s, traced %.3f s"
            % (report.workload, label, plain_run, traced_run))
    report.layers = layer_table(recorder)
    report.layers["traced.overhead_pct"] = 100.0 * (traced_wall / plain_wall - 1.0)
    report.layers["blocks_per_s"] = plain_blocks / plain_wall
    if warm:
        report.layers["campaign_warm_s"] = median(warm)
    _witness(report, recorded)
    add_layer_counters(report)
    return recorder
