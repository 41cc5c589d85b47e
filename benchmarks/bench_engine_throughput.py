"""Engine throughput benchmark: simulated events/sec across swarm sizes.

Unlike the figure/table benchmarks (which reproduce paper artefacts),
this one measures the *simulator itself*: how fast the event engine,
piece picker and fluid bandwidth loop chew through a swarm.  Each swarm
size runs three times on the same seed:

- ``naive``   — O(num_pieces) selection (``use_rarity_index=False``)
  with every mega-swarm fast path pinned off (``REFERENCE_EXTRA``),
  the pre-index baseline;
- ``indexed`` — incremental rarity index, fast paths still pinned off:
  this reproduces the pre-mega-swarm hot path byte for byte, so the
  committed baseline numbers stay comparable across PRs;
- ``fast``    — default configuration (``extra={}``): availability
  matrix, numpy max-min allocator, fused HAVE fan-out.

Because all three paths are trace-equivalent, the runs execute the
identical event sequence: the recorded ``speedup_indexed_over_naive``
and ``speedup_fast_over_indexed`` are pure hot-path cost, not workload
drift.

The medium swarm additionally measures structured-tracing overhead
(``tracing_overhead_pct``): the indexed run with a ``TracingObserver``
on one peer (the default ``repro run --trace`` configuration, budget
< 25%) and on every peer (the ``--trace-all`` worst case,
informational), asserting that tracing leaves the swarm's final piece
sets byte-identical.  It also records ``--trace-all`` overhead on the
*fast* run, judged against the untraced fast run.

A ``streaming`` tier re-runs the medium swarm as a streaming workload:
every peer carries the playback model and picks pieces through the
sequential-window selector, whose playback-position binding puts
time-dependent state on the selection hot path.  It measures the same
naive/indexed/fast differential as the other tiers and asserts trace
equivalence (plus identical playback outcomes), gating the fast
engine's non-rarest selector dispatch at benchmark scale.

An ``open_system`` tier runs the flash-crowd stability workload: every
leecher departs the instant it completes, selection goes through the
mode-suppression strategy (whose scarcity-oracle binding and optional
offer-declines sit on the selection hot path), and a read-only
``StabilityDetector`` samples the swarm throughout.  The tier measures
the same naive/indexed/fast differential and asserts trace equivalence
*and* identical stability verdicts across the three engine paths.

An ``xlarge`` mega-swarm tier (1000 leechers + 1 seed) runs the fast
configuration only — the reference path would take tens of minutes.
``--skip-xlarge`` drops the tier for smoke runs.

A ``campaign`` section benchmarks the PR-4 campaign runner on an
8-shard experiment matrix three ways — serial (1 worker), parallel
(4 workers, fresh cache) and fully cached — recording the
parallel-over-serial speedup (target >= 3x on a >= 4-core host; the
measured value and the host's core count are both recorded so the
number is interpretable), asserting the two fresh runs' manifests are
byte-identical, and asserting the cached rerun executes zero shards.

Run it directly (no pytest needed); it writes machine-readable
``BENCH_engine_throughput.json`` at the repository root so future PRs
can diff engine throughput across commits:

    PYTHONPATH=src python benchmarks/bench_engine_throughput.py
    PYTHONPATH=src python benchmarks/bench_engine_throughput.py --quick
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from random import Random

from repro.campaign import CampaignRunner, CampaignSpec
from repro.instrumentation import TraceRecorder, TracingObserver
from repro.core.rarest_first import make_selector
from repro.protocol.metainfo import make_metainfo
from repro.sim.config import KIB, PeerConfig, SwarmConfig
from repro.sim.swarm import Swarm

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_engine_throughput.json"

# One-block pieces keep every request on the piece-selection hot path
# (no strict-priority shortcut), which is exactly what this benchmark
# stresses; capacities are high enough that the swarm makes real
# progress within the simulated window.  High piece counts are the
# regime the rarity buckets exist for: the naive path pays
# O(num_pieces) per selection probe, the indexed path O(rarest bucket).
SWARMS = {
    "small": dict(leechers=10, pieces=512, sim_seconds=400.0),
    "medium": dict(leechers=30, pieces=1024, sim_seconds=450.0),
    "large": dict(leechers=60, pieces=1024, sim_seconds=250.0),
}
# The mega-swarm tier: 1000 leechers + 1 seed.  Only the fast
# configuration runs here (the pinned reference path is ~20x slower and
# would push the benchmark out of interactive time).
XLARGE = dict(leechers=1000, pieces=2048, sim_seconds=90.0)
# The streaming tier: the medium swarm re-run as a streaming workload —
# every leecher consumes in order through the windowed selector while
# playback-position bindings put time-dependent state on the selection
# hot path.  Same naive/indexed/fast differential as the other tiers,
# so the fast-path dispatch for non-rarest selectors stays gated.
STREAMING = dict(leechers=30, pieces=1024, sim_seconds=450.0)
STREAMING_SELECTOR = "seq-window:window=32"
STREAMING_RATE = 24.0 * KIB
# The open-system tier: a flash crowd of depart-on-completion leechers
# against one deliberately weak origin seed, selection through the
# mode-suppression strategy and a StabilityDetector sampling throughout
# — the flash-crowd stability workload (DESIGN.md §14) at benchmark
# scale.
OPEN_SYSTEM = dict(leechers=40, pieces=256, sim_seconds=400.0)
OPEN_SYSTEM_SELECTOR = "mode-suppression:suppression=0.9"
OPEN_SYSTEM_SEED_UPLOAD = 24.0 * KIB
OPEN_SYSTEM_STABILITY_INTERVAL = 20.0
QUICK_SCALE = 0.25  # --quick shrinks the simulated window, not the swarm

# Pins every mega-swarm fast path off: the pre-PR hot path, kept
# runnable forever so baseline numbers stay comparable across commits
# and so the fast path has an in-benchmark differential reference.
REFERENCE_EXTRA = {
    "availability_backend": "index",
    "have_fanout": "unbatched",
    "allocator": "reference",
}
FAST_EXTRA: dict = {}  # defaults: matrix + numpy allocator + fused HAVE

# The campaign benchmark: 4 small Table-I torrents x 2 replicates = 8
# independent shards, enough to keep 4 workers busy; the simulated
# window is chosen so one shard costs ~1-2 s and the whole serial run
# stays under ~15 s.
CAMPAIGN_TORRENTS = (2, 3, 13, 19)
CAMPAIGN_REPLICATES = 2
CAMPAIGN_DURATION = 400.0
CAMPAIGN_WORKERS = 4
CAMPAIGN_SPEEDUP_TARGET = 3.0


def build_swarm(
    leechers: int,
    pieces: int,
    seed: int,
    use_rarity_index: bool,
    observer_factory=None,
    extra=None,
    selector_spec=None,
    playback_rate=None,
    seeding_time=None,
    seed_upload=None,
) -> Swarm:
    metainfo = make_metainfo(
        "throughput-%dp" % pieces,
        num_pieces=pieces,
        piece_size=16 * KIB,
        block_size=16 * KIB,
    )
    swarm = Swarm(metainfo, SwarmConfig(seed=seed, extra=dict(extra or {})))
    swarm.observer_factory = observer_factory
    rng = Random(seed)

    def peer_config() -> PeerConfig:
        kwargs = {}
        if playback_rate is not None:
            kwargs["playback_rate"] = playback_rate
        if seeding_time is not None:
            kwargs["seeding_time"] = seeding_time
        return PeerConfig(
            upload_capacity=rng.choice([32, 64, 96, 128]) * KIB,
            use_rarity_index=use_rarity_index,
            **kwargs,
        )

    def peer_kwargs():
        # Fresh selector per peer: streaming strategies carry per-peer
        # playback-position bindings and must never be shared.
        if selector_spec is None:
            return {}
        return {"selector": make_selector(selector_spec)}

    if seed_upload is not None:
        # Open-system tier: a dedicated weak origin seed that never
        # departs (its config draws no seeding_time).
        swarm.add_peer(
            config=PeerConfig(
                upload_capacity=seed_upload, use_rarity_index=use_rarity_index
            ),
            is_seed=True,
        )
    else:
        swarm.add_peer(config=peer_config(), is_seed=True, **peer_kwargs())
    # Staggered arrivals spread the availability distribution across
    # many copy counts, the regime the rarity buckets are built for.
    for index in range(leechers):
        delay = rng.uniform(0.0, 60.0)
        swarm.schedule_arrival(delay, config=peer_config(), **peer_kwargs())
    return swarm


def swarm_fingerprint(swarm: Swarm) -> str:
    """Digest of every peer's final piece set.

    Two runs that executed the identical event sequence end with
    identical per-peer piece sets, so comparing fingerprints between the
    naive and indexed runs proves trace equivalence at piece granularity
    even when the simulated window ends before anyone completes.
    """
    digest = hashlib.sha256()
    for address in sorted(swarm.peers):
        have = sorted(swarm.peers[address].bitfield.have_set)
        digest.update(repr((address, have)).encode())
    return digest.hexdigest()


def run_once(
    leechers: int,
    pieces: int,
    sim_seconds: float,
    seed: int,
    use_rarity_index: bool,
    trace: str = "off",
    extra=None,
    selector_spec=None,
    playback_rate=None,
    seeding_time=None,
    seed_upload=None,
    stability_interval=None,
) -> dict:
    """One timed swarm run.  ``trace`` selects the tracing configuration:
    ``"off"``, ``"local"`` (one observed peer, the paper's methodology and
    what ``repro run --trace`` does) or ``"all"`` (a TracingObserver on
    every peer, the ``--trace-all`` worst case).  The in-memory sink
    keeps disk speed out of the measurement.  ``extra`` is the
    ``SwarmConfig.extra`` dict selecting reference vs fast engine
    paths."""
    recorder = None
    factory = None
    if trace != "off":
        recorder = TraceRecorder()
        if trace == "all":
            def factory():
                return TracingObserver(recorder)
        else:
            observers = iter([TracingObserver(recorder)])

            def factory():
                return next(observers, None)
    swarm = build_swarm(
        leechers, pieces, seed, use_rarity_index, factory, extra,
        selector_spec=selector_spec, playback_rate=playback_rate,
        seeding_time=seeding_time, seed_upload=seed_upload,
    )
    detector = None
    if stability_interval is not None:
        from repro.workloads.open_system import StabilityDetector

        detector = StabilityDetector(interval=stability_interval)
        detector.attach(swarm)
    started = time.perf_counter()
    result = swarm.run(sim_seconds)
    wall = time.perf_counter() - started
    events = swarm.simulator.events_processed
    row = {
        "wall_seconds": round(wall, 4),
        "events": events,
        "events_per_second": round(events / wall, 1) if wall > 0 else None,
        "blocks_moved": int(result.bytes_moved // (16 * KIB)),
        "completions": len(result.completions),
        "completion_trace": sorted(result.completions.items()),
        "fingerprint": swarm_fingerprint(swarm),
    }
    if detector is not None:
        verdict = detector.finalize(swarm.simulator.now)
        row["departures"] = len(result.departures)
        row["stability_verdict"] = verdict.as_dict()
    if playback_rate is not None:
        states = [
            peer.playback
            for peer in swarm.peers.values()
            if peer.playback is not None
        ]
        row["playback_started"] = sum(
            1 for state in states if state.started_at is not None
        )
        row["in_order_pieces_total"] = sum(
            state.in_order_pieces for state in states
        )
    if recorder is not None:
        row["trace_events"] = recorder.events_emitted
        recorder.close()
        row["trace_sha256"] = hashlib.sha256(
            ("\n".join(recorder.lines()) + "\n").encode()
        ).hexdigest()
    return row


def run_suite(quick: bool, seed: int) -> dict:
    report = {
        "benchmark": "engine_throughput",
        "python": platform.python_version(),
        "seed": seed,
        "quick": quick,
        "swarms": {},
    }
    for name, params in SWARMS.items():
        sim_seconds = params["sim_seconds"] * (QUICK_SCALE if quick else 1.0)
        sized = {
            "peers": params["leechers"] + 1,
            "pieces": params["pieces"],
            "sim_seconds": sim_seconds,
        }
        configs = (
            ("naive", False, REFERENCE_EXTRA),
            ("indexed", True, REFERENCE_EXTRA),
            ("fast", True, FAST_EXTRA),
        )
        for label, use_index, extra in configs:
            sized[label] = run_once(
                params["leechers"], params["pieces"], sim_seconds, seed,
                use_index, extra=extra,
            )
            print(
                "%-7s %-8s wall=%7.2fs  events/s=%10.1f  blocks=%d"
                % (
                    name,
                    label,
                    sized[label]["wall_seconds"],
                    sized[label]["events_per_second"],
                    sized[label]["blocks_moved"],
                )
            )
        # Trace equivalence makes the comparison apples-to-apples; a
        # mismatch means a path diverged and the timing is meaningless,
        # so record it loudly.  The fingerprint covers every peer's
        # piece set, so this bites even before any completions.
        reference_trace = sized["naive"].pop("completion_trace")
        sized["traces_match"] = all(
            sized[label].pop("completion_trace") == reference_trace
            and sized[label]["fingerprint"] == sized["naive"]["fingerprint"]
            and sized[label]["blocks_moved"] == sized["naive"]["blocks_moved"]
            for label in ("indexed", "fast")
        )
        sized["speedup_indexed_over_naive"] = round(
            sized["naive"]["wall_seconds"] / sized["indexed"]["wall_seconds"], 2
        )
        sized["speedup_fast_over_indexed"] = round(
            sized["indexed"]["wall_seconds"] / sized["fast"]["wall_seconds"], 2
        )
        print(
            "%-7s speedup: indexed/naive=%.2fx  fast/indexed=%.2fx  "
            "traces_match=%s"
            % (
                name,
                sized["speedup_indexed_over_naive"],
                sized["speedup_fast_over_indexed"],
                sized["traces_match"],
            )
        )
        if name == "medium":
            # Structured-tracing overhead on the indexed medium swarm:
            # once with the default configuration (one observed peer,
            # the paper instruments a single client — the <25% budget
            # applies here) and once with a TracingObserver on every
            # peer (the --trace-all worst case, reported for scale).
            # Observers must not perturb the simulation, so both traced
            # runs' swarm fingerprints have to match the untraced one.
            preserved = True
            for mode, key in (("local", "indexed_traced"), ("all", "indexed_traced_all")):
                traced = run_once(
                    params["leechers"],
                    params["pieces"],
                    sim_seconds,
                    seed,
                    use_rarity_index=True,
                    trace=mode,
                    extra=REFERENCE_EXTRA,
                )
                traced.pop("completion_trace")
                sized[key] = traced
                preserved = preserved and (
                    traced["fingerprint"] == sized["indexed"]["fingerprint"]
                )
                overhead = (
                    traced["wall_seconds"] / sized["indexed"]["wall_seconds"]
                    - 1.0
                ) * 100.0
                traced["tracing_overhead_pct"] = round(overhead, 1)
                print(
                    "%-7s trace:%-5s wall=%7.2fs  overhead=%+.1f%%  "
                    "trace_events=%d"
                    % (name, mode, traced["wall_seconds"], overhead, traced["trace_events"])
                )
            sized["tracing_overhead_pct"] = sized["indexed_traced"][
                "tracing_overhead_pct"
            ]
            print(
                "%-7s tracing_overhead=%.1f%% (local, budget <25%%)"
                % (name, sized["tracing_overhead_pct"])
            )
            # --trace-all on the *fast* run: the harshest reading, since
            # the overhead is judged against the quickest untraced run.
            traced = run_once(
                params["leechers"],
                params["pieces"],
                sim_seconds,
                seed,
                use_rarity_index=True,
                trace="all",
                extra=FAST_EXTRA,
            )
            traced.pop("completion_trace")
            sized["fast_traced_all"] = traced
            preserved = preserved and (
                traced["fingerprint"] == sized["fast"]["fingerprint"]
            )
            overhead = (
                traced["wall_seconds"] / sized["fast"]["wall_seconds"] - 1.0
            ) * 100.0
            traced["tracing_overhead_pct"] = round(overhead, 1)
            sized["tracing_preserves_run"] = preserved
            print(
                "%-7s trace-all:fast  wall=%7.2fs  overhead=%+.1f%%  "
                "trace_events=%d  run_preserved=%s"
                % (name, traced["wall_seconds"], overhead,
                   traced["trace_events"], preserved)
            )
        report["swarms"][name] = sized
    return report


def run_streaming_suite(quick: bool, seed: int) -> dict:
    """The streaming tier: naive/indexed/fast differential with the
    sequential-window selector and the playback model on every peer.

    Playback-position bindings make selection depend on simulated time,
    the regime the streaming strategies add to the hot path; the three
    engine paths must still execute the identical event sequence, so
    ``traces_match`` here gates the non-rarest fast-engine dispatch
    (matrix backend falling back to the candidate scan) at benchmark
    scale.
    """
    sim_seconds = STREAMING["sim_seconds"] * (QUICK_SCALE if quick else 1.0)
    section = {
        "peers": STREAMING["leechers"] + 1,
        "pieces": STREAMING["pieces"],
        "sim_seconds": sim_seconds,
        "selector": STREAMING_SELECTOR,
        "playback_rate": STREAMING_RATE,
    }
    configs = (
        ("naive", False, REFERENCE_EXTRA),
        ("indexed", True, REFERENCE_EXTRA),
        ("fast", True, FAST_EXTRA),
    )
    for label, use_index, extra in configs:
        section[label] = run_once(
            STREAMING["leechers"], STREAMING["pieces"], sim_seconds, seed,
            use_index, extra=extra,
            selector_spec=STREAMING_SELECTOR, playback_rate=STREAMING_RATE,
        )
        print(
            "%-9s %-8s wall=%7.2fs  events/s=%10.1f  blocks=%d  "
            "playing=%d  in_order=%d"
            % (
                "streaming",
                label,
                section[label]["wall_seconds"],
                section[label]["events_per_second"],
                section[label]["blocks_moved"],
                section[label]["playback_started"],
                section[label]["in_order_pieces_total"],
            )
        )
    reference_trace = section["naive"].pop("completion_trace")
    section["traces_match"] = all(
        section[label].pop("completion_trace") == reference_trace
        and section[label]["fingerprint"] == section["naive"]["fingerprint"]
        and section[label]["playback_started"]
        == section["naive"]["playback_started"]
        and section[label]["in_order_pieces_total"]
        == section["naive"]["in_order_pieces_total"]
        for label in ("indexed", "fast")
    )
    section["speedup_indexed_over_naive"] = round(
        section["naive"]["wall_seconds"] / section["indexed"]["wall_seconds"], 2
    )
    section["speedup_fast_over_indexed"] = round(
        section["indexed"]["wall_seconds"] / section["fast"]["wall_seconds"], 2
    )
    print(
        "%-9s speedup: indexed/naive=%.2fx  fast/indexed=%.2fx  "
        "traces_match=%s"
        % (
            "streaming",
            section["speedup_indexed_over_naive"],
            section["speedup_fast_over_indexed"],
            section["traces_match"],
        )
    )
    return section


def run_open_system_suite(quick: bool, seed: int) -> dict:
    """The open-system flash-crowd tier: depart-on-completion arrivals,
    mode-suppression selection and a sampling StabilityDetector.

    The suppression decision consults the picker's scarcity oracle on
    every selection probe (and may consume an extra RNG draw to decline
    an offer), and completion-time departures put peer-teardown events
    on the hot path — the costs this tier exists to track.  The three
    engine paths must execute the identical event sequence *and* reach
    the identical stability verdict.
    """
    sim_seconds = OPEN_SYSTEM["sim_seconds"] * (QUICK_SCALE if quick else 1.0)
    section = {
        "peers": OPEN_SYSTEM["leechers"] + 1,
        "pieces": OPEN_SYSTEM["pieces"],
        "sim_seconds": sim_seconds,
        "selector": OPEN_SYSTEM_SELECTOR,
        "seed_upload": OPEN_SYSTEM_SEED_UPLOAD,
        "stability_interval": OPEN_SYSTEM_STABILITY_INTERVAL,
    }
    configs = (
        ("naive", False, REFERENCE_EXTRA),
        ("indexed", True, REFERENCE_EXTRA),
        ("fast", True, FAST_EXTRA),
    )
    for label, use_index, extra in configs:
        section[label] = run_once(
            OPEN_SYSTEM["leechers"], OPEN_SYSTEM["pieces"], sim_seconds, seed,
            use_index, extra=extra,
            selector_spec=OPEN_SYSTEM_SELECTOR, seeding_time=0.0,
            seed_upload=OPEN_SYSTEM_SEED_UPLOAD,
            stability_interval=OPEN_SYSTEM_STABILITY_INTERVAL,
        )
        print(
            "%-11s %-8s wall=%7.2fs  events/s=%10.1f  blocks=%d  "
            "departed=%d  stable=%s"
            % (
                "open-system",
                label,
                section[label]["wall_seconds"],
                section[label]["events_per_second"],
                section[label]["blocks_moved"],
                section[label]["departures"],
                section[label]["stability_verdict"]["stable"],
            )
        )
    reference_trace = section["naive"].pop("completion_trace")
    section["traces_match"] = all(
        section[label].pop("completion_trace") == reference_trace
        and section[label]["fingerprint"] == section["naive"]["fingerprint"]
        and section[label]["departures"] == section["naive"]["departures"]
        and section[label]["stability_verdict"]
        == section["naive"]["stability_verdict"]
        for label in ("indexed", "fast")
    )
    section["speedup_indexed_over_naive"] = round(
        section["naive"]["wall_seconds"] / section["indexed"]["wall_seconds"], 2
    )
    section["speedup_fast_over_indexed"] = round(
        section["indexed"]["wall_seconds"] / section["fast"]["wall_seconds"], 2
    )
    print(
        "%-11s speedup: indexed/naive=%.2fx  fast/indexed=%.2fx  "
        "traces_match=%s"
        % (
            "open-system",
            section["speedup_indexed_over_naive"],
            section["speedup_fast_over_indexed"],
            section["traces_match"],
        )
    )
    return section


def run_xlarge_suite(quick: bool, seed: int) -> dict:
    """The 1000-leecher mega-swarm tier, fast configuration only: the
    pinned reference path is far too slow for interactive use at this
    scale, so the tier has no naive-path differential."""
    sim_seconds = XLARGE["sim_seconds"] * (QUICK_SCALE if quick else 1.0)
    section = {
        "peers": XLARGE["leechers"] + 1,
        "pieces": XLARGE["pieces"],
        "sim_seconds": sim_seconds,
    }
    section["fast"] = run_once(
        XLARGE["leechers"], XLARGE["pieces"], sim_seconds, seed,
        use_rarity_index=True, extra=FAST_EXTRA,
    )
    section["fast"].pop("completion_trace")
    print(
        "%-7s %-10s wall=%7.2fs  events/s=%10.1f  blocks=%d"
        % (
            "xlarge",
            "fast",
            section["fast"]["wall_seconds"],
            section["fast"]["events_per_second"],
            section["fast"]["blocks_moved"],
        )
    )
    return section


def run_campaign_suite(quick: bool, seed: int) -> dict:
    """Serial vs parallel vs worker-pool vs cached runs of one campaign.

    Four invocations of the same spec: ``workers=1`` into a fresh cache,
    ``workers=4`` into another fresh cache (the speedup pair), a
    2-worker ``worker-pool`` socket backend into a third, then
    ``workers=4`` again on the warm cache (must execute nothing).
    Manifest fingerprints cover every shard's trace fingerprint, so
    their equality proves the parallel and distributed runs computed
    byte-identical results, not just "also finished".

    The serial-vs-parallel speedup is only *recorded* on hosts with at
    least 2 CPUs: on a 1-CPU host the two runs contend for the same
    core and the ratio measures process-pool overhead, not parallelism
    — recording it would be misleading, so it is skipped (and says so).
    """
    duration = CAMPAIGN_DURATION * (QUICK_SCALE if quick else 1.0)
    spec = CampaignSpec(
        name="bench-campaign",
        torrent_ids=CAMPAIGN_TORRENTS,
        scenarios=("smoke",),
        replicates=CAMPAIGN_REPLICATES,
        campaign_seed=seed,
        duration=duration,
    )

    def timed_run(cache_dir: str, workers: int, backend: str = "local"):
        started = time.perf_counter()
        result = CampaignRunner(
            spec, cache_dir=cache_dir, workers=workers, backend=backend
        ).run()
        return result, time.perf_counter() - started

    cpus = os.cpu_count() or 1
    measure_speedup = cpus >= 2
    with tempfile.TemporaryDirectory(prefix="bench-campaign-serial-") as serial_dir, \
            tempfile.TemporaryDirectory(prefix="bench-campaign-par-") as parallel_dir, \
            tempfile.TemporaryDirectory(prefix="bench-campaign-pool-") as pool_dir:
        serial, serial_wall = timed_run(serial_dir, 1)
        parallel, parallel_wall = timed_run(parallel_dir, CAMPAIGN_WORKERS)
        pool, pool_wall = timed_run(
            pool_dir, 1, backend="worker-pool:spawn=2"
        )
        cached, cached_wall = timed_run(parallel_dir, CAMPAIGN_WORKERS)

    section = {
        "shards": serial.counts["shards"],
        "replicates": CAMPAIGN_REPLICATES,
        "sim_seconds": duration,
        "workers": CAMPAIGN_WORKERS,
        "cpus": cpus,
        "serial_wall_seconds": round(serial_wall, 4),
        "parallel_wall_seconds": round(parallel_wall, 4),
        "worker_pool_workers": 2,
        "worker_pool_wall_seconds": round(pool_wall, 4),
        "deterministic_across_workers": serial.fingerprint == parallel.fingerprint,
        "deterministic_across_backends": serial.fingerprint == pool.fingerprint,
        "manifest_fingerprint": serial.fingerprint,
        "cached_rerun_wall_seconds": round(cached_wall, 4),
        "cached_rerun_executed": cached.counts["executed"],
        "cached_rerun_cache_hits": cached.counts["cache_hits"],
    }
    if measure_speedup:
        section["speedup_parallel_over_serial"] = (
            round(serial_wall / parallel_wall, 2) if parallel_wall > 0 else None
        )
        section["speedup_target"] = CAMPAIGN_SPEEDUP_TARGET
        # The 3x target only binds where 4 workers have 4 cores to run
        # on; on smaller multi-CPU hosts the value is informational.
        section["speedup_target_applies"] = cpus >= CAMPAIGN_WORKERS
    else:
        section["speedup_skipped"] = (
            "1 CPU: serial and parallel contend for the same core, the "
            "ratio would measure pool overhead, not parallelism"
        )
    print(
        "campaign %d shards: serial=%.2fs  parallel(%d workers, %d cpus)=%.2fs  "
        "worker-pool(2 workers)=%.2fs  deterministic=%s/%s"
        % (
            section["shards"], serial_wall, CAMPAIGN_WORKERS, cpus,
            parallel_wall, pool_wall,
            section["deterministic_across_workers"],
            section["deterministic_across_backends"],
        )
    )
    if measure_speedup:
        print(
            "campaign speedup: %.2fx over serial (target %.1fx%s)"
            % (
                section["speedup_parallel_over_serial"],
                CAMPAIGN_SPEEDUP_TARGET,
                "" if section["speedup_target_applies"]
                else ", informational on %d cpus" % cpus,
            )
        )
    else:
        print("campaign speedup: skipped (%s)" % section["speedup_skipped"])
    print(
        "campaign cached rerun: wall=%.2fs  executed=%d  cache_hits=%d"
        % (cached_wall, cached.counts["executed"], cached.counts["cache_hits"])
    )
    return section


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shrink the simulated window ~4x (smoke-test mode)",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--output", type=Path, default=OUTPUT, help="report path (JSON)"
    )
    parser.add_argument(
        "--skip-xlarge",
        action="store_true",
        help="skip the 1000-leecher mega-swarm tier",
    )
    args = parser.parse_args(argv)
    report = run_suite(args.quick, args.seed)
    report["swarms"]["streaming"] = run_streaming_suite(args.quick, args.seed)
    report["swarms"]["open_system"] = run_open_system_suite(args.quick, args.seed)
    if not args.skip_xlarge:
        report["swarms"]["xlarge"] = run_xlarge_suite(args.quick, args.seed)
    report["campaign"] = run_campaign_suite(args.quick, args.seed)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print("wrote %s" % args.output)
    # The xlarge tier runs one configuration, so it has no traces_match.
    failures = [
        name
        for name, sized in report["swarms"].items()
        if not sized.get("traces_match", True)
    ]
    failures.extend(
        name
        for name, sized in report["swarms"].items()
        if not sized.get("tracing_preserves_run", True)
    )
    if failures:
        print("TRACE MISMATCH in: %s" % ", ".join(failures), file=sys.stderr)
        return 1
    campaign = report["campaign"]
    if not campaign["deterministic_across_workers"]:
        print("CAMPAIGN MANIFEST DIVERGED across worker counts", file=sys.stderr)
        return 1
    if not campaign["deterministic_across_backends"]:
        print(
            "CAMPAIGN MANIFEST DIVERGED between local and worker-pool "
            "backends",
            file=sys.stderr,
        )
        return 1
    if campaign["cached_rerun_executed"] != 0:
        print(
            "CAMPAIGN CACHE MISS: rerun executed %d shards"
            % campaign["cached_rerun_executed"],
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
