"""Differential trace-equivalence harness for the mega-swarm engine.

The fast engine paths — numpy max-min allocator and shared availability
matrix with the fused HAVE fan-out — are each *claimed* to be
observably identical to the reference implementations they replace.
This suite pins those claims down two ways:

* **property tests** drive the two allocators over random networks and
  require bit-identical rates (not approximately equal: the reference
  was restructured so both charge residuals with the same arithmetic);
* **differential swarm runs** execute the same seeded scenario once per
  engine configuration and require identical trace fingerprints and
  final swarm state — including under churn, faults, and rejoins.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.instrumentation import TraceRecorder, TracingObserver
from repro.protocol.metainfo import make_metainfo
from repro.sim.bandwidth import (
    HAVE_NUMPY,
    Flow,
    max_min_allocation,
    max_min_allocation_numpy,
    resolve_allocator,
)
from repro.sim.config import KIB, FaultConfig, PeerConfig, SwarmConfig
from repro.sim.swarm import Swarm

from random import Random

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")

# The reference engine configuration: every fast path disabled.
REFERENCE_EXTRA = {
    "availability_backend": "index",
    "have_fanout": "unbatched",
    "allocator": "reference",
}


# ---------------------------------------------------------------------------
# allocator property suite
# ---------------------------------------------------------------------------

@st.composite
def networks(draw):
    """A random bipartite flow network with optional capacity gaps."""
    num_nodes = draw(st.integers(min_value=1, max_value=8))
    nodes = ["n%d" % i for i in range(num_nodes)]
    caps = st.one_of(
        st.none(),  # unconstrained direction
        st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
    )
    uploads = {
        node: cap
        for node in nodes
        if (cap := draw(caps, label="upload %s" % node)) is not None
    }
    downloads = {
        node: cap
        for node in nodes
        if (cap := draw(caps, label="download %s" % node)) is not None
    }
    num_flows = draw(st.integers(min_value=0, max_value=24))
    pairs = st.tuples(st.sampled_from(nodes), st.sampled_from(nodes))
    flows = [draw(pairs) for __ in range(num_flows)]
    return flows, uploads, downloads


@needs_numpy
class TestAllocatorEquivalence:
    @given(networks())
    @settings(max_examples=200, deadline=None)
    def test_numpy_matches_reference_bit_for_bit(self, network):
        pairs, uploads, downloads = network
        reference = [Flow(u, d) for u, d in pairs]
        vectorized = [Flow(u, d) for u, d in pairs]
        max_min_allocation(reference, uploads, downloads)
        max_min_allocation_numpy(vectorized, uploads, downloads)
        # Bit-identical, not approximately equal: both paths perform the
        # same residual arithmetic in the same order.
        assert [f.rate for f in reference] == [f.rate for f in vectorized]

    @given(networks())
    @settings(max_examples=100, deadline=None)
    def test_numpy_allocation_is_feasible(self, network):
        pairs, uploads, downloads = network
        flows = [Flow(u, d) for u, d in pairs]
        max_min_allocation_numpy(flows, uploads, downloads)
        tolerance = 1e-6
        for node, cap in uploads.items():
            used = sum(f.rate for f in flows if f.uploader == node)
            if used != float("inf"):
                assert used <= cap + tolerance
        for node, cap in downloads.items():
            used = sum(f.rate for f in flows if f.downloader == node)
            if used != float("inf"):
                assert used <= cap + tolerance

    def test_resolve_allocator_names(self):
        assert resolve_allocator("reference") is max_min_allocation
        assert resolve_allocator("numpy") is max_min_allocation_numpy
        assert resolve_allocator("auto") in (
            max_min_allocation,
            max_min_allocation_numpy,
        )
        with pytest.raises(ValueError):
            resolve_allocator("no-such-allocator")


# ---------------------------------------------------------------------------
# differential swarm runs
# ---------------------------------------------------------------------------

def run_swarm(
    extra,
    seed=17,
    leechers=12,
    pieces=128,
    horizon=150.0,
    churn=False,
    faults=None,
    recorder=None,
):
    """One seeded scenario; returns (fingerprint, state, swarm)."""
    metainfo = make_metainfo(
        "equiv", num_pieces=pieces, piece_size=4 * KIB, block_size=4 * KIB
    )
    config = SwarmConfig(seed=seed, extra=dict(extra), faults=faults)
    swarm = Swarm(metainfo, config)
    if recorder is not None:
        swarm.observer_factory = lambda: TracingObserver(recorder)
    rng = Random(seed)
    swarm.add_peer(
        config=PeerConfig(upload_capacity=64 * KIB), is_seed=True
    )
    for index in range(leechers):
        peer_config = PeerConfig(
            upload_capacity=rng.choice([16, 32, 64]) * KIB,
            seeding_time=rng.uniform(5.0, 30.0) if churn and index % 3 == 0 else None,
        )
        swarm.schedule_arrival(rng.uniform(0.0, 30.0), config=peer_config)
    result = swarm.run(horizon)
    fingerprint = None
    if recorder is not None:
        fingerprint = recorder.close()
    state = (
        result.bytes_moved,
        result.first_full_copy_at,
        sorted(result.completions.items()),
        {
            address: sorted(peer.bitfield.have_set)
            for address, peer in swarm.peers.items()
        },
    )
    return fingerprint, state, swarm


@needs_numpy
class TestEngineDifferential:
    def test_fast_path_trace_equals_reference(self):
        fast = TraceRecorder()
        reference = TraceRecorder()
        fast_fp, fast_state, __ = run_swarm({}, recorder=fast)
        ref_fp, ref_state, __ = run_swarm(REFERENCE_EXTRA, recorder=reference)
        assert fast_fp == ref_fp
        assert fast_state == ref_state

    def test_fast_path_equals_reference_under_churn(self):
        fast_fp, fast_state, __ = run_swarm(
            {}, churn=True, recorder=TraceRecorder()
        )
        ref_fp, ref_state, __ = run_swarm(
            REFERENCE_EXTRA, churn=True, recorder=TraceRecorder()
        )
        assert fast_fp == ref_fp
        assert fast_state == ref_state

    def test_allocator_choice_invisible_under_faults(self):
        # Faults disable the fused fan-out automatically; the allocator
        # and availability backend still run and must stay invisible.
        faults = FaultConfig(
            message_loss_rate=0.02,
            crash_probability=0.05,
            crash_interval=20.0,
        )
        fast_fp, fast_state, __ = run_swarm(
            {}, faults=faults, recorder=TraceRecorder()
        )
        ref_fp, ref_state, __ = run_swarm(
            REFERENCE_EXTRA, faults=faults, recorder=TraceRecorder()
        )
        assert fast_fp == ref_fp
        assert fast_state == ref_state

    def test_leave_and_rejoin_reacquires_matrix_slot(self):
        metainfo = make_metainfo(
            "rejoin", num_pieces=16, piece_size=4 * KIB, block_size=4 * KIB
        )
        swarm = Swarm(metainfo, SwarmConfig(seed=3))
        seed_peer = swarm.add_peer(
            config=PeerConfig(upload_capacity=64 * KIB), is_seed=True
        )
        leecher = swarm.add_peer(config=PeerConfig(upload_capacity=64 * KIB))
        swarm.run(20.0)
        leecher.leave()
        if leecher.picker.availability_backend == "matrix":
            assert leecher.picker.matrix_slot is None
        leecher.join()
        if leecher.picker.availability_backend == "matrix":
            assert leecher.picker.matrix_slot is not None
        swarm.run(200.0)
        assert leecher.bitfield.is_complete()
        assert seed_peer.is_seed


class TestFlowCacheUnderChurn:
    def test_cached_rates_survive_crash_hammer(self):
        """The per-tick allocation cache must stay coherent while peers
        crash and links are reaped: forcing a recompute on every tick
        must not change any outcome (regression: stale cached rates for
        departed uploaders)."""

        def run_once(force_recompute):
            metainfo = make_metainfo(
                "hammer", num_pieces=32, piece_size=4 * KIB, block_size=4 * KIB
            )
            faults = FaultConfig(
                crash_probability=0.15,
                crash_interval=5.0,
            )
            swarm = Swarm(
                metainfo,
                SwarmConfig(seed=29, tick_interval=1.0, faults=faults),
            )
            swarm.add_peer(
                config=PeerConfig(upload_capacity=32 * KIB), is_seed=True
            )
            for __ in range(8):
                swarm.add_peer(config=PeerConfig(upload_capacity=16 * KIB))
            if force_recompute:
                def invalidate(now):
                    swarm._members_generation += 1

                swarm.on_tick(invalidate)
            result = swarm.run(120.0)
            return (
                result.bytes_moved,
                sorted(result.completions.items()),
                {a: p.bitfield.count for a, p in swarm.peers.items()},
            )

        assert run_once(False) == run_once(True)
