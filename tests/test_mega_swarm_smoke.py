"""Mega-swarm smoke: a 1000-leecher swarm on the default fast engine.

Marked ``slow``: CI runs it in a dedicated job with a hard timeout so a
hang at four-digit scale (a fused fan-out loop that stops
terminating) fails the build instead of burning the runner.  The
simulated window is short — arrivals are still trickling in when it
closes — because the point is that the engine *moves* at this scale
and lands on the pinned outcome, not that the swarm finishes.
"""

import hashlib

import pytest

from repro.protocol.metainfo import make_metainfo
from repro.sim.config import KIB, PeerConfig, SwarmConfig
from repro.sim.swarm import Swarm

LEECHERS = 1000
PIECES = 2048
SIM_SECONDS = 40.0

# The run's outcome, pinned: peers present, payload moved and a digest
# of every peer's final piece set.
PINNED_PEERS = 660
PINNED_BYTES_MOVED = 120832000.00000018
PINNED_DIGEST = "b27dc8ce6646926a94d55a76ed7db9d98a59152e99ec4480d4bb443c9b697e16"


def run_mega_swarm():
    from random import Random

    metainfo = make_metainfo(
        "mega-smoke",
        num_pieces=PIECES,
        piece_size=16 * KIB,
        block_size=16 * KIB,
    )
    swarm = Swarm(metainfo, SwarmConfig(seed=42))
    rng = Random(42)

    def peer_config() -> PeerConfig:
        return PeerConfig(
            upload_capacity=rng.choice([32, 64, 96, 128]) * KIB,
            use_rarity_index=True,
        )

    swarm.add_peer(config=peer_config(), is_seed=True)
    for _ in range(LEECHERS):
        swarm.schedule_arrival(rng.uniform(0.0, 60.0), config=peer_config())
    result = swarm.run(SIM_SECONDS)
    digest = hashlib.sha256()
    for address in sorted(swarm.peers):
        have = sorted(swarm.peers[address].bitfield.have_set)
        digest.update(repr((address, have)).encode())
    return result, len(swarm.peers), digest.hexdigest()


@pytest.mark.slow
def test_thousand_peer_swarm_moves_data_and_queues_agree():
    result, peers, digest = run_mega_swarm()
    # Two thirds of the arrival window has elapsed: most of the swarm
    # must be present and real payload must be flowing.
    assert peers > LEECHERS // 2
    assert result.bytes_moved > 100 * 16 * KIB
    assert peers == PINNED_PEERS
    assert result.bytes_moved == PINNED_BYTES_MOVED
    assert digest == PINNED_DIGEST
