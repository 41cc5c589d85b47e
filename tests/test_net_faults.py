"""Live-swarm fault smoke test: crash one peer mid-download.

A victim leecher is killed abruptly (task cancellation + TCP RST on
every link) once it holds a few pieces.  The survivors must reap the
dead links, re-plan around the lost availability, and still download to
completion — and the reaps must land in the metrics registry, mirroring
what the sim's fault-injection layer records.
"""

import asyncio

import pytest

from repro.instrumentation.trace import TraceRecorder
from repro.net.conformance import check_trace, completion_counts
from repro.net.swarm import LiveSwarm
from repro.protocol.bitfield import Bitfield
from repro.protocol.messages import (
    Bitfield as BitfieldMessage,
    HANDSHAKE_LENGTH,
    Cancel,
    Handshake,
    Interested,
    Request,
    Unchoke,
)
from repro.protocol.metainfo import make_metainfo
from repro.protocol.stream import MessageStream
from repro.sim.config import KIB, PeerConfig

pytestmark = pytest.mark.net

NUM_PIECES = 16
LIVE_CONFIG = PeerConfig(
    upload_capacity=128 * KIB,
    choke_interval=0.2,
    rate_window=1.0,
    min_peer_set=1,
)


async def _run_with_midway_crash(swarm, victim, timeout=60.0):
    await swarm.start()
    # Let the victim make real progress before pulling the plug, so its
    # links carry in-flight traffic when the RSTs land.
    async def crash_when_warm():
        while victim.bitfield.count < 3:
            await asyncio.sleep(0.01)
        swarm.kill_peer(victim.address)

    await asyncio.wait_for(crash_when_warm(), timeout)
    survivors = [peer for peer in swarm.peers if peer is not victim]
    await asyncio.wait_for(
        asyncio.gather(*[peer.completed.wait() for peer in survivors]), timeout
    )
    await swarm.shutdown()


def test_swarm_survives_peer_crash():
    metainfo = make_metainfo(
        "faultlive", num_pieces=NUM_PIECES, piece_size=4 * KIB, block_size=KIB
    )
    recorder = TraceRecorder()
    swarm = LiveSwarm(metainfo, seed=23, config=LIVE_CONFIG, recorder=recorder)
    swarm.add_peers(1, 4)
    victim = swarm.peers[-1]

    asyncio.run(_run_with_midway_crash(swarm, victim))
    result = swarm.result()

    # Every survivor leecher finished despite the crash.
    survivors = [peer for peer in swarm.peers if peer is not victim]
    for peer in survivors:
        assert peer.bitfield.is_complete()
    assert not victim.bitfield.is_complete()
    assert victim.address not in result.completed_at

    # The crash is visible in the registry: the kill itself, the victim's
    # own crash bookkeeping, and at least one survivor reaping a dead
    # link (RST races with FIN-less EOF, so the reap count varies).
    assert swarm.metrics.value("fault.peer_killed") == 1
    assert swarm.metrics.value("fault.peer_crashed") == 1
    assert swarm.metrics.value("fault.connection_reaped") >= 1

    # The trace still satisfies every invariant except byte conservation,
    # which a crash legitimately breaks: the victim's receive counters
    # die with it while senders already counted the in-flight bytes.
    report = check_trace(recorder, check_conservation=False, num_pieces=NUM_PIECES)
    report.assert_ok()
    counts = completion_counts(recorder)
    completed = [addr for addr, count in counts.items() if count == NUM_PIECES]
    assert sorted(completed) == sorted(peer.address for peer in survivors
                                       if peer.became_seed_at != 0.0)


async def _until(condition, timeout=5.0):
    async def poll():
        while not condition():
            await asyncio.sleep(0.01)

    await asyncio.wait_for(poll(), timeout)


async def _reaped_after(message, unchoked_first):
    """Open a raw link to a live seed, send *message* once the link is in
    the seed's peer set (after an UNCHOKE when *unchoked_first*), and
    report whether the seed reaped the link."""
    metainfo = make_metainfo(
        "wirecheck", num_pieces=4, piece_size=4 * KIB, block_size=KIB
    )
    config = PeerConfig(
        upload_capacity=16 * KIB, choke_interval=0.05, min_peer_set=1
    )
    swarm = LiveSwarm(metainfo, seed=5, config=config)
    seed = swarm.add_peer(is_seed=True)
    await swarm.start()
    reader, writer = await asyncio.open_connection("127.0.0.1", seed.port)
    try:
        writer.write(Handshake(info_hash=metainfo.info_hash, peer_id=b"r" * 20).encode())
        writer.write(BitfieldMessage(bits=Bitfield(4).to_bytes()).encode())
        await reader.readexactly(HANDSHAKE_LENGTH)
        await _until(lambda: seed.connections)
        (link,) = seed.connections.values()
        if unchoked_first:
            writer.write(Interested().encode())
            stream = MessageStream(expect_handshake=False)
            unchoked = []
            while not unchoked:
                chunk = await asyncio.wait_for(reader.read(65536), 5.0)
                assert chunk, "seed closed the link before unchoking"
                unchoked = [m for m in stream.feed(chunk) if isinstance(m, Unchoke)]
        writer.write(message.encode())
        await writer.drain()
        try:
            await _until(lambda: link.closed)
        except asyncio.TimeoutError:
            return False
        return (
            not seed.connections
            and swarm.metrics.value("fault.connection_reaped") == 1
        )
    finally:
        writer.close()
        await writer.wait_closed()
        await swarm.shutdown()


def test_zero_length_cancel_reaps_the_link():
    assert asyncio.run(_reaped_after(Cancel(piece=0, offset=0, length=0), False))


@pytest.mark.parametrize(
    "request_",
    [
        Request(piece=0, offset=0, length=1 << 20),  # larger than the piece
        Request(piece=0, offset=512, length=KIB),  # not block-aligned
        Request(piece=4, offset=0, length=KIB),  # piece out of range
    ],
    ids=["oversized", "misaligned", "bad-piece"],
)
def test_malformed_request_from_an_unchoked_remote_reaps_the_link(request_):
    assert asyncio.run(_reaped_after(request_, True))
