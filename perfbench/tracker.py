"""The ``tracker_wire`` workload: a ``repro tracker serve`` subprocess on
loopback UDP, driven by one asyncio client over two sockets.

The request stream is made from the seed.  16 swarms of 500 peers
register (a ramp of ``started`` announces), then a mix follows with the
event shares of ``benchmarks/bench_tracker.py``: about 1 % ``completed``,
1 % ``stopped`` and the rest keep-alives.  Every ``stopped`` is followed
by a fresh peer's ``started``, so the swarms keep their size.
Each swarm talks through one socket, so the server sees every swarm's
announces in stream order and the expected reply of each is known
exactly.

* **Closed loop** (capacity): ramp plus the first part of the mix, each
  socket with one request outstanding, so 2 in total.
* **Open loop** (latency): the rest of the mix at a fixed rate, each
  request timed from when it was due; how late the generator sent is
  reported as well.

The stream is also replayed in-process, twice, through
``TrackerServer.handle_datagram`` of a server object that is never
started; its replies must equal the wire replies byte for byte.  Those
replays give the gated throughput: ``sim_s_per_wall_s`` is the stream's
timeline seconds (registrations spread over ``RAMP_SECONDS``, the mix at
the rate the population re-announcing every ``INTERVAL`` seconds would
produce) served per wall second of the server's request path, the median
replay, each chunk of ``REPLAY_STEP`` requests calibrated.  The loopback
round trip moved by a third between identical runs on a shared host, so
its capacity and latencies are reported as workload figures.  The
traced pass times one more replay per layer: wire codec, service and
sampler; the rest of the wire round trip is sockets and the event loop.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import os
import re
import select
import signal
import socket
import struct
import subprocess
import sys
import time
from dataclasses import dataclass
from random import Random
from typing import Dict, List, Optional

from perfbench.calibration import StepTimer
from perfbench.harness import ROOT, Report, layer_table, log
from perfbench.spans import SpanRecorder, traced
from perfbench.stats import median, percentile, tail_percentile

SIZES = {
    "full": {"swarms": 16, "peers": 500, "closed_mix": 8000, "open_mix": 7500,
             "rate": 1500.0, "extra_starts": 10, "replays": 2},
    "smoke": {"swarms": 2, "peers": 20, "closed_mix": 60, "open_mix": 60,
              "rate": 200.0, "extra_starts": 1, "replays": 2},
}
SOCKETS = 2
NUM_WANT = 50
RAMP_SECONDS = 600.0
INTERVAL = 1800.0
REPLY_TIMEOUT = 10.0
OPEN_LOOP_CAP = 64
#: Requests per timed step of an in-process replay.
REPLAY_STEP = 1000
#: Event shares of the steady mix, from the load of
#: ``benchmarks/bench_tracker.py`` (every 97th announce a completion,
#: every 89th a departure, the rest keep-alives).
COMPLETED_SHARE = 1.0 / 97.0
STOPPED_SHARE = 1.0 / 89.0
START_TIMEOUT = 60.0
_PORT_LINE = re.compile(r"udp://([0-9.]+):(\d+)")


@dataclass
class Op:
    """One announce of the stream and what its reply must show."""

    swarm: int
    host: str
    port: int
    event: str
    num_want: int
    is_seed: bool
    expect_peers: int
    expect_size: int
    due: float
    """Position on the stream's timeline, in seconds."""


def make_stream(seed: int, size: dict) -> (List[bytes], List[Op], int, int):
    """``(infohashes, ops, ramp_ops, closed_ops)`` for *seed*."""
    rng = Random("tracker_wire:%d" % seed)
    swarms, peers = size["swarms"], size["peers"]
    infohashes = [
        hashlib.sha1(b"perfbench-swarm-%d-%d" % (seed, index)).digest()
        for index in range(swarms)
    ]
    active: List[Dict[int, bool]] = [dict() for __ in range(swarms)]
    members: List[List[int]] = [[] for __ in range(swarms)]
    ops: List[Op] = []
    clock = [0.0]

    def emit(swarm: int, peer: int, event: str, is_seed: bool, step: float) -> None:
        if event == "stopped":
            del active[swarm][peer]
            members[swarm].remove(peer)
        elif peer not in active[swarm]:
            active[swarm][peer] = is_seed
            members[swarm].append(peer)
        else:
            active[swarm][peer] = is_seed
        population = len(active[swarm])
        want = 0 if event == "stopped" else NUM_WANT
        clock[0] += step
        ops.append(
            Op(
                swarm=swarm,
                host="10.%d.%d.%d" % (swarm, peer >> 8 & 255, peer & 255),
                port=6881 + peer % 1000,
                event=event,
                num_want=want,
                is_seed=is_seed,
                expect_peers=min(want, population - 1) if want else 0,
                expect_size=population,
                due=clock[0],
            )
        )

    ramp = [(swarm, peer) for swarm in range(swarms) for peer in range(peers)]
    rng.shuffle(ramp)
    ramp_step = RAMP_SECONDS / len(ramp)
    for swarm, peer in ramp:
        emit(swarm, peer, "started", False, ramp_step)
    next_peer = [peers] * swarms
    mix_step = INTERVAL / (swarms * peers)
    total_mix = size["closed_mix"] + size["open_mix"]
    mixed = 0
    closed_ops = 0
    while mixed < total_mix:
        if mixed >= size["closed_mix"] and not closed_ops:
            closed_ops = len(ops)
        swarm = rng.randrange(swarms)
        peer = rng.choice(members[swarm])
        is_seed = active[swarm][peer]
        draw = rng.random()
        if draw < COMPLETED_SHARE:
            emit(swarm, peer, "" if is_seed else "completed", True, mix_step)
        elif draw < COMPLETED_SHARE + STOPPED_SHARE:
            emit(swarm, peer, "stopped", is_seed, mix_step)
            emit(swarm, next_peer[swarm], "started", False, mix_step)
            next_peer[swarm] += 1
            mixed += 1
        else:
            emit(swarm, peer, "", is_seed, mix_step)
        mixed += 1
    return infohashes, ops, len(ramp), closed_ops or len(ops)


def socket_of(op: Op) -> int:
    return op.swarm % SOCKETS


def build_packets(infohashes, ops: List[Op], connection_ids: List[int]) -> List[bytes]:
    """Wire packets of every op; the transaction id is the op index."""
    from repro.tracker.server import build_udp_announce
    from repro.tracker.service import AnnounceRequest

    packets = []
    for index, op in enumerate(ops):
        request = AnnounceRequest(
            infohash=infohashes[op.swarm],
            address="%s:%d" % (op.host, op.port),
            event=op.event,
            num_want=op.num_want,
            is_seed=op.is_seed,
        )
        packets.append(
            build_udp_announce(connection_ids[socket_of(op)], index, request, op.port)
        )
    return packets


def check_reply(op: Op, index: int, reply: Optional[bytes]) -> Optional[str]:
    """None when *reply* is what *op* must get, else the reason."""
    if reply is None:
        return "op %d: no reply within %.0f s" % (index, REPLY_TIMEOUT)
    if len(reply) < 20:
        return "op %d: short reply %r" % (index, reply[:40])
    action, transaction, __, leechers, seeders = struct.unpack(">iiiii", reply[:20])
    if action != 1 or transaction != index:
        return "op %d: error or foreign reply %r" % (index, reply[:60])
    blob = reply[20:]
    if len(blob) % 6 or len(blob) // 6 != op.expect_peers:
        return "op %d: %d peer bytes, expected %d peers" % (index, len(blob), op.expect_peers)
    if leechers + seeders != op.expect_size:
        return "op %d: swarm of %d, expected %d" % (index, leechers + seeders, op.expect_size)
    own = socket.inet_aton(op.host) + struct.pack(">H", op.port)
    if any(blob[at : at + 6] == own for at in range(0, len(blob), 6)):
        return "op %d: requester listed in its own reply" % index
    return None


def replies_fingerprint(replies: List[Optional[bytes]]) -> str:
    """Digest of every reply's peer list, in stream order."""
    digest = hashlib.sha256()
    for reply in replies:
        digest.update(b"-" if reply is None else reply[20:])
        digest.update(b"|")
    return digest.hexdigest()


# ----------------------------------------------------------------------
# the server subprocess
# ----------------------------------------------------------------------


def _default_sigint() -> None:
    """Give the server the default SIGINT action, which ``stop`` relies on:
    a process started in the background inherits SIGINT ignored, and
    the server then outlived every ``stop`` by its 10-s timeout."""
    signal.signal(signal.SIGINT, signal.SIG_DFL)


class ServerProcess:
    """``repro tracker serve`` on ephemeral loopback ports."""

    def __init__(self, service_seed: int) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "tracker", "serve", "--host", "127.0.0.1",
             "--port", "0", "--udp-port", "0", "--stats-interval", "0",
             "--seed", str(service_seed)],
            cwd=str(ROOT), env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            preexec_fn=_default_sigint,
        )
        self.port = self._wait_for_port()

    def _wait_for_port(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT
        buffered = b""
        stream = self.proc.stderr
        while time.monotonic() < deadline:
            ready, __, __ = select.select([stream], [], [], 0.05)
            if ready:
                chunk = os.read(stream.fileno(), 4096)
                if not chunk:
                    break
                buffered += chunk
                found = _PORT_LINE.search(buffered.decode("utf-8", "replace"))
                if found:
                    return int(found.group(2))
        self.stop()
        raise RuntimeError("tracker server did not report its port: %r" % buffered[-400:])

    def peak_rss_mb(self) -> float:
        """The server's own peak resident memory (``VmHWM``).  The rusage
        of a waited child would also count the client's pages it was
        spawned from."""
        with open("/proc/%d/status" % self.proc.pid) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the tracker server")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        self.proc.stderr.close()


# ----------------------------------------------------------------------
# the asyncio client
# ----------------------------------------------------------------------


class _Client(asyncio.DatagramProtocol):
    def __init__(self, replies: Dict[int, tuple]) -> None:
        self.replies = replies
        self.waiters: Dict[int, asyncio.Future] = {}
        self.transport = None

    def connection_made(self, transport) -> None:
        self.transport = transport

    def datagram_received(self, data: bytes, addr) -> None:
        if len(data) < 8:
            return
        transaction = struct.unpack(">i", data[4:8])[0]
        self.replies[transaction] = (data, time.perf_counter())
        waiter = self.waiters.pop(transaction, None)
        if waiter is not None and not waiter.done():
            waiter.set_result(data)

    def request(self, transaction: int, packet: bytes) -> asyncio.Future:
        """Send *packet*; the future resolves to the reply datagram."""
        waiter = asyncio.get_running_loop().create_future()
        self.waiters[transaction] = waiter
        self.transport.sendto(packet)
        return waiter


async def drive(port: int, infohashes, ops: List[Op], closed_ops: int, rate: float):
    """Connect both sockets, run the closed then the open loop; returns
    the raw replies and the timings."""
    from repro.tracker.server import build_udp_connect

    loop = asyncio.get_running_loop()
    replies: Dict[int, tuple] = {}
    clients = []
    try:
        for __ in range(SOCKETS):
            transport, client = await loop.create_datagram_endpoint(
                lambda: _Client(replies), remote_addr=("127.0.0.1", port)
            )
            sock = transport.get_extra_info("socket")
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 22)
            clients.append(client)
        connection_ids = []
        for index, client in enumerate(clients):
            reply = await asyncio.wait_for(
                client.request(-1 - index, build_udp_connect(-1 - index)), REPLY_TIMEOUT
            )
            connection_ids.append(struct.unpack(">iiq", reply[:16])[2])
        packets = build_packets(infohashes, ops, connection_ids)

        async def closed_loop(client, indices) -> None:
            for index in indices:
                await client.request(index, packets[index])

        per_socket = [[] for __ in range(SOCKETS)]
        for index in range(closed_ops):
            per_socket[socket_of(ops[index])].append(index)
        gc.collect()
        started = time.perf_counter()
        try:
            await asyncio.wait_for(
                asyncio.gather(
                    *(closed_loop(clients[s], per_socket[s]) for s in range(SOCKETS))
                ),
                REPLY_TIMEOUT + closed_ops / 100.0,
            )
        except asyncio.TimeoutError:
            pass  # the missing replies fail their checks
        closed_wall = time.perf_counter() - started

        open_indices = range(closed_ops, len(ops))
        due: Dict[int, float] = {}
        sent: Dict[int, float] = {}
        # At most OPEN_LOOP_CAP requests in flight: the server's socket
        # buffer (the kernel default) then never overflows, so no request
        # is lost; a request held back by the cap is late, which its
        # latency (from its due time) and the generator lag both show.
        in_flight = asyncio.Semaphore(OPEN_LOOP_CAP)
        futures = []
        gc.collect()
        origin = time.perf_counter() + 0.05
        for position, index in enumerate(open_indices):
            due[index] = origin + position / rate
        for index in open_indices:
            delay = due[index] - time.perf_counter()
            if delay > 0.0005:
                await asyncio.sleep(delay)
            await in_flight.acquire()
            future = clients[socket_of(ops[index])].request(index, packets[index])
            future.add_done_callback(lambda __: in_flight.release())
            futures.append(future)
            sent[index] = time.perf_counter()
        if futures:
            await asyncio.wait(futures, timeout=REPLY_TIMEOUT)
        latencies = [
            1000.0 * (replies[i][1] - due[i]) for i in open_indices if i in replies
        ]
        lags = [1000.0 * (sent[i] - due[i]) for i in open_indices]
    finally:
        for client in clients:
            for waiter in client.waiters.values():
                waiter.cancel()
            if client.transport is not None:
                client.transport.close()
    ordered = [replies.get(index, (None, 0.0))[0] for index in range(len(ops))]
    return ordered, closed_wall, latencies, lags


# ----------------------------------------------------------------------
# in-process replay (checks the wire, and is what the traced pass times)
# ----------------------------------------------------------------------


def replay_in_process(service_seed: int, infohashes, ops: List[Op], timer: StepTimer):
    """The same stream through a never-started ``TrackerServer`` over a
    service configured like ``tracker serve``'s; returns the replies.  The
    ``handle_datagram`` calls are the ``replay`` steps of *timer*, in
    chunks of ``REPLAY_STEP`` requests."""
    from repro.tracker.server import TrackerServer, build_udp_connect
    from repro.tracker.service import TrackerService

    service = TrackerService.from_spec(
        time.monotonic, sampler_spec="uniform", seed=service_seed, num_shards=8
    )
    server = TrackerServer(service)
    addresses = [("127.0.0.1", 40000 + index) for index in range(SOCKETS)]
    connection_ids = [
        struct.unpack(">iiq", server.handle_datagram(build_udp_connect(-1 - i), addr)[:16])[2]
        for i, addr in enumerate(addresses)
    ]
    packets = build_packets(infohashes, ops, connection_ids)
    sources = [addresses[socket_of(op)] for op in ops]
    handle = server.handle_datagram

    def serve(start: int) -> list:
        end = start + REPLAY_STEP
        return [handle(packet, source)
                for packet, source in zip(packets[start:end], sources[start:end])]

    gc.collect()
    replies = []
    for start in range(0, len(packets), REPLAY_STEP):
        replies.extend(timer.step("replay", serve, start))
    return replies


def _check_all(report: Report, ops: List[Op], replies, label: str) -> None:
    problems = [
        reason
        for reason in (check_reply(op, index, reply)
                       for index, (op, reply) in enumerate(zip(ops, replies)))
        if reason is not None
    ]
    report.outcome.add(len(ops), len(problems), label)
    report.outcome.failures.extend(problems[:5])


def run_tracker(report: Report, seconds: float) -> Optional[SpanRecorder]:
    size = SIZES[report.size]
    phases: Dict[str, float] = {}
    report.notes["phase_s"] = phases
    began = time.perf_counter()
    service_seed = Random("tracker_wire-service:%d" % report.seed).getrandbits(31)
    infohashes, ops, ramp_ops, closed_ops = make_stream(report.seed, size)
    phases["stream"] = time.perf_counter() - began
    # The gated throughput: the whole stream through the server's request
    # path in-process, repeated, each step calibrated (the wire figures
    # below are too noisy on a shared host to gate on).
    local_fingerprint = None
    walls: List[float] = []
    calibrated_walls: List[float] = []
    for __ in range(size["replays"]):
        timer = report.timer()
        replies = replay_in_process(service_seed, infohashes, ops, timer)
        wall, calibrated_wall = timer.total("replay")
        walls.append(wall)
        calibrated_walls.append(calibrated_wall)
        fingerprint = replies_fingerprint(replies)
        if local_fingerprint is None:
            _check_all(report, ops, replies, "in-process replies")
            local_fingerprint = fingerprint
        else:
            report.expect_same("in-process replies", local_fingerprint, fingerprint)
    phases["in_process_replays"] = time.perf_counter() - began - phases["stream"]
    recorder = None
    if report.trace:
        recorder = SpanRecorder()
        traced_timer = StepTimer()
        with traced(recorder):
            spanned = replay_in_process(service_seed, infohashes, ops, traced_timer)
        traced_wall = traced_timer.total("replay")[0]
        report.outcome.check(
            replies_fingerprint(spanned) == local_fingerprint,
            "traced in-process replies differ from the untraced ones",
        )
    # Server starts are timed raw: their median moved between runs while
    # the calibration samples next to them did not.
    setup_timer = StepTimer()
    for __ in range(size["extra_starts"]):
        server = setup_timer.step("setup", ServerProcess, service_seed)
        server.stop()
    server = setup_timer.step("setup", ServerProcess, service_seed)
    for setup_raw, __ in setup_timer.steps["setup"]:
        report.sample("setup_s", setup_raw)
    phases["until_wire"] = time.perf_counter() - began
    try:
        wire, closed_wall, latencies, lags = asyncio.run(
            drive(server.port, infohashes, ops, closed_ops, size["rate"])
        )
        server_rss = server.peak_rss_mb()
    finally:
        server.stop()
    phases["until_stopped"] = time.perf_counter() - began
    _check_all(report, ops, wire, "wire replies")
    report.outcome.check(
        replies_fingerprint(wire) == local_fingerprint,
        "wire replies differ from the in-process replay",
    )
    report.notes.update({
        "closed_loop_outstanding": SOCKETS,
        "closed_loop_requests": closed_ops,
        "open_loop_rate_per_s": size["rate"],
        "open_loop_requests": len(ops) - closed_ops,
        "open_loop_latency_samples": len(latencies),
        "open_loop_tail_percentile": tail_percentile(len(latencies)),
    })
    figures = {
        "announces_per_s": closed_ops / closed_wall,
        "announce_p50_ms": percentile(latencies, 50.0) if latencies else 0.0,
        "announce_p99_ms": percentile(latencies, 99.0) if latencies else 0.0,
    }
    log("tracker_wire: closed loop %d announces in %.3f s (%d outstanding); "
        "open loop %d at %.0f/s, p50 %.3f ms, p99 %.3f ms"
        % (closed_ops, closed_wall, SOCKETS, len(ops) - closed_ops, size["rate"],
           figures["announce_p50_ms"], figures["announce_p99_ms"]))
    counters = {
        "announces": len(ops),
        "ramp": ramp_ops,
        "closed_loop": closed_ops,
        "peers_returned": sum(op.expect_peers for op in ops),
    }
    report.witnesses = {
        "stream": {"counters": counters, "fingerprints": {"replies": local_fingerprint}}
    }
    report.counters = dict(counters)
    if recorder is None:
        timeline = ops[-1].due
        rss = server_rss  # the program; the load generator is left out
        report.set_end_to_end(
            {
                "setup_s": median(report.timings["setup_s"]),
                "sim_s_per_wall_s": timeline / median(walls),
                "peak_rss_mb": rss,
            },
            calibrated={
                "setup_s": median(report.timings["setup_s"]),
                "sim_s_per_wall_s": timeline / median(calibrated_walls),
                "peak_rss_mb": rss,
            },
        )
        report.extra.update(figures)
        report.extra["closed_loop_outstanding"] = SOCKETS
        report.extra["open_loop_rate_per_s"] = size["rate"]
        report.extra["generator_lag_p99_ms"] = percentile(lags, 99.0)
        return None
    report.layers = layer_table(recorder)
    report.layers.update(figures)
    report.layers["traced.overhead_pct"] = 100.0 * (traced_wall / median(walls) - 1.0)
    report.layers["tracker.generator_lag_ms"] = percentile(lags, 99.0)
    report.layers["tracker.socket_loop_us"] = (
        1e6 * closed_wall / closed_ops - report.layers.get("tracker.datagram_us", 0.0)
    )
    return recorder
