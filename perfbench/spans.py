"""Spans for the traced pass, recorded from outside the program.

:func:`traced` patches the public entry points of each layer (class
methods, the allocator handed out by ``resolve_allocator``) with thin
wrappers that open and close a span around the original call, and
restores every original on exit.  The wrappers only read arguments and
results, so the simulation, its RNG draws and every fingerprint are the
same with or without them; the benchmark checks that.

A span is ``(name, start, end, parent)``.  Spans are kept in memory in
columnar arrays (up to a cap) and written out when the benchmark ends.
Per name the recorder also keeps the call count, the inclusive time and
the self time (duration minus the part covered by child spans), so the
per-layer table stays exact after the cap is reached.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List

#: Spans kept in memory for the written trace; aggregates stay exact past it.
SPAN_CAP = 1_000_000


class SpanRecorder:
    """Stack of open spans plus per-name aggregates and extra counters."""

    def __init__(self, cap: int = SPAN_CAP) -> None:
        self.cap = cap
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.calls: List[int] = []
        self.total: List[float] = []
        self.self_time: List[float] = []
        self.name_ids = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.dropped = 0
        self._stack: List[list] = []
        self.counters: Dict[str, float] = {}
        self.clock = time.perf_counter
        self.origin = self.clock()

    def span_id(self, name: str) -> int:
        """Numeric id of span name *name* (registered on first use)."""
        index = self._ids.get(name)
        if index is None:
            index = len(self.names)
            self._ids[name] = index
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
        return index

    def enter(self, name_id: int) -> None:
        stack = self._stack
        start = self.clock()
        if len(self.starts) < self.cap:
            slot = len(self.starts)
            self.name_ids.append(name_id)
            self.starts.append(start)
            self.ends.append(0.0)
            self.parents.append(stack[-1][3] if stack else -1)
        else:
            slot = -1
            self.dropped += 1
        stack.append([name_id, start, 0.0, slot])

    def exit(self) -> None:
        end = self.clock()
        name_id, start, child, slot = self._stack.pop()
        duration = end - start
        self.calls[name_id] += 1
        self.total[name_id] += duration
        self.self_time[name_id] += duration - child
        if slot >= 0:
            self.ends[slot] = end
        if self._stack:
            self._stack[-1][2] += duration

    @contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark's own code."""
        self.enter(self.span_id(name))
        try:
            yield
        finally:
            self.exit()

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    # -- results -----------------------------------------------------------

    def aggregates(self) -> Dict[str, dict]:
        """``{span name: {"calls", "total_s", "self_s"}}``."""
        return {
            name: {
                "calls": self.calls[index],
                "total_s": self.total[index],
                "self_s": self.self_time[index],
            }
            for index, name in enumerate(self.names)
        }

    def merge(self, aggregates: Dict[str, dict], counters: Dict[str, float]) -> None:
        """Fold in aggregates recorded by another process (campaign workers)."""
        for name, entry in aggregates.items():
            index = self.span_id(name)
            self.calls[index] += entry["calls"]
            self.total[index] += entry["total_s"]
            self.self_time[index] += entry["self_s"]
        for name, value in counters.items():
            if name.endswith("_max"):
                self.counters[name] = max(self.counters.get(name, value), value)
            else:
                self.count(name, value)

    def write(self, path: Path) -> None:
        """Write the kept spans: ``<path>.json`` (names, columns, counts)
        and ``<path>.bin`` (the four columns back to back)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(str(path) + ".bin", "wb") as handle:
            for column in (self.name_ids, self.starts, self.ends, self.parents):
                column.tofile(handle)
        header = {
            "names": self.names,
            "spans": len(self.starts),
            "dropped": self.dropped,
            "origin": self.origin,
            "columns": [
                ["name_id", self.name_ids.typecode],
                ["start", self.starts.typecode],
                ["end", self.ends.typecode],
                ["parent", self.parents.typecode],
            ],
            "aggregates": self.aggregates(),
            "counters": self.counters,
        }
        Path(str(path) + ".json").write_text(json.dumps(header, indent=1) + "\n")


class EngineSpans:
    """``Simulator.set_profiler`` hook turning each event into a span.

    The engine calls ``clock()`` before and after a callback and then
    ``observe``; the first ``clock()`` of an event opens the span and
    ``observe`` closes it, so spans recorded inside the callback nest
    under it.
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self.name_id = recorder.span_id("engine.event")
        self.open = False
        self.queue_depth_max = 0

    def clock(self) -> float:
        if not self.open:
            self.open = True
            self.recorder.enter(self.name_id)
        return time.perf_counter()

    def observe(self, label: str, elapsed: float, queue_depth: int) -> None:
        self.recorder.exit()
        self.open = False
        if queue_depth > self.queue_depth_max:
            self.queue_depth_max = queue_depth


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------


def _plain(recorder: SpanRecorder, name: str, original):
    name_id = recorder.span_id(name)
    enter, exit_ = recorder.enter, recorder.exit

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        enter(name_id)
        try:
            return original(*args, **kwargs)
        finally:
            exit_()

    return wrapper


def _next_request(recorder: SpanRecorder, original):
    name_id = recorder.span_id("select.next_request")
    enter, exit_ = recorder.enter, recorder.exit
    counters = recorder.counters
    counters.setdefault("select.hits", 0.0)

    @functools.wraps(original)
    def wrapper(self, remote_bitfield, peer_key):
        enter(name_id)
        try:
            block = original(self, remote_bitfield, peer_key)
        finally:
            exit_()
        if block is not None:
            counters["select.hits"] += 1
        return block

    return wrapper


def _choke_round(recorder: SpanRecorder, original, last_sets: dict):
    name_id = recorder.span_id("choke.round")
    enter, exit_ = recorder.enter, recorder.exit
    counters = recorder.counters
    counters.setdefault("choke.changes", 0.0)

    @functools.wraps(original)
    def wrapper(self, candidates, now, rng):
        enter(name_id)
        try:
            decision = original(self, candidates, now, rng)
        finally:
            exit_()
        unchoked = frozenset(decision.unchoked)
        if last_sets.get(id(self), frozenset()) != unchoked:
            counters["choke.changes"] += 1
        last_sets[id(self)] = unchoked
        return decision

    return wrapper


def _sim_announce(recorder: SpanRecorder, original):
    name_id = recorder.span_id("tracker.announce")
    enter, exit_ = recorder.enter, recorder.exit
    counters = recorder.counters

    @functools.wraps(original)
    def wrapper(self, address, event, num_want, *args, **kwargs):
        enter(name_id)
        try:
            peers = original(self, address, event, num_want, *args, **kwargs)
        finally:
            exit_()
        if num_want > 0 and event != "stopped":
            recorder.count("tracker.num_want", num_want)
            recorder.count("tracker.returned", len(peers))
        counters["tracker.announces"] = counters.get("tracker.announces", 0.0) + 1
        return peers

    return wrapper


def _service_announce(recorder: SpanRecorder, original):
    name_id = recorder.span_id("tracker.service")
    enter, exit_ = recorder.enter, recorder.exit
    counters = recorder.counters

    @functools.wraps(original)
    def wrapper(self, request, rng=None):
        enter(name_id)
        try:
            result = original(self, request, rng)
        finally:
            exit_()
        if request.num_want > 0 and request.event != "stopped":
            recorder.count("tracker.num_want", request.num_want)
            recorder.count("tracker.returned", len(result.peers))
        counters["tracker.announces"] = counters.get("tracker.announces", 0.0) + 1
        return result

    return wrapper


def _allocator_factory(recorder: SpanRecorder, resolve):
    name_id = recorder.span_id("allocate.max_min")
    enter, exit_ = recorder.enter, recorder.exit

    @functools.wraps(resolve)
    def resolve_traced(*args, **kwargs):
        allocate = resolve(*args, **kwargs)

        @functools.wraps(allocate)
        def traced_allocate(flows, *more, **kw):
            recorder.count("allocate.flows", len(flows))
            enter(name_id)
            try:
                return allocate(flows, *more, **kw)
            finally:
                exit_()

        return traced_allocate

    return resolve_traced


def _subclasses_defining(base, method: str) -> list:
    found, pending = [], [base]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if method in vars(cls) and not getattr(vars(cls)[method], "__isabstractmethod__", False):
            found.append(cls)
    return found


@contextmanager
def traced(recorder: SpanRecorder):
    """Install every layer wrapper for the duration of the block."""
    from repro.campaign.cache import ShardCache
    from repro.campaign.runner import CampaignRunner
    from repro.core.choke import Choker
    from repro.core.piece_picker import PiecePicker
    from repro.instrumentation.trace import TraceRecorder
    from repro.sim import swarm as swarm_module
    from repro.sim.peer import Peer
    from repro.sim.swarm import Swarm
    from repro.tracker.sampling import PeerSampler
    from repro.tracker.server import TrackerServer
    from repro.tracker.service import TrackerService
    from repro.tracker.tracker import Tracker

    patches = [
        (Peer, "join", _plain(recorder, "connect.join", Peer.join)),
        (PiecePicker, "peer_joined",
         _plain(recorder, "connect.bitfield", PiecePicker.peer_joined)),
        (Swarm, "broadcast_have",
         _plain(recorder, "have.fanout", Swarm.broadcast_have)),
        (Peer, "advance_uploads",
         _plain(recorder, "transfer.advance", Peer.advance_uploads)),
        (PiecePicker, "next_request", _next_request(recorder, PiecePicker.next_request)),
        (TraceRecorder, "emit", _plain(recorder, "trace.emit", TraceRecorder.emit)),
        (TraceRecorder, "emit_raw",
         _plain(recorder, "trace.emit", TraceRecorder.emit_raw)),
        (Tracker, "announce", _sim_announce(recorder, Tracker.announce)),
        (TrackerService, "announce", _service_announce(recorder, TrackerService.announce)),
        (TrackerServer, "handle_datagram",
         _plain(recorder, "tracker.datagram", TrackerServer.handle_datagram)),
        (ShardCache, "load", _plain(recorder, "campaign.cache_load", ShardCache.load)),
        (CampaignRunner, "run", _plain(recorder, "campaign.run", CampaignRunner.run)),
        (swarm_module, "resolve_allocator",
         _allocator_factory(recorder, swarm_module.resolve_allocator)),
    ]
    last_sets: dict = {}
    for cls in _subclasses_defining(Choker, "round"):
        patches.append((cls, "round", _choke_round(recorder, vars(cls)["round"], last_sets)))
    for cls in _subclasses_defining(PeerSampler, "sample"):
        patches.append(
            (cls, "sample", _plain(recorder, "tracker.sample", vars(cls)["sample"]))
        )
    originals = [(owner, name, vars(owner)[name]) for owner, name, __ in patches]
    try:
        for owner, name, wrapper in patches:
            setattr(owner, name, wrapper)
        yield recorder
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)
