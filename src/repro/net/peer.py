"""A live BitTorrent client: the sim peer's algorithms over real TCP.

:class:`NetPeer` is a message-for-message port of
:class:`repro.sim.peer.Peer` onto asyncio streams.  The decision-making
cores are *shared objects*, not reimplementations: piece selection goes
through :class:`~repro.core.piece_picker.PiecePicker` (rarity index,
random-first, strict priority, end game), choking through
:class:`~repro.core.choke.LeecherChoker` /
:class:`~repro.core.choke.SeedChoker` on 10-second rounds, and rate
estimation through the same sliding-window counters.  What the sim's
fluid model approximates — transfer capacity — is here enforced by a
:class:`TokenBucket` on the upload path serving real
:meth:`~repro.protocol.metainfo.Metainfo.piece_payload` bytes, verified
by SHA-1 on completion.

Concurrency model: one asyncio server task, one reader task and one
uploader task per connection, plus one choke-round task.  Message
handlers are synchronous (no awaits), so each inbound message is
processed atomically with respect to every other task of the peer —
the same single-threaded semantics the discrete-event engine gives the
sim peer, which is what makes the two traces comparable.
"""

from __future__ import annotations

import asyncio
import struct
from random import Random
from typing import Dict, List, Optional, Union

from repro.core.choke import ChokeCandidate, Choker, LeecherChoker, SeedChoker
from repro.core.piece_picker import PiecePicker
from repro.core.rarest_first import RarestFirstSelector
from repro.net.connection import NetConnection, WallClock, make_remote_handle
from repro.protocol.bitfield import Bitfield
from repro.protocol.messages import (
    HANDSHAKE_LENGTH,
    Bitfield as BitfieldMessage,
    Cancel,
    Choke,
    Handshake,
    Have,
    Interested,
    Message,
    MessageError,
    NotInterested,
    Piece,
    Request,
    Unchoke,
)
from repro.protocol.metainfo import BlockRef, Metainfo
from repro.protocol.peer_id import make_peer_id
from repro.sim.config import PeerConfig
from repro.sim.observer import PeerObserver
from repro.tracker.tracker import Tracker

#: Handshake reserved-byte extension: bytes 6:8 carry the sender's
#: listening port (big-endian), so an *inbound* connection can be mapped
#: to the remote's canonical tracker address instead of the ephemeral
#: source port.  Real clients use reserved bits the same way (DHT, fast
#: extension); zero means "not advertised".
def pack_listen_port(port: int) -> bytes:
    return b"\x00" * 6 + struct.pack(">H", port)


def unpack_listen_port(reserved: bytes) -> int:
    return struct.unpack(">H", reserved[6:8])[0]


class TokenBucket:
    """Byte-rate limiter for the upload path.

    ``rate`` bytes/second refill, ``burst`` bytes of depth (at least one
    block, so a single block request can always be served).  ``take``
    blocks until the requested tokens are available; with ``rate=None``
    the bucket is unlimited.
    """

    def __init__(self, rate: Optional[float], burst: Optional[float] = None):
        if rate is not None and rate <= 0:
            raise ValueError("rate must be positive or None")
        self.rate = rate
        self.burst = burst if burst is not None else (rate if rate else 0.0)
        self._tokens = self.burst
        self._last = None  # type: Optional[float]
        self._lock = asyncio.Lock()

    async def take(self, num_bytes: float) -> None:
        if self.rate is None:
            return
        async with self._lock:
            loop = asyncio.get_running_loop()
            now = loop.time()
            if self._last is None:
                self._last = now
            self._tokens = min(
                self.burst, self._tokens + (now - self._last) * self.rate
            )
            self._last = now
            if num_bytes > self._tokens:
                wait = (num_bytes - self._tokens) / self.rate
                await asyncio.sleep(wait)
                self._last = loop.time()
                self._tokens = 0.0
            else:
                self._tokens -= num_bytes


class NetPeer:
    """One live peer: TCP server + client, driven by the shared cores."""

    def __init__(
        self,
        metainfo: Metainfo,
        config: PeerConfig,
        tracker: Tracker,
        clock: WallClock,
        rng: Random,
        is_seed: bool = False,
        observer: Optional[PeerObserver] = None,
        metrics=None,
        host: str = "127.0.0.1",
    ):
        self.metainfo = metainfo
        self.config = config
        self.tracker = tracker
        # ``simulator`` duck-types the sim peer for the observers, which
        # read exactly ``peer.simulator.now``.
        self.simulator = clock
        self.rng = rng
        self.metrics = metrics
        self.host = host
        self.peer_id = make_peer_id(config.client_id, rng)
        num_pieces = metainfo.geometry.num_pieces
        self.bitfield = Bitfield.full(num_pieces) if is_seed else Bitfield(num_pieces)
        self.selector = RarestFirstSelector()
        self.picker = PiecePicker(
            metainfo.geometry,
            self.bitfield,
            self.selector,
            rng,
            random_first_threshold=config.random_first_threshold,
            strict_priority=config.strict_priority,
            endgame_enabled=config.endgame_enabled,
            use_rarity_index=config.use_rarity_index,
        )
        self.leecher_choker: Choker = LeecherChoker(
            optimistic_rounds=config.optimistic_rounds
        )
        self.seed_choker: Choker = SeedChoker(slots=config.unchoke_slots)
        self._seed = is_seed
        self.observer = observer

        self.connections: Dict[str, NetConnection] = {}
        self.address: Optional[str] = None  # known once the server is bound
        self.port: Optional[int] = None
        self.online = False
        self.joined_at: Optional[float] = None
        self.became_seed_at: Optional[float] = 0.0 if is_seed else None
        self.total_uploaded = 0.0
        self.total_downloaded = 0.0
        self.completed = asyncio.Event()
        if is_seed:
            self.completed.set()

        self._server: Optional[asyncio.AbstractServer] = None
        self._choke_task: Optional[asyncio.Task] = None
        self._bucket = TokenBucket(
            config.upload_capacity if config.upload_capacity else None,
            burst=max(
                float(metainfo.geometry.block_size),
                (config.upload_capacity or 0.0) * 0.25,
            ),
        )
        self._piece_buffers: Dict[int, bytearray] = {}
        self._store: Dict[int, bytes] = {}  # verified piece payloads
        self._was_in_endgame = False
        self._stopping = False

    # ------------------------------------------------------------------
    # identity & state
    # ------------------------------------------------------------------

    @property
    def is_seed(self) -> bool:
        return self._seed

    @property
    def choker(self) -> Choker:
        return self.seed_choker if self._seed else self.leecher_choker

    @property
    def peer_set_size(self) -> int:
        return len(self.connections)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "NetPeer(%s, %s, %d/%d pieces)" % (
            self.address,
            "seed" if self._seed else "leecher",
            self.bitfield.count,
            self.bitfield.num_pieces,
        )

    def piece_payload(self, piece: int) -> bytes:
        """Serve a piece from the verified store (seeds generate lazily)."""
        data = self._store.get(piece)
        if data is None:
            data = self.metainfo.piece_payload(piece)
            self._store[piece] = data
        return data

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> str:
        """Bind the TCP server; returns the canonical address."""
        self._server = await asyncio.start_server(
            self._on_inbound, self.host, 0
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.address = "%s:%d" % (self.host, self.port)
        if self.observer is not None:
            self.observer.on_attached(self)
        return self.address

    async def join(self, num_want: Optional[int] = None) -> None:
        """Announce to the tracker and dial the returned peers."""
        assert self.address is not None, "start() must run before join()"
        self.online = True
        self.joined_at = self.simulator.now
        # Sample through this peer's own seeded RNG: live peers announce
        # in wall-clock order, and a shared tracker stream would let that
        # ordering perturb every subsequent peer's sample.
        addresses = self.tracker.announce(
            self.address,
            event="started",
            num_want=num_want if num_want is not None else self.config.max_peer_set,
            is_seed=self._seed,
            rng=self.rng,
        )
        dialed = 0
        for remote_address in addresses:
            if dialed >= self.config.max_initiated:
                break
            if remote_address == self.address or remote_address in self.connections:
                continue
            if await self._dial(remote_address):
                dialed += 1
        self._choke_task = asyncio.ensure_future(self._choke_loop())

    async def stop(self) -> None:
        """Graceful leave: half-close every link, drain inbound bytes to
        EOF (so in-flight PIECE frames are still counted on both ends),
        then announce ``stopped`` and finalize the observer."""
        if self._stopping:
            return
        self._stopping = True
        self.online = False
        if self._choke_task is not None:
            self._choke_task.cancel()
        if self._server is not None:
            self._server.close()
        for connection in list(self.connections.values()):
            if connection.uploader_task is not None:
                connection.uploader_task.cancel()
            try:
                if connection.writer.can_write_eof():
                    connection.writer.write_eof()
            except (OSError, RuntimeError):
                pass
        # Readers exit on EOF once every endpoint half-closes; bound the
        # drain so a wedged link cannot hang shutdown.
        readers = [
            c.reader_task
            for c in list(self.connections.values())
            if c.reader_task is not None and not c.reader_task.done()
        ]
        if readers:
            await asyncio.wait(readers, timeout=5.0)
        for connection in list(self.connections.values()):
            self._close_connection(connection)
        if self.joined_at is not None:
            try:
                self.tracker.announce(
                    self.address,
                    event="stopped",
                    num_want=0,
                    is_seed=self._seed,
                    rng=self.rng,
                )
            except Exception:
                pass
        if self.observer is not None and hasattr(self.observer, "finalize"):
            self.observer.finalize(now=self.simulator.now)

    def crash(self) -> None:
        """Abrupt death: cancel every task and RST every link (no FIN,
        no stopped announce) — remotes observe a connection reset."""
        self.online = False
        self._stopping = True
        if self._choke_task is not None:
            self._choke_task.cancel()
        if self._server is not None:
            self._server.close()
        for connection in list(self.connections.values()):
            if connection.reader_task is not None:
                connection.reader_task.cancel()
            if connection.uploader_task is not None:
                connection.uploader_task.cancel()
            connection.abort()
            connection.closed = True
        self.connections.clear()
        if self.metrics is not None:
            self.metrics.inc("fault.peer_crashed")

    # ------------------------------------------------------------------
    # connection establishment
    # ------------------------------------------------------------------

    async def _dial(self, remote_address: str) -> bool:
        host, _, port = remote_address.rpartition(":")
        try:
            reader, writer = await asyncio.open_connection(host, int(port))
        except OSError:
            return False
        return await self._handshake(
            reader, writer, initiated_by_local=True, dialed_address=remote_address
        )

    async def _on_inbound(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # The reader/uploader tasks are spawned by _handshake; the stream
        # stays open after this callback returns.
        await self._handshake(reader, writer, initiated_by_local=False)

    async def _handshake(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        initiated_by_local: bool,
        dialed_address: Optional[str] = None,
    ) -> bool:
        """Exchange handshakes and the opening bitfields.

        Per BEP 3 both endpoints send their handshake eagerly; the
        connection enters the peer set (``conn_open``) only after the
        remote's handshake *and* opening BITFIELD arrived, which is when
        the remote's identity and completeness are actually known.
        """
        connection = NetConnection(
            self,
            reader,
            writer,
            initiated_by_local,
            self.simulator.now,
            self.config.rate_window,
        )
        try:
            writer.write(
                Handshake(
                    info_hash=self.metainfo.info_hash,
                    peer_id=self.peer_id.raw,
                    reserved=pack_listen_port(self.port or 0),
                ).encode()
            )
            writer.write(BitfieldMessage(bits=self.bitfield.to_bytes()).encode())
            await writer.drain()
            raw = await reader.readexactly(HANDSHAKE_LENGTH)
            shake = Handshake.decode(raw)
            if shake.info_hash != self.metainfo.info_hash:
                raise MessageError("info_hash mismatch")
            if dialed_address is not None:
                remote_address = dialed_address
            else:
                advertised = unpack_listen_port(shake.reserved)
                peer_host = writer.get_extra_info("peername")[0]
                remote_address = "%s:%d" % (peer_host, advertised)
            # First frame must be the opening bitfield (bitfield-first
            # grammar; the sim sends it unconditionally, empty included).
            messages: List[Message] = []
            while not messages:
                chunk = await reader.read(65536)
                if not chunk:
                    raise MessageError("EOF before opening bitfield")
                messages = connection.stream.feed(chunk)
            if not isinstance(messages[0], BitfieldMessage):
                raise MessageError(
                    "expected opening BITFIELD, got %s" % type(messages[0]).__name__
                )
        except (OSError, MessageError, asyncio.IncompleteReadError):
            writer.close()
            return False
        if remote_address in self.connections or remote_address == self.address:
            writer.close()  # duplicate link (simultaneous dial); keep the first
            return False
        if self.peer_set_size >= self.config.max_peer_set:
            writer.close()
            return False

        connection.remote = make_remote_handle(remote_address, shake.peer_id, connection)
        opening = messages[0]
        assert isinstance(opening, BitfieldMessage)
        connection.remote_bitfield = Bitfield.from_bytes(
            opening.bits, self.bitfield.num_pieces
        )
        self.connections[remote_address] = connection
        now = self.simulator.now
        if self.observer is not None:
            self.observer.on_connection_open(now, connection)
            # Our bitfield went out with the handshake; log it first so
            # the per-link trace reads conn_open, sent BITFIELD,
            # received BITFIELD — the same shape the sim emits.
            self.observer.on_message_sent(
                now, connection, BitfieldMessage(bits=self.bitfield.to_bytes())
            )
            self.observer.on_message_received(now, connection, opening)
        self.picker.peer_joined(connection.remote_bitfield)
        self._update_interest(connection)
        connection.reader_task = asyncio.ensure_future(
            self._reader_loop(connection, messages[1:])
        )
        connection.uploader_task = asyncio.ensure_future(self._upload_loop(connection))
        return True

    # ------------------------------------------------------------------
    # reader / dispatcher
    # ------------------------------------------------------------------

    async def _reader_loop(
        self, connection: NetConnection, pending: List[Message]
    ) -> None:
        """Dispatch *pending* (frames that arrived with the opening
        bitfield), then every frame read from the link."""
        reaped = False
        try:
            for message in pending:
                if connection.closed:
                    return
                self._dispatch(connection, message)
            while not connection.closed:
                chunk = await connection.reader.read(65536)
                if not chunk:
                    break  # clean FIN from the remote
                for message in connection.stream.feed(chunk):
                    if connection.closed:
                        return
                    self._dispatch(connection, message)
        except asyncio.CancelledError:
            return
        except (OSError, MessageError):
            # Reset or garbage on the wire: reap the link, mirroring the
            # sim's fault-sweep semantics for half-open connections.
            reaped = True
        if connection.closed:
            return
        if reaped:
            now = self.simulator.now
            if self.observer is not None:
                self.observer.on_fault(now, "connection_reaped")
            if self.metrics is not None:
                self.metrics.inc("fault.connection_reaped")
        self._close_connection(connection)
        # Blocks in flight on the dead link were released back to the
        # picker; offer them to the surviving links right away.
        for other in list(self.connections.values()):
            if not other.peer_choking and other.am_interested:
                self._fill_pipeline(other)

    def _dispatch(self, connection: NetConnection, message: Message) -> None:
        if self.observer is not None:
            self.observer.on_message_received(self.simulator.now, connection, message)
        if isinstance(message, BitfieldMessage):
            self._handle_bitfield(connection, message)
        elif isinstance(message, Have):
            self._handle_have(connection, message)
        elif isinstance(message, Interested):
            connection.peer_interested = True
        elif isinstance(message, NotInterested):
            connection.peer_interested = False
        elif isinstance(message, Choke):
            self._handle_choke(connection)
        elif isinstance(message, Unchoke):
            self._handle_unchoke(connection)
        elif isinstance(message, Request):
            self._handle_request(connection, message)
        elif isinstance(message, Cancel):
            self._handle_cancel(connection, message)
        elif isinstance(message, Piece):
            self._handle_piece(connection, message)

    def _send(self, connection: NetConnection, message: Message) -> None:
        if connection.closed or self._stopping:
            return
        if self.observer is not None:
            self.observer.on_message_sent(self.simulator.now, connection, message)
        connection.write_raw(message.encode())

    # ------------------------------------------------------------------
    # message handlers (sim-peer semantics, verbatim)
    # ------------------------------------------------------------------

    def _handle_bitfield(self, connection: NetConnection, message: BitfieldMessage) -> None:
        incoming = Bitfield.from_bytes(message.bits, self.bitfield.num_pieces)
        self.picker.peer_left(connection.remote_bitfield)
        connection.remote_bitfield = incoming
        self.picker.peer_joined(incoming)
        self._update_interest(connection)

    def _handle_have(self, connection: NetConnection, message: Have) -> None:
        if connection.remote_bitfield.set(message.piece):
            self.picker.remote_has(message.piece)
        if not connection.am_interested:
            if not self._seed and not self.bitfield.has(message.piece):
                connection.am_interested = True
                self._send(connection, Interested())
        if not connection.peer_choking and connection.am_interested:
            self._fill_pipeline(connection)

    def _handle_choke(self, connection: NetConnection) -> None:
        connection.peer_choking = True
        self.picker.on_peer_gone(connection.remote_key)
        connection.outstanding.clear()

    def _handle_unchoke(self, connection: NetConnection) -> None:
        connection.peer_choking = False
        if connection.am_interested:
            self._fill_pipeline(connection)

    def _handle_request(self, connection: NetConnection, message: Request) -> None:
        block = self._wire_block(message)
        if connection.am_choking:
            return  # requests received while choking are dropped
        if not self.bitfield.has(message.piece):
            return
        connection.enqueue_upload(block)

    def _handle_cancel(self, connection: NetConnection, message: Cancel) -> None:
        connection.cancel_queued_block(self._wire_block(message))

    def _wire_block(self, message: Union[Request, Cancel]) -> BlockRef:
        """The block a REQUEST or CANCEL names, checked against the
        geometry: the piece in range, the offset block-aligned and the
        length that block's real length.  Anything else is garbage on the
        wire and reaps the link (an oversized REQUEST would otherwise
        hold the peer-wide token bucket for that many bytes)."""
        geometry = self.metainfo.geometry
        piece, offset = message.piece, message.offset
        if 0 <= piece < geometry.num_pieces and offset % geometry.block_size == 0:
            try:
                block = geometry.block_ref(piece, offset // geometry.block_size)
            except IndexError:
                pass
            else:
                if block.length == message.length:
                    return block
        raise MessageError(
            "%s(piece=%d, offset=%d, length=%d) names no block of this torrent"
            % (type(message).__name__.upper(), piece, offset, message.length)
        )

    def _handle_piece(self, connection: NetConnection, message: Piece) -> None:
        geometry = self.metainfo.geometry
        block_index = message.offset // geometry.block_size
        try:
            block = geometry.block_ref(message.piece, block_index)
        except IndexError:
            return
        now = self.simulator.now
        connection.downloaded.add(now, len(message.data))
        self.total_downloaded += len(message.data)
        connection.outstanding.discard(block)
        if self.bitfield.has(block.piece):
            return  # late duplicate (end game)
        buffer = self._piece_buffers.setdefault(
            block.piece, bytearray(geometry.piece_length(block.piece))
        )
        buffer[block.offset : block.offset + block.length] = message.data
        completed, cancel_keys = self.picker.on_block_received(
            block, connection.remote_key
        )
        if self.observer is not None:
            self.observer.on_block_received(
                now, connection, block.piece, block.offset, block.length
            )
        for key in sorted(cancel_keys):
            other = self.connections.get(key)
            if other is not None:
                other.outstanding.discard(block)
                self._send(
                    other,
                    Cancel(piece=block.piece, offset=block.offset, length=block.length),
                )
        if completed:
            self._on_piece_completed(block.piece)
        if self.picker.in_endgame and not self._was_in_endgame:
            self._was_in_endgame = True
            if self.observer is not None:
                self.observer.on_endgame_entered(self.simulator.now)
        if not connection.peer_choking and connection.am_interested:
            self._fill_pipeline(connection)

    def _on_piece_completed(self, piece: int) -> None:
        now = self.simulator.now
        data = bytes(self._piece_buffers.pop(piece, b""))
        if not self.metainfo.verify_piece(piece, data):
            if self.observer is not None:
                self.observer.on_hash_failure(now, piece)
            if self.metrics is not None:
                self.metrics.inc("fault.hash_failure")
            self.picker.reset_piece(piece)
            return
        self._store[piece] = data
        if self.observer is not None:
            self.observer.on_piece_completed(now, piece)
        have = Have(piece=piece)
        for connection in list(self.connections.values()):
            self._send(connection, have)
            if connection.am_interested:
                self._update_interest(connection)
        if self.bitfield.is_complete():
            self._become_seed()

    def _update_interest(self, connection: NetConnection) -> None:
        should_be_interested = not self._seed and self.bitfield.interesting_in(
            connection.remote_bitfield
        )
        if should_be_interested and not connection.am_interested:
            connection.am_interested = True
            self._send(connection, Interested())
            if not connection.peer_choking:
                self._fill_pipeline(connection)
        elif not should_be_interested and connection.am_interested:
            connection.am_interested = False
            self._send(connection, NotInterested())

    def _fill_pipeline(self, connection: NetConnection) -> None:
        while (
            not connection.closed
            and connection.am_interested
            and not connection.peer_choking
            and len(connection.outstanding) < self.config.request_pipeline_depth
        ):
            block = self.picker.next_request(
                connection.remote_bitfield, connection.remote_key
            )
            if block is None:
                break
            connection.outstanding.add(block)
            self._send(
                connection,
                Request(piece=block.piece, offset=block.offset, length=block.length),
            )

    # ------------------------------------------------------------------
    # uploads (token-bucket paced)
    # ------------------------------------------------------------------

    async def _upload_loop(self, connection: NetConnection) -> None:
        try:
            while not connection.closed:
                await connection.upload_ready.wait()
                block = connection.pop_upload()
                if block is None:
                    continue
                await self._bucket.take(block.length)
                # The link may have choked or died while waiting for
                # tokens; the queue was cleared then, so drop the block.
                # (No await between this check and the send, so the
                # byte counting and the write stay atomic.)
                if connection.closed or connection.am_choking or self._stopping:
                    continue
                payload = self.piece_payload(block.piece)
                data = payload[block.offset : block.offset + block.length]
                now = self.simulator.now
                connection.uploaded.add(now, len(data))
                self.total_uploaded += len(data)
                self._send(
                    connection,
                    Piece(piece=block.piece, offset=block.offset, data=data),
                )
                await connection.writer.drain()
        except asyncio.CancelledError:
            return
        except (OSError, RuntimeError):
            return  # transport died; the reader loop reaps the link

    # ------------------------------------------------------------------
    # the choke round
    # ------------------------------------------------------------------

    async def _choke_loop(self) -> None:
        try:
            while self.online:
                await asyncio.sleep(self.config.choke_interval)
                if self.online:
                    self._choke_round()
        except asyncio.CancelledError:
            return

    def _choke_round(self) -> None:
        now = self.simulator.now
        candidates: List[ChokeCandidate] = []
        for connection in self.connections.values():
            download_rate = connection.downloaded.rate(now)
            upload_rate = connection.uploaded.rate(now)
            if self.observer is not None:
                self.observer.on_rate_sample(
                    now, connection, download_rate, upload_rate
                )
            candidates.append(
                ChokeCandidate(
                    key=connection.remote_key,
                    interested=connection.peer_interested,
                    choked=connection.am_choking,
                    download_rate=download_rate,
                    upload_rate=upload_rate,
                    uploaded_to=connection.uploaded.total,
                    downloaded_from=connection.downloaded.total,
                    last_unchoked=connection.last_unchoked_local,
                )
            )
        decision = self.choker.round(candidates, now, self.rng)
        if self.observer is not None:
            self.observer.on_choke_round(now, decision)
        unchoke_set = set(decision.unchoked)
        for connection in list(self.connections.values()):
            if connection.remote_key in unchoke_set:
                if connection.am_choking:
                    connection.am_choking = False
                    connection.last_unchoked_local = now
                    self._send(connection, Unchoke())
            else:
                if not connection.am_choking:
                    connection.am_choking = True
                    connection.clear_upload_queue()
                    self._send(connection, Choke())

    # ------------------------------------------------------------------
    # seed transition & teardown
    # ------------------------------------------------------------------

    def _become_seed(self) -> None:
        if self._seed:
            return
        self._seed = True
        now = self.simulator.now
        self.became_seed_at = now
        self.seed_choker.reset()
        if self.observer is not None:
            self.observer.on_seed_state(now)
        try:
            self.tracker.announce(
                self.address,
                event="completed",
                num_want=0,
                is_seed=True,
                rng=self.rng,
            )
        except Exception:
            pass
        # "When a leecher becomes a seed, it closes its connections to
        # all the seeds." (§IV-A.2.b)  Half-close (FIN) rather than
        # hard-close: PIECE frames still in the socket buffer must be
        # drained and counted on this side before the link dies, or the
        # swarm's byte conservation breaks.
        for connection in list(self.connections.values()):
            if connection.remote_bitfield.is_complete():
                self._half_close(connection)
            elif connection.am_interested:
                connection.am_interested = False
                self._send(connection, NotInterested())
        self.completed.set()

    def _half_close(self, connection: NetConnection) -> None:
        """Send FIN but keep reading; the reader loop closes on EOF."""
        connection.clear_upload_queue()
        if connection.uploader_task is not None:
            connection.uploader_task.cancel()
        try:
            if connection.writer.can_write_eof():
                connection.writer.write_eof()
        except (OSError, RuntimeError):
            pass

    def _close_connection(self, connection: NetConnection) -> None:
        """Tear down our endpoint (FIN); the remote sees a clean EOF."""
        if connection.closed:
            return
        connection.closed = True
        self.connections.pop(connection.remote_key, None)
        self.picker.peer_left(connection.remote_bitfield)
        self.picker.on_peer_gone(connection.remote_key)
        connection.clear_upload_queue()
        connection.outstanding.clear()
        if connection.uploader_task is not None:
            connection.uploader_task.cancel()
        if self.observer is not None:
            self.observer.on_connection_close(self.simulator.now, connection)
        try:
            connection.writer.close()
        except (OSError, RuntimeError):  # pragma: no cover - already dead
            pass
