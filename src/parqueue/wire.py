"""Message framing and the boss↔worker transport abstraction.

A frame is a 13-byte header followed by the payload bytes:

    offset  size  field
    0       2     magic 0x4D 0x51 ("MQ")
    2       1     version (currently 1)
    3       1     message kind code
    4       1     reserved, must be zero
    5       4     job type, unsigned 32-bit little-endian (0 when unused)
    9       4     payload length, unsigned 32-bit little-endian, at most MAX_PAYLOAD
    13      len   payload

Endpoint holds the transport rules, so a lost peer reads the same on
either backend (there is no reconnection or failover); the two
interchangeable backends only move frames.  The in-process one links
node threads: each node receives through one inbox that its peers feed
directly.  The TCP one speaks the frame grammar over sockets: both ends
are one class that starts no thread and parses frames out of a buffer
per peer socket; read_frame serves only callers holding a byte stream.
Frames arrive in send order between any pair of nodes.
"""

from __future__ import annotations

import selectors
import socket
import struct
import time
from collections import deque
from enum import IntEnum
from queue import SimpleQueue
from typing import BinaryIO, Callable, NamedTuple

from .errors import (
    LifecycleError,
    ProtocolError,
    StartupError,
    TransportError,
    TruncationError,
)

MAGIC = b"MQ"
VERSION = 1
HEADER = struct.Struct("<2sBBxII")
HEADER_SIZE = HEADER.size  # 13
MAX_PAYLOAD = 1 << 28  # 256 MiB

BOSS_ID = 0


class MessageKind(IntEnum):
    """Frame kinds; the byte codes are part of the stable wire format."""

    JOB_ASSIGN = 1
    JOB_RESULT = 2
    JOB_SUBMIT = 3
    TASK_REQUEST = 4
    TASK_RESPONSE = 5
    INFO_REQUEST = 6
    INFO_RESPONSE = 7
    DATA_SHARE = 8
    STOP = 9
    ABORT = 10


class Frame(NamedTuple):
    kind: MessageKind
    job_type: int = 0
    payload: bytes = b""


def encode_frame(frame: Frame) -> bytes:
    if len(frame.payload) > MAX_PAYLOAD:
        raise ProtocolError(f"frame payload of {len(frame.payload)} bytes exceeds the maximum {MAX_PAYLOAD}")
    if not 0 <= frame.job_type <= 0xFFFFFFFF:
        raise ProtocolError(f"job type {frame.job_type} exceeds the 32-bit field")
    header = HEADER.pack(MAGIC, VERSION, int(frame.kind), frame.job_type, len(frame.payload))
    return header + frame.payload


_READ_CHUNK = 1 << 20


def _read_exact(source: BinaryIO, count: int) -> bytes:
    # count comes from a peer's length field: reading in bounded chunks
    # allocates memory only for bytes that actually arrive
    chunks = []
    got = 0
    while got < count:
        chunk = source.read(min(count - got, _READ_CHUNK))
        if not chunk:
            raise TruncationError(f"stream ended after {got} of {count} bytes")
        chunks.append(chunk)
        got += len(chunk)
    return chunks[0] if len(chunks) == 1 else b"".join(chunks)


_KINDS = {int(kind): kind for kind in MessageKind}
_ABORT = MessageKind.ABORT  # per frame, a global costs far less than an enum attribute


def _abort_frame(reason: str | None) -> Frame:
    """The ABORT frame a close or lost-peer reason travels in."""
    return Frame(_ABORT, 0, (reason or "").encode("utf-8", "replace"))


def _parse_header(data) -> tuple[MessageKind, int, int]:
    """Check the header data starts with; return kind, job type and length."""
    magic, version, kind_code, job_type, length = HEADER.unpack_from(data)
    if magic != MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r}")
    if version != VERSION:
        raise ProtocolError(f"unsupported frame version {version}")
    if data[4] != 0:
        raise ProtocolError("reserved header byte must be zero")
    kind = _KINDS.get(kind_code)
    if kind is None:
        raise ProtocolError(f"unknown message kind code {kind_code}")
    if length > MAX_PAYLOAD:
        raise ProtocolError(f"frame payload of {length} bytes exceeds the maximum {MAX_PAYLOAD}")
    return kind, job_type, length


def read_frame(source: BinaryIO) -> Frame:
    """Consume exactly one frame from a byte source positioned at a
    frame boundary."""
    kind, job_type, length = _parse_header(_read_exact(source, HEADER_SIZE))
    payload = _read_exact(source, length) if length else b""
    return Frame(kind, job_type, payload)


class Endpoint:
    """Transport handle owned by one node, and the rules every backend shares.

    send/recv pair frames with their source node; broadcast (boss only)
    delivers one frame to every worker, ordered with respect to other
    boss-to-worker traffic on each channel.  The rules, each raising a
    TransportError: a closed endpoint reads "endpoint is closed"; a send
    to an unlisted node, "node N has no channel to node M"; a lost peer
    reads once as "node N disconnected[: reason]" and is closed from then
    on; recv with no open peer left reads "all peers disconnected" rather
    than blocks; a send to a lost peer reads "send to node N failed: why".
    A backend only moves frames: _put(dest, peer, frame) to one peer,
    raising OSError if the peer is gone (inproc names the closed peer,
    TCP gives the OS error, and over loopback the first send after the
    peer's close can still succeed); _take() blocks for the next (src,
    frame), an ABORT for a lost peer; _hang_up(reason) tells the peers
    on the first close.
    """

    # in process, how many frames wait for recv; None where only a blocking recv can tell
    ready: Callable[[], int] | None = None

    def __init__(self, node_id: int | None, peers: dict):
        self.node_id = node_id
        self._peers = peers  # node id -> what _put moves frames to, in broadcast order
        self._open_peers = len(peers)  # listed peers whose ABORT recv has not yet raised
        self._closed = False

    def send(self, dest: int, frame: Frame) -> None:
        if self._closed:
            raise TransportError("endpoint is closed")
        peer = self._peers.get(dest)
        if peer is None:
            raise TransportError(f"node {self.node_id} has no channel to node {dest}")
        try:
            self._put(dest, peer, frame)
        except OSError as exc:
            raise TransportError(f"send to node {dest} failed: {exc}") from exc

    def recv(self) -> tuple[int, Frame]:
        if self._closed:
            raise TransportError("endpoint is closed")
        if not self._open_peers:
            raise TransportError("all peers disconnected")
        src, frame = self._take()
        if frame.kind is _ABORT:
            self._open_peers -= 1
            detail = f": {frame.payload.decode('utf-8', 'replace')}" if frame.payload else ""
            raise TransportError(f"node {src} disconnected{detail}")
        return src, frame

    def broadcast(self, frame: Frame) -> None:
        if self.node_id != BOSS_ID:
            raise LifecycleError("broadcast is a boss-only operation")
        for dest in self._peers:
            self.send(dest, frame)

    def close(self, reason: str | None = None) -> None:
        if not self._closed:
            self._closed = True
            self._hang_up(reason)

    def _connect(self, peer: Endpoint) -> None:  # a peer endpoint in this process
        self._peers[peer.node_id] = peer
        self._open_peers += 1


class InprocEndpoint(Endpoint):
    """In-process node endpoint: peers put (src, Frame) items straight
    into its inbox, ending with an ABORT when they close."""

    def __init__(self, node_id: int):
        super().__init__(node_id, {})
        self.on_delivery: Callable[[MessageKind], None] = lambda kind: None  # a sender calls it per delivery
        self._inbox: SimpleQueue = SimpleQueue()
        self._take, self.ready = self._inbox.get, self._inbox.qsize

    def _put(self, dest: int, peer: InprocEndpoint, frame: Frame) -> None:
        if peer._closed:
            raise ConnectionError(f"node {dest} is closed")
        peer._inbox.put((self.node_id, frame))
        peer.on_delivery(frame.kind)

    def _hang_up(self, reason: str | None) -> None:
        self.on_delivery = lambda kind: None  # let go of the boss: nothing is delivered here now
        abort = (self.node_id, _abort_frame(reason))
        for peer in self._peers.values():
            peer._inbox.put(abort)
            peer.on_delivery(_ABORT)


# the second parameter is unused: perfbench/tracer.py still passes its recv_rng
def inproc_cluster(workers: int, _unused=None) -> list[Endpoint]:
    """Build boss + worker endpoints wired together; index 0 is the boss."""
    if workers < 0:
        raise ValueError("worker count must not be negative")
    boss = InprocEndpoint(BOSS_ID)
    endpoints: list[Endpoint] = [boss]
    for node_id in range(1, workers + 1):
        worker = InprocEndpoint(node_id)
        worker._connect(boss)
        boss._connect(worker)
        endpoints.append(worker)
    return endpoints


def _parse_addr(addr: str) -> tuple[str, int]:
    host, sep, port = addr.rpartition(":")
    if not sep or not host or not port.isdigit():
        raise ValueError(f"address {addr!r} is not host:port")
    return host, int(port)


def pick_free_port() -> int:
    """Ask the OS for a currently free TCP port on 127.0.0.1."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class TcpEndpoint(Endpoint):
    """One node's side of the TCP backend: a socket per peer (the boss
    has one per worker, a worker one to node 0).

    _take reads once from a ready peer into that peer's buffer and
    queues the complete frames in arrival order.  With one listed peer
    it blocks in that peer's recv; with several, one selector reports
    the ready ones.  A lost peer's key leaves the list as its ABORT is
    queued, so the open peers are the listed ones plus those ABORTs.
    """

    def __init__(self, node_id: int | None, peers: dict[int, socket.socket]):
        super().__init__(node_id, peers)
        self._selector = selectors.DefaultSelector()
        self._open = [self._selector.register(sock, selectors.EVENT_READ, (peer, bytearray()))
                      for peer, sock in peers.items()]
        self._arrived: deque[tuple[int, Frame]] = deque()

    def _put(self, dest: int, sock: socket.socket, frame: Frame) -> None:
        sock.sendall(encode_frame(frame))

    def _take(self) -> tuple[int, Frame]:
        arrived, open_keys = self._arrived, self._open
        while not arrived:
            if len(open_keys) == 1:  # block in the one peer's recv: no select call per frame
                self._receive(open_keys[0])
            else:
                for key, _ in self._selector.select():
                    self._receive(key)
        return arrived.popleft()

    def _receive(self, key: selectors.SelectorKey) -> None:
        """Read once from a peer and queue each complete frame; on a
        close or a fault, queue an ABORT naming it and drop the peer."""
        node_id, buffer = key.data
        try:
            chunk = key.fileobj.recv(1 << 16)  # not _READ_CHUNK: glibc maps 1 MiB afresh per call
            buffer += chunk
            while len(buffer) >= HEADER_SIZE:
                kind, job_type, length = _parse_header(buffer)
                if len(buffer) < HEADER_SIZE + length:
                    break  # a partial frame waits here, stalling no other peer
                payload = bytes(buffer[HEADER_SIZE:HEADER_SIZE + length])
                del buffer[:HEADER_SIZE + length]
                if kind is _ABORT:
                    raise TransportError(payload.decode("utf-8", "replace"))
                self._arrived.append((node_id, Frame(kind, job_type, payload)))
            if not chunk:  # name the header or payload bytes that arrived, as read_frame does
                got, count = len(buffer), HEADER_SIZE
                if got >= HEADER_SIZE:
                    got, count = got - HEADER_SIZE, length
                raise TruncationError(f"stream ended after {got} of {count} bytes")
        except (TransportError, TruncationError, ProtocolError, OSError) as exc:
            self._selector.unregister(key.fileobj)
            self._open.remove(key)
            self._arrived.append((node_id, _abort_frame(str(exc))))

    def _hang_up(self, reason: str | None) -> None:
        self._selector.close()
        abort = encode_frame(_abort_frame(reason)) if reason else b""
        for sock in self._peers.values():
            try:
                if abort:  # tell the peer why; MSG_DONTWAIT: a full socket cannot block the close
                    sock.send(abort, socket.MSG_DONTWAIT)
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            sock.close()


def TcpBossEndpoint(listen: str, workers: int, timeout: float) -> TcpEndpoint:
    """Accept workers on listen and number them 1..N in connection
    order; each learns its id from a one-frame handshake
    (kind=INFO_RESPONSE, job_type=id)."""
    if workers < 0:
        raise ValueError("worker count must not be negative")
    peers: dict[int, socket.socket] = {}
    host, port = _parse_addr(listen)
    deadline = time.monotonic() + timeout
    try:
        listener = socket.create_server((host, port), backlog=workers or 1)
    except OSError as exc:
        raise StartupError(f"cannot listen on {listen}: {exc}") from exc
    try:
        for node_id in range(1, workers + 1):
            listener.settimeout(max(deadline - time.monotonic(), 0.01))
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                raise StartupError(
                    f"timed out waiting for worker {node_id} of {workers} to connect"
                ) from None
            except OSError as exc:
                raise StartupError(f"accept failed: {exc}") from exc
            peers[node_id] = conn
            try:
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                conn.sendall(encode_frame(Frame(MessageKind.INFO_RESPONSE, node_id)))
            except OSError as exc:
                raise StartupError(f"handshake with worker {node_id} failed: {exc}") from exc
    except BaseException as exc:
        TcpEndpoint(BOSS_ID, peers).close(str(exc))  # each connected worker reads why
        raise
    finally:
        listener.close()
    return TcpEndpoint(BOSS_ID, peers)


def TcpWorkerEndpoint(connect: str, timeout: float) -> TcpEndpoint:
    """Connect to the boss at connect and take the id its handshake names."""
    host, port = _parse_addr(connect)
    deadline = time.monotonic() + timeout
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=max(deadline - time.monotonic(), 0.01))
            break
        except OSError as exc:
            if time.monotonic() >= deadline:
                raise StartupError(f"cannot connect to boss at {connect}: {exc}") from exc
            time.sleep(0.02)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    worker = TcpEndpoint(None, {BOSS_ID: sock})  # the handshake names the id
    # the connect timeout stays on the socket, so it bounds the handshake too
    try:
        _, hello = worker.recv()
        if hello.kind is not MessageKind.INFO_RESPONSE:
            raise ProtocolError(f"expected handshake frame, got {hello.kind.name}")
    except (TransportError, ProtocolError) as exc:
        worker.close()
        raise StartupError(f"handshake with boss at {connect} failed: {exc}") from exc
    sock.settimeout(None)
    worker.node_id = hello.job_type
    return worker
