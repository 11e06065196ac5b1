"""Message framing and the boss↔worker transport abstraction.

A frame is a 13-byte header followed by the payload bytes:

    offset  size  field
    0       2     magic 0x4D 0x51 ("MQ")
    2       1     version (currently 1)
    3       1     message kind code
    4       1     reserved, must be zero
    5       4     job type, unsigned 32-bit little-endian (0 when unused)
    9       4     payload length, unsigned 32-bit little-endian
    13      len   payload

Two interchangeable backends implement the Endpoint contract: an
in-process backend linking node threads, and a TCP backend speaking the
frame grammar over sockets.  Each in-process node and the TCP boss
receive through one inbox that peers (or one TCP reader thread per
connection) feed directly, so frames are received in arrival order and
in send order between any pair of nodes; a boss given recv_rng instead
picks at random among the peers whose frames have arrived.  A lost peer
surfaces as a TransportError naming the node, and once every peer is
gone recv raises rather than blocks (there is no reconnection or
failover).
"""

from __future__ import annotations

import socket
import struct
import threading
import time
from collections import defaultdict, deque
from enum import IntEnum
from queue import SimpleQueue
from random import Random
from typing import BinaryIO, NamedTuple

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


class Frame(NamedTuple):
    kind: MessageKind
    job_type: int = 0
    payload: bytes = b""


def encode_frame(frame: Frame) -> bytes:
    if len(frame.payload) > 0xFFFFFFFF:
        raise ProtocolError("frame payload exceeds the 32-bit length field")
    if not 0 <= frame.job_type <= 0xFFFFFFFF:
        raise ProtocolError(f"job type {frame.job_type} exceeds the 32-bit field")
    header = HEADER.pack(MAGIC, VERSION, int(frame.kind), frame.job_type, len(frame.payload))
    return header + frame.payload


def write_frame(sink: BinaryIO, frame: Frame) -> None:
    """Write one frame; sink failures surface as TransportError."""
    try:
        sink.write(encode_frame(frame))
    except OSError as exc:
        raise TransportError(f"frame write failed: {exc}") from exc


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


def read_frame(source: BinaryIO) -> Frame:
    """Consume exactly one frame from a byte source positioned at a
    frame boundary."""
    header = _read_exact(source, HEADER_SIZE)
    magic, version, kind_code, job_type, length = HEADER.unpack(header)
    if magic != MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r}")
    if version != VERSION:
        raise ProtocolError(f"unsupported frame version {version}")
    if header[4] != 0:
        raise ProtocolError("reserved header byte must be zero")
    try:
        kind = MessageKind(kind_code)
    except ValueError:
        raise ProtocolError(f"unknown message kind code {kind_code}") from None
    payload = _read_exact(source, length) if length else b""
    return Frame(kind, job_type, payload)


class Endpoint:
    """Transport handle owned by one node.

    send/recv pair frames with their source node; broadcast (boss only)
    delivers one frame to every worker, ordered with respect to other
    boss-to-worker traffic on each channel.
    """

    node_id: int

    def send(self, dest: int, frame: Frame) -> None:
        raise NotImplementedError

    def recv(self) -> tuple[int, Frame]:
        raise NotImplementedError

    def broadcast(self, frame: Frame) -> None:
        raise NotImplementedError

    def close(self, reason: str | None = None) -> None:
        raise NotImplementedError


class _Closed(NamedTuple):
    reason: str | None


class _InboxEndpoint(Endpoint):
    """Receive side shared by the in-process endpoints and the TCP boss.

    The inbox holds (src, Frame | _Closed) items.  With recv_rng set,
    recv moves what has arrived into per-source deques and picks a
    non-empty one at random, so tests can explore message interleavings
    reproducibly.
    """

    def __init__(self, node_id: int, recv_rng: Random | None = None):
        self.node_id = node_id
        self._inbox: SimpleQueue = SimpleQueue()
        self._peers: dict = {}  # node id -> what send writes to, in broadcast order
        self._open_peers = 0
        self._rng = recv_rng
        self._channels: defaultdict[int, deque] = defaultdict(deque)
        self._closed = False

    def broadcast(self, frame: Frame) -> None:
        if self.node_id != BOSS_ID:
            raise LifecycleError("broadcast is a boss-only operation")
        for dest in self._peers:
            self.send(dest, frame)

    def recv(self) -> tuple[int, Frame]:
        if self._closed:
            raise TransportError("endpoint is closed")
        if self._rng is not None:
            src, item = self._pick()
        elif self._open_peers:
            src, item = self._inbox.get()
        else:
            raise TransportError("all peers disconnected")
        if isinstance(item, _Closed):
            self._open_peers -= 1
            detail = f": {item.reason}" if item.reason else ""
            raise TransportError(f"node {src} disconnected{detail}")
        return src, item

    def _pick(self) -> tuple:
        channels, inbox = self._channels, self._inbox
        while True:
            ready = sorted(src for src, items in channels.items() if items)
            if ready and inbox.empty():
                src = ready[self._rng.randrange(len(ready))]
                return src, channels[src].popleft()
            if not ready and not self._open_peers:
                raise TransportError("all peers disconnected")
            src, item = inbox.get()
            channels[src].append(item)


class InprocEndpoint(_InboxEndpoint):
    """In-process node endpoint: peers put frames straight into its inbox."""

    def _connect(self, peer: InprocEndpoint) -> None:
        self._peers[peer.node_id] = peer
        self._open_peers += 1

    def send(self, dest: int, frame: Frame) -> None:
        peer = self._peers.get(dest)
        if peer is None:
            raise TransportError(f"node {self.node_id} has no channel to node {dest}")
        if peer._closed:
            raise TransportError(f"node {dest} is closed")
        peer._inbox.put((self.node_id, frame))

    def close(self, reason: str | None = None) -> None:
        if self._closed:
            return
        self._closed = True
        for peer in self._peers.values():
            peer._inbox.put((self.node_id, _Closed(reason)))


def inproc_cluster(workers: int, recv_rng: Random | None = None) -> list[Endpoint]:
    """Build boss + worker endpoints wired together; index 0 is the boss.

    recv_rng, when given, seeds the boss's choice among ready channels
    (workers have a single channel, so only the boss choice matters).
    """
    if workers < 0:
        raise ValueError("worker count must not be negative")
    boss = InprocEndpoint(BOSS_ID, recv_rng)
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


def pick_free_port(host: str = "127.0.0.1") -> int:
    """Ask the OS for a currently free TCP port."""
    with socket.socket() as probe:
        probe.bind((host, 0))
        return probe.getsockname()[1]


class TcpBossEndpoint(_InboxEndpoint):
    """Boss side of the TCP backend.

    Workers are numbered 1..N in connection order; each learns its id
    from a one-frame handshake (kind=INFO_RESPONSE, job_type=id).  One
    reader thread per connection feeds the inbox.
    """

    def __init__(self, listen: str, workers: int, timeout: float = 30.0):
        if workers < 0:
            raise ValueError("worker count must not be negative")
        super().__init__(BOSS_ID)
        host, port = _parse_addr(listen)
        self._readers: list[threading.Thread] = []
        deadline = time.monotonic() + timeout
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            try:
                listener.bind((host, port))
                listener.listen(workers or 1)
            except OSError as exc:
                raise StartupError(f"cannot listen on {listen}: {exc}") from exc
            for node_id in range(1, workers + 1):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise StartupError(
                        f"timed out waiting for worker {node_id} of {workers} to connect"
                    )
                listener.settimeout(remaining)
                try:
                    conn, _ = listener.accept()
                except socket.timeout:
                    raise StartupError(
                        f"timed out waiting for worker {node_id} of {workers} to connect"
                    ) from None
                except OSError as exc:
                    raise StartupError(f"accept failed: {exc}") from exc
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                self._peers[node_id] = conn
                conn.sendall(encode_frame(Frame(MessageKind.INFO_RESPONSE, node_id)))
        except BaseException:
            for conn in self._peers.values():
                conn.close()
            listener.close()
            raise
        listener.close()
        self._open_peers = workers
        for node_id, conn in self._peers.items():
            reader = threading.Thread(
                target=self._read_loop,
                args=(node_id, conn),
                name=f"parqueue-reader-{node_id}",
                daemon=True,
            )
            reader.start()
            self._readers.append(reader)

    def _read_loop(self, node_id: int, conn: socket.socket) -> None:
        source = conn.makefile("rb")
        try:
            while True:
                frame = read_frame(source)
                self._inbox.put((node_id, frame))
        except (TruncationError, ProtocolError, OSError) as exc:
            self._inbox.put((node_id, _Closed(str(exc))))

    def send(self, dest: int, frame: Frame) -> None:
        conn = self._peers.get(dest)
        if conn is None:
            raise TransportError(f"no connection to node {dest}")
        try:
            conn.sendall(encode_frame(frame))
        except OSError as exc:
            raise TransportError(f"send to node {dest} failed: {exc}") from exc

    def close(self, reason: str | None = None) -> None:
        self._closed = True
        for conn in self._peers.values():
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            conn.close()
        for reader in self._readers:
            reader.join(timeout=5)


class TcpWorkerEndpoint(Endpoint):
    """Worker side of the TCP backend: one socket to the boss."""

    def __init__(self, connect: str, timeout: float = 30.0):
        host, port = _parse_addr(connect)
        deadline = time.monotonic() + timeout
        sock = None
        while True:
            try:
                sock = socket.create_connection((host, port), timeout=max(deadline - time.monotonic(), 0.01))
                break
            except OSError as exc:
                if time.monotonic() >= deadline:
                    raise StartupError(f"cannot connect to boss at {connect}: {exc}") from exc
                time.sleep(0.02)
        sock.settimeout(None)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._source = sock.makefile("rb")
        try:
            hello = read_frame(self._source)
        except (TruncationError, OSError) as exc:
            sock.close()
            raise StartupError(f"handshake with boss failed: {exc}") from exc
        if hello.kind is not MessageKind.INFO_RESPONSE:
            sock.close()
            raise ProtocolError(f"expected handshake frame, got {hello.kind.name}")
        self.node_id = hello.job_type

    def send(self, dest: int, frame: Frame) -> None:
        if dest != BOSS_ID:
            raise TransportError(f"workers may only send to the boss, not node {dest}")
        try:
            self._sock.sendall(encode_frame(frame))
        except OSError as exc:
            raise TransportError(f"send to boss failed: {exc}") from exc

    def broadcast(self, frame: Frame) -> None:
        raise LifecycleError("broadcast is a boss-only operation")

    def recv(self) -> tuple[int, Frame]:
        try:
            return BOSS_ID, read_frame(self._source)
        except (TruncationError, OSError) as exc:
            raise TransportError(f"boss disconnected: {exc}") from exc

    def close(self, reason: str | None = None) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
