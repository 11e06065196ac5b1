import errno
import io
import socket
import threading
import time
import tracemalloc
from pathlib import Path
from random import Random

import pytest
from support import random_value

from parqueue import codec
from parqueue.errors import (
    LifecycleError,
    ProtocolError,
    StartupError,
    TransportError,
    TruncationError,
)
from parqueue.wire import (
    BOSS_ID,
    HEADER,
    HEADER_SIZE,
    MAGIC,
    MAX_PAYLOAD,
    VERSION,
    Frame,
    MessageKind,
    TcpBossEndpoint,
    TcpEndpoint,
    TcpWorkerEndpoint,
    encode_frame,
    inproc_cluster,
    pick_free_port,
    read_frame,
)


@pytest.mark.parametrize("frame", [
    Frame(MessageKind.STOP),
    Frame(MessageKind.JOB_ASSIGN, 1, b"\x01\x02\x03"),
    Frame(MessageKind.ABORT, 0, b"boom"),
], ids=["stop", "job-assign", "abort"])
def test_the_wire_format_document_shows_each_example_frame(frame):
    doc = (Path(__file__).resolve().parents[1] / "docs" / "wire-format.md").read_text()
    assert encode_frame(frame).hex(" ").upper() in doc


def test_stop_frame_golden_bytes():
    data = encode_frame(Frame(MessageKind.STOP))
    assert data == bytes([0x4D, 0x51, 0x01, 0x09, 0, 0, 0, 0, 0, 0, 0, 0, 0])
    assert len(data) == 13


def test_job_assign_frame_golden_bytes():
    data = encode_frame(Frame(MessageKind.JOB_ASSIGN, 1, b"abc"))
    assert len(data) == 16
    assert data[:2] == b"MQ"
    assert data[2] == 1  # version
    assert data[3] == 1  # kind code
    assert data[4] == 0  # reserved
    assert data[5:9] == (1).to_bytes(4, "little")    # job type
    assert data[9:13] == (3).to_bytes(4, "little")   # payload length
    assert data[13:] == b"abc"


def test_abort_frame_golden_bytes():
    data = encode_frame(Frame(MessageKind.ABORT, 0, "boom".encode()))
    assert data == bytes([0x4D, 0x51, 0x01, 0x0A, 0, 0, 0, 0, 0, 0x04, 0, 0, 0]) + b"boom"


def test_frame_roundtrip_property():
    rng = Random(0xF4A3E)
    kinds = list(MessageKind)
    for _ in range(300):
        frame = Frame(
            kind=rng.choice(kinds),
            job_type=rng.randrange(0, 2**32),
            payload=rng.randbytes(rng.randrange(0, 64)),
        )
        assert read_frame(io.BytesIO(encode_frame(frame))) == frame


def test_bad_magic_rejected():
    with pytest.raises(ProtocolError):
        read_frame(io.BytesIO(b"\x00" + b"\x00" * 12))


def test_bad_version_rejected():
    data = bytearray(encode_frame(Frame(MessageKind.STOP)))
    data[2] = 9
    with pytest.raises(ProtocolError):
        read_frame(io.BytesIO(bytes(data)))


def test_unknown_kind_rejected():
    data = bytearray(encode_frame(Frame(MessageKind.STOP)))
    data[3] = 200
    with pytest.raises(ProtocolError):
        read_frame(io.BytesIO(bytes(data)))


def _with_reserved_byte_set(frame: Frame) -> bytes:
    data = bytearray(encode_frame(frame))
    data[4] = 1
    return bytes(data)


def test_reserved_header_byte_rejected():
    with pytest.raises(ProtocolError) as excinfo:
        read_frame(io.BytesIO(_with_reserved_byte_set(Frame(MessageKind.STOP))))
    assert str(excinfo.value) == "reserved header byte must be zero"


def test_truncated_payload_rejected():
    header = encode_frame(Frame(MessageKind.JOB_ASSIGN, 1, b"0123456789"))[:13]
    with pytest.raises(TruncationError):
        read_frame(io.BytesIO(header + b"0123"))


def test_truncated_header_rejected():
    with pytest.raises(TruncationError):
        read_frame(io.BytesIO(b"MQ\x01"))


def test_oversize_payload_rejected_on_encode():
    frame = Frame(MessageKind.JOB_ASSIGN, 2**32, b"")
    with pytest.raises(ProtocolError):
        encode_frame(frame)

    class Huge(bytes):  # claims one byte more than a frame may carry
        def __len__(self):
            return MAX_PAYLOAD + 1

    with pytest.raises(ProtocolError, match="exceeds"):
        encode_frame(Frame(MessageKind.JOB_ASSIGN, 1, Huge()))


def test_payload_length_over_the_maximum_fails_at_the_header():
    header = HEADER.pack(MAGIC, VERSION, int(MessageKind.DATA_SHARE), 1, MAX_PAYLOAD + 1)
    source = io.BytesIO(header + b"0123456789")
    with pytest.raises(ProtocolError, match=str(MAX_PAYLOAD + 1)):
        read_frame(source)
    assert source.tell() == HEADER_SIZE  # no payload byte was read


def test_inproc_per_channel_fifo():
    boss, w1, w2 = inproc_cluster(2)
    for seq in range(50):
        w1.send(0, Frame(MessageKind.JOB_SUBMIT, 1, codec.encode(seq)))
        w2.send(0, Frame(MessageKind.JOB_SUBMIT, 2, codec.encode(seq)))
    next_seq = {1: 0, 2: 0}
    for _ in range(100):
        src, frame = boss.recv()
        assert codec.decode(frame.payload) == next_seq[src]
        next_seq[src] += 1
    assert next_seq == {1: 50, 2: 50}


def test_inproc_fifo_under_concurrent_senders():
    workers = 4
    per_worker = 200
    endpoints = inproc_cluster(workers)
    boss = endpoints[0]

    def flood(endpoint):
        for seq in range(per_worker):
            endpoint.send(0, Frame(MessageKind.JOB_SUBMIT, 0, codec.encode(seq)))

    threads = [threading.Thread(target=flood, args=(ep,)) for ep in endpoints[1:]]
    for t in threads:
        t.start()
    next_seq = {ep.node_id: 0 for ep in endpoints[1:]}
    for _ in range(workers * per_worker):
        src, frame = boss.recv()
        assert codec.decode(frame.payload) == next_seq[src]
        next_seq[src] += 1
    for t in threads:
        t.join()
    assert all(count == per_worker for count in next_seq.values())


def test_inproc_broadcast_reaches_every_worker_once():
    boss, w1, w2, w3 = inproc_cluster(3)
    boss.broadcast(Frame(MessageKind.DATA_SHARE, 5, b"payload"))
    for worker in (w1, w2, w3):
        src, frame = worker.recv()
        assert src == 0
        assert frame == Frame(MessageKind.DATA_SHARE, 5, b"payload")


def test_worker_cannot_broadcast():
    _, w1 = inproc_cluster(1)
    with pytest.raises(LifecycleError):
        w1.broadcast(Frame(MessageKind.STOP))


@pytest.mark.parametrize("transport", ["inproc", "tcp"])
def test_send_to_unknown_node(transport):
    boss, workers = (inproc_cluster(1)[0], []) if transport == "inproc" else _tcp_pair()
    try:
        with pytest.raises(TransportError) as excinfo:
            boss.send(7, Frame(MessageKind.STOP))
        assert str(excinfo.value) == "node 0 has no channel to node 7"
    finally:
        for endpoint in [boss, *workers]:
            endpoint.close()


@pytest.mark.parametrize("transport", ["inproc", "tcp"])
def test_recv_on_a_closed_endpoint_raises(transport):
    boss, workers = (inproc_cluster(1)[0], []) if transport == "inproc" else _tcp_pair()
    boss.close()
    for worker in workers:
        worker.close()
    with pytest.raises(TransportError) as excinfo:
        boss.recv()
    assert str(excinfo.value) == "endpoint is closed"


def test_closed_peer_detected():
    boss, w1 = inproc_cluster(1)
    w1.close("handler exploded")
    with pytest.raises(TransportError, match="handler exploded"):
        boss.recv()
    with pytest.raises(TransportError):
        boss.send(1, Frame(MessageKind.STOP))


def _tcp_pair(workers=1, timeout=5.0):
    port = pick_free_port()
    addr = f"127.0.0.1:{port}"
    boss_holder = {}

    def accept():
        boss_holder["ep"] = TcpBossEndpoint(addr, workers, timeout)

    acceptor = threading.Thread(target=accept)
    acceptor.start()
    worker_eps = [TcpWorkerEndpoint(addr, timeout) for _ in range(workers)]
    acceptor.join()
    return boss_holder["ep"], worker_eps


def test_tcp_handshake_assigns_ids_in_connection_order():
    boss, workers = _tcp_pair(workers=3)
    try:
        assert [w.node_id for w in workers] == [1, 2, 3]
    finally:
        boss.close()
        for w in workers:
            w.close()


def test_tcp_send_recv_roundtrip():
    boss, (worker,) = _tcp_pair()
    try:
        boss.send(1, Frame(MessageKind.JOB_ASSIGN, 9, b"job-data"))
        src, frame = worker.recv()
        assert (src, frame) == (0, Frame(MessageKind.JOB_ASSIGN, 9, b"job-data"))
        worker.send(0, Frame(MessageKind.JOB_RESULT, 9, b"result"))
        src, frame = boss.recv()
        assert (src, frame) == (1, Frame(MessageKind.JOB_RESULT, 9, b"result"))
    finally:
        boss.close()
        worker.close()


def test_tcp_accept_timeout_is_startup_error():
    port = pick_free_port()
    with pytest.raises(StartupError):
        TcpBossEndpoint(f"127.0.0.1:{port}", workers=1, timeout=0.3)


def test_tcp_boss_rejects_a_negative_worker_count():
    with pytest.raises(ValueError, match="^worker count must not be negative$"):
        TcpBossEndpoint("127.0.0.1:0", -1, 1.0)


def test_a_failed_accept_is_a_startup_error_and_closes_the_listener(monkeypatch):
    def failing_accept(sock):
        raise OSError(errno.EMFILE, "Too many open files")

    monkeypatch.setattr(socket.socket, "accept", failing_accept)
    port = pick_free_port()
    with pytest.raises(StartupError) as excinfo:
        TcpBossEndpoint(f"127.0.0.1:{port}", 1, 5)
    assert str(excinfo.value) == "accept failed: [Errno 24] Too many open files"
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection(("127.0.0.1", port), timeout=5).close()


def test_a_failed_boss_setup_tells_each_connected_worker_why():
    # worker 1 of 2 connects; the boss times out waiting for worker 2
    addr = f"127.0.0.1:{pick_free_port()}"
    outcome = []

    def accept():
        try:
            TcpBossEndpoint(addr, 2, 1.0)
        except Exception as exc:
            outcome.append(exc)

    acceptor = threading.Thread(target=accept)
    acceptor.start()
    worker = TcpWorkerEndpoint(addr, 5)
    try:
        assert worker.node_id == 1
        acceptor.join(10)
        assert not acceptor.is_alive()
        reason = "timed out waiting for worker 2 of 2 to connect"
        assert [(type(e), str(e)) for e in outcome] == [(StartupError, reason)]
        with pytest.raises(TransportError) as excinfo:  # the boss closed its end: this cannot block
            worker.recv()
        assert str(excinfo.value) == f"node 0 disconnected: {reason}"
    finally:
        worker.close()


def test_tcp_connect_timeout_is_startup_error():
    port = pick_free_port()
    with pytest.raises(StartupError):
        TcpWorkerEndpoint(f"127.0.0.1:{port}", timeout=0.3)


@pytest.mark.parametrize("reply", [b"", b"HTTP/1.1 200 OK\r\n\r\n", encode_frame(Frame(MessageKind.STOP))],
                         ids=["none", "garbage", "stop-frame"])
def test_tcp_worker_handshake_failure_is_a_bounded_startup_error(reply):
    with socket.create_server(("127.0.0.1", 0)) as listener:
        addr = f"127.0.0.1:{listener.getsockname()[1]}"
        outcome = []

        def connect():
            try:
                outcome.append(TcpWorkerEndpoint(addr, 0.5))
            except Exception as exc:
                outcome.append(exc)

        thread = threading.Thread(target=connect, daemon=True)
        thread.start()
        listener.settimeout(5)
        conn, _ = listener.accept()
        with conn:
            conn.sendall(reply)
            thread.join(5)
            assert not thread.is_alive(), "handshake still blocked after 5 s"
            (error,) = outcome
            assert isinstance(error, StartupError)
            assert addr in str(error)
            conn.settimeout(5)
            assert conn.recv(64) == b""  # the worker closed its socket


def _scripted_exchange(boss, workers):
    """Deterministic request/response script; returns the boss trace."""
    trace = []
    payloads = [codec.encode([7, 8, 9]), codec.encode({"x": 1}), b""]
    for worker in workers:
        for job_type, payload in enumerate(payloads, start=1):
            boss.send(worker.node_id, Frame(MessageKind.JOB_ASSIGN, job_type, payload))
            src, frame = worker.recv()
            worker.send(0, Frame(MessageKind.JOB_RESULT, frame.job_type, frame.payload))
            src, frame = boss.recv()
            trace.append((src, frame.kind, frame.job_type, frame.payload))
    boss.broadcast(Frame(MessageKind.STOP))
    for worker in workers:
        src, frame = worker.recv()
        trace.append((worker.node_id, frame.kind, frame.job_type, frame.payload))
    return trace


def test_backend_equivalence_on_scripted_exchange():
    endpoints = inproc_cluster(2)
    inproc_trace = _scripted_exchange(endpoints[0], endpoints[1:])
    for ep in endpoints:
        ep.close()

    boss, workers = _tcp_pair(workers=2)
    try:
        tcp_trace = _scripted_exchange(boss, workers)
    finally:
        boss.close()
        for w in workers:
            w.close()
    assert tcp_trace == inproc_trace


def test_generated_values_survive_frame_payloads():
    rng = Random(0xAB)
    boss, (worker,) = _tcp_pair()
    try:
        for _ in range(25):
            value = random_value(rng, depth=2)
            boss.send(1, Frame(MessageKind.DATA_SHARE, 1, codec.encode(value)))
            _, frame = worker.recv()
            assert codec.encode(codec.decode(frame.payload)) == frame.payload
    finally:
        boss.close()
        worker.close()


def test_read_frame_allocates_only_arriving_bytes():
    # a header claiming 64 MiB followed by 10 bytes must not make the
    # reader allocate 64 MiB before the stream ends
    header = HEADER.pack(MAGIC, VERSION, int(MessageKind.DATA_SHARE), 1, 64 << 20)
    source = io.BufferedReader(io.BytesIO(header + b"0123456789"))
    tracemalloc.start()
    try:
        with pytest.raises(TruncationError):
            read_frame(source)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def _recv_outcome(endpoint, timeout=2.0):
    """Run endpoint.recv() in a daemon thread; fail if it is still
    blocked after timeout seconds, else return what it returned or
    raised."""
    outcome = []

    def target():
        try:
            outcome.append(endpoint.recv())
        except TransportError as exc:
            outcome.append(exc)

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "recv blocked after every peer had closed"
    return outcome[0]


def test_inproc_boss_recv_after_every_peer_closed_does_not_hang():
    boss, w1 = inproc_cluster(1)
    w1.close("worker quit")
    with pytest.raises(TransportError, match="node 1 disconnected: worker quit"):
        boss.recv()
    outcome = _recv_outcome(boss)
    assert isinstance(outcome, TransportError)
    assert "all peers disconnected" in str(outcome)


def test_tcp_boss_recv_after_every_peer_closed_does_not_hang():
    boss, (worker,) = _tcp_pair()
    try:
        worker.close()
        with pytest.raises(TransportError, match="node 1 disconnected: stream ended"):
            boss.recv()
        outcome = _recv_outcome(boss)
        assert isinstance(outcome, TransportError)
        assert "all peers disconnected" in str(outcome)
    finally:
        boss.close()


def test_seeded_recv_keeps_per_channel_fifo_and_reports_close_reasons():
    per_worker = 50
    for _ in range(5):
        boss, w1, w2 = inproc_cluster(2)

        def flood(endpoint):
            for seq in range(per_worker):
                endpoint.send(0, Frame(MessageKind.JOB_SUBMIT, 0, codec.encode(seq)))
            endpoint.close(f"worker {endpoint.node_id} done")

        # concurrent senders make some receives block with nothing ready
        threads = [threading.Thread(target=flood, args=(ep,)) for ep in (w1, w2)]
        for t in threads:
            t.start()
        next_seq = {1: 0, 2: 0}
        reasons = []
        while len(reasons) < 2:
            try:
                src, frame = boss.recv()
            except TransportError as exc:
                reasons.append(str(exc))
                continue
            assert codec.decode(frame.payload) == next_seq[src]
            next_seq[src] += 1
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
        assert next_seq == {1: per_worker, 2: per_worker}
        assert sorted(reasons) == [
            "node 1 disconnected: worker 1 done",
            "node 2 disconnected: worker 2 done",
        ]
        with pytest.raises(TransportError, match="all peers disconnected"):
            boss.recv()


def test_tcp_boss_keeps_per_peer_fifo_and_reports_close_reasons():
    per_worker = 200
    boss, workers = _tcp_pair(workers=2)

    def flood(endpoint):
        for seq in range(per_worker):
            endpoint.send(0, Frame(MessageKind.JOB_SUBMIT, 0, codec.encode(seq)))
        endpoint.close(f"worker {endpoint.node_id} done")

    threads = [threading.Thread(target=flood, args=(ep,)) for ep in workers]
    for t in threads:
        t.start()
    try:
        next_seq = {1: 0, 2: 0}
        reasons = []
        while len(reasons) < 2:
            outcome = _recv_outcome(boss, timeout=10)
            if isinstance(outcome, TransportError):
                reasons.append(str(outcome))
                continue
            src, frame = outcome
            assert codec.decode(frame.payload) == next_seq[src]
            next_seq[src] += 1
        assert next_seq == {1: per_worker, 2: per_worker}
        assert sorted(reasons) == [
            "node 1 disconnected: worker 1 done",
            "node 2 disconnected: worker 2 done",
        ]
        outcome = _recv_outcome(boss)
        assert isinstance(outcome, TransportError)
        assert "all peers disconnected" in str(outcome)
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
    finally:
        boss.close()


@pytest.mark.parametrize("reader", ["boss", "worker"])
def test_tcp_reader_allocates_only_arriving_bytes(reader):
    # either end buffers only the bytes that arrive, so a header claiming
    # 64 MiB followed by 10 bytes costs it no 64 MiB allocation
    boss, (worker,) = _tcp_pair()
    sender, receiver = (worker, boss) if reader == "boss" else (boss, worker)
    try:
        header = HEADER.pack(MAGIC, VERSION, int(MessageKind.DATA_SHARE), 1, 64 << 20)
        sender._peers[receiver.node_id].sendall(header + b"0123456789")
        sender.close()
        tracemalloc.start()
        try:
            outcome = _recv_outcome(receiver)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert str(outcome) == (
            f"node {sender.node_id} disconnected: stream ended after 10 of 67108864 bytes"
        )
        assert peak < 4 << 20
    finally:
        boss.close()
        worker.close()


@pytest.mark.parametrize("writes", [
    lambda first, second: [first[:7], first[7:] + second[:3], second[3:]],
    lambda first, second: [first + second],
], ids=["frames-split-across-writes", "two-frames-in-one-write"])
def test_tcp_worker_returns_whole_frames_in_order(writes):
    boss, (worker,) = _tcp_pair()
    frames = [Frame(MessageKind.JOB_ASSIGN, 3, b"first payload"), Frame(MessageKind.STOP)]
    try:
        received = []
        reader = threading.Thread(target=lambda: received.extend(worker.recv() for _ in frames),
                                  daemon=True)
        reader.start()
        for data in writes(*map(encode_frame, frames)):
            boss._peers[1].sendall(data)
            time.sleep(0.05)  # let the worker read each write on its own
        reader.join(5)
        assert not reader.is_alive(), "the worker did not return both frames"
        assert received == [(0, frame) for frame in frames]
    finally:
        boss.close()
        worker.close()


def test_tcp_worker_reports_a_reserved_header_byte_as_a_lost_boss():
    boss, (worker,) = _tcp_pair()
    try:
        boss._peers[1].sendall(_with_reserved_byte_set(Frame(MessageKind.JOB_ASSIGN, 1, b"job")))
        outcome = _recv_outcome(worker)
        assert isinstance(outcome, TransportError)
        assert str(outcome) == "node 0 disconnected: reserved header byte must be zero"
    finally:
        boss.close()
        worker.close()


@pytest.mark.parametrize("reader", ["boss", "worker"])
def test_tcp_recv_from_one_open_peer_calls_no_select(reader):
    boss, (worker,) = _tcp_pair()
    sender, receiver = (worker, boss) if reader == "boss" else (boss, worker)

    def select(timeout=None):
        raise TransportError("select called with one peer open")

    receiver._selector.select = select
    try:
        sender.send(receiver.node_id, Frame(MessageKind.JOB_SUBMIT, 2, b"abc"))
        assert _recv_outcome(receiver) == (sender.node_id, Frame(MessageKind.JOB_SUBMIT, 2, b"abc"))
        sender.close("done")
        outcome = _recv_outcome(receiver)
        assert str(outcome) == f"node {sender.node_id} disconnected: done"
    finally:
        boss.close()
        worker.close()


def test_tcp_boss_starts_no_thread():
    before = set(threading.enumerate())
    boss, workers = _tcp_pair(workers=2)
    try:
        assert set(threading.enumerate()) - before == set()
    finally:
        boss.close()
        for w in workers:
            w.close()


def test_tcp_boss_partial_frame_stalls_no_other_peer():
    boss, (stalled, worker) = _tcp_pair(workers=2)
    try:
        frame = encode_frame(Frame(MessageKind.JOB_SUBMIT, 4, b"late"))
        stalled._peers[0].sendall(frame[:7])
        received = []
        reader = threading.Thread(target=lambda: received.extend(boss.recv() for _ in range(2)),
                                  daemon=True)
        reader.start()
        time.sleep(0.1)  # let the boss take in the 7 bytes before the other frames exist
        worker.send(0, Frame(MessageKind.JOB_SUBMIT, 5, b"one"))
        worker.send(0, Frame(MessageKind.JOB_SUBMIT, 5, b"two"))
        reader.join(5)
        assert not reader.is_alive(), "a partial frame from node 1 stalled node 2"
        assert received == [(2, Frame(MessageKind.JOB_SUBMIT, 5, b"one")),
                            (2, Frame(MessageKind.JOB_SUBMIT, 5, b"two"))]
        stalled._peers[0].sendall(frame[7:])
        assert _recv_outcome(boss) == (1, Frame(MessageKind.JOB_SUBMIT, 4, b"late"))
    finally:
        boss.close()
        stalled.close()
        worker.close()


@pytest.mark.parametrize("transport", ["inproc", "tcp"])
def test_a_close_with_no_reason_reads_the_same_on_both_transports(transport):
    if transport == "inproc":
        boss, worker = inproc_cluster(1)
        worker.close()
    else:  # a raw peer sends the ABORT frame a close with no reason would carry
        mine, peer = socket.socketpair()
        boss = TcpEndpoint(BOSS_ID, {1: mine})
        peer.sendall(encode_frame(Frame(MessageKind.ABORT, 0, b"")))
        peer.close()
    try:
        outcome = _recv_outcome(boss)
        assert isinstance(outcome, TransportError)
        assert str(outcome) == "node 1 disconnected"
    finally:
        boss.close()


def test_tcp_send_to_a_closed_peer_names_the_node():
    mine, peer = socket.socketpair()
    boss = TcpEndpoint(BOSS_ID, {1: mine})
    peer.close()
    try:
        with pytest.raises(TransportError) as excinfo:
            boss.send(1, Frame(MessageKind.STOP))
        assert str(excinfo.value) == "send to node 1 failed: [Errno 32] Broken pipe"
    finally:
        boss.close()


def test_a_second_inproc_close_sends_no_second_abort():
    boss, worker = inproc_cluster(1)
    worker.close("done")
    worker.close("again")
    assert boss._inbox.qsize() == 1
    boss.close()


def test_a_failed_handshake_send_is_a_startup_error_and_closes_every_socket(monkeypatch):
    # worker 1 gets its handshake; the send to worker 2 fails
    port = pick_free_port()
    sendall = socket.socket.sendall

    def failing_sendall(sock, data, *args):
        if data == encode_frame(Frame(MessageKind.INFO_RESPONSE, 2)):
            raise ConnectionResetError(errno.ECONNRESET, "Connection reset by peer")
        return sendall(sock, data, *args)

    monkeypatch.setattr(socket.socket, "sendall", failing_sendall)
    outcome = []

    def accept():
        try:
            TcpBossEndpoint(f"127.0.0.1:{port}", 2, 10)
        except Exception as exc:
            outcome.append(exc)

    acceptor = threading.Thread(target=accept)
    acceptor.start()
    clients = []
    try:
        for _ in range(2):
            clients.append(_connect_when_listening(port))
        acceptor.join(10)
        assert not acceptor.is_alive()
        assert [(type(e), str(e)) for e in outcome] == [
            (StartupError, "handshake with worker 2 failed: [Errno 104] Connection reset by peer")]
        # each accepted socket reads the handshake it got, if any, then one ABORT naming the error
        abort = encode_frame(Frame(MessageKind.ABORT, 0, str(outcome[0]).encode()))
        assert [_read_to_end(client) for client in clients] == [
            encode_frame(Frame(MessageKind.INFO_RESPONSE, 1)) + abort, abort]
        with pytest.raises(ConnectionRefusedError):  # and the listener
            socket.create_connection(("127.0.0.1", port), timeout=5).close()
    finally:
        for client in clients:
            client.close()


def _read_to_end(sock):
    received = b""
    while chunk := sock.recv(64):
        received += chunk
    return received


def _connect_when_listening(port, timeout=10.0):
    deadline = time.monotonic() + timeout
    while True:
        try:
            return socket.create_connection(("127.0.0.1", port), timeout=timeout)
        except ConnectionRefusedError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.02)
