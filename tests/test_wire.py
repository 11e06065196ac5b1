import io
import threading
import tracemalloc
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
    HEADER,
    MAGIC,
    VERSION,
    Frame,
    MessageKind,
    TcpBossEndpoint,
    TcpWorkerEndpoint,
    encode_frame,
    inproc_cluster,
    pick_free_port,
    read_frame,
    write_frame,
)


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


def test_frame_roundtrip_property():
    rng = Random(0xF4A3E)
    kinds = list(MessageKind)
    for _ in range(300):
        frame = Frame(
            kind=rng.choice(kinds),
            job_type=rng.randrange(0, 2**32),
            payload=rng.randbytes(rng.randrange(0, 64)),
        )
        sink = io.BytesIO()
        write_frame(sink, frame)
        assert read_frame(io.BytesIO(sink.getvalue())) == frame


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


def test_send_to_unknown_node():
    boss, _ = inproc_cluster(1)
    with pytest.raises(TransportError):
        boss.send(7, Frame(MessageKind.STOP))


def test_closed_peer_detected():
    boss, w1 = inproc_cluster(1)
    w1.close("handler exploded")
    with pytest.raises(TransportError, match="handler exploded"):
        boss.recv()
    with pytest.raises(TransportError):
        boss.send(1, Frame(MessageKind.STOP))


def test_seeded_recv_interleaving_is_reproducible():
    def run(seed):
        boss, w1, w2 = inproc_cluster(2, recv_rng=Random(seed))
        for seq in range(20):
            w1.send(0, Frame(MessageKind.JOB_SUBMIT, 1, codec.encode(seq)))
            w2.send(0, Frame(MessageKind.JOB_SUBMIT, 2, codec.encode(seq)))
        order = [boss.recv()[0] for _ in range(40)]
        return order

    assert run(7) == run(7)
    assert run(7) != run(8)  # different seeds explore different interleavings


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


def test_tcp_connect_timeout_is_startup_error():
    port = pick_free_port()
    with pytest.raises(StartupError):
        TcpWorkerEndpoint(f"127.0.0.1:{port}", timeout=0.3)


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
    for seed in range(5):
        boss, w1, w2 = inproc_cluster(2, recv_rng=Random(seed))

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
