import socket
import sys
import threading
import tracemalloc
from random import Random

import pytest
from oracles import serial_queens_count, square_row_k_order, trial_division_factors
from support import RecordingEndpoint, record_boss

from parqueue import codec, runtime
from parqueue.apps import factor, matsquare, queens
from parqueue.apps.matsquare import MatrixSquare
from parqueue.apps.queens import Queens
from parqueue.errors import (
    ConfigurationError,
    HandlerError,
    LifecycleError,
    ParqueueError,
    ProtocolError,
    TransportError,
)
from parqueue.runtime import (
    Boss,
    HandlerRegistry,
    InprocConfig,
    Job,
    QueueInfo,
    TcpBossConfig,
    TcpWorkerConfig,
    start,
)
from parqueue.wire import BOSS_ID, Frame, MessageKind, TcpWorkerEndpoint, inproc_cluster, pick_free_port


def test_job_type_must_be_positive():
    with pytest.raises(ValueError):
        Job(0)
    with pytest.raises(ValueError):
        Job(-3)
    with pytest.raises(ValueError, match="from 1 to 4294967295, got 4294967296"):
        Job(2**32)  # the frame's job type field is 32 bits
    assert Job(2**32 - 1).job_type == 0xFFFFFFFF
    with pytest.raises(ValueError):
        Job(1, "not bytes")
    assert Job(1).data == b""
    assert not hasattr(Job(1), "__dict__")  # slotted: results are held by the thousand


def test_start_returns_boss_and_stop_terminates_workers():
    calls = []
    registry = HandlerRegistry(worker={1: lambda job, ctx: calls.append(job) or b""})
    boss = start(InprocConfig(4), registry)
    assert isinstance(boss, Boss)
    assert boss.total_workers == 4
    assert boss.idle_workers == 4
    boss.stop()
    assert calls == []  # stop as first message: zero jobs run
    with pytest.raises(LifecycleError):
        boss.stop()


def test_operations_rejected_after_stop():
    boss = start(InprocConfig(1), HandlerRegistry())
    boss.stop()
    with pytest.raises(LifecycleError):
        boss.run_jobs([])
    with pytest.raises(LifecycleError):
        boss.share_data(1, b"")


def test_empty_inqueue_returns_immediately_without_messages():
    with start(InprocConfig(2), HandlerRegistry()) as boss:
        recorder = record_boss(boss)
        out = boss.run_jobs([])
        assert list(out) == []
        assert recorder.events == []


def test_empty_results_filtered_and_one_assign_per_job():
    registry = HandlerRegistry(worker={1: lambda job, ctx: b""})
    with start(InprocConfig(4), registry) as boss:
        recorder = record_boss(boss)
        out = boss.run_jobs([Job(1) for _ in range(100)])
        assert list(out) == []
        counts = recorder.kind_counts()
        assert counts[("send", MessageKind.JOB_ASSIGN)] == 100
        assert counts[("recv", MessageKind.JOB_RESULT)] == 100


def test_nonempty_results_collected_with_job_type():
    registry = HandlerRegistry(worker={7: lambda job, ctx: job.data})
    with start(InprocConfig(2), registry) as boss:
        out = boss.run_jobs([Job(7, codec.encode(i)) for i in range(5)])
        assert sorted(codec.decode(j.data) for j in out) == [0, 1, 2, 3, 4]
        assert all(j.job_type == 7 for j in out)


def test_submit_feeds_the_live_queue():
    # every seed job submits one child; children submit nothing
    def handler(job, ctx):
        depth = codec.decode(job.data)
        if depth:
            ctx.submit(Job(1, codec.encode(depth - 1)))
            return b""
        return job.data

    registry = HandlerRegistry(worker={1: handler})
    with start(InprocConfig(8), registry) as boss:
        recorder = record_boss(boss)
        out = boss.run_jobs([Job(1, codec.encode(1)) for _ in range(95)])
        counts = recorder.kind_counts()
        assert counts[("recv", MessageKind.JOB_SUBMIT)] == 95
        assert counts[("send", MessageKind.JOB_ASSIGN)] == 190
        assert len(out) == 95  # leaves return depth 0


def test_task_echo_roundtrip():
    def echo_task(payload, boss):
        return payload

    def handler(job, ctx):
        return ctx.task(Job(9, job.data))

    registry = HandlerRegistry(worker={1: handler}, boss_task={9: echo_task})
    with start(InprocConfig(3), registry) as boss:
        out = boss.run_jobs([Job(1, codec.encode([4, 5, 6]))])
        assert codec.decode(out[0].data) == [4, 5, 6]


def test_info_snapshot_counts():
    seen = []

    def handler(job, ctx):
        seen.append(ctx.info())
        return b""

    registry = HandlerRegistry(worker={1: handler})
    with start(InprocConfig(1), registry) as boss:
        boss.run_jobs([Job(1), Job(1), Job(1)])
    assert seen == [
        QueueInfo(queued_jobs=2, idle_workers=0, total_workers=1),
        QueueInfo(queued_jobs=1, idle_workers=0, total_workers=1),
        QueueInfo(queued_jobs=0, idle_workers=0, total_workers=1),
    ]


def test_share_data_runs_every_worker_and_waits_for_acks():
    log = []
    lock = threading.Lock()

    def data_handler(job, ctx):
        with lock:
            log.append((ctx.node_id, job.data))
        ctx.store["shared"] = job.data

    def read_handler(job, ctx):
        return ctx.store["shared"]

    registry = HandlerRegistry(worker={1: read_handler, 2: data_handler})
    with start(InprocConfig(3), registry) as boss:
        boss.share_data(2, b"first")
        assert sorted(log) == [(1, b"first"), (2, b"first"), (3, b"first")]
        boss.share_data(2, b"second")  # second share overwrites, in order
        assert sorted(log[3:]) == [(1, b"second"), (2, b"second"), (3, b"second")]
        out = boss.run_jobs([Job(1) for _ in range(6)])
        assert [j.data for j in out] == [b"second"] * 6


@pytest.mark.parametrize("job_type, data", [(1.5, b""), ("1", b""), (0, b""), (2**32, b""), (1, "text")],
                         ids=["float-type", "str-type", "zero-type", "33-bit-type", "str-data"])
def test_share_data_rejects_bad_arguments_before_sending(job_type, data):
    shared = []
    registry = HandlerRegistry(worker={1: lambda job, ctx: shared.append(job.data)})
    with start(InprocConfig(2), registry) as boss:
        with pytest.raises(ValueError):
            boss.share_data(job_type, data)
        assert shared == []
        boss.share_data(1, b"ok")
        assert shared == [b"ok", b"ok"]


def test_share_data_to_zero_workers_is_vacuous():
    boss = start(InprocConfig(0), HandlerRegistry())
    boss.share_data(1, b"anything")
    assert list(boss.run_jobs([])) == []
    boss.stop()


def test_run_jobs_with_jobs_but_no_workers_errors():
    boss = start(InprocConfig(0), HandlerRegistry(worker={1: lambda j, c: b""}))
    with pytest.raises(ConfigurationError):
        boss.run_jobs([Job(1)])
    boss.stop()


def test_unregistered_job_type_aborts_run():
    registry = HandlerRegistry(worker={1: lambda job, ctx: b""})
    with start(InprocConfig(2), registry) as boss:
        with pytest.raises(TransportError, match="job type 5"):
            boss.run_jobs([Job(5)])


def test_unregistered_task_type_is_configuration_error():
    def handler(job, ctx):
        return ctx.task(Job(42))

    registry = HandlerRegistry(worker={1: handler})
    with start(InprocConfig(1), registry) as boss:
        with pytest.raises(ConfigurationError, match="42"):
            boss.run_jobs([Job(1)])


def _start_tcp_with_worker_threads(workers, registry, worker_errors=None):
    """A TCP boss whose workers run start(TcpWorkerConfig) in threads;
    what a worker's start() raises goes to worker_errors, if given."""
    addr = f"127.0.0.1:{pick_free_port()}"

    def worker_main():
        try:
            start(TcpWorkerConfig(addr, timeout=10), registry)
        except ParqueueError as exc:  # a failed run ends every worker; the boss reports why
            if worker_errors is not None:
                worker_errors.append(exc)

    threads = [threading.Thread(target=worker_main, daemon=True) for _ in range(workers)]
    for t in threads:
        t.start()
    return start(TcpBossConfig(addr, workers, timeout=10), registry), threads


@pytest.mark.parametrize("transport", ["inproc", "tcp"])
def test_handler_exception_aborts_with_job_type_diagnostic(transport):
    def handler(job, ctx):
        raise RuntimeError("kaboom")

    registry = HandlerRegistry(worker={3: handler})
    if transport == "inproc":
        boss, threads = start(InprocConfig(2), registry), []
    else:
        boss, threads = _start_tcp_with_worker_threads(2, registry)
    with boss:
        with pytest.raises(TransportError) as excinfo:
            boss.run_jobs([Job(3)])
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    # the same text on both transports: a TCP worker sends its reason in an ABORT frame
    assert str(excinfo.value) == (
        "node 1 disconnected: worker handler for job type 3 raised RuntimeError: kaboom"
    )


@pytest.mark.parametrize("transport", ["inproc", "tcp"])
def test_submit_of_job_type_zero_is_a_protocol_error(transport):
    def handler(job, ctx):
        # Job(0) cannot be built, so write the frame a faulty worker would send
        ctx._endpoint.send(BOSS_ID, Frame(MessageKind.JOB_SUBMIT, 0, b""))

    registry = HandlerRegistry(worker={1: handler})
    if transport == "inproc":
        boss, threads = start(InprocConfig(1), registry), []
    else:
        boss, threads = _start_tcp_with_worker_threads(1, registry)
    with boss:
        with pytest.raises(ProtocolError, match="^worker 1 submitted job type 0$"):
            boss.run_jobs([Job(1)])
        with pytest.raises(LifecycleError, match="aborted run"):
            boss.run_jobs([])
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()


@pytest.mark.parametrize("transport", ["inproc", "tcp"])
def test_result_of_job_type_zero_is_a_protocol_error(transport):
    def handler(job, ctx):
        # Job(0, ...) cannot be built, so write the frame a faulty worker would send
        ctx._endpoint.send(BOSS_ID, Frame(MessageKind.JOB_RESULT, 0, b"result"))
        return b""

    registry = HandlerRegistry(worker={1: handler})
    if transport == "inproc":
        boss, threads = start(InprocConfig(1), registry), []
    else:
        boss, threads = _start_tcp_with_worker_threads(1, registry)
    with boss:
        with pytest.raises(ProtocolError, match="^worker 1 returned a result of job type 0$"):
            boss.run_jobs([Job(1)])
        with pytest.raises(LifecycleError, match="aborted run"):
            boss.run_jobs([])
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()


def _boss_with_raw_workers(transport, workers):
    """A Boss on node 0 whose worker endpoints the test drives by hand."""
    if transport == "inproc":
        endpoints = inproc_cluster(workers)
        return Boss(endpoints[0], HandlerRegistry()), endpoints[1:]
    addr = f"127.0.0.1:{pick_free_port()}"
    boss = []
    acceptor = threading.Thread(target=lambda: boss.append(start(TcpBossConfig(addr, workers, 10),
                                                                 HandlerRegistry())))
    acceptor.start()
    endpoints = [TcpWorkerEndpoint(addr, 10) for _ in range(workers)]
    acceptor.join()
    return boss[0], endpoints


@pytest.mark.parametrize("transport", ["inproc", "tcp"])
@pytest.mark.parametrize("frame, call, text", [
    (Frame(MessageKind.INFO_RESPONSE), "run_jobs",
     "boss received unexpected INFO_RESPONSE from worker 2 during supervision"),
    (Frame(MessageKind.JOB_RESULT, 1, b""), "run_jobs", "unsolicited job result from idle worker 2"),
    (Frame(MessageKind.TASK_REQUEST, 1, b""), "share_data",
     "expected an empty data-share acknowledgment from worker 2, got TASK_REQUEST"),
], ids=["unexpected-kind", "unsolicited-result", "bad-share-ack"])
def test_a_bad_frame_names_its_worker_and_aborts_the_cluster(transport, frame, call, text):
    boss, (w1, w2) = _boss_with_raw_workers(transport, 2)
    try:
        w2.send(BOSS_ID, frame)  # waits at the boss until the call below reads it
        with pytest.raises(ProtocolError) as excinfo:
            if call == "run_jobs":
                boss.run_jobs([Job(1)])  # worker 1 takes the job, so only worker 2's frame arrives
            else:
                boss.share_data(1, b"")
        assert str(excinfo.value) == text
        with pytest.raises(LifecycleError, match="aborted run"):
            boss.run_jobs([])
    finally:
        boss.stop()
        w1.close()
        w2.close()


@pytest.mark.parametrize("transport", ["inproc", "tcp"])
def test_submit_of_a_33_bit_job_type_fails_alike_on_both_transports(transport):
    def handler(job, ctx):
        ctx.submit(Job(2**32))

    registry = HandlerRegistry(worker={1: handler})
    if transport == "inproc":
        boss, threads = start(InprocConfig(1), registry), []
    else:
        boss, threads = _start_tcp_with_worker_threads(1, registry)
    with boss:
        with pytest.raises(TransportError) as excinfo:
            boss.run_jobs([Job(1)])
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    assert str(excinfo.value) == (
        "node 1 disconnected: worker handler for job type 1 raised ValueError: "
        "job type must be an integer from 1 to 4294967295, got 4294967296"
    )


@pytest.mark.parametrize("timeout", [float("inf"), float("nan"), 0.0, -1.0])
@pytest.mark.parametrize("config", [
    lambda timeout: TcpBossConfig("127.0.0.1:0", 1, timeout),
    lambda timeout: TcpWorkerConfig("127.0.0.1:1", timeout),
], ids=["boss", "worker"])
def test_tcp_timeout_must_be_finite_and_above_zero(monkeypatch, config, timeout):
    def no_socket(*args, **kwargs):
        raise AssertionError("a socket was opened")

    monkeypatch.setattr(socket, "create_server", no_socket)
    monkeypatch.setattr(socket, "create_connection", no_socket)
    with pytest.raises(ValueError, match=f"^timeout must be a finite number of seconds above zero, got {timeout}$"):
        start(config(timeout), HandlerRegistry())


@pytest.mark.parametrize("config, error, text", [
    (TcpBossConfig("nope", 1), ValueError, "address 'nope' is not host:port"),
    (InprocConfig(-1), ValueError, "worker count must not be negative"),
    (object(), TypeError, "unknown cluster config object"),
], ids=["bad-address", "negative-workers", "unknown-config"])
def test_start_rejects_a_bad_config(config, error, text):
    with pytest.raises(error) as excinfo:
        start(config, HandlerRegistry())
    assert str(excinfo.value) == text


@pytest.mark.parametrize("transport", ["inproc", "tcp"])
def test_a_boss_takes_its_workers_from_its_endpoint(transport):
    boss, workers = _boss_with_raw_workers(transport, 3)
    try:
        assert boss.total_workers == boss.idle_workers == 3
    finally:
        boss.endpoint.close()
        for worker in workers:
            worker.close()


class _FailingBroadcast(RecordingEndpoint):
    def broadcast(self, frame):
        raise TransportError("broadcast failed")


def test_a_failing_stop_does_not_hide_the_with_body_error():
    with pytest.raises(RuntimeError, match="^body failed$"):
        with start(InprocConfig(1), HandlerRegistry()) as boss:
            boss.endpoint = _FailingBroadcast(boss.endpoint)
            raise RuntimeError("body failed")
    assert boss._stopped
    for t in boss._threads:
        assert not t.is_alive()


def test_a_failing_stop_propagates_from_a_clean_with_body():
    with pytest.raises(TransportError, match="^broadcast failed$"):
        with start(InprocConfig(1), HandlerRegistry()) as boss:
            boss.endpoint = _FailingBroadcast(boss.endpoint)
    assert boss._stopped
    for t in boss._threads:
        assert not t.is_alive()


def test_queued_job_costs_the_boss_under_24_bytes():
    jobs, measured = 20_000, {}

    def spawn(job, ctx):
        for _ in range(jobs):
            ctx.submit(Job(2))
        ctx.task(Job(3))  # answered once the boss has queued every submit before it
        return b""

    def measure(payload, boss):
        # what runtime.py holds now that the worker waits with every job queued
        snapshot = tracemalloc.take_snapshot()
        tracemalloc.stop()
        held = snapshot.filter_traces([tracemalloc.Filter(True, runtime.__file__)])
        measured["queued"] = boss.queued_jobs
        measured["bytes"] = sum(stat.size for stat in held.statistics("filename"))

    registry = HandlerRegistry(worker={1: spawn, 2: lambda job, ctx: None}, boss_task={3: measure})
    with start(InprocConfig(1), registry) as boss:
        tracemalloc.start()
        try:
            boss.run_jobs([Job(1)])
        finally:
            tracemalloc.stop()
    assert measured["queued"] == jobs
    assert measured["bytes"] / jobs < 24


def test_handler_returning_non_bytes_aborts():
    registry = HandlerRegistry(worker={1: lambda job, ctx: 123})
    with start(InprocConfig(1), registry) as boss:
        with pytest.raises(TransportError, match="int"):
            boss.run_jobs([Job(1)])


@pytest.mark.parametrize("transport", ["inproc", "tcp"])
def test_boss_task_handler_exception_aborts(transport):
    def boom(payload, boss):
        raise ValueError("bad task")

    def handler(job, ctx):
        ctx.task(Job(2))  # blocks until the boss answers or goes away
        return b""

    registry = HandlerRegistry(worker={1: handler}, boss_task={2: boom})
    worker_errors = []
    if transport == "inproc":
        boss = start(InprocConfig(1), registry)
        threads = boss._threads
    else:
        boss, threads = _start_tcp_with_worker_threads(1, registry, worker_errors)
    text = "boss task handler for job type 2 raised ValueError: bad task"
    with boss:
        with pytest.raises(HandlerError) as excinfo:
            boss.run_jobs([Job(1)])
    assert str(excinfo.value) == text
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    if transport == "tcp":  # the boss's ABORT frame names the error, as inproc's does
        assert [(type(e), str(e)) for e in worker_errors] == [(TransportError, f"node 0 disconnected: {text}")]


class _Interrupt(BaseException):
    """Ends a call as KeyboardInterrupt or SystemExit would: not an
    Exception, so no handler wrapper turns it into a ParqueueError."""


@pytest.mark.parametrize("transport", ["inproc", "tcp"])
def test_a_run_ended_by_any_exception_aborts_the_cluster(transport):
    interrupt = _Interrupt()

    def interrupted(payload, boss):
        raise interrupt

    def handler(job, ctx):
        return ctx.task(Job(2))  # waits here while the boss's task ends the run

    registry = HandlerRegistry(worker={1: handler}, boss_task={2: interrupted})
    worker_errors = []
    if transport == "inproc":
        boss = start(InprocConfig(1), registry)
        threads = boss._threads
    else:
        boss, threads = _start_tcp_with_worker_threads(1, registry, worker_errors)
    try:
        with pytest.raises(_Interrupt) as excinfo:
            boss.run_jobs([Job(1)])
        assert excinfo.value is interrupt
        second = []
        run = threading.Thread(target=_catching, args=(lambda: boss.run_jobs([Job(1)]), second), daemon=True)
        run.start()
        run.join(timeout=10)
        assert not run.is_alive(), "the run after the aborted one hung"
        assert [(type(e), str(e)) for e in second] == [(LifecycleError, "run_jobs called after an aborted run")]
    finally:
        boss.stop()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    if transport == "tcp":  # stop names the error in its ABORT frame
        assert [(type(e), str(e)) for e in worker_errors] == [(TransportError, "node 0 disconnected: _Interrupt")]


class _InterruptedRecv(RecordingEndpoint):
    """Its first recv raises the given exception before taking a frame."""

    def __init__(self, inner, exc):
        super().__init__(inner)
        self.exc = exc

    def recv(self):
        exc, self.exc = self.exc, None
        if exc is not None:
            raise exc
        return super().recv()


def test_a_share_ended_by_any_exception_aborts_the_cluster():
    # the acknowledgments stay unread: a later run must not take one for a job's result
    interrupt = _Interrupt()
    registry = HandlerRegistry(worker={1: lambda job, ctx: None, 2: lambda job, ctx: b"done"})
    with start(InprocConfig(2), registry) as boss:
        boss.endpoint = _InterruptedRecv(boss.endpoint, interrupt)
        with pytest.raises(_Interrupt) as excinfo:
            boss.share_data(1, b"table")
        assert excinfo.value is interrupt
        with pytest.raises(LifecycleError) as excinfo:
            boss.run_jobs([Job(2)])
        assert str(excinfo.value) == "run_jobs called after an aborted run"
    for t in boss._threads:
        assert not t.is_alive()


@pytest.mark.parametrize("frames, text", [
    ([Frame(MessageKind.JOB_ASSIGN, 1), Frame(MessageKind.STOP)], "stopped while awaiting TASK_RESPONSE"),
    ([Frame(MessageKind.JOB_ASSIGN, 1), Frame(MessageKind.INFO_RESPONSE)],
     "expected TASK_RESPONSE, received INFO_RESPONSE"),
    ([Frame(MessageKind.TASK_RESPONSE, 2)], "worker received unexpected TASK_RESPONSE"),
], ids=["stop-during-task", "info-response-during-task", "task-response-while-idle"])
def test_a_worker_ends_on_a_frame_it_does_not_expect(frames, text):
    boss, worker = inproc_cluster(1)
    registry = HandlerRegistry(worker={1: lambda job, ctx: ctx.task(Job(2))})
    thread = threading.Thread(target=runtime._worker_thread_main, args=(worker, registry), daemon=True)
    thread.start()
    for frame in frames:
        boss.send(1, frame)
    if frames[0].kind is MessageKind.JOB_ASSIGN:  # the handler asks for its task first
        assert boss.recv() == (1, Frame(MessageKind.TASK_REQUEST, 2))
    with pytest.raises(TransportError) as excinfo:
        boss.recv()
    assert str(excinfo.value) == f"node 1 disconnected: {text}"
    thread.join(timeout=10)
    assert not thread.is_alive()
    boss.close()


def test_context_invalid_outside_invocation():
    escaped = []

    def handler(job, ctx):
        escaped.append(ctx)
        return b""

    registry = HandlerRegistry(worker={1: handler})
    with start(InprocConfig(1), registry) as boss:
        boss.run_jobs([Job(1)])
        with pytest.raises(LifecycleError):
            escaped[0].submit(Job(1))
        with pytest.raises(LifecycleError):
            escaped[0].info()


def test_submit_during_data_share_is_lifecycle_error():
    def data_handler(job, ctx):
        ctx.submit(Job(1))

    registry = HandlerRegistry(worker={2: data_handler})
    with start(InprocConfig(1), registry) as boss:
        with pytest.raises(TransportError, match="data share"):
            boss.share_data(2, b"x")


def test_a_context_names_why_it_refuses_a_call():
    escaped = []

    def handler(job, ctx):
        escaped.append(ctx)

    def sharing(job, ctx):
        ctx.task(Job(1))

    registry = HandlerRegistry(worker={1: handler, 2: sharing})
    with start(InprocConfig(1), registry) as boss:
        boss.run_jobs([Job(1)])
        for call, op in [(lambda ctx: ctx.submit(Job(1)), "submit"), (lambda ctx: ctx.task(Job(1)), "task"),
                         (lambda ctx: ctx.info(), "info")]:
            with pytest.raises(LifecycleError) as excinfo:
                call(escaped[0])
            assert str(excinfo.value) == f"{op} called outside a handler invocation"
        with pytest.raises(TransportError) as excinfo:
            boss.share_data(2, b"x")
        assert str(excinfo.value) == "node 1 disconnected: task is not available while handling a data share"


def test_run_jobs_reentrancy_rejected():
    def task(payload, boss):
        boss.run_jobs([])  # supervision is already in progress
        return b""

    def handler(job, ctx):
        ctx.task(Job(2))
        return b""

    registry = HandlerRegistry(worker={1: handler}, boss_task={2: task})
    with start(InprocConfig(1), registry) as boss:
        with pytest.raises(LifecycleError):
            boss.run_jobs([Job(1)])


def test_run_jobs_rejects_non_job_items():
    with start(InprocConfig(1), HandlerRegistry()) as boss:
        with pytest.raises(TypeError):
            boss.run_jobs([("not", "a", "job")])


def test_no_frames_after_stop():
    registry = HandlerRegistry(worker={1: lambda job, ctx: b""})
    boss = start(InprocConfig(2), registry)
    recorder = record_boss(boss)
    boss.run_jobs([Job(1), Job(1)])
    boss.stop()
    kinds = [kind for _, kind, _ in recorder.events]
    assert kinds[-1] == MessageKind.STOP
    assert kinds.count(MessageKind.STOP) == 1  # one broadcast, nothing after


def test_idle_accounting_in_samples():
    registry = HandlerRegistry(worker={1: lambda job, ctx: b""})
    with start(InprocConfig(4), registry) as boss:
        boss.run_jobs([Job(1) for _ in range(20)])
        samples = list(boss.samples)
    assert samples[0].active_workers == 0
    assert all(0 <= s.active_workers <= 4 for s in samples)
    assert max(s.active_workers for s in samples) == 4
    assert samples[-1].active_workers == 0
    assert samples[-1].queued_jobs == 0


def test_consecutive_runs_on_one_cluster():
    registry = HandlerRegistry(worker={1: lambda job, ctx: job.data})
    with start(InprocConfig(2), registry) as boss:
        first = boss.run_jobs([Job(1, codec.encode(1))])
        second = boss.run_jobs([Job(1, codec.encode(2))])
        assert codec.decode(first[0].data) == 1
        assert codec.decode(second[0].data) == 2


def test_data_share_reply_is_ignored_not_type_checked():
    # a data-share handler's return value is never sent back, so a
    # non-bytes return is acknowledged like None
    registry = HandlerRegistry(worker={1: lambda job, ctx: 7, 2: lambda job, ctx: b"ok"})
    with start(InprocConfig(2), registry) as boss:
        boss.share_data(1, b"table")
        assert [job.data for job in boss.run_jobs([Job(2)])] == [b"ok"]


class _RecvThreads(RecordingEndpoint):
    """Records the thread that takes each frame the boss receives."""

    def __init__(self, inner):
        super().__init__(inner)
        self.threads = []

    def recv(self):
        self.threads.append(threading.current_thread())
        return super().recv()


@pytest.mark.parametrize("transport", ["inproc", "tcp"])
def test_inproc_frames_are_served_on_the_delivering_thread(transport):
    # inproc: the worker that delivers a frame runs the boss loop on it, so
    # run_jobs's caller takes none; TCP: the caller's loop takes every frame
    app = Queens()
    if transport == "inproc":
        boss, threads = start(InprocConfig(1), app.registry()), []
    else:
        boss, threads = _start_tcp_with_worker_threads(1, app.registry())
    with boss:
        recorder = boss.endpoint = _RecvThreads(boss.endpoint)
        assert app.run(boss, 8, 3) == serial_queens_count(8)
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    caller = threading.current_thread()
    assert len(recorder.threads) > 100
    taken_by_caller = sum(thread is caller for thread in recorder.threads)
    assert taken_by_caller == (0 if transport == "inproc" else len(recorder.threads))


def test_a_worker_failure_while_another_worker_serves_aborts_the_run():
    # worker 1's task request makes its thread the server; the task waits
    # until worker 2 has raised and ended, so worker 2's ABORT finds the lock
    # taken and is served by worker 1's thread once the task returns
    started = threading.Event()

    def wait_for_worker_2(payload, boss):
        started.set()
        boss._threads[1].join(timeout=10)
        return b""

    def ask(job, ctx):
        return ctx.task(Job(3))

    def fail(job, ctx):
        started.wait(timeout=10)
        raise ValueError("boom")

    registry = HandlerRegistry(worker={1: ask, 2: fail}, boss_task={3: wait_for_worker_2})
    boss = start(InprocConfig(4), registry)
    with boss:
        with pytest.raises(TransportError) as excinfo:
            boss.run_jobs([Job(1), Job(2)])
    for t in boss._threads:
        t.join(timeout=10)
        assert not t.is_alive()
    assert str(excinfo.value) == "node 2 disconnected: worker handler for job type 2 raised ValueError: boom"


def test_a_frame_delivered_while_the_server_lets_go_is_served():
    # the caller serves the first assignment; right after it finds the inbox
    # empty, and before it lets go of the lock, the worker delivers a task
    # request and blocks for the reply, so only the caller's second look
    # after letting go can serve it
    registry = HandlerRegistry(worker={1: lambda job, ctx: ctx.task(Job(2))},
                               boss_task={2: lambda payload, boss: b"served"})
    with start(InprocConfig(1), registry) as boss:
        out = []
        caller = threading.Thread(target=lambda: out.extend(boss.run_jobs([Job(1)])), daemon=True)
        worker, inbox_size, serve = boss._threads[0], boss._ready, boss.endpoint.on_delivery
        delivered, injected = threading.Event(), []

        def ready():
            waiting = inbox_size()
            if not waiting and not injected and threading.current_thread() is caller:
                injected.append(True)
                assert delivered.wait(timeout=10)  # the worker found the lock taken
            return waiting

        def on_delivery():
            serve()
            if threading.current_thread() is worker:
                delivered.set()

        boss._ready, boss.endpoint.on_delivery = ready, on_delivery
        caller.start()
        caller.join(timeout=10)
        assert not caller.is_alive(), "the task request was never served"
        assert injected and [job.data for job in out] == [b"served"]


def _asking_info(registry: HandlerRegistry, job_type: int) -> HandlerRegistry:
    """The same registry, with one handler asking for a queue snapshot first."""
    handler = registry.worker[job_type]

    def asking(job, ctx):
        info = ctx.info()
        assert info.total_workers == 8 and 0 <= info.idle_workers < 8
        return handler(job, ctx)

    registry.worker[job_type] = asking
    return registry


def test_no_delivery_is_left_unserved_under_load():
    # eight workers deliver submits, results, tasks, info requests and share
    # acks at once; a lost wake-up would leave a run waiting forever
    rng = Random(12)
    matrix = [[rng.uniform(-1.0, 1.0) for _ in range(12)] for _ in range(12)]
    expected_rows = [square_row_k_order(matrix, i) for i in range(12)]
    n = 2**4 * 3**3 * 5 * 7 * 11 * 13

    def run_queens():
        app = Queens()
        with start(InprocConfig(8), _asking_info(app.registry(), queens.PLACE)) as boss:
            assert app.run(boss, 8, 3) == serial_queens_count(8)

    def run_factor():
        with start(InprocConfig(8), _asking_info(factor.registry(), factor.SPLIT)) as boss:
            assert factor.factor(boss, n) == trial_division_factors(n)

    def run_matsquare():
        app = MatrixSquare()
        with start(InprocConfig(8), _asking_info(app.registry(), matsquare.MULTIPLY)) as boss:
            assert app.run(boss, matrix) == expected_rows

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # threads switch often, also while one of them serves
    try:
        for run in (run_queens, run_factor, run_matsquare):
            for attempt in range(25):
                errors = []
                thread = threading.Thread(target=lambda: _catching(run, errors), daemon=True)
                thread.start()
                thread.join(timeout=30)
                assert not thread.is_alive(), f"{run.__name__} run {attempt} hung"
                assert errors == [], f"{run.__name__} run {attempt}: {errors[0]!r}"
    finally:
        sys.setswitchinterval(interval)


def _catching(fn, errors: list) -> None:
    try:
        fn()
    except BaseException as exc:
        errors.append(exc)
