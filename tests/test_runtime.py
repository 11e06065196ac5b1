import threading

import pytest
from support import RecordingEndpoint, record_boss

from parqueue import codec
from parqueue.errors import (
    ConfigurationError,
    LifecycleError,
    TransportError,
)
from parqueue.runtime import (
    Boss,
    HandlerRegistry,
    InprocConfig,
    Job,
    QueueInfo,
    start,
)
from parqueue.wire import MessageKind


def test_job_type_must_be_positive():
    with pytest.raises(ValueError):
        Job(0)
    with pytest.raises(ValueError):
        Job(-3)
    with pytest.raises(ValueError):
        Job(1, "not bytes")
    assert Job(1).data == b""


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


def test_handler_exception_aborts_with_job_type_diagnostic():
    def handler(job, ctx):
        raise RuntimeError("kaboom")

    registry = HandlerRegistry(worker={3: handler})
    with start(InprocConfig(2), registry) as boss:
        with pytest.raises(TransportError) as excinfo:
            boss.run_jobs([Job(3)])
    message = str(excinfo.value)
    assert "job type 3" in message and "kaboom" in message


def test_handler_returning_non_bytes_aborts():
    registry = HandlerRegistry(worker={1: lambda job, ctx: 123})
    with start(InprocConfig(1), registry) as boss:
        with pytest.raises(TransportError, match="int"):
            boss.run_jobs([Job(1)])


def test_boss_task_handler_exception_aborts():
    def boom(payload, boss):
        raise ValueError("bad task")

    def handler(job, ctx):
        ctx.task(Job(2))
        return b""

    registry = HandlerRegistry(worker={1: handler}, boss_task={2: boom})
    with start(InprocConfig(1), registry) as boss:
        with pytest.raises(Exception, match="bad task"):
            boss.run_jobs([Job(1)])


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
