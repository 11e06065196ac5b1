"""Boss supervision loop, worker loop, and the application surface.

A cluster is one boss (node 0) plus N workers.  The boss owns the
global job queue: during run_jobs it assigns the front job to any idle
worker and otherwise handles worker messages one at a time -- job
submissions grow the live queue, job results are collected (empty
results are dropped), task requests run a boss-side handler whose reply
goes back to the requesting worker, and info requests answer with a
queue snapshot.  Supervision returns once the queue is empty and every
assigned job has reported back.

Workers loop waiting for data shares, jobs, or the stop command, and
run the registered handler for each job type.  Handlers receive a
WorkerContext through which they may submit new jobs into the running
queue, ask the boss to run a task immediately, or query queue state.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from random import Random
from typing import Callable, Iterable

from . import codec
from .errors import (
    ConfigurationError,
    HandlerError,
    LifecycleError,
    ParqueueError,
    ProtocolError,
    TransportError,
)
from .metrics import LoadLog
from .wire import (
    BOSS_ID,
    Endpoint,
    Frame,
    MessageKind,
    TcpBossEndpoint,
    TcpWorkerEndpoint,
    inproc_cluster,
)


@dataclass(frozen=True)
class Job:
    """A typed unit of work: positive type tag plus opaque payload."""

    job_type: int
    data: bytes = b""

    def __post_init__(self):
        if not isinstance(self.job_type, int) or self.job_type < 1:
            raise ValueError(f"job type must be a positive integer, got {self.job_type!r}")
        if not isinstance(self.data, bytes):
            raise ValueError("job data must be bytes")


@dataclass(frozen=True)
class QueueInfo:
    """Snapshot of supervision state; counts may be stale by the time
    the caller acts on them."""

    queued_jobs: int
    idle_workers: int
    total_workers: int


WorkerHandler = Callable[[Job, "WorkerContext"], "bytes | None"]
BossTaskHandler = Callable[[bytes, "Boss"], "bytes | None"]


@dataclass
class HandlerRegistry:
    """Maps job types to handlers: worker handlers run queued jobs and
    data shares on worker nodes; boss task handlers answer task requests
    inside the boss loop."""

    worker: dict[int, WorkerHandler] = field(default_factory=dict)
    boss_task: dict[int, BossTaskHandler] = field(default_factory=dict)


@dataclass
class InprocConfig:
    """All nodes in one process; workers are threads.  recv_rng seeds
    the boss's choice among ready channels, letting tests explore
    message interleavings reproducibly."""

    workers: int
    recv_rng: Random | None = None


@dataclass
class TcpBossConfig:
    listen: str
    workers: int
    timeout: float = 30.0


@dataclass
class TcpWorkerConfig:
    connect: str
    timeout: float = 30.0


class WorkerContext:
    """Handle passed to a worker handler for the duration of one
    invocation.  store persists per worker across invocations."""

    __slots__ = ("node_id", "store", "_endpoint", "_during_share", "_active")

    def __init__(self, endpoint: Endpoint, store: dict, during_share: bool):
        self.node_id = endpoint.node_id
        self.store = store
        self._endpoint = endpoint
        self._during_share = during_share
        self._active = True

    def _check(self, op: str) -> None:
        if not self._active:
            raise LifecycleError(f"{op} called outside a handler invocation")
        if self._during_share:
            raise LifecycleError(f"{op} is not available while handling a data share")

    def submit(self, job: Job) -> None:
        """Append a new job to the live global queue; does not wait."""
        self._check("submit")
        self._endpoint.send(BOSS_ID, Frame(MessageKind.JOB_SUBMIT, job.job_type, job.data))

    def task(self, job: Job) -> bytes:
        """Have the boss run a task handler now; blocks for the reply."""
        self._check("task")
        self._endpoint.send(BOSS_ID, Frame(MessageKind.TASK_REQUEST, job.job_type, job.data))
        return self._await(MessageKind.TASK_RESPONSE).payload

    def info(self) -> QueueInfo:
        """Fetch a snapshot of queue length and worker idleness."""
        self._check("info")
        self._endpoint.send(BOSS_ID, Frame(MessageKind.INFO_REQUEST))
        record = codec.decode(self._await(MessageKind.INFO_RESPONSE).payload)
        return QueueInfo(record["queued"], record["idle"], record["total"])

    def _await(self, kind: MessageKind) -> Frame:
        src, frame = self._endpoint.recv()
        if frame.kind is kind:
            return frame
        if frame.kind is MessageKind.STOP:
            raise TransportError(f"stopped while awaiting {kind.name}")
        raise ProtocolError(f"expected {kind.name}, received {frame.kind.name}")


def _call_handler(handlers: dict, what: str, job_type: int, *args, reply: bool = True) -> bytes:
    """Run the handler registered for job_type.  Anything it raises
    other than a ParqueueError becomes a HandlerError naming the job
    type; with reply set, it must return bytes or None (None is b"")."""
    handler = handlers.get(job_type)
    if handler is None:
        raise ConfigurationError(f"no {what} registered for job type {job_type}")
    try:
        result = handler(*args)
    except ParqueueError:
        raise
    except Exception as exc:
        raise HandlerError(
            f"{what} for job type {job_type} raised {type(exc).__name__}: {exc}"
        ) from exc
    if not reply or result is None:
        return b""
    if not isinstance(result, bytes):
        raise HandlerError(
            f"{what} for job type {job_type} returned {type(result).__name__} instead of bytes"
        )
    return result


def _worker_loop(endpoint: Endpoint, registry: HandlerRegistry) -> None:
    """The worker main loop: handle data shares and jobs until stopped."""
    store: dict = {}
    stop_kind, assign_kind = MessageKind.STOP, MessageKind.JOB_ASSIGN
    share_kind, result_kind = MessageKind.DATA_SHARE, MessageKind.JOB_RESULT
    recv, send, handlers = endpoint.recv, endpoint.send, registry.worker
    try:
        while True:
            _, frame = recv()
            kind = frame.kind
            if kind is stop_kind:
                break
            if kind is assign_kind or kind is share_kind:
                ctx = WorkerContext(endpoint, store, during_share=kind is share_kind)
                try:
                    # data shares are acknowledged, not answered
                    result = _call_handler(handlers, "worker handler", frame.job_type,
                                           Job(frame.job_type, frame.payload), ctx,
                                           reply=kind is assign_kind)
                finally:
                    ctx._active = False
                send(BOSS_ID, Frame(result_kind, frame.job_type, result))
            else:
                raise ProtocolError(f"worker received unexpected {kind.name}")
    except BaseException as exc:
        endpoint.close(reason=str(exc) or type(exc).__name__)
        raise
    endpoint.close()


def _worker_thread_main(endpoint: Endpoint, registry: HandlerRegistry) -> None:
    # in-process workers exit quietly on cluster errors: the boss already
    # received the failure reason through the endpoint close sentinel
    try:
        _worker_loop(endpoint, registry)
    except ParqueueError:
        pass


class Boss:
    """Supervision handle returned by start() on node 0."""

    def __init__(self, endpoint: Endpoint, total_workers: int, registry: HandlerRegistry,
                 worker_threads: Iterable[threading.Thread] = ()):
        self.endpoint = endpoint
        self.total_workers = total_workers
        self.registry = registry
        self.samples = LoadLog()
        self._idle = set(range(1, total_workers + 1))
        self._outstanding = 0
        self._inqueue: deque[Job] = deque()
        self._supervising = False
        self._stopped = False
        self._aborted = False
        self._threads = list(worker_threads)
        self._t0 = 0.0

    @property
    def queued_jobs(self) -> int:
        return len(self._inqueue)

    @property
    def idle_workers(self) -> int:
        return len(self._idle)

    @property
    def outstanding_jobs(self) -> int:
        return self._outstanding

    def _require_open(self, op: str, allow_aborted: bool = False) -> None:
        if self._stopped:
            raise LifecycleError(f"{op} called after stop")
        if self._supervising:
            raise LifecycleError(f"{op} called while supervision is in progress")
        if self._aborted and not allow_aborted:
            raise LifecycleError(f"{op} called after an aborted run")

    def run_jobs(self, jobs: Iterable[Job] = ()) -> deque[Job]:
        """Supervise until the queue drains: assign the front job to any
        idle worker (lowest id first), fold submissions into the live
        queue, collect non-empty results, answer tasks and info requests
        in arrival order.  Returns the result queue."""
        self._require_open("run_jobs")
        inqueue = self._inqueue
        inqueue.clear()
        for job in jobs:
            if not isinstance(job, Job):
                raise TypeError(f"expected Job, got {type(job).__name__}")
            inqueue.append(job)
        if inqueue and self.total_workers == 0:
            raise ConfigurationError("jobs queued but the cluster has no workers")
        outqueue: deque[Job] = deque()
        endpoint = self.endpoint
        idle = self._idle
        registry = self.registry
        send, recv = endpoint.send, endpoint.recv
        assign_kind, submit_kind = MessageKind.JOB_ASSIGN, MessageKind.JOB_SUBMIT
        result_kind, task_kind = MessageKind.JOB_RESULT, MessageKind.TASK_REQUEST
        record, now = self.samples.record, time.perf_counter
        self._supervising = True
        self.samples.clear()
        t0 = self._t0 = now()
        record(0.0, 0, len(inqueue))
        try:
            while inqueue or self._outstanding:
                if inqueue and idle:
                    dest = min(idle)
                    job = inqueue.popleft()
                    send(dest, Frame(assign_kind, job.job_type, job.data))
                    idle.remove(dest)
                    self._outstanding += 1
                    record(now() - t0, self._outstanding, len(inqueue))
                    continue
                src, frame = recv()
                kind = frame.kind
                if kind is submit_kind:
                    inqueue.append(Job(frame.job_type, frame.payload))
                    record(now() - t0, self._outstanding, len(inqueue))
                elif kind is result_kind:
                    if src in idle:
                        raise ProtocolError(f"unsolicited job result from idle worker {src}")
                    self._outstanding -= 1
                    idle.add(src)
                    if frame.payload:
                        outqueue.append(Job(frame.job_type, frame.payload))
                    record(now() - t0, self._outstanding, len(inqueue))
                elif kind is task_kind:
                    reply = _call_handler(registry.boss_task, "boss task handler",
                                          frame.job_type, frame.payload, self)
                    send(src, Frame(MessageKind.TASK_RESPONSE, frame.job_type, reply))
                elif kind is MessageKind.INFO_REQUEST:
                    snapshot = codec.encode(
                        {"queued": len(inqueue), "idle": len(idle), "total": self.total_workers}
                    )
                    send(src, Frame(MessageKind.INFO_RESPONSE, 0, snapshot))
                else:
                    raise ProtocolError(f"boss received unexpected {kind.name} during supervision")
                assert len(idle) + self._outstanding == self.total_workers
        except ParqueueError:
            self._aborted = True
            raise
        finally:
            self._supervising = False
        return outqueue

    def share_data(self, job_type: int, data: bytes) -> None:
        """Broadcast one payload; every worker runs its handler for
        job_type before any further job, and the call returns only after
        all workers have acknowledged."""
        self._require_open("share_data")
        if job_type < 1:
            raise ValueError(f"job type must be a positive integer, got {job_type!r}")
        if not isinstance(data, bytes):
            raise ValueError("shared data must be bytes")
        if self._outstanding:
            raise LifecycleError("share_data requires all workers idle")
        try:
            self.endpoint.broadcast(Frame(MessageKind.DATA_SHARE, job_type, data))
            for _ in range(self.total_workers):
                _, frame = self.endpoint.recv()
                if frame.kind is not MessageKind.JOB_RESULT or frame.payload:
                    raise ProtocolError(
                        f"expected an empty data-share acknowledgment, got {frame.kind.name}"
                    )
        except ParqueueError:
            self._aborted = True
            raise

    def stop(self) -> None:
        """Broadcast stop, wait for workers to wind down, close the
        endpoint.  A second stop is a lifecycle error.  After an aborted
        run the cluster is already dead, so stop just tears down."""
        self._require_open("stop", allow_aborted=True)
        self._stopped = True
        try:
            if not self._aborted:
                self.endpoint.broadcast(Frame(MessageKind.STOP))
        finally:
            self.endpoint.close()
            for thread in self._threads:
                thread.join(timeout=10)

    def __enter__(self) -> "Boss":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if not self._stopped:
            try:
                self.stop()
            except ParqueueError:
                if exc_type is None:
                    raise
        return False


ClusterConfig = InprocConfig | TcpBossConfig | TcpWorkerConfig


def start(config: ClusterConfig, registry: HandlerRegistry) -> Boss | None:
    """Bring the cluster up.

    Returns the Boss on node 0.  With a TcpWorkerConfig the call runs
    the worker loop instead and returns None once the boss says stop.
    """
    if isinstance(config, InprocConfig):
        endpoints = inproc_cluster(config.workers, config.recv_rng)
        threads = []
        for endpoint in endpoints[1:]:
            thread = threading.Thread(
                target=_worker_thread_main,
                args=(endpoint, registry),
                name=f"parqueue-worker-{endpoint.node_id}",
                daemon=True,
            )
            thread.start()
            threads.append(thread)
        return Boss(endpoints[0], config.workers, registry, threads)
    if isinstance(config, TcpBossConfig):
        endpoint = TcpBossEndpoint(config.listen, config.workers, config.timeout)
        return Boss(endpoint, config.workers, registry)
    if isinstance(config, TcpWorkerConfig):
        endpoint = TcpWorkerEndpoint(config.connect, config.timeout)
        _worker_loop(endpoint, registry)
        return None
    raise TypeError(f"unknown cluster config {type(config).__name__}")
