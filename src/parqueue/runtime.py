"""Boss supervision loop, worker loop, and the application surface.

A cluster is one boss (node 0) plus N workers.  The boss owns the
global job queue: during run_jobs it assigns the front job to any idle
worker and otherwise handles worker messages one at a time -- job
submissions grow the live queue, job results are collected (empty
results are dropped), task requests run a boss-side handler whose reply
goes back to the requesting worker, and info requests answer with a
queue snapshot.  Supervision returns once the queue is empty and every
assigned job has reported back.  One driver serves every transport: in
process the worker thread that delivers a frame to the boss runs this
loop itself, one at a time; otherwise run_jobs's caller runs it.  Any
exception that ends a run or a data share aborts the cluster.

Workers loop waiting for data shares, jobs, or the stop command, and
run the registered handler for each job type.  Handlers receive a
WorkerContext through which they may submit new jobs into the running
queue, ask the boss to run a task immediately, or query queue state.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from dataclasses import dataclass, field
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


@dataclass(frozen=True, slots=True)
class Job:
    """A typed unit of work: a 32-bit type tag above 0 plus opaque payload."""

    job_type: int
    data: bytes = b""

    def __post_init__(self):
        if not isinstance(self.job_type, int) or not 0 < self.job_type <= 0xFFFFFFFF:
            raise ValueError(f"job type must be an integer from 1 to 4294967295, got {self.job_type!r}")
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
    """All nodes in one process; workers are threads."""

    workers: int


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
    """Handle passed to a worker handler for one invocation: node_id is
    its endpoint's, and store persists per worker across invocations."""

    __slots__ = ("node_id", "store", "_endpoint", "_handling")

    def __init__(self, endpoint: Endpoint, store: dict, kind: MessageKind):
        self.node_id = endpoint.node_id
        self.store = store
        self._endpoint = endpoint
        self._handling: MessageKind | None = kind  # the frame whose handler runs; None once it returns

    def _check(self, op: str) -> None:
        if self._handling is None:
            raise LifecycleError(f"{op} called outside a handler invocation")
        if self._handling is _SHARE:
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


_ASSIGN, _RESULT, _SUBMIT, _TASK = (MessageKind.JOB_ASSIGN, MessageKind.JOB_RESULT,
                                    MessageKind.JOB_SUBMIT, MessageKind.TASK_REQUEST)
_SHARE, _STOP = MessageKind.DATA_SHARE, MessageKind.STOP


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
    recv, send, handlers = endpoint.recv, endpoint.send, registry.worker
    try:
        while True:
            _, frame = recv()
            kind = frame.kind
            if kind is _STOP:
                break
            if kind is _ASSIGN or kind is _SHARE:
                ctx = WorkerContext(endpoint, store, kind)
                try:
                    # data shares are acknowledged, not answered
                    result = _call_handler(handlers, "worker handler", frame.job_type,
                                           Job(frame.job_type, frame.payload), ctx,
                                           reply=kind is _ASSIGN)
                finally:
                    ctx._handling = None
                send(BOSS_ID, Frame(_RESULT, frame.job_type, result))
            else:
                raise ProtocolError(f"worker received unexpected {kind.name}")
    except BaseException as exc:
        endpoint.close(reason=str(exc) or type(exc).__name__)
        raise
    endpoint.close()


def _worker_thread_main(endpoint: Endpoint, registry: HandlerRegistry) -> None:
    # in-process workers exit quietly on cluster errors: the boss already
    # received the failure reason in the ABORT frame the endpoint's close sent
    try:
        _worker_loop(endpoint, registry)
    except ParqueueError:
        pass


class Boss:
    """Supervision handle returned by start() on node 0; its workers are its endpoint's peers."""

    def __init__(self, endpoint: Endpoint, registry: HandlerRegistry,
                 worker_threads: Iterable[threading.Thread] = ()):
        self.endpoint = endpoint
        self.registry = registry
        self.samples = LoadLog()
        self._idle = set(endpoint._peers)
        self.total_workers = len(self._idle)
        # the live queue, one column per Job field, so a queued job costs two deque slots
        self._types: deque[int] = deque()
        self._payloads: deque[bytes] = deque()
        self._supervising = False
        self._stopped = False
        self._threads = list(worker_threads)
        # a run is served by one thread at a time under _lock (flat combining,
        # Hendler et al., SPAA 2010); run_jobs waits for _done
        self._lock = threading.Lock()
        self._outqueue, self._t0, self._done = deque(), 0.0, None  # a run's results, start and end
        self._error: BaseException | None = None  # what failed a run or a share: the cluster is dead
        self._ready = endpoint.ready
        if self._ready is not None:
            endpoint.on_delivery = self._serve_delivered

    @property
    def queued_jobs(self) -> int:
        return len(self._types)

    @property
    def idle_workers(self) -> int:
        return len(self._idle)

    def _require_open(self, op: str, allow_aborted: bool = False) -> None:
        if self._stopped:
            raise LifecycleError(f"{op} called after stop")
        if self._supervising:
            raise LifecycleError(f"{op} called while supervision is in progress")
        if self._error is not None and not allow_aborted:
            raise LifecycleError(f"{op} called after an aborted run")

    def run_jobs(self, jobs: Iterable[Job] = ()) -> deque[Job]:
        """Supervise until the queue drains: assign the front job to any
        idle worker (lowest id first), fold submissions into the live
        queue, collect non-empty results, answer tasks and info requests
        in arrival order.  Returns the result queue."""
        self._require_open("run_jobs")
        types, payloads = self._types, self._payloads
        types.clear()
        payloads.clear()
        for job in jobs:
            if not isinstance(job, Job):
                raise TypeError(f"expected Job, got {type(job).__name__}")
            types.append(job.job_type)
            payloads.append(job.data)
        if types and self.total_workers == 0:
            raise ConfigurationError("jobs queued but the cluster has no workers")
        self._outqueue, self._done = deque(), threading.Event()
        self.samples.clear()
        self._t0 = time.perf_counter()
        self.samples.record(0.0, 0, len(types))
        self._supervising = True  # from here on a delivery may serve the run
        try:
            self._serve_delivered(first=True)
            self._done.wait()
            if self._error is not None:
                raise self._error
        except BaseException as exc:
            self._error = exc
            raise
        finally:
            self._supervising = False
        return self._outqueue

    def _serve(self, ready: Callable[[], int] | None) -> bool:
        """The supervision loop.  Returns True once the queue is empty and every
        worker idle; given ready, returns False when ready() says no frame waits."""
        types, payloads, idle, total = self._types, self._payloads, self._idle, self.total_workers
        outqueue, t0, send, recv = self._outqueue, self._t0, self.endpoint.send, self.endpoint.recv
        record, now = self.samples.record, time.perf_counter
        while types or len(idle) < total:
            if types and idle:
                dest = min(idle)
                send(dest, Frame(_ASSIGN, types.popleft(), payloads.popleft()))
                idle.remove(dest)
                record(now() - t0, total - len(idle), len(types))
                continue
            if ready is not None and not ready():
                return False
            src, frame = recv()
            kind = frame.kind
            if kind is _SUBMIT:
                if not frame.job_type:
                    raise ProtocolError(f"worker {src} submitted job type 0")
                types.append(frame.job_type)
                payloads.append(frame.payload)
                record(now() - t0, total - len(idle), len(types))
            elif kind is _RESULT:
                if src in idle:
                    raise ProtocolError(f"unsolicited job result from idle worker {src}")
                idle.add(src)
                if frame.payload:
                    if not frame.job_type:
                        raise ProtocolError(f"worker {src} returned a result of job type 0")
                    outqueue.append(Job(frame.job_type, frame.payload))
                record(now() - t0, total - len(idle), len(types))
            elif kind is _TASK:
                reply = _call_handler(self.registry.boss_task, "boss task handler",
                                      frame.job_type, frame.payload, self)
                send(src, Frame(MessageKind.TASK_RESPONSE, frame.job_type, reply))
            elif kind is MessageKind.INFO_REQUEST:
                snapshot = codec.encode({"queued": len(types), "idle": len(idle), "total": total})
                send(src, Frame(MessageKind.INFO_RESPONSE, 0, snapshot))
            else:
                raise ProtocolError(
                    f"boss received unexpected {kind.name} from worker {src} during supervision"
                )
        return True

    def _serve_delivered(self, kind: MessageKind | None = None, first: bool = False) -> None:
        """The one driver of every run.  run_jobs calls it with first set; with
        no ready (any endpoint but inproc's) that call serves the whole run in
        a blocking recv.  In process it is also the boss endpoint's on_delivery:
        unless another thread serves, serve until no frame waits, then look
        again, since a frame delivered meanwhile found the lock taken.  A
        SUBMIT while no worker is idle waits: every worker owes a RESULT or
        an ABORT, whose serve drains the inbox in order before any assign."""
        if kind is _SUBMIT and not self._idle:
            return
        lock, ready = self._lock, self._ready
        while (first or self._supervising and ready()) and lock.acquire(first):
            first = False
            try:
                try:
                    if not (self._supervising and self._serve(ready)):
                        continue
                except BaseException as exc:
                    self._error = exc
                self._supervising = False  # the run is over: wake run_jobs
                self._done.set()
            finally:
                lock.release()

    def share_data(self, job_type: int, data: bytes) -> None:
        """Broadcast one payload; every worker runs its handler for
        job_type before any further job, and the call returns only after
        all workers have acknowledged."""
        self._require_open("share_data")
        share = Job(job_type, data)  # validates both before anything is sent
        try:
            self.endpoint.broadcast(Frame(MessageKind.DATA_SHARE, share.job_type, share.data))
            for _ in range(self.total_workers):
                src, frame = self.endpoint.recv()
                if frame.kind is not MessageKind.JOB_RESULT or frame.payload:
                    raise ProtocolError(
                        f"expected an empty data-share acknowledgment from worker {src}, got {frame.kind.name}"
                    )
        except BaseException as exc:
            self._error = exc
            raise

    def stop(self) -> None:
        """Broadcast stop, wait for workers to wind down, close the
        endpoint.  A second stop is a lifecycle error.  After an aborted
        run the cluster is already dead, so stop just tears down, telling
        the workers the error that ended the run."""
        self._require_open("stop", allow_aborted=True)
        self._stopped = True
        exc = self._error
        try:
            if exc is None:
                self.endpoint.broadcast(Frame(MessageKind.STOP))
        finally:
            self.endpoint.close(None if exc is None else str(exc) or type(exc).__name__)
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
        endpoints = inproc_cluster(config.workers)
        threads = [threading.Thread(target=_worker_thread_main, args=(endpoint, registry),
                                    name=f"parqueue-worker-{endpoint.node_id}", daemon=True)
                   for endpoint in endpoints[1:]]
        boss = Boss(endpoints[0], registry, threads)  # hooks node 0 before workers run
        for thread in threads:
            thread.start()
        return boss
    if not 0 < getattr(config, "timeout", 1) < math.inf:
        raise ValueError(f"timeout must be a finite number of seconds above zero, got {config.timeout!r}")
    if isinstance(config, TcpBossConfig):
        endpoint = TcpBossEndpoint(config.listen, config.workers, config.timeout)
        return Boss(endpoint, registry)
    if isinstance(config, TcpWorkerConfig):
        endpoint = TcpWorkerEndpoint(config.connect, config.timeout)
        _worker_loop(endpoint, registry)
        return None
    raise TypeError(f"unknown cluster config {type(config).__name__}")
