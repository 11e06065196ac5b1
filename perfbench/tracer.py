"""In-memory tracing for the benchmark's traced run.

Everything here wraps public callables of parqueue from outside: no
module of the package is edited.  A wrapper opens a frame on the
calling thread's stack, times the call, and charges its duration to the
enclosing frame as child time, so every layer's self time is its
duration minus the time of the traced calls nested inside it.

Two kinds of boundary are recorded:

* spans, one record per call with name, start, end, child time, parent
  span and job id (handlers, context calls, boss tasks, run_jobs,
  share_data, worker receives);
* counted boundaries, aggregated per thread into calls, seconds, child
  seconds and bytes (codec, frame encode/read, endpoint sends and the
  boss receive, LoadLog.record), because they fire several times per
  job.

Each thread keeps its own columns, so threads never interleave writes.
"""

from __future__ import annotations

import itertools
import threading
from array import array
from time import perf_counter

import parqueue.codec
import parqueue.runtime
import parqueue.wire
from parqueue.wire import HEADER_SIZE, MessageKind

LAYERS = ("runtime", "wire", "codec", "apps", "metrics", "wait")
SPAN_COLUMNS = (("sid", "q"), ("name", "H"), ("start", "d"), ("end", "d"),
                ("child", "d"), ("parent", "q"), ("job", "q"))


class ThreadLog:
    """Spans and counted calls recorded by one thread."""

    def __init__(self, role: str):
        self.role = role
        self.stack: list[list] = []  # open frames: [span id or -1, child seconds]
        self.job = -1
        self.arrays = tuple(array(code) for _, code in SPAN_COLUMNS)
        self.counted: dict[int, list] = {}  # name id -> [calls, seconds, child seconds, bytes]
        self.top_counted_s = 0.0  # counted calls made with no frame open

    def dump(self, names: list) -> dict:
        return {
            "role": self.role,
            "names": names,
            "columns": {column: values.tobytes() for (column, _), values in zip(SPAN_COLUMNS, self.arrays)},
            "counted": {names[nid][0]: list(entry) for nid, entry in self.counted.items()},
            "top_counted_s": self.top_counted_s,
        }


def _role_of(thread: threading.Thread, main_role: str) -> str:
    if thread is threading.main_thread():
        return main_role
    if thread.name.startswith("parqueue-reader"):
        return "reader"
    return "worker"


class Tracer:
    """Per-process span store.  main_role names the main thread: "boss"
    in the process that calls start(), "worker" in a TCP worker."""

    def __init__(self, main_role: str):
        self.main_role = main_role
        self.names: list[tuple[str, str]] = []  # name id -> (name, layer)
        self._name_ids: dict[str, int] = {}
        self._local = threading.local()
        self._logs: list[ThreadLog] = []
        self._lock = threading.Lock()
        self._span_ids = itertools.count()

    def _name_id(self, name: str, layer: str) -> int:
        assert layer in LAYERS, layer
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append((name, layer))
        return self._name_ids[name]

    def log(self) -> ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = self._local.log = ThreadLog(_role_of(threading.current_thread(), self.main_role))
            with self._lock:
                self._logs.append(log)
        return log

    def span(self, name: str, layer: str, fn):
        """Wrap fn so each call is recorded as one span."""
        nid = self._name_id(name, layer)
        local, new_log, next_id, now = self._local, self.log, self._span_ids.__next__, perf_counter

        def traced(*args, **kwargs):
            log = getattr(local, "log", None) or new_log()
            stack = log.stack
            frame = [next_id(), 0.0]
            parent = stack[-1][0] if stack else -1
            job = log.job
            stack.append(frame)
            t0 = now()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = now()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                sids, names, starts, ends, childs, parents, jobs = log.arrays
                sids.append(frame[0])
                names.append(nid)
                starts.append(t0)
                ends.append(t1)
                childs.append(frame[1])
                parents.append(parent)
                jobs.append(job)

        return traced

    def counted(self, name: str, layer: str, fn, size=None):
        """Wrap fn so its calls are aggregated; size(args, result), when
        given, adds to the byte count."""
        nid = self._name_id(name, layer)
        local, new_log, now = self._local, self.log, perf_counter

        def traced(*args, **kwargs):
            log = getattr(local, "log", None) or new_log()
            stack = log.stack
            frame = [-1, 0.0]
            stack.append(frame)
            t0 = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = now()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                else:
                    log.top_counted_s += t1 - t0
                entry = log.counted.get(nid)
                if entry is None:
                    entry = log.counted[nid] = [0, 0.0, 0.0, 0]
                entry[0] += 1
                entry[1] += t1 - t0
                entry[2] += frame[1]
            if size is not None:
                entry[3] += size(args, result)
            return result

        return traced

    def reset(self) -> None:
        """Drop what was recorded so far; call when the traced threads are idle."""
        with self._lock:
            for log in self._logs:
                log.arrays = tuple(array(code) for _, code in SPAN_COLUMNS)
                log.counted.clear()
                log.top_counted_s = 0.0

    def dump(self) -> list[dict]:
        """Copy every thread's records; call when the traced threads are idle."""
        with self._lock:
            logs = list(self._logs)
        return [log.dump(list(self.names)) for log in logs]

    # -- instrumentation -------------------------------------------------

    def wrap_handlers(self, registry) -> None:
        """Wrap worker handlers and boss task handlers in place."""
        for job_type, fn in registry.worker.items():
            registry.worker[job_type] = self._handler(fn)
        for job_type, fn in registry.boss_task.items():
            registry.boss_task[job_type] = self.span("apps.boss_task", "apps", fn)

    def _handler(self, fn):
        proxy_class = self._context_proxy_class()
        traced = self.span("apps.handler", "apps", lambda job, ctx: fn(job, proxy_class(ctx)))
        invocations = itertools.count()
        new_log = self.log

        def invoke(job, ctx):
            log = new_log()
            log.job = (ctx.node_id << 32) | next(invocations)
            try:
                return traced(job, ctx)
            finally:
                log.job = -1

        return invoke

    def _context_proxy_class(self):
        submit = self.span("runtime.ctx.submit", "runtime", lambda ctx, job: ctx.submit(job))
        task = self.span("runtime.ctx.task", "runtime", lambda ctx, job: ctx.task(job))
        info = self.span("runtime.ctx.info", "runtime", lambda ctx: ctx.info())

        class ContextProxy:
            """Stands in for WorkerContext and times its calls."""

            __slots__ = ("_ctx", "node_id", "store")

            def __init__(self, ctx):
                self._ctx = ctx
                self.node_id = ctx.node_id
                self.store = ctx.store

            def submit(self, job):
                submit(self._ctx, job)

            def task(self, job):
                return task(self._ctx, job)

            def info(self):
                return info(self._ctx)

        return ContextProxy

    def instrument_boss(self, boss) -> "BossEndpointProxy":
        """Proxy boss.endpoint and wrap run_jobs, share_data and the
        LoadLog; call after start() and before the app runs."""
        proxy = BossEndpointProxy(boss.endpoint, boss.total_workers, self)
        boss.endpoint = proxy
        boss.samples.record = self.counted("metrics.loadlog.record", "metrics", boss.samples.record)
        boss.share_data = self.span("runtime.share_data", "runtime", boss.share_data)
        run_jobs = self.span("runtime.run_jobs", "runtime", boss.run_jobs)

        def run_jobs_recording_enqueue(jobs=()):
            jobs = list(jobs)
            proxy.enqueued.extend([perf_counter()] * len(jobs))
            return run_jobs(jobs)

        boss.run_jobs = run_jobs_recording_enqueue
        return proxy


class WorkerEndpointProxy:
    """Stands in for a worker's endpoint: sends are counted, receives
    are spans, so a worker's waiting shows in the wait layer."""

    def __init__(self, inner, tracer: Tracer):
        self.node_id = inner.node_id
        self.send = tracer.counted("wire.worker.send", "wire", inner.send)
        self.recv = tracer.span("wait.worker.recv", "wait", inner.recv)
        self.broadcast = inner.broadcast
        self.close = inner.close


class BossEndpointProxy:
    """Stands in for boss.endpoint: times sends and receives, counts
    frames and bytes by kind, and records when jobs are enqueued by a
    SUBMIT and dequeued by an ASSIGN."""

    def __init__(self, inner, workers: int, tracer: Tracer):
        self.inner = inner
        self.node_id = inner.node_id
        self.workers = workers
        self.frames = {kind: 0 for kind in MessageKind}
        self.bytes_in = 0
        self.bytes_out = 0
        self.enqueued = array("d")
        self.assigned = array("d")
        self._send = tracer.counted("wire.boss.send", "wire", inner.send)
        self._broadcast = tracer.counted("wire.boss.broadcast", "wire", inner.broadcast)
        self._recv = tracer.counted("wait.boss.recv", "wait", inner.recv)

    def send(self, dest, frame):
        if frame.kind is MessageKind.JOB_ASSIGN:
            self.assigned.append(perf_counter())
        self._send(dest, frame)
        self.frames[frame.kind] += 1
        self.bytes_out += HEADER_SIZE + len(frame.payload)

    def broadcast(self, frame):
        self._broadcast(frame)
        self.frames[frame.kind] += self.workers
        self.bytes_out += (HEADER_SIZE + len(frame.payload)) * self.workers

    def recv(self):
        src, frame = self._recv()
        if frame.kind is MessageKind.JOB_SUBMIT:
            self.enqueued.append(perf_counter())
        self.frames[frame.kind] += 1
        self.bytes_in += HEADER_SIZE + len(frame.payload)
        return src, frame

    def close(self, reason=None):
        self.inner.close(reason)

    def snapshot(self) -> dict:
        """What the proxy saw so far, for the analysis after the cluster stops."""
        return {"frames": dict(self.frames), "bytes_in": self.bytes_in, "bytes_out": self.bytes_out,
                "enqueued": list(self.enqueued), "assigned": list(self.assigned)}


class ModulePatch:
    """Replaces parqueue.codec.encode/decode and parqueue.wire.encode_frame/
    read_frame with counted wrappers, and the runtime's endpoint
    factories with ones that hand workers a WorkerEndpointProxy.  The
    package looks these names up at call time, so the wrappers see every
    call.  Use as a context manager; leaving restores the originals."""

    def __init__(self, tracer: Tracer):
        codec, wire, runtime = parqueue.codec, parqueue.wire, parqueue.runtime
        read = tracer.counted("wire.read_frame", "wire", wire.read_frame,
                              size=lambda args, frame: HEADER_SIZE + len(frame.payload))

        def read_frame(source):
            # wait for the first byte outside the timed call, so that
            # read_frame time is parsing and copying, not idle waiting
            peek = getattr(source, "peek", None)
            if peek is not None:
                peek(1)
            return read(source)

        inproc_cluster, tcp_worker_endpoint = runtime.inproc_cluster, runtime.TcpWorkerEndpoint

        def traced_inproc_cluster(workers, recv_rng=None):
            endpoints = inproc_cluster(workers, recv_rng)
            return endpoints[:1] + [WorkerEndpointProxy(e, tracer) for e in endpoints[1:]]

        self._patches = [
            (codec, "encode", tracer.counted("codec.encode", "codec", codec.encode,
                                             size=lambda args, data: len(data))),
            (codec, "decode", tracer.counted("codec.decode", "codec", codec.decode,
                                             size=lambda args, value: len(args[0]))),
            (wire, "encode_frame", tracer.counted("wire.encode_frame", "wire", wire.encode_frame)),
            (wire, "read_frame", read_frame),
            (runtime, "inproc_cluster", traced_inproc_cluster),
            (runtime, "TcpWorkerEndpoint",
             lambda *args, **kwargs: WorkerEndpointProxy(tcp_worker_endpoint(*args, **kwargs), tracer)),
        ]
        self._saved: list = []

    def __enter__(self) -> "ModulePatch":
        for module, name, replacement in self._patches:
            self._saved.append((module, name, getattr(module, name)))
            setattr(module, name, replacement)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)
