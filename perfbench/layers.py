"""Per-layer metrics of one traced run, derived from the tracer's
records and a snapshot of the boss endpoint proxy.

The window is the app's run(...) call on the boss.  Boss counts cover
that window.  TCP workers trace their whole life, so their wire counts
also hold the handshake and the STOP frame (two reads per worker).
Span self times are clipped to the window in proportion to the part of
the span inside it; that only matters for the worker receives that wait
for the first job or for STOP.
"""

from __future__ import annotations

from array import array
from collections import defaultdict

from parqueue.wire import MessageKind
from tracer import LAYERS, SPAN_COLUMNS

FRAME_METRICS = {
    MessageKind.JOB_ASSIGN: "assign",
    MessageKind.JOB_RESULT: "result",
    MessageKind.JOB_SUBMIT: "submit",
    MessageKind.TASK_REQUEST: "task_request",
    MessageKind.TASK_RESPONSE: "task_response",
    MessageKind.DATA_SHARE: "data_share",
}

# counts that depend only on the job graph, never on the schedule, so
# they must repeat exactly across runs of one workload
EXACT_COUNTS = (
    "runtime.jobs", "runtime.submits", "runtime.tasks",
    *(f"wire.frames.{name}" for name in FRAME_METRICS.values()),
    "wire.encode_frame.calls", "wire.read_frame.calls",
    "codec.encode.calls", "codec.decode.calls",
    "metrics.loadlog.records",
)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not len(values):
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _spans(dump: dict):
    columns = {column: array(code, dump["columns"][column]) for column, code in SPAN_COLUMNS}
    names = dump["names"]
    for i in range(len(columns["sid"])):
        yield (names[columns["name"][i]], columns["start"][i], columns["end"][i],
               columns["child"][i], columns["parent"][i])


def layer_metrics(dumps: list[dict], boss: dict, window: tuple[float, float], workers: int) -> dict:
    w0, w1 = window
    wall = w1 - w0
    self_s = defaultdict(float)          # (role, layer) -> seconds
    counted = defaultdict(lambda: [0, 0.0, 0.0, 0])
    durations = defaultdict(list)        # span name -> durations
    handler_in_window = handler_self = worker_accounted = 0.0
    for dump in dumps:
        role = dump["role"]
        layer_of = dict(dump["names"])
        for (name, layer), start, end, child, parent in _spans(dump):
            duration = end - start
            inside = max(0.0, min(end, w1) - max(start, w0))
            share = inside / duration if duration > 0 else float(w0 <= start <= w1)
            self_s[role, layer] += (duration - child) * share
            durations[name].append(duration)
            if role == "worker" and parent == -1:
                worker_accounted += inside
            if name == "apps.handler":
                handler_in_window += inside
                handler_self += duration - child
        for name, (calls, seconds, child, nbytes) in dump["counted"].items():
            self_s[role, layer_of[name]] += seconds - child
            total = counted[name]
            total[0] += calls
            total[1] += seconds
            total[2] += child
            total[3] += nbytes
        if role == "worker":
            worker_accounted += dump["top_counted_s"]

    frames = boss["frames"]
    jobs = frames[MessageKind.JOB_ASSIGN]
    waits = [assigned - enqueued for enqueued, assigned in zip(boss["enqueued"], boss["assigned"])]
    task_rtt, submit_time = durations["runtime.ctx.task"], durations["runtime.ctx.submit"]
    boss_self = sum(self_s["boss", layer] for layer in LAYERS)
    worker_wall = workers * wall
    metrics = {
        "runtime.jobs": jobs,
        "runtime.submits": frames[MessageKind.JOB_SUBMIT],
        "runtime.tasks": frames[MessageKind.TASK_REQUEST],
        "runtime.frames_per_job": sum(frames.values()) / jobs if jobs else 0.0,
        "runtime.boss.recv_wait_s": counted["wait.boss.recv"][1],
        "runtime.boss.self_s": self_s["boss", "runtime"],
        "runtime.queue_wait_ms.p50": percentile(waits, 0.50) * 1e3,
        "runtime.queue_wait_ms.p99": percentile(waits, 0.99) * 1e3,
        "runtime.worker.idle_s": worker_wall - handler_in_window,
        "runtime.worker.busy_fraction": handler_in_window / worker_wall if worker_wall else 0.0,
        "runtime.ctx.task_rtt_us.p50": percentile(task_rtt, 0.50) * 1e6,
        "runtime.ctx.task_rtt_us.p99": percentile(task_rtt, 0.99) * 1e6,
        "runtime.ctx.submit_us.p50": percentile(submit_time, 0.50) * 1e6,
        "runtime.share_data_s": sum(durations["runtime.share_data"]),
        **{f"wire.frames.{name}": frames[kind] for kind, name in FRAME_METRICS.items()},
        "wire.bytes_in": boss["bytes_in"],
        "wire.bytes_out": boss["bytes_out"],
        "wire.boss.send_s": counted["wire.boss.send"][1] + counted["wire.boss.broadcast"][1],
        "wire.encode_frame.calls": counted["wire.encode_frame"][0],
        "wire.encode_frame.s": counted["wire.encode_frame"][1],
        "wire.read_frame.calls": counted["wire.read_frame"][0],
        "wire.read_frame.s": counted["wire.read_frame"][1],
        "codec.encode.calls": counted["codec.encode"][0],
        "codec.encode.s": counted["codec.encode"][1],
        "codec.decode.calls": counted["codec.decode"][0],
        "codec.decode.s": counted["codec.decode"][1],
        "codec.bytes": counted["codec.encode"][3] + counted["codec.decode"][3],
        "apps.kernel_s": handler_self,
        "apps.boss_task.calls": len(durations["apps.boss_task"]),
        "apps.boss_task.s": sum(durations["apps.boss_task"]),
        "metrics.loadlog.records": counted["metrics.loadlog.record"][0],
        "metrics.loadlog.record_s": counted["metrics.loadlog.record"][1],
        # the tracer's own consistency: boss self times must add up to the
        # boss wall time, worker spans must cover the workers' wall time
        "trace.boss.accounted_ratio": boss_self / wall,
        "trace.worker.accounted_ratio": worker_accounted / worker_wall if worker_wall else 0.0,
    }
    for role in ("boss", "worker"):
        for layer in LAYERS:
            metrics[f"self.{role}.{layer}_s"] = self_s[role, layer]
    return metrics
