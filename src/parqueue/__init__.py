"""parqueue: a self-submitting parallel job queue.

One boss node supervises a pool of workers; workers execute typed jobs
and may submit new jobs back into the running queue, so the work graph
unfolds dynamically.  Ships with an in-process backend (threads) and a
TCP backend speaking the same framed wire format.
"""

from .codec import Value, decode, decode_prefix, encode
from .errors import (
    CodecError,
    ConfigurationError,
    EncodingError,
    HandlerError,
    LifecycleError,
    MalformedPayloadError,
    ParqueueError,
    ProtocolError,
    StartupError,
    TransportError,
    TruncationError,
)
from .metrics import (
    LoadLog,
    LoadSample,
    OverheadReport,
    ScalingReport,
    bench_overhead,
    emit_load_csv,
)
from .runtime import (
    Boss,
    HandlerRegistry,
    InprocConfig,
    Job,
    QueueInfo,
    TcpBossConfig,
    TcpWorkerConfig,
    WorkerContext,
    start,
)
from .wire import Endpoint, Frame, MessageKind, pick_free_port

__version__ = "0.1.0"

__all__ = [
    "Boss",
    "CodecError",
    "ConfigurationError",
    "EncodingError",
    "Endpoint",
    "Frame",
    "HandlerError",
    "HandlerRegistry",
    "InprocConfig",
    "Job",
    "LifecycleError",
    "LoadLog",
    "LoadSample",
    "MalformedPayloadError",
    "MessageKind",
    "OverheadReport",
    "ParqueueError",
    "ProtocolError",
    "QueueInfo",
    "ScalingReport",
    "StartupError",
    "TcpBossConfig",
    "TcpWorkerConfig",
    "TransportError",
    "TruncationError",
    "Value",
    "WorkerContext",
    "bench_overhead",
    "decode",
    "decode_prefix",
    "emit_load_csv",
    "encode",
    "pick_free_port",
    "start",
]
