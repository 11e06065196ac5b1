"""A simulated cluster that makes message schedules replayable.

The real Boss and the real worker loop run on SimEndpoints, one thread
per node, under a baton: exactly one node runs at a time.  The running
node keeps the baton until it blocks in recv or closes; a chooser then
picks the next delivery among the head frames of the non-empty
(src -> dst) channels whose destination waits in recv, so frames
between any pair of nodes keep their send order by construction.
Handlers that are deterministic therefore make the whole run a
function of the chooser's picks (stateless model checking, as in
Godefroid's VeriSoft, POPL 1997, and Musuvathi et al.'s CHESS, OSDI
2008).

Choosers:
  Random(seed)   a seeded pick at every choice point;
  Replay(trace)  follows a printed delivery trace, step by step;
  every_schedule(run) enumerates every schedule depth first, re-running
                 recorded choice prefixes.

Every chooser records the run's deliveries in .trace; str() of a
chooser names it and prints that trace in the form Replay parses
("1>0 0>1 ..." -- one src>dst per delivery).  A run that fails raises
ScheduleFailed naming the chooser, the error and that trace, and one
that has nothing to deliver while nodes wait in recv fails at once
with a Deadlock.
"""

from __future__ import annotations

import random
import threading
from collections import deque

from parqueue.errors import TransportError
from parqueue.runtime import Boss, _worker_thread_main
from parqueue.wire import _ABORT, BOSS_ID, Endpoint, Frame


BATON_WAIT_S = 60  # no test handler computes this long while holding the baton


class Deadlock(TransportError):
    """Nodes wait in recv and no frame is on its way to any of them."""


class Diverged(TransportError):
    """A replayed trace names a delivery the run cannot make."""


class ScheduleFailed(AssertionError):
    """A simulated run failed; the message names its chooser and trace."""

    @classmethod
    def of(cls, chooser: Chooser, exc: BaseException) -> ScheduleFailed:
        return cls(f"{chooser.name()} failed: {exc!r}\ndelivered: {format_trace(chooser.trace)}")


def format_trace(trace) -> str:
    return " ".join(f"{src}>{dst}" for src, dst in trace)


def parse_trace(text: str) -> list[tuple[int, int]]:
    return [tuple(int(node) for node in step.split(">")) for step in text.split()]


class Chooser:
    """Picks one delivery from the sorted options at each choice point
    (a point with two or more options); records every delivery."""

    def __init__(self):
        self.trace: list[tuple[int, int]] = []

    def name(self) -> str:
        raise NotImplementedError

    def choose(self, options: list, step: int) -> tuple[int, int]:
        """Return one of options, the delivery with index step."""
        raise NotImplementedError

    def __str__(self) -> str:
        return f"{self.name()} delivered {format_trace(self.trace) or 'nothing'}"


class Random(Chooser):
    def __init__(self, seed: int):
        super().__init__()
        self.seed = seed
        self._rng = random.Random(seed)

    def name(self) -> str:
        return f"Random({self.seed})"

    def choose(self, options, step):
        return options[self._rng.randrange(len(options))]


class Replay(Chooser):
    """Delivers what a printed trace delivered, in its order."""

    def __init__(self, text: str):
        super().__init__()
        self.steps = parse_trace(text)

    def name(self) -> str:
        return "Replay"

    def choose(self, options, step):
        if step >= len(self.steps) or self.steps[step] not in options:
            wanted = format_trace(self.steps[step:step + 1]) or "the end of the trace"
            raise Diverged(f"replay diverged at delivery {step}: wanted {wanted}, "
                           f"could deliver {format_trace(options)}")
        return self.steps[step]


class _Prefix(Chooser):
    """Follows a prefix of choice indices, then takes the first option;
    records (index, option count) at every choice point."""

    def __init__(self, number: int, prefix: list[int]):
        super().__init__()
        self.number = number
        self.prefix = prefix
        self.choices: list[tuple[int, int]] = []

    def name(self) -> str:
        return f"schedule {self.number} of the enumeration"

    def choose(self, options, step):
        depth = len(self.choices)
        index = self.prefix[depth] if depth < len(self.prefix) else 0
        self.choices.append((index, len(options)))
        return options[index]


def every_schedule(run, limit: int = 50_000) -> int:
    """Call run(chooser) once per schedule, depth first, and return the
    number of schedules; run starts one simulated cluster with that
    chooser and checks its outcome."""
    prefix: list[int] = []
    for number in range(limit):
        chooser = _Prefix(number, prefix)
        try:
            run(chooser)
        except ScheduleFailed:
            raise
        except Exception as exc:
            raise ScheduleFailed.of(chooser, exc) from exc
        choices = chooser.choices
        while choices and choices[-1][0] + 1 == choices[-1][1]:
            choices.pop()
        if not choices:
            return number + 1
        prefix = [index for index, _ in choices[:-1]] + [choices[-1][0] + 1]
    raise ScheduleFailed(f"more than {limit} schedules")


class SimEndpoint(Endpoint):
    """One node's endpoint: send queues on the (src -> dst) channel,
    recv hands the baton on and waits for a delivery."""

    def __init__(self, cluster: SimCluster, node_id: int):
        self.node_id = node_id
        self._cluster = cluster
        self._peers: dict[int, SimEndpoint] = {}
        self._open_peers = 0
        self._closed = False
        self._waiting = False
        self._wake = threading.Event()
        self._delivered = None  # (src, frame), or the error that ended the simulation

    def send(self, dest: int, frame: Frame) -> None:
        cluster = self._cluster
        if cluster.failure is not None:
            raise cluster.failure
        peer = self._peers.get(dest)
        if peer is None:
            raise TransportError(f"node {self.node_id} has no channel to node {dest}")
        if peer._closed:
            raise TransportError(f"node {dest} is closed")
        cluster.channels[self.node_id, dest].append(frame)

    def recv(self) -> tuple[int, Frame]:
        cluster = self._cluster
        if self._closed:
            raise TransportError("endpoint is closed")
        if cluster.failure is not None:
            raise cluster.failure
        if not self._open_peers:
            raise TransportError("all peers disconnected")
        self._wake.clear()
        self._waiting = True
        if cluster.holder is self:
            cluster.hand_on()
        else:  # a worker's first recv, while the cluster starts
            cluster.parked.release()
        if not self._wake.wait(BATON_WAIT_S):
            raise ScheduleFailed(f"node {self.node_id} got no delivery in {BATON_WAIT_S} s")
        if isinstance(self._delivered, TransportError):
            raise self._delivered
        src, frame = self._delivered
        if frame.kind is _ABORT:
            self._open_peers -= 1
            detail = f": {frame.payload.decode('utf-8', 'replace')}" if frame.payload else ""
            raise TransportError(f"node {src} disconnected{detail}")
        return src, frame

    def close(self, reason: str | None = None) -> None:
        if self._closed:
            return
        self._closed = True
        cluster = self._cluster
        if cluster.failure is not None:
            return
        abort = Frame(_ABORT, 0, (reason or "").encode("utf-8", "replace"))
        for dest, peer in self._peers.items():
            if not peer._closed:
                cluster.channels[self.node_id, dest].append(abort)
        cluster.hand_on()


class SimCluster:
    """A boss endpoint (node 0) and worker endpoints 1..workers; each
    worker thread runs worker_main(endpoint, registry), which must
    begin by calling recv."""

    def __init__(self, workers: int, registry, chooser: Chooser, worker_main=_worker_thread_main):
        self.chooser = chooser
        self.failure: TransportError | None = None  # set once the simulation cannot go on
        self.nodes = [SimEndpoint(self, node_id) for node_id in range(workers + 1)]
        boss = self.nodes[BOSS_ID]
        self.channels = {}
        for worker in self.nodes[1:]:
            for a, b in ((boss, worker), (worker, boss)):
                a._peers[b.node_id] = b
                a._open_peers += 1
                self.channels[a.node_id, b.node_id] = deque()
        self._order = sorted(self.channels)
        self.holder: SimEndpoint | None = boss  # the node that runs
        self.parked = threading.Semaphore(0)
        threads = []
        for worker in self.nodes[1:]:
            thread = threading.Thread(target=worker_main, args=(worker, registry),
                                      name=f"sim-worker-{worker.node_id}", daemon=True)
            thread.start()
            threads.append(thread)
            if not self.parked.acquire(timeout=10):
                raise ScheduleFailed(f"worker {worker.node_id} did not start by calling recv")
        self.boss = Boss(boss, registry, threads)

    def hand_on(self) -> None:
        """The baton holder blocks or closes: deliver the next frame."""
        nodes, channels = self.nodes, self.channels
        options = [pair for pair in self._order if channels[pair] and nodes[pair[1]]._waiting]
        if not options:
            waiting = [str(node.node_id) for node in nodes if node._waiting]
            if waiting:
                self._fail(Deadlock(f"deadlock: nodes {', '.join(waiting)} wait in recv with nothing to deliver"))
            return
        trace = self.chooser.trace
        try:
            pick = options[0] if len(options) == 1 else self.chooser.choose(options, len(trace))
        except Diverged as exc:
            self._fail(exc)
            return
        trace.append(pick)
        node = self.holder = nodes[pick[1]]
        node._waiting = False
        node._delivered = (pick[0], channels[pick].popleft())
        node._wake.set()

    def _fail(self, error: TransportError) -> None:
        """End the simulation: every waiting node's recv raises error."""
        self.failure, self.holder = error, None
        for node in self.nodes:
            if node._waiting:
                node._waiting = False
                node._delivered = error
                node._wake.set()


def run(workers: int, registry, chooser: Chooser, body, worker_main=_worker_thread_main):
    """Start a simulated cluster, return body(boss) and stop the cluster.
    Whatever the run raises comes back as a ScheduleFailed that names
    the chooser and prints its trace."""
    cluster = SimCluster(workers, registry, chooser, worker_main)
    try:
        with cluster.boss as boss:
            value = body(boss)
        if cluster.failure is not None:  # it ended the run after the boss closed
            raise cluster.failure
        return value
    except ScheduleFailed:
        raise
    except Exception as exc:
        raise ScheduleFailed.of(chooser, exc) from exc
