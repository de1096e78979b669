"""The serving process of the socket workloads.

:func:`serve` is the entry function of one spawned process: it builds
the workload's world and server (``ThreadedSocketServer`` or
``ThreadedClusterServer``), reports the bound address over a pipe and
then answers control commands from the benchmark process:

- ``("trace_on", None)``: wrap every layer and start a fresh span store;
- ``("trace_off", None)``: unwrap and return spans, counters and the
  serving objects' counter differences over the traced stretch;
- ``("check", seen)``: count replies whose payload is wrong;
- ``("stop", None)``: shut the server down and exit.

With tracing requested at start, the server's event loops copy the
caller's context into executor threads, so spans keep their request id
across the hop.
"""

from __future__ import annotations

import asyncio
import time
from collections import Counter
from dataclasses import dataclass


@dataclass(frozen=True)
class ServerSpec:
    """Everything the serving process needs; picklable."""

    size: int
    cluster_workers: int  # 0 = one ThreadedSocketServer
    mode: str
    shared_hotspots: str
    push: str
    fidelity: str
    recent_capacity: int
    prefetch_capacity: int
    shards: int
    traced: bool


def _momentum_factory(grid):
    from repro.core.allocation import SingleModelStrategy
    from repro.core.engine import PredictionEngine
    from repro.recommenders.momentum import MomentumRecommender

    def factory():
        model = MomentumRecommender()
        return PredictionEngine(
            grid, {model.name: model}, SingleModelStrategy(model.name)
        )

    return factory


class _Serving:
    """The running server plus accessors for its serving objects."""

    def __init__(self, spec: ServerSpec) -> None:
        from repro.middleware import (
            CacheConfig,
            PrefetchPolicy,
            ServiceConfig,
            ThreadedClusterServer,
            ThreadedSocketServer,
        )
        from repro.modis.dataset import MODISDataset

        self.spec = spec
        dataset = MODISDataset.build(size=spec.size, tile_size=32, days=1, seed=7)
        self.pyramid = dataset.pyramid
        config = ServiceConfig(
            prefetch=PrefetchPolicy(
                mode=spec.mode,
                shared_hotspots=spec.shared_hotspots,
                push=spec.push,
                fidelity=spec.fidelity,
            ),
            cache=CacheConfig(
                recent_capacity=spec.recent_capacity,
                prefetch_capacity=spec.prefetch_capacity,
                shards=spec.shards,
            ),
        )
        factory = _momentum_factory(self.pyramid.grid)
        if spec.cluster_workers:
            self.server = ThreadedClusterServer(
                self.pyramid,
                config,
                workers=spec.cluster_workers,
                engine_factory=factory,
                framing="length",
            )
            self.server.start()
            self.sockets = list(self.server.workers)
        else:
            self.server = ThreadedSocketServer(
                self.pyramid, config, engine_factory=factory, framing="length"
            )
            self.server.start()
            self.sockets = [self.server]
        self.address = self.server.address

    def counters(self) -> Counter:
        """Summed counters of every worker's serving objects."""
        totals: Counter = Counter()
        for socket_server in self.sockets:
            server = socket_server.server
            facade = server.service.service
            totals["degraded_served"] += facade.degraded_served
            scheduler = facade.scheduler
            if scheduler is not None:
                totals["jobs_submitted"] += scheduler.jobs_submitted
                totals["jobs_shed"] += scheduler.jobs_shed
                totals["jobs_cancelled"] += scheduler.jobs_cancelled
            if server.push_scheduler is not None:
                stats = server.push_scheduler.stats()
                for name in ("pushed_tiles", "pushed_bytes", "coarse_tiles", "refined_tiles"):
                    totals[name] += stats[name]
        return totals

    def stop(self) -> None:
        self.server.stop()


def install_wire(tracer, clustered: bool, undo: list) -> None:
    """Wrap the wire layer and the service entry points.

    The first decode of a request assigns its id ``(session, n)``, the
    n-th request of that session; in a cluster that is the router, and
    a worker decoding the forwarded frame takes the id the router gave
    the session's request in flight.  The id then rides the decoding
    task's context.
    """
    from perfbench import tracing
    from repro.middleware import cluster, net, protocol
    from repro.middleware.aio import AsyncForeCacheService

    sequence: Counter = Counter()
    in_flight: dict = {}
    route_start: dict = {}

    def is_request(message) -> bool:
        if isinstance(message, protocol.TileRequest):
            return True
        return isinstance(message, protocol.PushAck) and message.tile is not None

    def make_decode(original, role):
        def decode_wire(frame):
            parent, rid = tracing.context()
            start = time.perf_counter_ns()
            message = original(frame)
            end = time.perf_counter_ns()
            if is_request(message):
                session = message.session_id
                if role == "worker" and clustered:
                    rid = in_flight.get(session)
                else:
                    sequence[session] += 1
                    rid = (session, sequence[session])
                    if role == "router":
                        in_flight[session] = rid
                        route_start[session] = start
                tracing.bind_request(rid)
            tracer.record("protocol.decode", start, end, parent, rid)
            return message

        return decode_wire

    def make_encode(original, role):
        def encode_wire(message, *args, **kwargs):
            parent, rid = tracing.context()
            start = time.perf_counter_ns()
            data = original(message, *args, **kwargs)
            end = time.perf_counter_ns()
            tracer.record("protocol.encode", start, end, parent, rid)
            tracer.count("protocol.encode_bytes", len(data))
            if role == "router" and isinstance(message, protocol.TileResponse):
                begun = route_start.pop(message.session_id, None)
                if begun is not None:
                    tracer.record("cluster.route", begun, end, None, rid)
            return data

        return encode_wire

    tracing.patch(protocol, "decode_wire", make_decode(protocol.decode_wire, "worker"), undo)
    tracing.patch(net, "encode_wire", make_encode(net.encode_wire, "worker"), undo)
    if clustered:
        tracing.patch(cluster, "decode_wire", make_decode(cluster.decode_wire, "router"), undo)
        tracing.patch(cluster, "encode_wire", make_encode(cluster.encode_wire, "router"), undo)

    def count_request(args, result):
        tracer.count("aio.requests")

    for attr in ("request", "local_hit"):
        tracing.patch(
            AsyncForeCacheService,
            attr,
            tracer.timed(
                getattr(AsyncForeCacheService, attr), "service.request", count_request
            ),
            undo,
        )


def serve(conn, spec: ServerSpec) -> None:
    """Spawned-process entry: serve until told to stop."""
    from perfbench import tracing
    from perfbench.check import count_mismatches

    if spec.traced:
        asyncio.set_event_loop_policy(tracing.ContextExecutorPolicy())
    serving = _Serving(spec)
    conn.send(("ready", serving.address))
    tracer = None
    undo: list = []
    before: Counter = Counter()
    try:
        while True:
            command, argument = conn.recv()
            if command == "trace_on":
                tracer = tracing.Tracer()
                undo = tracing.install(tracer)
                install_wire(tracer, bool(spec.cluster_workers), undo)
                before = serving.counters()
                conn.send(None)
            elif command == "trace_off":
                tracing.restore(undo)
                deltas = serving.counters()
                deltas.subtract(before)
                conn.send(
                    (tracer.spans, Counter(tracer.counts), dict(tracer.maxima), dict(deltas))
                )
            elif command == "check":
                conn.send(count_mismatches(serving.pyramid, argument))
            elif command == "stop":
                break
            else:
                raise ValueError(f"unknown command {command!r}")
    finally:
        serving.stop()
        conn.send(("stopped", None))
        conn.close()
