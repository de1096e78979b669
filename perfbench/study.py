"""``study-hybrid``: the paper's user study replayed through the facade.

Closed loop, one client, no think time, in process.  The canonical
simulated study (``ExperimentContext.build()``: 2048 px world, 18 users
x 3 tasks, study seed 17) is replayed trace by trace, in an order
shuffled by the workload seed, through a fresh :class:`ForeCacheService`
per trace with ``PrefetchPolicy(k=5, mode="sync")`` and the default
cache.  Each user's
tuned hybrid engine (Markov3 + SIFT-SB + SVM phase classifier) is
trained leave-one-user-out once during set-up and reset per trace.

The first full pass fills the signature provider's memo (computed
offline in the paper) and counts as set-up.  Every later trace must hit
exactly as often as the same trace replayed with a freshly trained
engine; any difference fails the run.
"""

from __future__ import annotations

import time
from collections import Counter

import numpy as np

from perfbench import layers, tracing
from perfbench.check import count_mismatches
from perfbench.stats import (
    calibrate,
    median,
    peak_rss_mb,
    slowdown,
    tail_percentile,
    tile_digest,
)

WORLD_SIZE = 2048
NUM_USERS = 18
PREFETCH_K = 5
#: Calibration kernel size sampled after every trace (about 3 ms).
CALIBRATION_ITERATIONS = 10_000


def replay_order(seed: int, count: int) -> list[int]:
    """Trace indices in the order the timed passes replay them."""
    return [int(i) for i in np.random.default_rng(seed).permutation(count)]


class StudyReplay:
    """Set-up state plus the replay loop."""

    def __init__(self, seed: int) -> None:
        from repro.experiments.context import ExperimentContext
        from repro.experiments.crossval import leave_one_user_out
        from repro.experiments.runner import hybrid_factory
        from repro.middleware import PrefetchPolicy, ServiceConfig

        self.context = ExperimentContext.build(size=WORLD_SIZE, num_users=NUM_USERS)
        self.pyramid = self.context.pyramid
        self.factory = hybrid_factory(self.context)
        self.training = {}
        self.engines = {}
        for user_id, train, _test in leave_one_user_out(self.context.study):
            self.training[user_id] = train
            self.engines[user_id] = self.factory(train)
        self.traces = list(self.context.study.traces)
        self.order = replay_order(seed, len(self.traces))
        self.config = ServiceConfig(
            prefetch=PrefetchPolicy(k=PREFETCH_K, mode="sync")
        )

    def replay_trace(self, index: int, engine=None, sink=None):
        """Replay one trace on a cold service; returns ``(hits, n)``.

        ``sink(trace_index, request_index, latency_s, response)`` sees
        every response when given.
        """
        from repro.middleware import ForeCacheService

        trace = self.traces[index]
        if engine is None:
            engine = self.engines[trace.user_id]
        service = ForeCacheService(self.pyramid, self.config)
        hits = 0
        try:
            handle = service.open_session(engine, reset_engine=True)
            for position, request in enumerate(trace.requests):
                start = time.perf_counter()
                response = handle.request(request.move, request.tile)
                latency = time.perf_counter() - start
                hits += response.hit and response.fidelity == 1.0
                if sink is not None:
                    sink(index, position, latency, response)
            handle.close()
        finally:
            service.close()
        return hits, len(trace.requests)

    def reference_hits(self, indices) -> dict[int, int]:
        """Hits per trace with a freshly trained engine per trace."""
        reference = {}
        for index in sorted(set(indices)):
            trace = self.traces[index]
            engine = self.factory(self.training[trace.user_id])
            reference[index], _ = self.replay_trace(index, engine=engine)
        return reference


class _Segment:
    """Latencies, hits and reply digests of one timed stretch."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.hits = 0
        self.degraded = 0
        self.trace_hits: list[tuple[int, int]] = []
        self.seen: Counter = Counter()
        self.check_seconds = 0.0
        #: Seconds per calibration-kernel iteration, sampled after every trace.
        self.calibration: list[float] = []
        self.wall = 0.0
        self.cpu = 0.0

    def sink(self, index, position, latency, response) -> None:
        self.latencies.append(latency)
        self.hits += response.hit and response.fidelity == 1.0
        self.degraded += response.fidelity != 1.0
        start = time.perf_counter()
        key = response.tile.key
        self.seen[
            (
                (key.level, key.x, key.y),
                response.fidelity,
                "reply",
                tile_digest(response.tile),
            )
        ] += 1
        self.check_seconds += time.perf_counter() - start


def _run_segment(replay: StudyReplay, *, seconds=None, indices=None) -> _Segment:
    """Replay whole traces until ``seconds`` pass, or exactly ``indices``."""
    segment = _Segment()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    position = 0
    deadline = wall0 + seconds if seconds is not None else None
    while True:
        if indices is not None:
            if position >= len(indices):
                break
            index = indices[position]
        else:
            if time.perf_counter() >= deadline:
                break
            index = replay.order[position % len(replay.order)]
        hits, _n = replay.replay_trace(index, sink=segment.sink)
        segment.trace_hits.append((index, hits))
        position += 1
        start = time.perf_counter()
        segment.calibration.append(calibrate(CALIBRATION_ITERATIONS))
        segment.check_seconds += time.perf_counter() - start
    segment.wall = time.perf_counter() - wall0 - segment.check_seconds
    segment.cpu = time.process_time() - cpu0 - segment.check_seconds
    return segment


def run(seed: int, seconds: float, trace: bool) -> dict:
    setup_start = time.perf_counter()
    replay = StudyReplay(seed)
    build_s = time.perf_counter() - setup_start
    warm = _run_segment(replay, indices=list(range(len(replay.traces))))
    # Reply checks and calibration samples inside the pass are not set-up.
    setup_s = build_s + warm.wall

    notes = [
        f"replay order seed {seed}: {len(replay.traces)} traces, "
        f"{sum(len(t.requests) for t in replay.traces)} requests; "
        f"set-up pass hit rate {warm.hits / len(warm.latencies):.4f}"
    ]
    if not trace:
        timed = _run_segment(replay, seconds=seconds)
        segments = [warm, timed]
    else:
        untraced = _run_segment(replay, seconds=seconds / 2)
        indices = [index for index, _ in untraced.trace_hits]
        tracer = tracing.Tracer()
        undo = tracing.install(tracer)
        _install_root(tracer, undo)
        try:
            timed = _run_segment(replay, indices=indices)
        finally:
            tracing.restore(undo)
        segments = [warm, untraced, timed]

    # Correctness, outside every timed stretch.
    replayed = [index for seg in segments for index, _ in seg.trace_hits]
    reference = replay.reference_hits(replayed)
    disagreements = [
        (index, hits, reference[index])
        for seg in segments
        for index, hits in seg.trace_hits
        if hits != reference[index]
    ]
    seen: Counter = Counter()
    for seg in segments:
        seen.update(seg.seen)
    mismatched, examples = count_mismatches(replay.pyramid, seen)
    notes.extend(examples)
    for index, hits, expected in disagreements[:5]:
        notes.append(
            f"trace {index}: {hits} hits, fresh-engine replay gives {expected}"
        )
    attempted = sum(len(seg.latencies) for seg in segments)
    result = {
        "attempted": attempted,
        "failed": mismatched,
        "correct": mismatched == 0 and not disagreements,
        "notes": notes,
    }
    if not trace:
        result["metrics"], result["samples"] = _end_to_end(timed, setup_s)
        result["samples"]["failed_share"] = f"{mismatched / attempted:.6f} fraction"
    else:
        result["metrics"] = layers.study_layers(tracer, timed, untraced)
        result["samples"] = {}
    return result


def _install_root(tracer, undo) -> None:
    """The root span of every in-process request: ``SessionHandle.request``,
    keyed by ``(session, sequence number)``."""
    from repro.middleware.service import SessionHandle

    sequence: Counter = Counter()
    inner = tracer.timed(SessionHandle.request, "service.request")

    def request(self, move, key):
        sequence[self.session_id] += 1
        tracing.bind_request((str(self.session_id), sequence[self.session_id]))
        return inner(self, move, key)

    tracing.patch(SessionHandle, "request", request, undo)


def _end_to_end(timed: _Segment, setup_s: float):
    """End-to-end metrics; latency, throughput and CPU normalized to the
    reference host by the calibration samples taken between traces."""
    import os

    factor = slowdown(timed.calibration)
    latencies_ms = [value * 1000.0 for value in timed.latencies]
    pct, p99, n = tail_percentile(latencies_ms)
    _, p90, _ = tail_percentile(latencies_ms, 90.0)
    p50 = median(latencies_ms)
    completed = len(timed.latencies)
    rate = completed / timed.wall
    cpu_ms = timed.cpu * 1000.0 / completed
    metrics = {
        "setup_s": (setup_s, "s"),
        "latency_p50_ms": (p50 / factor, "ms"),
        "throughput_rps": (rate * factor, "1/s"),
        "hit_rate": (timed.hits / completed, "fraction"),
        "cpu_ms_per_request": (cpu_ms / factor, "ms"),
        "peak_rss_mb": (peak_rss_mb(os.getpid()), "MB"),
    }
    samples = {
        "host_slowdown": f"{factor:.4f} ({len(timed.calibration)} samples)",
        "latency_p50_ms": f"p50 of {n}; raw {p50:.6g} ms",
        "latency_p90_ms": f"{p90 / factor:.6g} ms, raw {p90:.6g} ms (p90 of {n})",
        "latency_p99_ms": f"{p99 / factor:.6g} ms, raw {p99:.6g} ms (p{pct:g} of {n})",
        "throughput_rps": f"{completed} requests in {timed.wall:.2f} s; raw {rate:.6g} 1/s",
        "max_rate_rps": f"{rate * factor:.6g} 1/s (closed loop: equals throughput_rps)",
        "cpu_ms_per_request": f"raw {cpu_ms:.6g} ms",
        "degraded_share": f"{timed.degraded / completed:.6f} fraction",
        "bytes_per_request": "in process: no wire",
    }
    return metrics, samples
