"""Open-loop socket workloads: ``pull-hot`` and ``cluster-push-cold``.

One benchmark process drives 32 sessions over 2 binary-payload,
length-framed :class:`AsyncSocketTransport` connections from one asyncio
thread; the server runs in one spawned process (:mod:`perfbench.server`),
so client and server get a core each.

Each session's next request is due one seeded exponential think time
after the previous due time, and is sent at the later of its due time
and its predecessor's reply (a user waits for the tile).  Latency runs
from the due time, so waits behind a slow reply or behind the
connection's serialized round trip count.  Each run climbs a fixed
ladder of offered rates; the reference rung supplies the latency,
hit-rate, CPU and byte figures.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import json
import multiprocessing
import time
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from perfbench import layers
from perfbench.server import ServerSpec, serve
from perfbench.stats import (
    calibrate,
    median,
    peak_rss_mb,
    process_cpu_seconds,
    slowdown,
    tail_percentile,
    tile_digest,
)

SESSIONS = 32
CONNECTIONS = 2
#: Closed-loop requests per session during set-up (fills the caches).
WARMUP_REQUESTS = 8
#: Offered rate of each rung as a multiple of the workload's capacity,
#: and the share of the run's seconds it gets.  Index 1 is the
#: reference rung.
LADDER = ((0.25, 0.1), (0.5, 0.7), (0.75, 0.1), (1.5, 0.1))
REFERENCE_RUNG = 1
#: A rung meets the latency limit when its p99 is at most this.
P99_LIMIT_MS = 100.0
#: A rung is invalid (not scored) when the generator itself sent
#: requests later than this at p99.
LAG_LIMIT_MS = 10.0
#: Seconds between host-speed samples during a rung, and the kernel size
#: of each (about 0.3 ms of the generator's loop).
CALIBRATION_PERIOD_S = 0.05
CALIBRATION_ITERATIONS = 1_000
#: Seed of the ``cluster-push-cold`` walks (see :func:`make_walks`).
ADVERSARIAL_WALK_SEED = 0
#: Seconds a rung may run past its end while in-flight requests drain.
DRAIN_LIMIT_S = 60.0


@dataclass(frozen=True)
class Workload:
    name: str
    server: ServerSpec
    #: Pyramid levels of the world (tile grid geometry for the walks).
    levels: int
    #: Offered rate the ladder is built around (see ``LADDER``), measured
    #: on a 2-vCPU VM.
    capacity_rps: float
    push: bool
    #: Set-ups per untraced run; ``setup_s`` is their median.
    setups: int


WORKLOADS = {
    "pull-hot": Workload(
        name="pull-hot",
        server=ServerSpec(
            size=512,
            cluster_workers=0,
            mode="background",
            shared_hotspots="boost",
            push="off",
            fidelity="off",
            recent_capacity=64,
            prefetch_capacity=64,
            shards=4,
            traced=False,
        ),
        levels=5,
        capacity_rps=500.0,
        push=False,
        setups=3,
    ),
    "cluster-push-cold": Workload(
        name="cluster-push-cold",
        server=ServerSpec(
            size=1024,
            cluster_workers=2,
            mode="background",
            shared_hotspots="off",
            push="on",
            fidelity="progressive",
            recent_capacity=16,
            prefetch_capacity=16,
            shards=4,
            traced=False,
        ),
        levels=6,
        capacity_rps=160.0,
        push=True,
        setups=2,
    ),
}


# ----------------------------------------------------------------------
# request streams
# ----------------------------------------------------------------------
def make_walks(name: str, seed: int, levels: int) -> list[list[tuple]]:
    """One cycled walk per session: ``[(move value | None, (l, x, y))]``."""
    from repro.tiles.key import TileKey
    from repro.tiles.pyramid import TileGrid
    from repro.users import adversarial_walks, convergent_walks, flash_crowd_walks

    grid = TileGrid(levels)
    if name == "pull-hot":
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
        level = grid.deepest_level
        n = 1 << level
        leg = 3
        hot = TileKey(
            level,
            int(rng.integers(leg, n - leg)),
            int(rng.integers(leg, n - leg - 1)),
        )
        half = SESSIONS // 2
        walks = convergent_walks(grid, hot=hot, num_users=half, leg=leg)
        walks += flash_crowd_walks(grid, num_users=SESSIONS - half, seed=seed)
    else:
        # One fixed family of walks: which tiles a random walk happens to
        # revisit sets this workload's hit rate, and over the ~30 steps a
        # run covers per session that varied by 40 % from one walk seed
        # to the next.  The run seed varies the arrival times only.
        walks = adversarial_walks(
            grid, num_users=SESSIONS, steps=256, seed=ADVERSARIAL_WALK_SEED
        )
    return [
        [
            (move.value if move is not None else None, (key.level, key.x, key.y))
            for move, key in walk
        ]
        for walk in walks
    ]


def think_rng(seed: int, session: int) -> np.random.Generator:
    """Unit-mean exponential think times of one session."""
    return np.random.default_rng(np.random.SeedSequence([seed, 1, session]))


def stream_bytes(name: str, seed: int, requests: int = 64) -> bytes:
    """The first ``requests`` of every session's stream, serialized:
    ``(move, tile, unit think time)`` triples."""
    workload = WORKLOADS[name]
    walks = make_walks(name, seed, workload.levels)
    out = []
    for session, walk in enumerate(walks):
        rng = think_rng(seed, session)
        out.append(
            [
                [walk[j % len(walk)][0], walk[j % len(walk)][1], float(rng.exponential())]
                for j in range(requests)
            ]
        )
    return json.dumps(out).encode()


# ----------------------------------------------------------------------
# the client side
# ----------------------------------------------------------------------
@dataclass
class Sample:
    due: float
    ready: float
    done: float
    session: str
    sequence: int


@dataclass
class Tally:
    """Everything one stretch of traffic produced."""

    samples: list = field(default_factory=list)
    lag_ms: list = field(default_factory=list)
    hits: int = 0
    degraded: int = 0
    push_hits: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    seen: Counter = field(default_factory=Counter)

    @property
    def attempted(self) -> int:
        return len(self.samples) + self.failed


class Walker:
    """One session's stream, cursor and think-time generator."""

    def __init__(self, client, walk, rng) -> None:
        self.client = client
        self.walk = walk
        self.rng = rng
        self.cursor = 0
        #: Requests sent; the traced stretch restarts the count.
        self.sequence = 0

    def next_request(self):
        from repro.tiles.key import TileKey
        from repro.tiles.moves import Move

        move, key = self.walk[self.cursor % len(self.walk)]
        self.cursor += 1
        return (Move(move) if move is not None else None), TileKey(*key)

    async def send(self, tally: Tally, due: float, ready: float):
        """One request; returns the time its reply (or failure) landed."""
        move, key = self.next_request()
        self.sequence += 1
        cache = self.client.push_cache
        local = cache is not None and key in cache
        try:
            response = await self.client.request(move, key)
        except Exception as exc:  # a refused or broken request is a failure
            tally.failed += 1
            if len(tally.errors) < 5:
                tally.errors.append(f"{type(exc).__name__}: {exc}")
            return time.perf_counter()
        done = time.perf_counter()
        tally.samples.append(
            Sample(due, ready, done, self.client.session_id, self.sequence)
        )
        full = response.fidelity == 1.0
        tally.hits += response.hit and full
        tally.degraded += not full
        tally.push_hits += local
        tile = response.tile
        source = "push" if local else "reply"
        tally.seen[
            ((tile.key.level, tile.key.x, tile.key.y), response.fidelity, source, tile_digest(tile))
        ] += 1
        return done


async def _drive_open(walker: Walker, tally: Tally, start, end, mean):
    due = start + walker.rng.exponential() * mean
    previous = start
    while due < end:
        now = time.perf_counter()
        if now < due:
            await asyncio.sleep(due - now)
        call = time.perf_counter()
        if previous <= due:
            tally.lag_ms.append((call - due) * 1000.0)
        previous = await walker.send(tally, due, max(due, previous))
        due += walker.rng.exponential() * mean


async def _sample_host(samples: list, end: float) -> None:
    """Time the calibration kernel every ``CALIBRATION_PERIOD_S`` until
    ``end``."""
    while True:
        samples.append(calibrate(CALIBRATION_ITERATIONS))
        if time.perf_counter() >= end:
            return
        await asyncio.sleep(CALIBRATION_PERIOD_S)


async def _drive_closed(walker: Walker, tally: Tally, count: int):
    for _ in range(count):
        now = time.perf_counter()
        await walker.send(tally, now, now)


@dataclass
class Rung:
    """One stretch at a fixed offered rate.

    ``slowdown`` is the host slowdown sampled all through the rung.
    :meth:`verdict` judges the raw latencies a user saw.
    """

    rate: float
    slowdown: float
    seconds: float
    tally: Tally
    start: float
    cpu_s: float
    bytes_received: int

    @property
    def completed(self) -> int:
        return len(self.tally.samples)

    @property
    def achieved_rps(self) -> float:
        return self.completed / self.seconds

    def latencies_ms(self, samples=None):
        """Raw client-observed latencies."""
        if samples is None:
            samples = self.tally.samples
        return [(s.done - s.due) * 1000.0 for s in samples]

    def verdict(self) -> dict:
        """Raw latency, generator validity and backlog growth."""
        latencies = self.latencies_ms()
        pct, p99, n = tail_percentile(latencies)
        _, p90, _ = tail_percentile(latencies, 90.0)
        middle = self.start + self.seconds / 2
        first = [s for s in self.tally.samples if s.due < middle]
        second = [s for s in self.tally.samples if s.due >= middle]
        p50_first = median(self.latencies_ms(first)) if first else 0.0
        p50_second = median(self.latencies_ms(second)) if second else 0.0
        growing = p50_second - p50_first > max(0.5 * p50_first, 2.0)
        lag = tail_percentile(self.tally.lag_ms)[1] if self.tally.lag_ms else 0.0
        valid = lag <= LAG_LIMIT_MS
        return {
            "p50": median(latencies),
            "p90": p90,
            "pct": pct,
            "p99": p99,
            "n": n,
            "lag_p99": lag,
            "valid": valid,
            "growing": growing,
            "meets": valid
            and p99 <= P99_LIMIT_MS
            and not growing
            and self.tally.failed == 0,
        }


class Bench:
    """A served workload plus its connected sessions."""

    def __init__(self, workload: Workload, seed: int, traced: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.spec = replace(workload.server, traced=traced)
        self.process = None
        self.control = None
        self.transports: list = []
        self.walkers: list[Walker] = []

    # -- lifecycle -----------------------------------------------------
    def spawn(self) -> tuple[str, int]:
        context = multiprocessing.get_context("spawn")
        self.control, child = context.Pipe()
        process = context.Process(
            target=serve, args=(child, self.spec), name="perfbench-server"
        )
        process.start()
        self.process = process
        child.close()
        if not self.control.poll(120.0):
            raise RuntimeError("server process did not come up within 120 s")
        status, address = self.control.recv()
        if status != "ready":
            raise RuntimeError(f"server process reported {status!r}")
        return address

    def command(self, name: str, argument=None, timeout: float = 120.0):
        self.control.send((name, argument))
        if not self.control.poll(timeout):
            raise RuntimeError(f"server process did not answer {name!r}")
        return self.control.recv()

    async def connect(self, address) -> None:
        from repro.middleware import AsyncSocketTransport

        host, port = address
        for _ in range(CONNECTIONS):
            self.transports.append(
                await AsyncSocketTransport.open(
                    host,
                    port,
                    framing="length",
                    payload="binary",
                    push=self.workload.push,
                )
            )
        walks = make_walks(self.workload.name, self.seed, self.workload.levels)
        for index in range(SESSIONS):
            transport = self.transports[index % CONNECTIONS]
            client = await transport.connect(session_id=f"s{index:02d}")
            self.walkers.append(
                Walker(client, walks[index], think_rng(self.seed, index))
            )

    async def warm_up(self, tally: Tally) -> None:
        await asyncio.gather(
            *(_drive_closed(w, tally, WARMUP_REQUESTS) for w in self.walkers)
        )

    async def close(self) -> None:
        for transport in self.transports:
            await transport.aclose()
        self.transports = []
        self.walkers = []
        if self.process is not None:
            try:
                if self.process.is_alive():
                    self.command("stop", timeout=60.0)
            except (OSError, EOFError, RuntimeError):
                pass  # already gone; the join below reaps it
            finally:
                self.process.join(timeout=30.0)
                if self.process.is_alive():
                    self.process.kill()
                    self.process.join(timeout=30.0)
            self.control.close()
            self.process = None

    # -- traffic -------------------------------------------------------
    def bytes_received(self) -> int:
        return sum(t.bytes_received for t in self.transports)

    async def rung(self, rate: float, seconds: float) -> Rung:
        # The generator's own garbage collections would stall every
        # session at once; collect now and keep the collector off while
        # the rung runs.
        gc.collect()
        gc.disable()
        try:
            return await self._rung(rate, seconds)
        finally:
            gc.enable()

    async def _rung(self, rate: float, seconds: float) -> Rung:
        tally = Tally()
        mean = SESSIONS / rate
        bytes0 = self.bytes_received()
        cpu0 = process_cpu_seconds(self.process.pid)
        start = time.perf_counter() + 0.005
        end = start + seconds
        calibration: list[float] = []
        sampler = asyncio.ensure_future(_sample_host(calibration, end))
        try:
            await asyncio.wait_for(
                asyncio.gather(
                    *(_drive_open(w, tally, start, end, mean) for w in self.walkers)
                ),
                seconds + DRAIN_LIMIT_S,
            )
        finally:
            sampler.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await sampler
        return Rung(
            rate=rate,
            slowdown=slowdown(calibration),
            seconds=seconds,
            tally=tally,
            start=start,
            cpu_s=process_cpu_seconds(self.process.pid) - cpu0,
            bytes_received=self.bytes_received() - bytes0,
        )


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    try:
        return asyncio.run(_run(WORKLOADS[name], seed, seconds, trace))
    finally:
        _stop_resource_tracker()


def _stop_resource_tracker() -> None:
    """Stop and reap the helper process ``multiprocessing`` starts with
    the first spawned child, so the run leaves no process behind."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


async def _set_up(workload: Workload, seed: int, traced: bool, warm: Tally):
    start = time.perf_counter()
    bench = Bench(workload, seed, traced)
    try:
        await bench.connect(bench.spawn())
        await bench.warm_up(warm)
    except BaseException:
        await bench.close()
        raise
    return bench, time.perf_counter() - start


async def _run(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    warm = Tally()
    setups = []
    bench = None
    try:
        for _ in range(1 if trace else workload.setups):
            if bench is not None:
                await bench.close()
            bench, setup_s = await _set_up(workload, seed, trace, warm)
            setups.append(setup_s)
        if trace:
            return await _traced(bench, workload, seconds, warm)
        rungs = []
        for multiple, share in LADDER:
            rungs.append(await bench.rung(workload.capacity_rps * multiple, seconds * share))
        return _end_to_end(bench, workload, rungs, setups, warm)
    finally:
        if bench is not None:
            await bench.close()


def _check(bench: Bench, tallies) -> tuple[int, list[str]]:
    seen: Counter = Counter()
    for tally in tallies:
        seen.update(tally.seen)
    return bench.command("check", dict(seen))


def _failure_notes(tallies, examples) -> list[str]:
    notes = list(examples)
    for tally in tallies:
        notes.extend(tally.errors)
    return notes[:10]


def _end_to_end(bench, workload, rungs, setups, warm) -> dict:
    """End-to-end metrics, normalized to the reference host."""
    tallies = [warm] + [r.tally for r in rungs]
    mismatched, examples = _check(bench, tallies)
    failed = mismatched + sum(t.failed for t in tallies)
    attempted = sum(t.attempted for t in tallies)
    notes = [
        f"{workload.name}: capacity {workload.capacity_rps:g} rps; set-ups "
        + ", ".join(f"{setup:.2f} s" for setup in setups)
    ]
    best = None
    for index, rung in enumerate(rungs):
        v = rung.verdict()
        notes.append(
            f"rung {rung.rate:g} rps{' (reference)' if index == REFERENCE_RUNG else ''}"
            f" (slowdown {rung.slowdown:.3f}): "
            f"achieved {rung.achieved_rps:7.1f} rps, p50 {v['p50']:.2f} ms, "
            f"p{v['pct']:g} {v['p99']:.2f} ms of {v['n']}, lag p99 {v['lag_p99']:.2f} ms, "
            f"{'valid' if v['valid'] else 'INVALID (generator late)'}, "
            f"{'backlog growing' if v['growing'] else 'steady'}, "
            f"failed {rung.tally.failed}, {'meets' if v['meets'] else 'misses'} limit"
        )
        if v["meets"]:
            best = rung
    notes.extend(_failure_notes(tallies, examples))
    ref = rungs[REFERENCE_RUNG]
    v = ref.verdict()
    completed = ref.completed
    # Hit rate and CPU cost barely depend on the offered rate, so they
    # pool every rung: more requests, steadier figures.
    ladder_completed = sum(r.completed for r in rungs)
    cpu_ms = sum(r.cpu_s for r in rungs) * 1000.0 / ladder_completed
    normalized_cpu_ms = (
        sum(r.cpu_s / r.slowdown for r in rungs) * 1000.0 / ladder_completed
    )
    host = ref.slowdown
    metrics = {
        "setup_s": (median(setups), "s"),
        "latency_p50_ms": (v["p50"] / host, "ms"),
        "throughput_rps": (ref.achieved_rps, "1/s"),
        "hit_rate": (sum(r.tally.hits for r in rungs) / ladder_completed, "fraction"),
        "cpu_ms_per_request": (normalized_cpu_ms, "ms"),
        "peak_rss_mb": (peak_rss_mb(bench.process.pid), "MB"),
    }
    samples = {
        "host_slowdown": f"{host:.4f} at the reference rung",
        "latency_p50_ms": f"p50 of {v['n']} at {ref.rate:g} rps; raw {v['p50']:.6g} ms",
        "latency_p90_ms": f"{v['p90'] / host:.6g} ms, raw {v['p90']:.6g} ms (p90 of {v['n']})",
        "latency_p99_ms": f"{v['p99'] / host:.6g} ms, raw {v['p99']:.6g} ms (p{v['pct']:g} of {v['n']})",
        "hit_rate": f"{ladder_completed} requests over the ladder",
        "cpu_ms_per_request": f"{ladder_completed} requests over the ladder; raw {cpu_ms:.6g} ms",
        "throughput_rps": f"{completed} requests in {ref.seconds:g} s at {ref.rate:g} rps offered",
        "max_rate_rps": (
            f"{best.achieved_rps:.6g} 1/s, achieved at the {best.rate:g} rps rung"
            if best is not None
            else "no rung met the limit"
        ),
        "degraded_share": f"{ref.tally.degraded / ref.tally.attempted:.6f} fraction",
        "failed_share": f"{ref.tally.failed / ref.tally.attempted:.6f} fraction (reference rung)",
        "bytes_per_request": f"{ref.bytes_received / completed:.1f} B",
        "loadgen.lag_p99_ms": f"{v['lag_p99']:.3f} ms",
    }
    return {
        "metrics": metrics,
        "samples": samples,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "notes": notes,
    }


async def _traced(bench: Bench, workload: Workload, seconds: float, warm: Tally) -> dict:
    rate = workload.capacity_rps * LADDER[REFERENCE_RUNG][0]
    untraced = await bench.rung(rate, seconds / 2)
    sends: dict = {}
    undo = _client_hooks(sends)
    for walker in bench.walkers:
        walker.sequence = 0
    bench.command("trace_on")
    try:
        traced = await bench.rung(rate, seconds / 2)
    finally:
        from perfbench import tracing

        tracing.restore(undo)
    spans, counts, maxima, deltas = bench.command("trace_off")
    tallies = [warm, untraced.tally, traced.tally]
    mismatched, examples = _check(bench, tallies)
    failed = mismatched + sum(t.failed for t in tallies)
    latency_by_request = {}
    wait_ms = []
    for s in traced.tally.samples:
        send = sends.get((s.session, s.sequence))
        latency_by_request[(s.session, s.sequence)] = (
            (s.done - s.due) * 1000.0,
            (s.done - send) * 1000.0 if send is not None else None,
        )
        if send is not None:
            wait_ms.append((send - s.ready) * 1000.0)
    metrics = layers.compute(
        spans=spans,
        counts=counts,
        maxima=maxima,
        requests=traced.completed,
        deltas=deltas,
        latency_by_request=latency_by_request,
        client={
            "wait_ms": wait_ms,
            "lag_ms": traced.tally.lag_ms,
            "push_hits": traced.tally.push_hits,
            "degraded": traced.tally.degraded,
            "failed": traced.tally.failed,
            "attempted": traced.tally.attempted,
            "bytes_received": traced.bytes_received,
        },
        untraced_p50_ms=median(untraced.latencies_ms()),
        slowdowns=(untraced.slowdown, traced.slowdown),
    )
    notes = [
        f"{workload.name}: traced and untraced stretches at {rate:g} rps, "
        f"{seconds / 2:g} s each; {len(spans)} server spans"
    ]
    notes.extend(_failure_notes(tallies, examples))
    return {
        "metrics": metrics,
        "samples": {},
        "attempted": sum(t.attempted for t in tallies),
        "failed": failed,
        "correct": failed == 0,
        "notes": notes,
    }


def _client_hooks(sends: dict) -> list:
    """Record when each request's frame is encoded for sending, i.e. when
    it got the connection; keyed ``(session, sequence)``."""
    from perfbench import tracing
    from repro.middleware import net, protocol

    sequence: Counter = Counter()
    original = net.encode_wire

    def encode_wire(message, *args, **kwargs):
        if isinstance(message, protocol.TileRequest) or (
            isinstance(message, protocol.PushAck) and message.tile is not None
        ):
            sequence[message.session_id] += 1
            sends[(message.session_id, sequence[message.session_id])] = time.perf_counter()
        return original(message, *args, **kwargs)

    undo: list = []
    tracing.patch(net, "encode_wire", encode_wire, undo)
    return undo
