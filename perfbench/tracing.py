"""In-memory spans around the program's layers, recorded from outside.

Nothing in ``src/`` knows about tracing: :func:`install` replaces the
public entry points of each layer with timing wrappers and returns a
function that puts the originals back.  A span is the tuple
``(id, name, start_ns, end_ns, parent_id, request_id, thread_id)``.
The parent is whatever span was open in the caller's context; the
request id is ``(session, sequence number)`` and is carried in the same
context, so spans of one request share it.  Background work (prefetch
workers, push loads started outside a request) has neither.

Self time is a span's duration minus the part of it its children cover
(:func:`self_times`).  Per-layer figures are self times summed per
layer name, so nested layers are never counted twice.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import inspect
import itertools
import threading
import time
from collections import Counter, defaultdict

#: ``(open span id, request id)`` of the calling context.
_current: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=(None, None)
)
#: True inside a prefetch/push load, so backend loads can be attributed.
_prefetching: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_prefetching", default=False
)

#: Spans that bracket other spans of the same request without being
#: their parent; they are excluded from per-request self-time sums.
BRACKET_SPANS = frozenset({"cluster.route"})

_MISSING = object()


class Tracer:
    """One process's span store and layer counters."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def record(self, name, start, end, parent=None, rid=None) -> int:
        sid = next(self._ids)
        self.spans.append(
            (sid, name, start, end, parent, rid, threading.get_ident())
        )
        return sid

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def observe_max(self, name: str, value: float) -> None:
        with self._lock:
            if value > self.maxima.get(name, float("-inf")):
                self.maxima[name] = value

    # ------------------------------------------------------------------
    def timed(self, fn, name, after=None, flag=None):
        """Wrap ``fn`` so each call records a span named ``name``.

        ``name`` may be a callable of the call's arguments.  ``after``
        runs with ``(args, result)`` once the span closed; ``flag`` is a
        context variable set to True for the call's duration.
        """
        tracer = self

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                parent, rid = _current.get()
                sid = next(tracer._ids)
                token = _current.set((sid, rid))
                start = time.perf_counter_ns()
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    end = time.perf_counter_ns()
                    _current.reset(token)
                    label = name(*args) if callable(name) else name
                    tracer.spans.append(
                        (sid, label, start, end, parent, rid, threading.get_ident())
                    )
                if after is not None:
                    after(args, result)
                return result

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent, rid = _current.get()
            sid = next(tracer._ids)
            token = _current.set((sid, rid))
            flag_token = flag.set(True) if flag is not None else None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                if flag_token is not None:
                    flag.reset(flag_token)
                _current.reset(token)
                label = name(*args) if callable(name) else name
                tracer.spans.append(
                    (sid, label, start, end, parent, rid, threading.get_ident())
                )
            if after is not None:
                after(args, result)
            return result

        return wrapper


def patch(owner, attr: str, replacement, undo: list) -> None:
    """``setattr`` that remembers how to undo itself."""
    original = vars(owner).get(attr, _MISSING)
    setattr(owner, attr, replacement)
    if original is _MISSING:
        undo.append(lambda: delattr(owner, attr))
    else:
        undo.append(lambda: setattr(owner, attr, original))


def restore(undo: list) -> None:
    while undo:
        undo.pop()()


def bind_request(rid) -> None:
    """Make ``rid`` the request id of the rest of the calling context."""
    parent, _ = _current.get()
    _current.set((parent, rid))


def context():
    """``(open span id, request id)`` of the calling context."""
    return _current.get()


class ContextExecutorLoop(asyncio.SelectorEventLoop):
    """An event loop whose executor calls run in the caller's context,
    so spans opened inside a thread hop keep their parent and request."""

    def run_in_executor(self, executor, func, *args):
        return super().run_in_executor(
            executor, contextvars.copy_context().run, func, *args
        )


class ContextExecutorPolicy(asyncio.DefaultEventLoopPolicy):
    def new_event_loop(self):
        return ContextExecutorLoop()


# ----------------------------------------------------------------------
# layer wrappers
# ----------------------------------------------------------------------
def install(tracer: Tracer) -> list:
    """Wrap every layer's public entry points; returns the undo list.

    Covers the layers every workload shares: prediction (``core``,
    ``phases``, ``recommenders``, ``signatures``), the middleware cache,
    the backend (``tiles``, ``arraydb``), coarse tiles (``tiles.reduce``)
    and the prefetch scheduler.  Wire and service wrappers live with
    the processes that own them.
    """
    from repro.arraydb.array import ChunkedArray
    from repro.arraydb.executor import Database
    from repro.cache.manager import AsyncCacheManager, CacheManager
    from repro.core.engine import PredictionEngine
    from repro.middleware import net, service
    from repro.middleware.scheduler import PrefetchScheduler
    from repro.recommenders.hotspot import HotspotRecommender
    from repro.recommenders.markov import MarkovRecommender
    from repro.recommenders.momentum import MomentumRecommender
    from repro.recommenders.signature_based import SignatureBasedRecommender
    from repro.signatures.provider import SignatureProvider
    from repro.tiles.pyramid import TilePyramid

    undo: list = []
    pending_prefetched: set = set()
    prefetch_lock = threading.Lock()

    def wrap(owner, attr, name, after=None, flag=None):
        patch(owner, attr, tracer.timed(getattr(owner, attr), name, after, flag), undo)

    def recommender_name(self, *_):
        return "recommenders." + self.name.replace(":", "_").replace("+", "_")

    wrap(PredictionEngine, "predict", "core.predict")
    wrap(PredictionEngine, "observe", "core.observe")
    # The engine holds its classifier's bound ``predict``, so the
    # engine-side entry point is the one a wrapper can still reach.
    wrap(PredictionEngine, "predict_phase", "phases.classify")
    for cls in (
        MarkovRecommender,
        SignatureBasedRecommender,
        MomentumRecommender,
        HotspotRecommender,
    ):
        wrap(cls, "predict", recommender_name)
    wrap(SignatureProvider, "vector", "signatures.vector")

    def requested(key) -> None:
        with prefetch_lock:
            if key in pending_prefetched:
                pending_prefetched.discard(key)
                tracer.count("cache.prefetch_useful")

    def after_fetch(args, outcome):
        tracer.count("cache.fetches")
        if outcome.hit:
            tracer.count("cache.hits")
        requested(args[1])

    def after_try_fetch(args, outcome):
        if outcome is not None:
            after_fetch(args, outcome)

    wrap(CacheManager, "fetch", "cache.fetch", after_fetch)
    wrap(CacheManager, "try_fetch", "cache.fetch", after_try_fetch)
    wrap(CacheManager, "prefetch", "cache.prefetch", flag=_prefetching)
    wrap(CacheManager, "prefetch_one", "cache.prefetch", flag=_prefetching)

    def after_inline_probe(args, outcome):
        tracer.count("aio.probes")
        if outcome is not None:
            tracer.count("aio.inline_hits")

    wrap(AsyncCacheManager, "try_fetch", "aio.try_fetch", after_inline_probe)

    original_local_hit = service.ForeCacheService.local_hit

    def local_hit(self, session_id, move, key):
        requested(key)
        return original_local_hit(self, session_id, move, key)

    patch(service.ForeCacheService, "local_hit", local_hit, undo)

    def after_tile_fetch(args, result):
        tracer.count("tiles.fetches")
        if _prefetching.get():
            tracer.count("cache.prefetch_loads")
            with prefetch_lock:
                pending_prefetched.add(args[1])

    wrap(TilePyramid, "fetch_tile_timed", "tiles.fetch", after_tile_fetch)

    def after_execute(args, result):
        tracer.count("arraydb.queries")
        tracer.count("arraydb.chunks", result.stats.chunks_read)
        tracer.count("arraydb.cells", result.stats.cells_scanned)

    wrap(Database, "execute", "arraydb.execute", after_execute)
    wrap(ChunkedArray, "read", "arraydb.read")

    wrap(service, "carve_from_ancestor", "reduce.carve")
    wrap(net, "downsample_tile", "reduce.downsample")

    def after_schedule(args, jobs):
        tracer.observe_max("scheduler.queue_depth", args[0].queue_depth)

    wrap(PrefetchScheduler, "schedule", "scheduler.schedule", after_schedule)
    return undo


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def _covered(intervals) -> int:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0
    cursor = None
    for start, end in sorted(intervals):
        if cursor is None or start > cursor:
            total += end - start
            cursor = end
        elif end > cursor:
            total += end - cursor
            cursor = end
    return total


def self_times(spans) -> dict[int, int]:
    """Span id -> duration minus the union of its children's intervals.

    Children are clipped to their parent's interval, so a child that
    outlives its parent (work handed to another thread) only removes
    the overlap.
    """
    bounds = {span[0]: (span[2], span[3]) for span in spans}
    children: dict[int, list] = defaultdict(list)
    for sid, _name, start, end, parent, _rid, _tid in spans:
        if parent is not None and parent in bounds:
            p_start, p_end = bounds[parent]
            lo, hi = max(start, p_start), min(end, p_end)
            if hi > lo:
                children[parent].append((lo, hi))
    return {
        sid: (end - start) - _covered(children.get(sid, ()))
        for sid, _name, start, end, _parent, _rid, _tid in spans
    }


def layer_self_ms(spans) -> dict[str, float]:
    """Layer name -> total self time in milliseconds."""
    selfs = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span[1]] += selfs[span[0]] / 1e6
    return dict(totals)


def request_self_ms(spans) -> dict:
    """Request id -> summed self time (ms) of that request's spans,
    bracket spans excluded."""
    selfs = self_times(spans)
    totals: dict = defaultdict(float)
    for span in spans:
        if span[5] is not None and span[1] not in BRACKET_SPANS:
            totals[span[5]] += selfs[span[0]] / 1e6
    return dict(totals)


def spans_by_request(spans, name: str) -> dict:
    """Request id -> duration (ms) of the outermost ``name`` span."""
    found: dict = {}
    for _sid, label, start, end, _parent, rid, _tid in spans:
        if label == name and rid is not None:
            duration = (end - start) / 1e6
            if duration > found.get(rid, -1.0):
                found[rid] = duration
    return found
