"""Per-layer metrics from one traced stretch of a workload."""

from __future__ import annotations

from collections import Counter

from perfbench import tracing
from perfbench.metrics import PER_LAYER, UNITS
from perfbench.stats import median, slowdown, tail_percentile

#: Span name -> per-layer metric reporting its self time.
SELF_TIME_METRICS = {
    "service.request": "service.request_ms",
    "core.predict": "core.predict_ms",
    "core.observe": "core.observe_ms",
    "phases.classify": "phases.classify_ms",
    "recommenders.markov3": "recommenders.markov3_ms",
    "recommenders.sb_sift": "recommenders.sb_sift_ms",
    "recommenders.momentum": "recommenders.momentum_ms",
    "signatures.vector": "signatures.vector_ms",
    "cache.fetch": "cache.fetch_ms",
    "cache.prefetch": "cache.prefetch_ms",
    "tiles.fetch": "tiles.fetch_ms",
    "arraydb.execute": "arraydb.execute_ms",
    "arraydb.read": "arraydb.read_ms",
    "reduce.carve": "reduce.carve_ms",
    "reduce.downsample": "reduce.downsample_ms",
    "protocol.encode": "protocol.encode_ms",
    "protocol.decode": "protocol.decode_ms",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def compute(
    *,
    spans,
    counts: Counter,
    maxima: dict,
    requests: int,
    deltas: dict,
    latency_by_request: dict,
    client: dict,
    untraced_p50_ms: float,
    slowdowns: tuple[float, float] = (1.0, 1.0),
) -> dict:
    """All ``PER_LAYER`` metrics.

    ``latency_by_request`` maps request id -> ``(latency_ms,
    roundtrip_ms)`` as the client saw it (due to reply, send to reply).
    ``client`` holds the client-side tallies: ``wait_ms`` (list),
    ``lag_ms`` (list), ``push_hits``, ``degraded``, ``failed``,
    ``attempted`` and ``bytes_received``.  ``deltas`` holds counter
    differences read from the serving objects over the stretch.
    ``slowdowns`` are the host slowdowns sampled around the untraced and
    the traced stretch; the overhead compares normalized medians, so a
    host phase change between the stretches does not read as overhead.
    """
    out = {name: 0.0 for name, _, _ in PER_LAYER}
    per_request = max(requests, 1)
    names = Counter(span[1] for span in spans)
    for span_name, total_ms in tracing.layer_self_ms(spans).items():
        metric = SELF_TIME_METRICS.get(span_name)
        if metric is not None:
            out[metric] = total_ms / per_request

    out["signatures.vector_calls"] = names["signatures.vector"] / per_request
    out["cache.fetches"] = counts["cache.fetches"] / per_request
    out["cache.hit_ratio"] = _ratio(counts["cache.hits"], counts["cache.fetches"])
    out["cache.prefetch_loads"] = counts["cache.prefetch_loads"] / per_request
    out["cache.prefetch_useful_ratio"] = _ratio(
        counts["cache.prefetch_useful"], counts["cache.prefetch_loads"]
    )
    out["tiles.fetches"] = counts["tiles.fetches"] / per_request
    out["arraydb.chunks_per_query"] = _ratio(
        counts["arraydb.chunks"], counts["arraydb.queries"]
    )
    out["arraydb.cells_per_query"] = _ratio(
        counts["arraydb.cells"], counts["arraydb.queries"]
    )
    out["service.degraded"] = names["reduce.carve"] / per_request
    out["scheduler.jobs_scheduled"] = deltas.get("jobs_submitted", 0) / per_request
    out["scheduler.jobs_shed"] = deltas.get("jobs_shed", 0) / per_request
    out["scheduler.jobs_cancelled"] = deltas.get("jobs_cancelled", 0) / per_request
    out["scheduler.queue_depth_max"] = float(
        maxima.get("scheduler.queue_depth", 0)
    )
    pushed = deltas.get("pushed_tiles", 0)
    out["push.tiles"] = pushed / per_request
    out["push.bytes"] = deltas.get("pushed_bytes", 0) / per_request
    out["push.coarse_tiles"] = deltas.get("coarse_tiles", 0) / per_request
    out["push.refined_tiles"] = deltas.get("refined_tiles", 0) / per_request
    out["push.used_ratio"] = _ratio(client.get("push_hits", 0), pushed)
    out["protocol.encode_bytes"] = counts["protocol.encode_bytes"] / per_request
    out["aio.inline_hit_share"] = _ratio(
        counts["aio.inline_hits"], counts["aio.requests"]
    )

    wait = client.get("wait_ms") or []
    out["net.client_wait_ms"] = sum(wait) / len(wait) if wait else 0.0
    served = tracing.spans_by_request(spans, "service.request")
    wire = [
        roundtrip - served[rid]
        for rid, (_latency, roundtrip) in latency_by_request.items()
        if rid in served and roundtrip is not None
    ]
    out["net.wire_ms"] = median(wire) if wire else 0.0
    routed = tracing.spans_by_request(spans, "cluster.route")
    hops = [routed[rid] - served[rid] for rid in routed if rid in served]
    out["cluster.hop_ms"] = median(hops) if hops else 0.0
    by_worker = Counter(
        span[6] for span in spans if span[1] == "service.request"
    )
    out["cluster.worker_share_max"] = _ratio(
        max(by_worker.values(), default=0), sum(by_worker.values())
    )
    lag = client.get("lag_ms") or []
    out["loadgen.lag_p99_ms"] = tail_percentile(lag)[1] if lag else 0.0

    attempted = max(client.get("attempted", requests), 1)
    out["degraded_share"] = client.get("degraded", 0) / attempted
    out["failed_share"] = client.get("failed", 0) / attempted
    out["bytes_per_request"] = client.get("bytes_received", 0) / per_request

    latencies = [latency for latency, _ in latency_by_request.values()]
    traced_p50 = median(latencies) if latencies else 0.0
    untraced = untraced_p50_ms / slowdowns[0]
    traced = traced_p50 / slowdowns[1]
    out["trace.overhead_pct"] = (
        100.0 * (traced - untraced) / untraced if untraced else 0.0
    )
    accounted = tracing.request_self_ms(spans)
    unaccounted = [
        latency - accounted.get(rid, 0.0)
        for rid, (latency, _) in latency_by_request.items()
    ]
    if unaccounted:
        out["trace.unaccounted_ms"] = median(unaccounted)
        out["trace.unaccounted_pct"] = 100.0 * _ratio(
            out["trace.unaccounted_ms"], traced_p50
        )
    return {name: (value, UNITS[name]) for name, value in out.items()}


def study_layers(tracer, timed, untraced) -> dict:
    """Per-layer metrics of the in-process study replay.

    Requests are numbered per session in replay order, matching the
    root span's ``(session, sequence)`` ids.
    """
    latency_by_request = {
        ("session-1", position + 1): (latency * 1000.0, None)
        for position, latency in enumerate(timed.latencies)
    }
    return compute(
        spans=tracer.spans,
        counts=tracer.counts,
        maxima=tracer.maxima,
        requests=len(timed.latencies),
        deltas={},
        latency_by_request=latency_by_request,
        client={"attempted": len(timed.latencies)},
        untraced_p50_ms=median(untraced.latencies) * 1000.0,
        slowdowns=(slowdown(untraced.calibration), slowdown(timed.calibration)),
    )
