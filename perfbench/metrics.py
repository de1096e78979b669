"""Every metric the benchmark reports: name, unit and direction.

``END_TO_END`` is what a user of the tile service sees (untraced runs);
``PER_LAYER`` comes from the traced run.  ``BENCHMARK.json`` lists the
same names, and the benchmark's tests check that the two agree.
"""

from __future__ import annotations

#: (name, unit, better)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("latency_p50_ms", "ms", "lower"),
    ("throughput_rps", "1/s", "higher"),
    ("hit_rate", "fraction", "higher"),
    ("cpu_ms_per_request", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: (name, unit, better).  Times are self time per completed request;
#: counts are per completed request unless the name says otherwise.
PER_LAYER = (
    ("service.request_ms", "ms", "lower"),
    ("core.predict_ms", "ms", "lower"),
    ("core.observe_ms", "ms", "lower"),
    ("phases.classify_ms", "ms", "lower"),
    ("recommenders.markov3_ms", "ms", "lower"),
    ("recommenders.sb_sift_ms", "ms", "lower"),
    ("recommenders.momentum_ms", "ms", "lower"),
    ("signatures.vector_ms", "ms", "lower"),
    ("signatures.vector_calls", "count/req", "lower"),
    ("cache.fetch_ms", "ms", "lower"),
    ("cache.fetches", "count/req", "lower"),
    ("cache.hit_ratio", "fraction", "higher"),
    ("cache.prefetch_ms", "ms", "lower"),
    ("cache.prefetch_loads", "count/req", "lower"),
    ("cache.prefetch_useful_ratio", "fraction", "higher"),
    ("tiles.fetch_ms", "ms", "lower"),
    ("tiles.fetches", "count/req", "lower"),
    ("arraydb.execute_ms", "ms", "lower"),
    ("arraydb.read_ms", "ms", "lower"),
    ("arraydb.chunks_per_query", "count", "lower"),
    ("arraydb.cells_per_query", "count", "lower"),
    ("reduce.carve_ms", "ms", "lower"),
    ("reduce.downsample_ms", "ms", "lower"),
    ("service.degraded", "count/req", "lower"),
    ("scheduler.jobs_scheduled", "count/req", "lower"),
    ("scheduler.jobs_shed", "count/req", "lower"),
    ("scheduler.jobs_cancelled", "count/req", "lower"),
    ("scheduler.queue_depth_max", "count", "lower"),
    ("push.tiles", "count/req", "lower"),
    ("push.bytes", "B/req", "lower"),
    ("push.coarse_tiles", "count/req", "lower"),
    ("push.refined_tiles", "count/req", "lower"),
    ("push.used_ratio", "fraction", "higher"),
    ("protocol.encode_ms", "ms", "lower"),
    ("protocol.encode_bytes", "B/req", "lower"),
    ("protocol.decode_ms", "ms", "lower"),
    ("aio.inline_hit_share", "fraction", "higher"),
    ("net.client_wait_ms", "ms", "lower"),
    ("net.wire_ms", "ms", "lower"),
    ("cluster.hop_ms", "ms", "lower"),
    ("cluster.worker_share_max", "fraction", "lower"),
    ("loadgen.lag_p99_ms", "ms", "lower"),
    ("degraded_share", "fraction", "lower"),
    ("failed_share", "fraction", "lower"),
    ("bytes_per_request", "B", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.unaccounted_ms", "ms", "lower"),
    ("trace.unaccounted_pct", "%", "lower"),
)

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}
