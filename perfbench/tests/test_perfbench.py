"""The benchmark's own checks.

Run from the root of the repository::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (str(ROOT / "src"), str(ROOT)):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import layers, loadgen, tracing  # noqa: E402
from perfbench.metrics import END_TO_END, PER_LAYER  # noqa: E402
from perfbench.stats import tail_percentile  # noqa: E402


# ----------------------------------------------------------------------
# request streams
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(loadgen.WORKLOADS))
def test_same_seed_gives_identical_streams(name):
    assert loadgen.stream_bytes(name, 5) == loadgen.stream_bytes(name, 5)
    assert loadgen.stream_bytes(name, 5) != loadgen.stream_bytes(name, 6)


def test_study_replay_order_follows_the_seed():
    from perfbench.study import replay_order

    assert replay_order(5, 54) == replay_order(5, 54)
    assert replay_order(5, 54) != replay_order(6, 54)
    assert sorted(replay_order(5, 54)) == list(range(54))


# ----------------------------------------------------------------------
# percentile rule
# ----------------------------------------------------------------------
def test_p99_needs_ten_samples_beyond_it():
    values = list(range(1, 1001))
    pct, value, n = tail_percentile(values)
    assert (pct, value, n) == (99.0, 990.0, 1000)
    assert sum(v > value for v in values) == 10


def test_fewer_samples_fall_back_to_the_highest_supported_percentile():
    values = list(range(1, 501))
    pct, value, n = tail_percentile(values)
    assert pct == 98.0 and n == 500
    assert sum(v > value for v in values) == 10
    # One more step up would leave fewer than ten beyond.
    assert sum(v > values[int(98.1 / 100 * 500)] for v in values) < 10


def test_too_few_samples_report_the_median():
    assert tail_percentile([5.0, 1.0, 3.0]) == (50.0, 3.0, 3)


# ----------------------------------------------------------------------
# self time
# ----------------------------------------------------------------------
def _span(sid, name, start, end, parent=None, rid=None):
    return (sid, name, start, end, parent, rid, 0)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(1, "root", 0, 100, rid="r"),
        _span(2, "a", 10, 40, parent=1, rid="r"),
        _span(3, "b", 30, 60, parent=1, rid="r"),  # overlaps a
        _span(4, "c", 20, 25, parent=2, rid="r"),  # inside a
        _span(5, "late", 90, 130, parent=1, rid="r"),  # outlives root
        _span(6, "background", 0, 50),
    ]
    selfs = tracing.self_times(spans)
    assert selfs[1] == 100 - 50 - 10  # a∪b covers 10..60, late 90..100
    assert selfs[2] == 30 - 5
    assert selfs[3] == 30
    assert selfs[4] == 5
    assert selfs[5] == 40
    assert selfs[6] == 50
    per_request = tracing.request_self_ms(spans)
    assert per_request == {"r": pytest.approx((40 + 25 + 30 + 5 + 40) / 1e6)}


def test_layer_metrics_divide_self_time_by_requests():
    spans = [
        _span(1, "service.request", 0, 4_000_000, rid=("s", 1)),
        _span(2, "cache.fetch", 0, 1_000_000, parent=1, rid=("s", 1)),
    ]
    metrics = layers.compute(
        spans=spans,
        counts=Counter({"cache.fetches": 1, "cache.hits": 1}),
        maxima={},
        requests=2,
        deltas={},
        latency_by_request={("s", 1): (6.0, 5.0)},
        client={"attempted": 2},
        untraced_p50_ms=5.0,
    )
    assert metrics["service.request_ms"] == (1.5, "ms")
    assert metrics["cache.fetch_ms"] == (0.5, "ms")
    assert metrics["cache.hit_ratio"][0] == 1.0
    assert metrics["net.wire_ms"][0] == pytest.approx(1.0)
    assert metrics["trace.unaccounted_ms"][0] == pytest.approx(2.0)
    assert metrics["trace.overhead_pct"][0] == pytest.approx(20.0)
    assert set(metrics) == {name for name, _, _ in PER_LAYER}


# ----------------------------------------------------------------------
# client/server span join
# ----------------------------------------------------------------------
def test_client_and_server_spans_join_on_a_two_session_stub_run():
    from perfbench.server import install_wire, _momentum_factory
    from repro.middleware import (
        AsyncSocketTransport,
        CacheConfig,
        PrefetchPolicy,
        ServiceConfig,
        ThreadedSocketServer,
    )
    from repro.modis.dataset import MODISDataset

    pyramid = MODISDataset.build(size=256, tile_size=32, days=1, seed=7).pyramid
    config = ServiceConfig(
        prefetch=PrefetchPolicy(mode="background"),
        cache=CacheConfig(shards=2),
    )
    policy = asyncio.get_event_loop_policy()
    asyncio.set_event_loop_policy(tracing.ContextExecutorPolicy())
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    install_wire(tracer, False, undo)
    sends: dict = {}
    undo += loadgen._client_hooks(sends)
    replies: dict = {}
    try:
        with ThreadedSocketServer(
            pyramid, config, engine_factory=_momentum_factory(pyramid.grid), framing="length"
        ) as server:

            async def drive():
                transport = await AsyncSocketTransport.open(
                    *server.address, framing="length", payload="binary"
                )
                try:
                    clients = [
                        await transport.connect(session_id=name) for name in ("a", "b")
                    ]
                    walk = [(None, pyramid.grid.root)] + [
                        (move, key) for move, key in pyramid.grid.available_moves(pyramid.grid.root)
                    ][:2]
                    for sequence, (move, key) in enumerate(walk, start=1):
                        for client in clients:
                            await client.request(move, key)
                            replies[(client.session_id, sequence)] = time.perf_counter()
                finally:
                    await transport.aclose()

            asyncio.run(drive())
    finally:
        tracing.restore(undo)
        asyncio.set_event_loop_policy(policy)

    served = tracing.spans_by_request(tracer.spans, "service.request")
    assert set(replies) == {(s, n) for s in ("a", "b") for n in (1, 2, 3)}
    assert set(replies) <= set(served)
    assert set(replies) <= set(sends)
    for rid, done in replies.items():
        roundtrip_ms = (done - sends[rid]) * 1000.0
        assert 0.0 < served[rid] < roundtrip_ms
    # Decode and encode spans of a request carry its id too.
    for rid in replies:
        names = {span[1] for span in tracer.spans if span[5] == rid}
        assert {"protocol.decode", "service.request", "protocol.encode"} <= names


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------
def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == [
        "study-hybrid",
        "pull-hot",
        "cluster-push-cold",
    ]
