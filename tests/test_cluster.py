"""The multi-process cluster: ring, handshake intersection, failover,
gossip convergence, and a spawn-context smoke boot.

Everything runs over loopback on ephemeral ports.  The spawn tests are
the only ones that cross a process boundary; they use small worlds so
worker boot (dataset build + bind) stays cheap.
"""

from __future__ import annotations

import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.allocation import SingleModelStrategy
from repro.core.engine import PredictionEngine
from repro.core.popularity import SharedHotspotRegistry
from repro.middleware.cluster import (
    ConsistentHashRing,
    ProcessCluster,
    ThreadedClusterServer,
    _snake_walk,
)
from repro.middleware.config import PrefetchPolicy, ServiceConfig
from repro.middleware.net import SocketTransport, ThreadedSocketServer
from repro.middleware.protocol import (
    FrameTooLargeError,
    HotspotGossip,
    PushTile,
    TilePayload,
    WorkerUnavailableError,
    decode,
    decode_wire,
)
from repro.recommenders.momentum import MomentumRecommender
from repro.tiles.key import TileKey

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")


def make_engine(grid) -> PredictionEngine:
    model = MomentumRecommender()
    return PredictionEngine(
        grid, {model.name: model}, SingleModelStrategy(model.name)
    )


def all_keys(grid, level: int) -> list[TileKey]:
    n = grid.tiles_per_dim(level)
    return [TileKey(level, x, y) for x in range(n) for y in range(n)]


@pytest.fixture
def cluster2(tiny_dataset):
    """A 2-worker threaded cluster over the tiny world."""
    grid = tiny_dataset.pyramid.grid
    with ThreadedClusterServer(
        tiny_dataset.pyramid,
        ServiceConfig(),
        workers=2,
        engine_factory=lambda: make_engine(grid),
    ) as cluster:
        yield cluster


# ----------------------------------------------------------------------
# consistent-hash ring
# ----------------------------------------------------------------------
class TestConsistentHashRing:
    def test_same_key_same_worker_across_runs(self):
        nodes = ["w0", "w1", "w2", "w3"]
        keys = [TileKey(4, x, y) for x in range(16) for y in range(16)]
        a = ConsistentHashRing(nodes, replicas=64, seed=0)
        b = ConsistentHashRing(list(reversed(nodes)), replicas=64, seed=0)
        assert [a.owner(k) for k in keys] == [b.owner(k) for k in keys]

    def test_same_key_same_worker_across_processes(self):
        """The mapping is a pure function of (seed, nodes, replicas) —
        a fresh interpreter (fresh PYTHONHASHSEED) must agree."""
        keys = [(3, x, y) for x in range(8) for y in range(8)]
        script = (
            "from repro.middleware.cluster import ConsistentHashRing\n"
            "from repro.tiles.key import TileKey\n"
            "ring = ConsistentHashRing(['w0','w1','w2'], replicas=64, seed=0)\n"
            f"keys = {keys!r}\n"
            "print(','.join(ring.owner(TileKey(*k)) for k in keys))\n"
        )
        env = dict(os.environ, PYTHONPATH=REPO_SRC, PYTHONHASHSEED="random")
        runs = [
            subprocess.run(
                [sys.executable, "-c", script],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            ).stdout.strip()
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        local = ConsistentHashRing(["w0", "w1", "w2"], replicas=64, seed=0)
        mine = ",".join(local.owner(TileKey(*k)) for k in keys)
        assert mine == runs[0]

    def test_balance_within_factor(self):
        ring = ConsistentHashRing(
            ["w0", "w1", "w2", "w3"], replicas=128, seed=0
        )
        keys = [TileKey(5, x, y) for x in range(32) for y in range(32)]
        counts = {n: 0 for n in ring.nodes}
        for key in keys:
            counts[ring.owner(key)] += 1
        expected = len(keys) / len(counts)
        for node, count in counts.items():
            assert count > expected / 3, (node, counts)
            assert count < expected * 3, (node, counts)

    def test_removal_moves_only_dead_nodes_keys(self):
        ring = ConsistentHashRing(
            ["w0", "w1", "w2", "w3"], replicas=64, seed=0
        )
        keys = [TileKey(5, x, y) for x in range(32) for y in range(32)]
        before = {k: ring.owner(k) for k in keys}
        ring.remove("w1")
        moved = 0
        for key, owner in before.items():
            after = ring.owner(key)
            if owner == "w1":
                assert after != "w1"
                moved += 1
            else:
                assert after == owner, "a surviving node's key moved"
        # ~1/N of the space moved — and nothing else.
        assert 0 < moved < len(keys) / 2

    def test_seed_changes_partition(self):
        keys = [TileKey(4, x, y) for x in range(16) for y in range(16)]
        a = ConsistentHashRing(["w0", "w1"], replicas=64, seed=0)
        b = ConsistentHashRing(["w0", "w1"], replicas=64, seed=1)
        assert [a.owner(k) for k in keys] != [b.owner(k) for k in keys]

    def test_empty_ring_raises_typed_error(self):
        ring = ConsistentHashRing()
        with pytest.raises(WorkerUnavailableError):
            ring.owner(TileKey(0, 0, 0))

    def test_duplicate_add_rejected(self):
        ring = ConsistentHashRing(["w0"])
        with pytest.raises(ValueError):
            ring.add("w0")


# ----------------------------------------------------------------------
# handshake capability intersection
# ----------------------------------------------------------------------
class TestHandshakeIntersection:
    def test_binary_granted_when_all_workers_speak_it(self, cluster2):
        host, port = cluster2.address
        transport = SocketTransport(host, port, payload="binary")
        try:
            assert transport.payload == "binary"
        finally:
            transport.close()

    def test_json_client_stays_json(self, cluster2):
        host, port = cluster2.address
        transport = SocketTransport(host, port)
        try:
            assert transport.payload == "json"
            assert transport.push_enabled is False
        finally:
            transport.close()

    def test_binary_denied_when_a_worker_is_json_only(self, tiny_dataset):
        grid = tiny_dataset.pyramid.grid
        factory = lambda: make_engine(grid)  # noqa: E731
        json_only = ThreadedSocketServer(
            tiny_dataset.pyramid,
            ServiceConfig(),
            engine_factory=factory,
            payloads=("json",),
        )
        full = ThreadedSocketServer(
            tiny_dataset.pyramid, ServiceConfig(), engine_factory=factory
        )
        from repro.middleware.cluster import ThreadedRouter

        router = None
        try:
            json_addr = json_only.start()
            full_addr = full.start()
            router = ThreadedRouter(
                {
                    f"{json_addr[0]}:{json_addr[1]}": json_addr,
                    f"{full_addr[0]}:{full_addr[1]}": full_addr,
                }
            )
            host, port = router.start()
            transport = SocketTransport(host, port, payload="binary")
            try:
                # The client offered binary, the router allows it, but
                # one worker cannot speak it: intersection says JSON.
                assert transport.payload == "json"
            finally:
                transport.close()
        finally:
            if router is not None:
                router.stop()
            full.stop()
            json_only.stop()

    def test_push_denied_when_workers_pull_only(self, cluster2):
        # Workers run push="off" (the default): a push-hungry client
        # must be granted the intersection — no push.
        host, port = cluster2.address
        transport = SocketTransport(host, port, push=True)
        try:
            assert transport.push_enabled is False
        finally:
            transport.close()

    def test_push_granted_when_all_workers_push(self, tiny_dataset):
        grid = tiny_dataset.pyramid.grid
        config = ServiceConfig(prefetch=PrefetchPolicy(push="on"))
        with ThreadedClusterServer(
            tiny_dataset.pyramid,
            config,
            workers=2,
            engine_factory=lambda: make_engine(grid),
        ) as cluster:
            host, port = cluster.address
            pushy = SocketTransport(host, port, push=True)
            plain = SocketTransport(host, port)
            try:
                assert pushy.push_enabled is True
                assert plain.push_enabled is False
            finally:
                pushy.close()
                plain.close()


# ----------------------------------------------------------------------
# request routing + failover
# ----------------------------------------------------------------------
class TestRoutingAndFailover:
    def test_replay_through_router_serves_all_tiles(
        self, cluster2, tiny_dataset
    ):
        grid = tiny_dataset.pyramid.grid
        host, port = cluster2.address
        transport = SocketTransport(host, port)
        try:
            client = transport.connect(session_id="router-replay")
            walk = _snake_walk(grid, TileKey(0, 0, 0), 16)
            assert len(walk) == 16
            for move, key in walk:
                response = client.request(move, key)
                assert response.tile.key == key
            client.close()
        finally:
            transport.close()

    def test_worker_death_surfaces_typed_error_then_recovers(
        self, cluster2, tiny_dataset
    ):
        grid = tiny_dataset.pyramid.grid
        host, port = cluster2.address
        transport = SocketTransport(host, port)
        try:
            client = transport.connect(session_id="failover")
            keys = all_keys(grid, grid.deepest_level)
            # Serve one request so the connection is warm.
            client.request(None, keys[0])
            cluster2.stop_worker(0)
            errors = 0
            for key in keys:
                try:
                    response = client.request(None, key)
                except WorkerUnavailableError:
                    errors += 1
                    # The retry goes to a survivor — same connection,
                    # same session (it was opened on every worker).
                    response = client.request(None, key)
                assert response.tile.key == key
            # The dead worker owned a real share of the key space, and
            # each session hits its partition at most once before the
            # ring re-maps it.
            assert errors >= 1
            client.close()
        finally:
            transport.close()

    def test_mid_flight_death_leaves_other_sessions_served(
        self, tiny_dataset
    ):
        grid = tiny_dataset.pyramid.grid
        with ThreadedClusterServer(
            tiny_dataset.pyramid,
            ServiceConfig(),
            workers=3,
            engine_factory=lambda: make_engine(grid),
        ) as cluster:
            host, port = cluster.address
            t1 = SocketTransport(host, port)
            t2 = SocketTransport(host, port)
            try:
                c1 = t1.connect(session_id="alpha")
                c2 = t2.connect(session_id="beta")
                keys = all_keys(grid, grid.deepest_level)
                c1.request(None, keys[0])
                c2.request(None, keys[1])
                cluster.stop_worker(1)
                # Both sessions — on separate connections — keep being
                # served after the death, modulo one typed retry each.
                for client in (c1, c2):
                    for key in keys[:8]:
                        try:
                            response = client.request(None, key)
                        except WorkerUnavailableError:
                            response = client.request(None, key)
                        assert response.tile.key == key
                c1.close()
                c2.close()
            finally:
                t1.close()
                t2.close()

    def test_sessions_survive_on_fresh_connection_after_death(
        self, cluster2, tiny_dataset
    ):
        grid = tiny_dataset.pyramid.grid
        host, port = cluster2.address
        cluster2.stop_worker(1)
        transport = SocketTransport(host, port)
        try:
            client = transport.connect(session_id="late-joiner")
            for key in all_keys(grid, grid.deepest_level)[:6]:
                assert client.request(None, key).tile.key == key
            client.close()
        finally:
            transport.close()


# ----------------------------------------------------------------------
# payload pass-through: the router forwards packed tile bytes
# ----------------------------------------------------------------------
_BINARY_FRAME = struct.Struct(">BI")


def tap_worker_frames(monkeypatch, worker, rewrite=None) -> list[bytes]:
    """Record every payload-bearing (kind-1) frame a worker writes.

    The worker's serve loop writes exactly what ``_encode_out`` returns,
    so this is its side of the wire; ``rewrite`` may replace a frame
    before it leaves.
    """
    server = worker.server
    original = server._encode_out
    sent: list[bytes] = []

    def encode_out(message, conn):
        frame = original(message, conn)
        if frame[:1] == b"\x01":
            if rewrite is not None:
                frame = rewrite(frame)
            sent.append(frame)
        return frame

    monkeypatch.setattr(server, "_encode_out", encode_out)
    return sent


def kind1_frames(received: bytes) -> list[bytes]:
    """Cut the payload-bearing frames out of a binary client's stream
    (its welcome arrives first, in lines framing)."""
    _, _, rest = received.partition(b"\n")
    frames = []
    while rest:
        kind, length = _BINARY_FRAME.unpack_from(rest)
        end = _BINARY_FRAME.size + length
        if kind == 1:
            frames.append(rest[:end])
        rest = rest[end:]
    return frames


def rebuild_frame(frame: bytes, edit) -> bytes:
    """Re-frame a kind-1 frame after ``edit(header_dict) -> header bytes``."""
    body = frame[_BINARY_FRAME.size :]
    (header_len,) = struct.unpack_from(">I", body)
    header = json.loads(body[4 : 4 + header_len])
    blob = body[4 + header_len :]
    header_bytes = edit(header)
    body = struct.pack(">I", len(header_bytes)) + header_bytes + blob
    return _BINARY_FRAME.pack(1, len(body)) + body


def assert_true_tile(pyramid, response, key) -> None:
    assert response.tile.key == key
    truth = pyramid.fetch_tile(key, charge=False)
    # TilePayload equality compares dtype, shape and values, NaN == NaN.
    assert TilePayload.from_tile(response.tile) == TilePayload.from_tile(truth)


class TestPayloadPassThrough:
    def test_binary_client_receives_the_workers_bytes(
        self, tiny_dataset, monkeypatch
    ):
        grid = tiny_dataset.pyramid.grid
        config = ServiceConfig(prefetch=PrefetchPolicy(push="on"))
        with ThreadedClusterServer(
            tiny_dataset.pyramid,
            config,
            workers=2,
            engine_factory=lambda: make_engine(grid),
        ) as cluster:
            sent = [
                tap_worker_frames(monkeypatch, worker)
                for worker in cluster.workers
            ]
            with SocketTransport(
                *cluster.address, payload="binary", push=True, wire_tap=True
            ) as transport:
                assert transport.payload == "binary"
                client = transport.connect(session_id="pass-through")
                for move, key in _snake_walk(grid, TileKey(0, 0, 0), 16):
                    assert_true_tile(
                        tiny_dataset.pyramid, client.request(move, key), key
                    )
                client.close()
                received = kind1_frames(bytes(transport.wire_received))
        forwarded = sent[0] + sent[1]
        assert received
        # Replies and push frames alike: byte for byte what the workers
        # wrote, none re-encoded, none dropped.
        assert sorted(received) == sorted(forwarded)
        messages = [decode_wire(frame[5:]) for frame in received]
        assert any(isinstance(message, PushTile) for message in messages)

    def test_json_client_behind_binary_workers(
        self, tiny_dataset, monkeypatch
    ):
        grid = tiny_dataset.pyramid.grid
        with ThreadedClusterServer(
            tiny_dataset.pyramid,
            ServiceConfig(),
            workers=2,
            engine_factory=lambda: make_engine(grid),
        ) as cluster:
            sent = [
                tap_worker_frames(monkeypatch, worker)
                for worker in cluster.workers
            ]
            with SocketTransport(*cluster.address, wire_tap=True) as transport:
                assert transport.payload == "json"
                client = transport.connect(session_id="json-client")
                for move, key in _snake_walk(grid, TileKey(0, 0, 0), 12):
                    assert_true_tile(
                        tiny_dataset.pyramid, client.request(move, key), key
                    )
                client.close()
                received = bytes(transport.wire_received)
        # The workers spoke binary to the router ...
        assert sent[0] + sent[1]
        # ... and the client got plain JSON lines carrying full payloads.
        responses = [
            decode(line)
            for line in received.decode("utf-8").splitlines()
            if '"tile_response"' in line
        ]
        assert len(responses) == 12
        assert all(isinstance(r.payload, TilePayload) for r in responses)

    def test_oversized_forwarded_frame_is_a_typed_reply(self, tiny_dataset):
        grid = tiny_dataset.pyramid.grid
        from repro.middleware.cluster import ThreadedRouter

        worker = ThreadedSocketServer(
            tiny_dataset.pyramid,
            ServiceConfig(),
            engine_factory=lambda: make_engine(grid),
        )
        router = None
        try:
            address = worker.start()
            # A 32px tile's binary reply is ~8.7 KB: over the router's
            # client-facing budget, though the worker's link allows it.
            router = ThreadedRouter({"worker-0": address}, max_frame_bytes=4096)
            host, port = router.start()
            with SocketTransport(host, port, payload="binary") as transport:
                client = transport.connect(session_id="too-big")
                with pytest.raises(FrameTooLargeError):
                    client.request(None, TileKey(0, 0, 0))
                # Too big for this client is not a dead worker.
                assert router.router.alive_workers == ("worker-0",)
        finally:
            if router is not None:
                router.stop()
            worker.stop()

    @pytest.mark.parametrize("payload", ["binary", "json"])
    @pytest.mark.parametrize("damage", ["header", "descriptor"])
    def test_malformed_worker_frame_marks_the_worker_dead(
        self, tiny_dataset, monkeypatch, payload, damage
    ):
        def break_header(header):
            return b"{not json"

        def break_descriptor(header):
            header["payload"]["attributes"][0]["nbytes"] += 1
            return json.dumps(header).encode("utf-8")

        edit = break_header if damage == "header" else break_descriptor
        grid = tiny_dataset.pyramid.grid
        with ThreadedClusterServer(
            tiny_dataset.pyramid,
            ServiceConfig(),
            workers=2,
            engine_factory=lambda: make_engine(grid),
        ) as cluster:
            tap_worker_frames(
                monkeypatch,
                cluster.workers[0],
                rewrite=lambda frame: rebuild_frame(frame, edit),
            )
            router = cluster.router.router
            key = next(
                k
                for k in all_keys(grid, grid.deepest_level)
                if router.ring.owner(k) == "worker-0"
            )
            with SocketTransport(*cluster.address, payload=payload) as transport:
                assert transport.payload == payload
                client = transport.connect(session_id="broken-worker")
                with pytest.raises(WorkerUnavailableError):
                    client.request(None, key)
                assert router.alive_workers == ("worker-1",)
                # The ring re-mapped the key: the retry is served whole.
                assert_true_tile(
                    tiny_dataset.pyramid, client.request(None, key), key
                )
                client.close()


# ----------------------------------------------------------------------
# gossip convergence
# ----------------------------------------------------------------------
class TestGossip:
    @pytest.fixture
    def gossip_cluster(self, tiny_dataset):
        grid = tiny_dataset.pyramid.grid
        config = ServiceConfig(
            prefetch=PrefetchPolicy(shared_hotspots="observe")
        )
        with ThreadedClusterServer(
            tiny_dataset.pyramid,
            config,
            workers=2,
            engine_factory=lambda: make_engine(grid),
        ) as cluster:
            yield cluster

    def registries(self, cluster):
        return [
            worker.server.service.service.hotspot_registry
            for worker in cluster.workers
        ]

    def test_disjoint_hot_tiles_converge_to_one_snapshot(
        self, gossip_cluster
    ):
        reg_a, reg_b = self.registries(gossip_cluster)
        hot_a = TileKey(2, 0, 0)
        hot_b = TileKey(2, 3, 3)
        for _ in range(5):
            reg_a.observe(hot_a)
            reg_b.observe(hot_b)
        # Round 1 collects both locals into the router's merged view;
        # round 2 rebroadcasts it back — full convergence.
        gossip_cluster.gossip_once()
        view = gossip_cluster.gossip_once()
        merged = dict(view.snapshot(10))
        assert merged[hot_a] == pytest.approx(5.0)
        assert merged[hot_b] == pytest.approx(5.0)
        for registry in self.registries(gossip_cluster):
            local = dict(registry.snapshot(10))
            assert local[hot_a] == pytest.approx(5.0)
            assert local[hot_b] == pytest.approx(5.0)

    def test_gossip_is_idempotent_under_extra_rounds(self, gossip_cluster):
        reg_a, _ = self.registries(gossip_cluster)
        hot = TileKey(1, 1, 1)
        for _ in range(3):
            reg_a.observe(hot)
        for _ in range(4):
            view = gossip_cluster.gossip_once()
        # merge_max: rebroadcast loops do not inflate the weight.
        assert dict(view.snapshot(10))[hot] == pytest.approx(3.0)
        for registry in self.registries(gossip_cluster):
            assert dict(registry.snapshot(10))[hot] == pytest.approx(3.0)

    def test_gossip_skips_workers_without_registry(self, cluster2):
        # Default config: shared_hotspots="off", workers reply with a
        # typed error; the round completes with an empty view.
        view = cluster2.gossip_once()
        assert view.snapshot(10) == []

    def test_wire_message_roundtrip(self):
        message = HotspotGossip(entries=((2, 1, 1, 3.5),), tick=4)
        from repro.middleware.protocol import decode, encode

        assert decode(encode(message)) == message

    def test_merge_max_convergence_is_order_free(self):
        a = SharedHotspotRegistry(shards=1)
        b = SharedHotspotRegistry(shards=1)
        a.observe(TileKey(1, 0, 0), 4.0)
        b.observe(TileKey(1, 1, 1), 2.0)
        ab = SharedHotspotRegistry.from_snapshot(a.snapshot(10))
        ab.merge_max(b)
        ba = SharedHotspotRegistry.from_snapshot(b.snapshot(10))
        ba.merge_max(a)
        assert dict(ab.snapshot(10)) == dict(ba.snapshot(10))


# ----------------------------------------------------------------------
# spawn-context smoke
# ----------------------------------------------------------------------
class TestProcessCluster:
    def test_two_worker_spawn_boot_and_replay(self):
        from repro.modis.dataset import MODISDataset

        dataset = MODISDataset.build(size=64, tile_size=16, days=1, seed=7)
        grid = dataset.pyramid.grid
        with ProcessCluster(
            workers=2, size=64, tile_size=16, days=1, seed=7
        ) as cluster:
            assert len(cluster.worker_ports) == 2
            host, port = cluster.address
            transport = SocketTransport(host, port)
            try:
                client = transport.connect(session_id="spawn-smoke")
                walk = _snake_walk(grid, TileKey(0, 0, 0), 10)
                for move, key in walk:
                    response = client.request(move, key)
                    assert response.tile.key == key
                client.close()
            finally:
                transport.close()

    def test_hard_kill_surfaces_typed_error_and_cluster_survives(self):
        from repro.modis.dataset import MODISDataset

        dataset = MODISDataset.build(size=64, tile_size=16, days=1, seed=7)
        grid = dataset.pyramid.grid
        with ProcessCluster(
            workers=2, size=64, tile_size=16, days=1, seed=7
        ) as cluster:
            host, port = cluster.address
            transport = SocketTransport(host, port)
            try:
                client = transport.connect(session_id="kill-smoke")
                keys = all_keys(grid, grid.deepest_level)
                client.request(None, keys[0])
                cluster.kill_worker(0)
                errors = 0
                for key in keys:
                    try:
                        response = client.request(None, key)
                    except WorkerUnavailableError:
                        errors += 1
                        response = client.request(None, key)
                    assert response.tile.key == key
                assert errors >= 1
                client.close()
            finally:
                transport.close()
