"""Unit tests for the deployment configuration and the Section 3 storage fabric."""

from __future__ import annotations

import math

import pytest

from repro.config import DMPCConfig, ExperimentConfig
from repro.dynamic_mpc.state import MatchingFabric, VertexStats
from repro.graph.generators import gnm_random_graph, star_graph
from repro.graph.validation import greedy_maximal_matching
from repro.mpc.cluster import Cluster


class TestDMPCConfig:
    def test_basic_sizing(self):
        config = DMPCConfig(capacity_n=100, capacity_m=300)
        assert config.capacity_N == 400
        assert config.sqrt_N == math.isqrt(399) + 1
        assert config.machine_memory >= config.sqrt_N
        assert config.num_worker_machines >= 2
        assert config.heavy_threshold == max(2, math.isqrt(600))

    def test_worker_count_scales_like_sqrt_N(self):
        small = DMPCConfig(capacity_n=64, capacity_m=128)
        large = DMPCConfig(capacity_n=1024, capacity_m=2048)
        ratio = large.num_worker_machines / small.num_worker_machines
        size_ratio = math.sqrt(large.capacity_N / small.capacity_N)
        assert 0.5 * size_ratio <= ratio <= 2.5 * size_ratio

    def test_validation(self):
        with pytest.raises(ValueError):
            DMPCConfig(capacity_n=0, capacity_m=1)
        with pytest.raises(ValueError):
            DMPCConfig(capacity_n=1, capacity_m=-1)
        with pytest.raises(ValueError):
            DMPCConfig(capacity_n=1, capacity_m=1, memory_slack=0)

    def test_for_graph_constructor(self):
        config = DMPCConfig.for_graph(10, 20)
        assert config.capacity_n == 10
        assert config.capacity_m == 20
        assert not config.strict_memory

    def test_execution_knob_validation(self):
        with pytest.raises(ValueError, match="resident_slots"):
            DMPCConfig(capacity_n=1, capacity_m=1, resident_slots=0)
        with pytest.raises(ValueError, match="replan_every"):
            DMPCConfig(capacity_n=1, capacity_m=1, replan_every=0)
        with pytest.raises(ValueError, match="resident_shm_ring_bytes"):
            DMPCConfig(capacity_n=1, capacity_m=1, resident_shm_ring_bytes=512)

    def test_for_graph_forwards_execution_knobs(self):
        config = DMPCConfig.for_graph(10, 20, backend="resident", shard_count=3, resident_slots=2)
        assert (config.backend, config.shard_count, config.resident_slots) == ("resident", 3, 2)
        assert DMPCConfig.for_graph(10, 20).resident_slots is None  # min(shards, CPUs) default

    def test_pool_knobs_are_gone(self):
        """``resident_slots`` is the one worker-count knob; the pool knobs are not accepted."""
        for knob in ("max_workers", "process_chunk_machines"):
            with pytest.raises(TypeError, match=knob):
                DMPCConfig(capacity_n=1, capacity_m=1, **{knob: 2})
            with pytest.raises(TypeError, match=knob):
                DMPCConfig.for_graph(10, 20, **{knob: 2})

    def test_experiment_config_defaults(self):
        exp = ExperimentConfig()
        assert exp.seed == 2019
        assert len(exp.sizes) >= 2


def make_fabric(n: int = 16, m: int = 80) -> MatchingFabric:
    config = DMPCConfig.for_graph(n, m)
    cluster = Cluster(config)
    return MatchingFabric(cluster, config)


class TestMatchingFabric:
    def test_stats_roundtrip(self):
        fabric = make_fabric()
        stats = VertexStats(degree=3, mate=7, heavy=False)
        fabric.store_stats(2, stats)
        loaded = fabric.stats_of(2)
        assert loaded.degree == 3
        assert loaded.mate == 7
        assert fabric.mate_of(2) == 7
        assert not fabric.is_heavy(2)

    def test_query_and_push_stats_use_constant_machines(self):
        fabric = make_fabric()
        fabric.cluster.ledger.begin_update("probe")
        replies = fabric.query_stats([1, 2, 3])
        fabric.push_stats({1: VertexStats(degree=1)})
        fabric.cluster.ledger.end_update()
        assert set(replies) == {1, 2, 3}
        record = fabric.cluster.ledger.updates[-1]
        assert record.num_rounds == 3  # query (2 rounds) + push (1 round)
        assert record.max_active_machines <= 1 + fabric.config.stats_machine_count

    def test_load_initial_graph_places_all_edges(self):
        fabric = make_fabric(n=12, m=60)
        graph = gnm_random_graph(12, 30, seed=4)
        matching = greedy_maximal_matching(graph)
        fabric.load_initial_graph(graph, matching)
        for v in graph.vertices:
            assert set(fabric.all_neighbors(v)) == graph.neighbors(v)
        assert fabric.matching() == matching

    def test_heavy_vertex_split_into_alive_and_suspended(self):
        n = 30
        fabric = make_fabric(n=n, m=n)
        graph = star_graph(n)  # centre degree n-1 >> sqrt(2m)
        fabric.load_initial_graph(graph, {(0, 1)})
        stats = fabric.stats_of(0)
        assert stats.heavy
        assert stats.alive_machine is not None
        assert len(fabric.alive_neighbors(0)) <= fabric.threshold
        assert len(fabric.suspended_neighbors(0)) == (n - 1) - len(fabric.alive_neighbors(0))

    def test_update_vertex_free_neighbor_query_respects_history(self):
        fabric = make_fabric(n=8, m=40)
        graph = gnm_random_graph(8, 12, seed=5)
        fabric.load_initial_graph(graph, set())
        vertex = next(v for v in graph.vertices if graph.degree(v) > 0)
        neighbor = sorted(graph.neighbors(vertex))[0]
        stats = fabric.stats_of(vertex)
        reply = fabric.update_vertex(vertex, stats, query="free-neighbor")
        assert reply["free"] is not None
        # After recording a match for that neighbour, the machine must stop
        # reporting it as free (the history refresh carries the change).
        other = fabric.stats_of(neighbor)
        other.mate = 99
        fabric.record("match", neighbor, 99)
        reply = fabric.update_vertex(vertex, stats, query="free-neighbor", exclude=())
        assert reply["free"] != neighbor or reply["free"] is None or graph.degree(vertex) > 1

    def test_history_round_robin_refresh_bounds_staleness(self):
        fabric = make_fabric(n=10, m=40)
        graph = gnm_random_graph(10, 15, seed=6)
        fabric.load_initial_graph(graph, set())
        before = fabric.coordinator.history.last_seq
        fabric.record("insert", 0, 9)
        fabric.round_robin_refresh()
        assert fabric.coordinator.history.last_seq == before + 1
        # the refreshed machine's seen sequence catches up to the history head
        refreshed = [mid for mid, seq in fabric._machine_seen_seq.items() if seq == fabric.coordinator.history.last_seq]
        assert refreshed

    def test_counter_deltas_clamped_at_zero(self):
        fabric = make_fabric()
        fabric.store_stats(4, VertexStats(free_neighbors=1))
        fabric.push_counter_deltas({4: -5})
        assert fabric.stats_of(4).free_neighbors == 0
        fabric.push_counter_deltas({4: +3})
        assert fabric.stats_of(4).free_neighbors == 3
