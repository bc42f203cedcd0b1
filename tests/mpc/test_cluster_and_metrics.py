"""Unit tests for the cluster round engine and the metrics ledger."""

from __future__ import annotations

import pytest

from repro.config import DMPCConfig
from repro.exceptions import MessageSizeExceeded, ProtocolError, UnknownMachineError
from repro.mpc import Cluster, MetricsLedger, Message, RoundRecord, SuperstepProgram


class ReportProgram(SuperstepProgram):
    """Every machine but ``w0`` reports to ``w0``; each records its inbox size."""

    shared_writes = ("seen",)

    def run(self, ctx, inbox, shared):
        if ctx.machine_id != "w0":
            ctx.send("w0", "report", ctx.machine_id)
        return len(inbox)

    def apply(self, shared, machine_id, delta):
        shared["seen"][machine_id] = delta


def make_cluster(**kwargs) -> Cluster:
    config = DMPCConfig(capacity_n=32, capacity_m=64)
    return Cluster(config, **kwargs)


class TestCluster:
    def test_add_and_lookup_machines(self):
        cluster = make_cluster()
        cluster.add_machine("a", role="aux")
        cluster.add_machines("w", 3, role="worker")
        assert len(cluster) == 4
        assert cluster.machine_ids(role="worker") == ["w0", "w1", "w2"]
        assert "a" in cluster
        with pytest.raises(UnknownMachineError):
            cluster.machine("nope")

    def test_duplicate_machine_rejected(self):
        cluster = make_cluster()
        cluster.add_machine("a")
        with pytest.raises(ProtocolError):
            cluster.add_machine("a")

    def test_exchange_delivers_messages_and_records_round(self):
        cluster = make_cluster()
        a = cluster.add_machine("a")
        cluster.add_machine("b")
        a.send("b", "ping", 7)
        record = cluster.exchange()
        assert record.active_machines == 2
        assert record.message_count == 1
        assert cluster.machine("b").drain("ping")[0].payload == 7

    def test_exchange_to_unknown_machine_raises(self):
        cluster = make_cluster()
        a = cluster.add_machine("a")
        a.send("ghost", "ping", 1)
        with pytest.raises(UnknownMachineError):
            cluster.exchange()

    def test_io_cap_enforced_when_enabled(self):
        cluster = make_cluster(enforce_io_cap=True)
        a = cluster.add_machine("a")
        cluster.add_machine("b")
        a.send("b", "big", None, words=cluster.config.machine_memory + 1)
        with pytest.raises(MessageSizeExceeded):
            cluster.exchange()

    def test_io_cap_not_enforced_by_default(self):
        cluster = make_cluster()
        a = cluster.add_machine("a")
        cluster.add_machine("b")
        a.send("b", "big", None, words=cluster.config.machine_memory + 1)
        record = cluster.exchange()
        assert record.total_words > cluster.config.machine_memory

    def test_superstep_runs_handler_on_all_machines(self):
        cluster = make_cluster()
        cluster.add_machines("w", 3)
        shared = {"seen": {}}
        cluster.superstep(ReportProgram(), shared=shared)
        assert len(cluster.machine("w0").inbox) == 2
        assert shared["seen"] == {"w0": 0, "w1": 0, "w2": 0}

    def test_superstep_rejects_callables(self):
        cluster = make_cluster()
        cluster.add_machines("w", 2)

        def handler(machine, inbox):  # pragma: no cover - never called
            machine.send("w0", "report", 1)

        with pytest.raises(TypeError, match="SuperstepProgram"):
            cluster.superstep(handler)
        # a block is checked whole before any of its rounds runs
        with pytest.raises(TypeError, match="SuperstepProgram"):
            cluster.superstep_block([ReportProgram(), handler], shared={"seen": {}})
        assert cluster.ledger.next_round_index == 1

    def test_update_context_scopes_rounds(self):
        cluster = make_cluster()
        a = cluster.add_machine("a")
        cluster.add_machine("b")
        with cluster.update("insert:1-2"):
            a.send("b", "x", 1)
            cluster.exchange()
            a.send("b", "y", 2)
            cluster.exchange()
        record = cluster.ledger.updates[-1]
        assert record.label == "insert:1-2"
        assert record.num_rounds == 2

    def test_total_stored_words(self):
        cluster = make_cluster()
        a = cluster.add_machine("a")
        a.store("x", [1, 2, 3])
        assert cluster.total_stored_words == a.used_words


class TestMetricsLedger:
    def test_round_record_from_messages(self):
        msgs = [Message("a", "b", "t", 1), Message("b", "c", "t", [1, 2])]
        record = RoundRecord.from_messages(1, msgs)
        assert record.active_machines == 3
        assert record.message_count == 2
        assert record.total_words == sum(m.words for m in msgs)

    def test_update_bracketing_errors(self):
        ledger = MetricsLedger()
        with pytest.raises(ProtocolError):
            ledger.end_update()
        ledger.begin_update("u")
        with pytest.raises(ProtocolError):
            ledger.begin_update("v")
        ledger.end_update()

    def test_summary_aggregates_updates(self):
        ledger = MetricsLedger()
        for i in range(3):
            ledger.begin_update(f"op:{i}")
            ledger.record_round([Message("a", "b", "t", list(range(i + 1)))])
            ledger.record_round([Message("b", "a", "t", 1)])
            ledger.end_update()
        summary = ledger.summary("op:")
        assert summary.num_updates == 3
        assert summary.max_rounds == 2
        assert summary.max_active_machines == 2
        assert summary.total_words > 0

    def test_unlabelled_rounds_tracked(self):
        ledger = MetricsLedger()
        ledger.record_round([Message("a", "b", "t", 1)])
        assert ledger.updates[0].label == "<unlabelled>"

    def test_entropy_low_for_coordinator_pattern_high_for_spread(self):
        concentrated = MetricsLedger()
        concentrated.begin_update("u")
        for _ in range(8):
            concentrated.record_round([Message("hub", "m1", "t", 1)])
        concentrated.end_update()

        spread = MetricsLedger()
        spread.begin_update("u")
        for i in range(8):
            spread.record_round([Message(f"m{i}", f"m{i+1}", "t", 1)])
        spread.end_update()

        assert spread.communication_entropy() > concentrated.communication_entropy()

    def test_reset(self):
        ledger = MetricsLedger()
        ledger.begin_update("u")
        ledger.record_round([Message("a", "b", "t", 1)])
        ledger.end_update()
        ledger.reset()
        assert ledger.updates == []
