"""Unit tests for the runtime layer's individual policies.

Storage accounting, cap enforcement, transport delivery order, metrics
sampling and backend resolution — each policy tested in isolation, plus the
pinned guarantee that the fast backend still *enforces* the model caps when
they are explicitly enabled (it only relaxes metrics retention, never
enforcement).
"""

from __future__ import annotations

import contextlib
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import DMPCConfig
from repro.exceptions import MachineMemoryExceeded, MessageSizeExceeded, ProtocolError, UnknownMachineError
from repro.mpc import Cluster, Machine, MetricsLedger, RoundRecord, SuperstepProgram, rendezvous_shard
from repro.runtime import (
    BACKENDS,
    CachedStorage,
    FastBackend,
    ReferenceBackend,
    ReferenceStorage,
    ResidentBackend,
    ShardedBackend,
    ShardPlan,
    resolve_backend,
)


class TokenProbeProgram(SuperstepProgram):
    """Module-level (hence picklable) probe: store + shared in, delta + message out.

    Each machine reads its stored token, adds the shared offset, reports
    the sum to ``m0`` as a message and returns ``(pid, sum)`` as its delta —
    enough to observe *where* the run executed and that every data path
    (store slice, shared slice, sends, deltas) round-trips.
    """

    shared_reads = ("offset",)
    shared_writes = ("results",)
    store_reads = ("token",)

    def run(self, ctx, inbox, shared):
        value = ctx.load(("token", ctx.machine_id), 0) + shared["offset"]
        if ctx.machine_id != "m0":
            ctx.send("m0", "probe", value)
        return (os.getpid(), value)

    def apply(self, shared, machine_id, delta):
        shared["results"][machine_id] = delta


class UndeclaredReadProgram(SuperstepProgram):
    shared_reads = ("missing-key",)

    def run(self, ctx, inbox, shared):  # pragma: no cover - never reached
        return None


class ExplodingProgram(SuperstepProgram):
    """Raises on every odd-numbered machine, naming the machine."""

    def run(self, ctx, inbox, shared):
        if int(ctx.machine_id[1:]) % 2 == 1:
            raise RuntimeError(f"boom-{ctx.machine_id}")
        return None


class ReportToM0Program(SuperstepProgram):
    """Every machine but ``m0`` reports its number to ``m0``.

    Declares its sends worker-read, so a resident session may hold them at
    the workers (slot-routed) until the next round consumes them there.
    """

    driver_reads_sends = False

    def run(self, ctx, inbox, shared):
        if ctx.machine_id != "m0":
            ctx.send("m0", "report", int(ctx.machine_id[1:]))
        return None


class FunnelledReportProgram(ReportToM0Program):
    """The same sends, declared driver-read: they funnel back every round."""

    driver_reads_sends = True


class CollectInboxProgram(SuperstepProgram):
    """Each machine returns the payloads of its inbox, in delivery order."""

    shared_writes = ("seen",)

    def run(self, ctx, inbox, shared):
        return [msg.payload for msg in inbox]

    def apply(self, shared, machine_id, delta):
        shared["seen"][machine_id] = delta


def make_cluster(backend: str, **kwargs) -> Cluster:
    config = kwargs.pop("config", None) or DMPCConfig(capacity_n=32, capacity_m=64, backend=backend)
    return Cluster(config, **kwargs)


# ---------------------------------------------------------------------- sizing
class TestFastWordSize:
    """fast_word_size must agree with word_size on every input."""

    payloads = st.recursive(
        st.one_of(
            st.none(),
            st.booleans(),
            st.integers(),
            st.floats(allow_nan=False),
            st.text(max_size=30),
            st.binary(max_size=30),
        ),
        lambda children: st.one_of(
            st.lists(children, max_size=6),
            st.lists(children, max_size=6).map(tuple),
            st.dictionaries(st.one_of(st.integers(), st.text(max_size=8)), children, max_size=6),
            st.lists(st.integers(), max_size=6).map(frozenset),
        ),
        max_leaves=25,
    )

    @settings(max_examples=200, deadline=None)
    @given(payload=payloads)
    def test_matches_reference_on_arbitrary_payloads(self, payload):
        from repro.mpc.sizing import fast_word_size, word_size

        assert fast_word_size(payload) == word_size(payload)

    def test_matches_reference_on_package_objects(self):
        from repro.dynamic_mpc.state import VertexStats
        from repro.mpc.coordinator import HistoryEntry
        from repro.mpc.sizing import fast_word_size, word_size

        class IntSubclass(int):
            pass

        class DictWithWords(dict):
            def dmpc_words(self) -> int:
                return 42

        for payload in (
            VertexStats(degree=3, mate=1, suspended_machines=["edge1", "edge2"]),
            HistoryEntry(seq=1, kind="insert", u=0, v=1),
            [VertexStats(), {"k": (HistoryEntry(seq=2, kind="delete", u=2, v=3), None)}],
            IntSubclass(7),
            DictWithWords(a=1),
            "",
            b"",
        ):
            assert fast_word_size(payload) == word_size(payload)


# --------------------------------------------------------------------- storage
class TestStorageEquivalence:
    ops = st.lists(
        st.one_of(
            st.tuples(st.just("store"), st.integers(0, 7), st.integers(0, 5)),
            st.tuples(st.just("delete"), st.integers(0, 7), st.just(0)),
            st.tuples(st.just("read"), st.just(0), st.just(0)),
        ),
        min_size=1,
        max_size=60,
    )

    @settings(max_examples=60, deadline=None)
    @given(ops=ops)
    def test_cached_matches_reference_accounting(self, ops):
        """used_words agrees at every read point, for interleaved store/delete/read."""
        reference = ReferenceStorage("m", 10**9, strict=False)
        cached = CachedStorage("m", 10**9, strict=False)
        for op, key, size in ops:
            if op == "store":
                value = {("k", i): [i, i + 1] for i in range(size)}
                reference.store(("slot", key), value)
                cached.store(("slot", key), value)
            elif op == "delete":
                reference.delete(("slot", key))
                cached.delete(("slot", key))
            else:
                assert cached.used_words == reference.used_words
        assert cached.used_words == reference.used_words
        assert sorted(map(repr, cached.keys())) == sorted(map(repr, reference.keys()))

    def test_cached_strict_raises_at_same_store(self):
        reference = ReferenceStorage("m", 16, strict=True)
        cached = CachedStorage("m", 16, strict=True)
        for storage in (reference, cached):
            storage.store("a", [1, 2, 3])
        with pytest.raises(MachineMemoryExceeded) as ref_err:
            reference.store("b", list(range(16)))
        with pytest.raises(MachineMemoryExceeded) as fast_err:
            cached.store("b", list(range(16)))
        assert ref_err.value.used == fast_err.value.used
        assert ref_err.value.requested == fast_err.value.requested
        # the failed store must not corrupt the accounting
        assert reference.used_words == cached.used_words

    def test_cached_overwrite_and_delete_release_words(self):
        cached = CachedStorage("m", 10**9, strict=False)
        cached.store("k", list(range(50)))
        assert cached.used_words > 50
        cached.store("k", 1)
        reference = ReferenceStorage("m", 10**9, strict=False)
        reference.store("k", 1)
        assert cached.used_words == reference.used_words
        cached.delete("k")
        assert cached.used_words == 0

    def test_machine_standalone_defaults_to_reference_storage(self):
        machine = Machine("solo", 64)
        assert isinstance(machine.storage, ReferenceStorage)
        machine.store("x", [1, 2, 3])
        assert machine.used_words == machine.storage.used_words


# ------------------------------------------------------------- cap enforcement
class TestFastBackendEnforcesCaps:
    """Pinned guarantee: `fast` relaxes metrics retention, never enforcement."""

    def test_fast_backend_raises_machine_memory_exceeded(self):
        config = DMPCConfig(capacity_n=32, capacity_m=64, strict_memory=True, backend="fast")
        cluster = Cluster(config)
        machine = cluster.add_machine("a", capacity=16)
        with pytest.raises(MachineMemoryExceeded):
            machine.store("big", list(range(64)))

    def test_fast_backend_raises_message_size_exceeded(self):
        cluster = make_cluster("fast", enforce_io_cap=True)
        a = cluster.add_machine("a")
        cluster.add_machine("b")
        a.send("b", "big", None, words=cluster.config.machine_memory + 1)
        with pytest.raises(MessageSizeExceeded):
            cluster.exchange()

    def test_fast_backend_receive_cap_enforced(self):
        cluster = make_cluster("fast", enforce_io_cap=True)
        cluster.add_machines("s", 3)
        cluster.add_machine("sink")
        over = cluster.config.machine_memory // 2 + 1
        for sender in cluster.machines(role="worker"):
            if sender.machine_id != "sink":
                sender.send("sink", "blob", None, words=over)
        with pytest.raises(MessageSizeExceeded) as err:
            cluster.exchange()
        assert err.value.direction == "receive"

    def test_fast_backend_unknown_receiver_raises(self):
        cluster = make_cluster("fast")
        a = cluster.add_machine("a")
        a.send("ghost", "ping", 1)
        with pytest.raises(UnknownMachineError):
            cluster.exchange()

    def test_fast_backend_caps_off_by_default(self):
        cluster = make_cluster("fast")
        a = cluster.add_machine("a")
        cluster.add_machine("b")
        a.send("b", "big", None, words=cluster.config.machine_memory + 1)
        record = cluster.exchange()
        assert record.total_words > cluster.config.machine_memory


# ------------------------------------------------------------------- transport
class TestTransportParity:
    @pytest.mark.parametrize("backend", ["fast", "sharded", "resident"])
    def test_delivery_order_matches_reference(self, backend):
        """Staging order must not leak into delivery order: registration order rules."""
        inboxes = {}
        for name in ("reference", backend):
            config = DMPCConfig(capacity_n=32, capacity_m=64, backend=name, shard_count=3)
            cluster = Cluster(config)
            machines = cluster.add_machines("m", 7)
            cluster.add_machine("sink")
            # Stage in an order different from registration order.
            for machine in reversed(machines):
                machine.send("sink", "probe", machine.machine_id)
            cluster.exchange()
            inboxes[name] = [msg.payload for msg in cluster.machine("sink").inbox]
        assert inboxes[backend] == inboxes["reference"] == [f"m{i}" for i in range(7)]

    @pytest.mark.parametrize("backend", ["fast", "sharded", "resident"])
    def test_discard_undelivered_clears_staged_state(self, backend):
        cluster = make_cluster(backend)
        a = cluster.add_machine("a")
        cluster.add_machine("b")
        a.send("b", "x", 1)
        cluster.discard_undelivered()
        record = cluster.exchange()
        assert record.message_count == 0
        assert cluster.machine("b").inbox == []

    @pytest.mark.parametrize("backend", ["sharded", "resident"])
    def test_message_words_match_reference_sizer(self, backend):
        """The transport message sizer must charge exactly the reference words."""
        payloads = [None, 7, "tagged-payload", [1, 2, (3, 4)], {"k": [5, 6]}, {("a", 1): {2, 3}}]
        words = {}
        for name in ("reference", backend):
            cluster = make_cluster(name)
            a = cluster.add_machine("a")
            cluster.add_machine("b")
            staged = [a.send("b", "t", payload) for payload in payloads]
            words[name] = [msg.words for msg in staged]
        assert words[backend] == words["reference"]

    def test_sharded_io_caps_still_enforced(self):
        cluster = make_cluster("sharded", enforce_io_cap=True)
        a = cluster.add_machine("a")
        cluster.add_machine("b")
        a.send("b", "big", None, words=cluster.config.machine_memory + 1)
        with pytest.raises(MessageSizeExceeded):
            cluster.exchange()

    def test_sharded_unknown_receiver_raises(self):
        cluster = make_cluster("sharded")
        a = cluster.add_machine("a")
        a.send("ghost", "ping", 1)
        with pytest.raises(UnknownMachineError):
            cluster.exchange()


# ------------------------------------------------------------------ accounting
class TestAccountingPolicies:
    def run_rounds(self, backend: str, *, metrics_sampling: int = 0):
        config = DMPCConfig(capacity_n=32, capacity_m=64, backend=backend, metrics_sampling=metrics_sampling)
        cluster = Cluster(config)
        a = cluster.add_machine("a")
        cluster.add_machine("b")
        records = []
        for i in range(4):
            a.send("b", "t", [i, i + 1])
            records.append(cluster.exchange())
            cluster.machine("b").drain()
        return cluster, records

    def test_fast_scalar_aggregates_match_reference(self):
        _, ref_records = self.run_rounds("reference")
        _, fast_records = self.run_rounds("fast")
        for ref, fast in zip(ref_records, fast_records):
            assert (ref.round_index, ref.active_machines, ref.total_words, ref.message_count, ref.max_message_words) == (
                fast.round_index,
                fast.active_machines,
                fast.total_words,
                fast.message_count,
                fast.max_message_words,
            )

    def test_fast_drops_pair_detail_by_default(self):
        cluster, records = self.run_rounds("fast")
        assert all(record.pair_words == {} for record in records)
        assert cluster.ledger.communication_entropy() == 0.0

    def test_fast_metrics_sampling_retains_pair_detail(self):
        cluster, records = self.run_rounds("fast", metrics_sampling=2)
        sampled = [record for record in records if record.pair_words]
        assert sampled and len(sampled) < len(records)
        assert all(record.pair_words == {("a", "b"): record.total_words} for record in sampled)

    def test_reference_always_retains_pair_detail(self):
        _, records = self.run_rounds("reference")
        assert all(record.pair_words for record in records)

    def test_replay_update_public_api(self):
        _, records = self.run_rounds("reference")
        scratch = MetricsLedger()
        scratch.replay_update("copy", records)
        assert scratch.updates[0].label == "copy"
        assert scratch.updates[0].num_rounds == len(records)
        assert scratch.summary().total_words == sum(record.total_words for record in records)


# -------------------------------------------------------------------- sharding
class TestShardPlan:
    def test_index_strategy_round_robins_registration_order(self):
        cluster = make_cluster("reference")
        machines = cluster.add_machines("m", 7)
        plan = ShardPlan(3)
        assert [plan.shard_of(m) for m in machines] == [0, 1, 2, 0, 1, 2, 0]
        buckets = plan.partition(machines)
        assert [len(b) for b in buckets] == [3, 2, 2]
        # relative (registration) order preserved inside every bucket
        for bucket in buckets:
            assert [m.index for m in bucket] == sorted(m.index for m in bucket)

    def test_rendezvous_strategy_uses_machine_ids(self):
        cluster = make_cluster("reference")
        machines = cluster.add_machines("m", 16)
        plan = ShardPlan(4, strategy="rendezvous")
        shards = [plan.shard_of(m) for m in machines]
        assert shards == [rendezvous_shard(m.machine_id, 4) for m in machines]
        assert len(set(shards)) > 1

    def test_rendezvous_shard_is_stable_and_minimally_disruptive(self):
        keys = [f"m{i}" for i in range(200)]
        before = {k: rendezvous_shard(k, 4) for k in keys}
        assert before == {k: rendezvous_shard(k, 4) for k in keys}  # deterministic
        assert set(before.values()) == {0, 1, 2, 3}
        after = {k: rendezvous_shard(k, 5) for k in keys}
        moved = sum(1 for k in keys if before[k] != after[k])
        # HRW property: growing K by one moves only ~1/(K+1) of the keys.
        assert moved < len(keys) // 2

    def test_invalid_plans_rejected(self):
        with pytest.raises(ValueError):
            ShardPlan(0)
        with pytest.raises(ValueError):
            ShardPlan(2, strategy="mystery")
        with pytest.raises(ValueError):
            rendezvous_shard("m0", 0)

    def test_config_shard_count_and_strategy_reach_the_plan(self):
        config = DMPCConfig(capacity_n=32, capacity_m=64, backend="sharded", shard_count=5)
        cluster = Cluster(config)
        assert cluster.backend.plan.shard_count == 5
        assert cluster.backend.plan.strategy == "index"
        hrw = DMPCConfig(
            capacity_n=32, capacity_m=64, backend="resident", shard_count=4, shard_strategy="rendezvous"
        )
        assert Cluster(hrw).backend.plan.strategy == "rendezvous"
        with pytest.raises(ValueError, match="shard_strategy"):
            DMPCConfig(capacity_n=32, capacity_m=64, shard_strategy="mystery")

    def test_shard_load_diagnostic_sums_round_words(self):
        config = DMPCConfig(capacity_n=32, capacity_m=64, backend="sharded", shard_count=2)
        cluster = Cluster(config)
        machines = cluster.add_machines("m", 4)
        cluster.add_machine("sink")
        for machine in machines:
            machine.send("sink", "t", [1, 2, 3])
        record = cluster.exchange()
        load = cluster._transport.shard_load()
        assert len(load) == 2
        assert sum(load) == record.total_words
        assert all(words > 0 for words in load)  # m0/m2 -> shard 0, m1/m3 -> shard 1


class TestFusedAccountingParity:
    """The sharded fused-delivery records must equal the factory-built ones."""

    def run_rounds(self, backend: str, *, metrics_sampling: int = 0):
        config = DMPCConfig(
            capacity_n=32, capacity_m=64, backend=backend, metrics_sampling=metrics_sampling, shard_count=3
        )
        cluster = Cluster(config)
        machines = cluster.add_machines("m", 5)
        records = []
        for i in range(6):
            for machine in machines[1:]:
                machine.send("m0", "t", [i, machine.index])
            records.append(cluster.exchange())
            cluster.machine("m0").drain()
        return records

    @pytest.mark.parametrize("sampling", [0, 2])
    def test_records_identical_to_fast_factory(self, sampling):
        fast_records = self.run_rounds("fast", metrics_sampling=sampling)
        sharded_records = self.run_rounds("sharded", metrics_sampling=sampling)
        assert sharded_records == fast_records
        for fast_record, sharded_record in zip(fast_records, sharded_records):
            assert sharded_record.pair_words == fast_record.pair_words

    def test_sampling_retains_pair_detail_on_sampled_rounds(self):
        records = self.run_rounds("sharded", metrics_sampling=2)
        sampled = [r for r in records if r.pair_words]
        assert sampled and len(sampled) < len(records)
        for record in sampled:
            assert sum(record.pair_words.values()) == record.total_words

    def test_append_round_guards_the_counter(self):
        ledger = MetricsLedger()
        record = RoundRecord(round_index=5, active_machines=0, total_words=0, message_count=0, max_message_words=0)
        with pytest.raises(ProtocolError):
            ledger.append_round(record)
        assert ledger.next_round_index == 1
        ok = RoundRecord(round_index=1, active_machines=0, total_words=0, message_count=0, max_message_words=0)
        ledger.append_round(ok)
        assert ledger.next_round_index == 2


# ------------------------------------------------------------- shared ledgers
class TestSharedLedgerPolicy:
    """Regression: Cluster must not clobber an externally supplied ledger's policy."""

    def make_config(self, backend: str) -> DMPCConfig:
        return DMPCConfig(capacity_n=32, capacity_m=64, backend=backend)

    def test_conflicting_backend_policies_raise(self):
        ledger = MetricsLedger()
        Cluster(self.make_config("reference"), ledger=ledger)
        with pytest.raises(ProtocolError, match="accounting policy"):
            Cluster(self.make_config("fast"), ledger=ledger)

    def test_same_policy_may_share_a_ledger(self):
        ledger = MetricsLedger()
        first = Cluster(self.make_config("fast"), ledger=ledger)
        second = Cluster(self.make_config("fast"), ledger=ledger)
        assert first.ledger is second.ledger
        a = first.add_machine("a")
        first.add_machine("b")
        a.send("b", "t", 1)
        first.exchange()
        b = second.add_machine("b")
        second.add_machine("c")
        b.send("c", "t", 2)
        second.exchange()
        assert ledger.next_round_index == 3  # one shared round stream

    def test_aggregate_backends_share_one_policy_name(self):
        """fast/sharded/resident condense rounds identically, so they may mix."""
        ledger = MetricsLedger()
        Cluster(self.make_config("fast"), ledger=ledger)
        Cluster(self.make_config("sharded"), ledger=ledger)
        Cluster(self.make_config("resident"), ledger=ledger)

    @pytest.mark.parametrize("backend", ["fast", "sharded", "resident"])
    def test_custom_factory_never_clobbered(self, backend):
        def custom_factory(round_index, messages):
            return RoundRecord(
                round_index=round_index, active_machines=-1, total_words=0, message_count=0, max_message_words=0
            )

        ledger = MetricsLedger(round_record_factory=custom_factory)
        cluster = Cluster(self.make_config(backend), ledger=ledger)
        assert ledger.round_record_factory is custom_factory
        assert ledger.record_policy is None
        # ... and every delivery path must actually invoke it, including the
        # sharded fused path (which falls back to the factory path here).
        a = cluster.add_machine("a")
        cluster.add_machine("b")
        a.send("b", "t", [1, 2, 3])
        record = cluster.exchange()
        assert record.active_machines == -1  # unmistakably the custom factory's record
        assert cluster.machine("b").drain()[0].payload == [1, 2, 3]

    def test_factory_reassigned_after_construction_is_honoured(self):
        """The historical pattern: assign ledger.round_record_factory post-construction."""

        def custom_factory(round_index, messages):
            return RoundRecord(
                round_index=round_index, active_machines=-7, total_words=0, message_count=0, max_message_words=0
            )

        cluster = Cluster(self.make_config("sharded"))
        cluster.ledger.round_record_factory = custom_factory
        assert cluster.ledger.record_policy is None  # adoption no longer governs
        a = cluster.add_machine("a")
        cluster.add_machine("b")
        a.send("b", "t", [4, 5])
        record = cluster.exchange()
        assert record.active_machines == -7
        # ... and the shard-load diagnostic stays accurate on the fallback path.
        load = cluster._transport.shard_load()
        assert sum(load) == sum(msg.words for msg in cluster.machine("b").inbox)

    def test_fresh_ledger_adopts_backend_policy(self):
        cluster = Cluster(self.make_config("fast"))
        a = cluster.add_machine("a")
        cluster.add_machine("b")
        a.send("b", "t", [1, 2])
        record = cluster.exchange()
        assert record.pair_words == {}  # aggregate policy, not the stock full-detail one


# ------------------------------------------------------------ resident backend
class TestResidentSuperstep:
    """The resident backend's superstep paths: in-session workers, sequential outside."""

    def make_resident_cluster(
        self, *, machines: int = 9, shard_count: int = 4, resident_slots: int = 2, **extra
    ) -> Cluster:
        config = DMPCConfig(
            capacity_n=64,
            capacity_m=128,
            backend="resident",
            shard_count=shard_count,
            resident_slots=resident_slots,
            **extra,
        )
        cluster = Cluster(config)
        for i, machine in enumerate(cluster.add_machines("m", machines)):
            machine.store(("token", machine.machine_id), 10 * i)
        return cluster

    def run_probe(self, cluster: Cluster, *, session: bool = True) -> dict:
        shared = {"offset": 7, "results": {}}
        if session:
            with cluster.session(shared):
                cluster.superstep(TokenProbeProgram(), shared=shared)
        else:
            cluster.superstep(TokenProbeProgram(), shared=shared)
        return shared["results"]

    def assert_probe_observable(self, cluster: Cluster, results: dict) -> None:
        machines = cluster.machines()
        assert [results[m.machine_id][1] for m in machines] == [10 * i + 7 for i in range(len(machines))]
        inbox = cluster.machine("m0").drain("probe")
        # registration delivery order, identical to every in-process backend
        assert [msg.payload for msg in inbox] == [10 * i + 7 for i in range(1, len(machines))]

    def test_session_round_trip_crosses_process_boundary(self):
        cluster = self.make_resident_cluster()
        results = self.run_probe(cluster)
        assert cluster.backend.last_superstep_mode == "resident"
        self.assert_probe_observable(cluster, results)
        worker_pids = {pid for pid, _ in results.values()}
        assert os.getpid() not in worker_pids  # every run happened elsewhere

    def test_outside_a_session_runs_sequentially_in_the_driver(self):
        cluster = self.make_resident_cluster()
        results = self.run_probe(cluster, session=False)
        assert cluster.backend.last_superstep_mode == "sequential"
        self.assert_probe_observable(cluster, results)
        assert {pid for pid, _ in results.values()} == {os.getpid()}  # never left the driver

    def test_single_slot_session_still_crosses_process_boundary(self):
        """One slot is a real residency, not a fallback to the driver."""
        cluster = self.make_resident_cluster(resident_slots=1)
        assert cluster.backend.worker_slots == 1
        results = self.run_probe(cluster)
        assert cluster.backend.last_superstep_mode == "resident"
        self.assert_probe_observable(cluster, results)
        worker_pids = {pid for pid, _ in results.values()}
        assert len(worker_pids) == 1 and os.getpid() not in worker_pids

    def test_single_shard_clamps_to_one_slot(self):
        cluster = self.make_resident_cluster(shard_count=1, resident_slots=2)
        assert cluster.backend.worker_slots == 1  # a slot with no shards would idle
        results = self.run_probe(cluster)
        self.assert_probe_observable(cluster, results)
        assert len({pid for pid, _ in results.values()}) == 1

    def test_default_slots_bounded_by_plan_and_cpu(self):
        default = ResidentBackend(DMPCConfig(capacity_n=32, capacity_m=64, shard_count=3))
        assert default.worker_slots == max(1, min(3, os.cpu_count() or 1))
        pinned = ResidentBackend(DMPCConfig(capacity_n=32, capacity_m=64, shard_count=3, resident_slots=2))
        assert pinned.worker_slots == 2
        clamped = ResidentBackend(DMPCConfig(capacity_n=32, capacity_m=64, shard_count=3, resident_slots=7))
        assert clamped.worker_slots == 3

    @pytest.mark.parametrize("session", [False, True], ids=["driver", "session"])
    def test_program_errors_propagate_deterministically(self, session):
        """The lowest failing machine's error surfaces, in or out of a session."""
        cluster = self.make_resident_cluster()
        shared: dict = {}
        with cluster.session(shared) if session else contextlib.nullcontext():
            with pytest.raises(RuntimeError, match="boom-m1"):
                cluster.superstep(ExplodingProgram(), shared=shared)

    @pytest.mark.parametrize("program", [ReportToM0Program, FunnelledReportProgram], ids=["routed", "funnelled"])
    def test_session_inbox_delivery_order(self, program):
        """Worker-held and funnelled sends reach the next round in registration order."""
        cluster = self.make_resident_cluster()
        shared = {"seen": {}}
        with cluster.session(shared):
            cluster.superstep(program(), shared=shared)
            cluster.superstep(CollectInboxProgram(), shared=shared)
        assert shared["seen"]["m0"] == list(range(1, 9))
        assert all(shared["seen"][f"m{i}"] == [] for i in range(1, 9))
        traffic = cluster.backend.last_session_traffic
        routed = traffic["local_messages"] + traffic["cross_slot_messages"]
        # driver-read sends never route; worker-read ones never funnel
        assert routed == (8 if program is ReportToM0Program else 0)

    def test_misdeclared_driver_read_stays_exact(self):
        """A program declaring worker-read sends the driver then reads: the
        safety flush hands the driver the complete inbox, in reference order."""
        cluster = self.make_resident_cluster()
        shared: dict = {}
        with cluster.session(shared):
            cluster.superstep(ReportToM0Program(), shared=shared)
            payloads = [msg.payload for msg in cluster.machine("m0").drain("report")]
        assert payloads == list(range(1, 9))
        assert cluster.machine("m0").inbox == []

    def test_session_rejects_callables_before_any_round(self):
        cluster = self.make_resident_cluster()
        shared = {"offset": 7, "results": {}}

        def handler(machine, inbox):  # pragma: no cover - never called
            return None

        with cluster.session(shared):
            before = cluster.ledger.next_round_index
            with pytest.raises(TypeError, match="SuperstepProgram"):
                cluster.superstep_block([TokenProbeProgram(), handler], shared=shared)
            assert cluster.ledger.next_round_index == before
            assert shared["results"] == {}
            # the session is still live: the next real round runs resident
            cluster.superstep(TokenProbeProgram(), shared=shared)
        assert cluster.backend.last_superstep_mode == "resident"
        self.assert_probe_observable(cluster, shared["results"])

    def test_env_var_selection_round_trip(self, monkeypatch):
        """REPRO_BACKEND=resident: resolution, construction and a session run."""
        monkeypatch.setenv("REPRO_BACKEND", "resident")
        config = DMPCConfig(capacity_n=64, capacity_m=128, shard_count=4, resident_slots=2)
        assert resolve_backend(None, config).name == "resident"
        cluster = Cluster(config)
        assert isinstance(cluster.backend, ResidentBackend)
        for i, machine in enumerate(cluster.add_machines("m", 9)):
            machine.store(("token", machine.machine_id), 10 * i)
        results = self.run_probe(cluster)
        assert cluster.backend.last_superstep_mode == "resident"
        self.assert_probe_observable(cluster, results)

    def test_undeclared_shared_read_is_a_loud_error(self):
        cluster = self.make_resident_cluster()
        shared = {"offset": 1}
        with cluster.session(shared):
            with pytest.raises(KeyError, match="missing-key"):
                cluster.superstep(UndeclaredReadProgram(), shared=shared)

    def test_broken_session_falls_back_to_sequential(self):
        """After a session breaks, ``resident`` is the sharded backend again."""
        cluster = self.make_resident_cluster()
        shared = {"offset": 7, "results": {}}
        with cluster.session(shared) as session:
            with pytest.raises(KeyError, match="missing-key"):
                cluster.superstep(UndeclaredReadProgram(), shared=shared)
            assert session._broken
            cluster.superstep(TokenProbeProgram(), shared=shared)
            assert cluster.backend.last_superstep_mode == "sequential"
        self.assert_probe_observable(cluster, shared["results"])
        assert {pid for pid, _ in shared["results"].values()} == {os.getpid()}

    def test_store_blobs_memoised_until_version_bump(self):
        cluster = self.make_resident_cluster()
        backend = cluster.backend
        machine = cluster.machine("m0")
        blob = backend._store_blob(machine, ("token",))
        assert backend._store_blob(machine, ("token",)) is blob  # cached bytes reused
        machine.store(("token", "m0"), 999)
        fresh = backend._store_blob(machine, ("token",))
        assert fresh is not blob

    def test_matches_reference_backend_observables(self):
        outcomes = {}
        for backend in ("reference", "resident"):
            config = DMPCConfig(
                capacity_n=64, capacity_m=128, backend=backend, shard_count=4, resident_slots=2
            )
            cluster = Cluster(config)
            for i, machine in enumerate(cluster.add_machines("m", 9)):
                machine.store(("token", machine.machine_id), 10 * i)
            shared = {"offset": 3, "results": {}}
            with cluster.session(shared):
                record = cluster.superstep(TokenProbeProgram(), shared=shared)
            outcomes[backend] = (
                record.message_count,
                record.total_words,
                record.active_machines,
                {mid: value for mid, (_, value) in shared["results"].items()},
            )
        assert outcomes["resident"] == outcomes["reference"]


# ------------------------------------------------------------------ resolution
class TestBackendResolution:
    def test_registry_names(self):
        assert set(BACKENDS) == {"reference", "fast", "sharded", "resident"}

    def test_config_selects_backend(self):
        assert make_cluster("fast").backend.name == "fast"
        assert make_cluster("reference").backend.name == "reference"

    def test_explicit_argument_beats_config(self):
        config = DMPCConfig(capacity_n=32, capacity_m=64, backend="reference")
        assert Cluster(config, backend="fast").backend.name == "fast"

    def test_backend_instance_passthrough(self):
        config = DMPCConfig(capacity_n=32, capacity_m=64)
        backend = FastBackend(config)
        assert Cluster(config, backend=backend).backend is backend

    def test_env_var_fallback(self, monkeypatch):
        config = DMPCConfig(capacity_n=32, capacity_m=64)
        monkeypatch.setenv("REPRO_BACKEND", "fast")
        assert resolve_backend(None, config).name == "fast"
        monkeypatch.delenv("REPRO_BACKEND")
        assert resolve_backend(None, config).name == "reference"

    def test_config_beats_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "fast")
        config = DMPCConfig(capacity_n=32, capacity_m=64, backend="reference")
        assert resolve_backend(None, config).name == "reference"

    def test_unknown_backend_rejected(self):
        config = DMPCConfig(capacity_n=32, capacity_m=64, backend="warp")
        with pytest.raises(ValueError, match="unknown execution backend"):
            Cluster(config)

    def test_guarantees_surface(self):
        config = DMPCConfig(capacity_n=32, capacity_m=64)
        assert ReferenceBackend(config).guarantees["full_metrics"]
        for backend_cls in (FastBackend, ShardedBackend, ResidentBackend):
            guarantees = backend_cls(config).guarantees
            assert guarantees["strict_memory"] and guarantees["io_cap"] and guarantees["exact_accounting"]
            assert not guarantees["full_metrics"]
