"""Static MPC maximal matching by randomized proposal rounds.

A distributed maximal matching in the spirit of Israeli–Itai [23] — the
algorithm the paper invokes for the preprocessing of its Section 3 dynamic
matching ("compute a maximal matching in O(log n) rounds with the
randomized CONGEST algorithm").  Each round:

1. every still-free vertex picks one free neighbour pseudo-randomly and
   *proposes* to it (one message along the chosen edge);
2. every free vertex that received proposals *accepts* exactly one
   (lowest-id free proposer), and the accepted pairs join the matching;
3. matched vertices announce their new status to their neighbours' owners
   so dead edges are pruned.

With constant probability a constant fraction of the edges incident to free
vertices disappears each round, so the process finishes in ``O(log n)``
rounds with high probability — with **all** machines active and ``Theta(m)``
words shuffled per round, which is the baseline cost the dynamic algorithm
of Section 3 avoids.

The proposal choice is drawn from a stable per-``(seed, round, vertex)``
mixer rather than one shared RNG stream: a shared stream's consumption
order would depend on machine execution order, while the mixer makes every
machine's choices a pure function of driver state — which, together with
the explicit program contract, lets the ``resident`` backend run the
per-machine phases in other processes and still produce the identical
matching.  The proposal and announcement
phases are module-level picklable programs (:class:`MatchingProposeProgram`,
:class:`MatchingAnnounceProgram`) routed through :meth:`Cluster.superstep`;
the acceptance phase is a global driver decision (it resolves cross-shard
proposal conflicts), exactly as a coordinator round would.  Edge pruning —
historically an in-place ``free_adj`` mutation at the top of the proposal
handler — is computed against a read-your-own-writes local view and merged
back as a delta at the round barrier.
"""

from __future__ import annotations

from typing import Any, Mapping, MutableMapping

from repro.graph.graph import DynamicGraph, normalize_edge
from repro.mpc.layout import AliveTable, numpy_or_none
from repro.mpc.program import MachineContext
from repro.static_mpc.common import StaticMPCSetup, VertexProgram, build_static_cluster

__all__ = [
    "StaticMaximalMatching",
    "MatchingProposeProgram",
    "MatchingAnnounceProgram",
    "CSRMatchingProposeProgram",
    "CSRMatchingAnnounceProgram",
]

_MASK = (1 << 64) - 1


def _mix(seed: int, round_index: int, vertex: int) -> int:
    """SplitMix64-style stable mixer: pseudo-random, independent of any order."""
    x = (
        seed * 0x9E3779B97F4A7C15
        + round_index * 0xBF58476D1CE4E5B9
        + vertex * 0x94D049BB133111EB
    ) & _MASK
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


class MatchingProposeProgram(VertexProgram):
    """Apply last round's status announcements, then propose along one edge.

    The delta maps each owned vertex whose free-neighbour set shrank to its
    pruned set; proposals are computed against the pruned view in the same
    run (read-your-own-writes), so the staged messages are identical to the
    historical prune-in-place handler.
    """

    shared_reads = ("free_adj", "matched", "round_no")
    #: the driver drains every "propose" message right after the round (the
    #: acceptance phase is a global driver decision) — this phase can only
    #: *end* a fused block, as its funneled terminal round
    driver_reads_sends = True
    #: owner scope: machine m's delta prunes free-neighbour sets of vertices
    #: m owns, and only m's own later runs (propose/announce over owned
    #: vertices) read them; the driver's has_free_edge check reads its own
    #: always-current copy.
    delta_scope = "owner"

    def __init__(self, owned: dict[str, list[int]], worker_ids: list[str], seed: int) -> None:
        super().__init__(owned, worker_ids)
        self.seed = seed

    def run(self, ctx: MachineContext, inbox: list, shared: Mapping[str, Any]) -> dict[int, set[int]]:
        free_adj = shared["free_adj"]
        matched = shared["matched"]
        round_no = shared["round_no"]
        owned = self.owned[ctx.machine_id]
        announced = {v for msg in inbox if msg.tag == "matched-status" for v in msg.payload}
        pruned: dict[int, set[int]] = {}
        if announced:
            for w in owned:
                if not announced.isdisjoint(free_adj[w]):
                    pruned[w] = free_adj[w] - announced
        outgoing: dict[str, list[tuple[int, int]]] = {}
        for v in owned:
            neighbours = pruned.get(v, free_adj[v])
            if v in matched or not neighbours:
                continue
            candidates = sorted(neighbours)
            choice = candidates[_mix(self.seed, round_no, v) % len(candidates)]
            outgoing.setdefault(self.owner(choice), []).append((v, choice))
        for target, pairs in outgoing.items():
            # The "propose" closed form belongs to the dynamic Section 6
            # protocol (a fixed 3-tuple); this static send ships a pair list,
            # so it sizes its own shape explicitly: 1 tag word + 1 framing
            # word + 3 words per (v, choice) pair.
            ctx.send(target, "propose", pairs, words=2 + 3 * len(pairs))
        return pruned

    def apply(self, shared: MutableMapping[str, Any], machine_id: str, delta: dict[int, set[int]]) -> None:
        if delta:
            shared["free_adj"].update(delta)


class MatchingAnnounceProgram(VertexProgram):
    """Newly matched vertices announce their status to their neighbours' owners.

    The delta lists the announcing vertices: once a vertex has told its
    neighbourhood it is matched, its own free-neighbour set is dead weight,
    so ``apply`` clears it — historically a driver-side epilogue scan over
    every vertex after the superstep, now an owner-scoped delta merged at
    the round barrier (driver and owning worker alike), which keeps the
    whole round driver-free on slot-routing backends.
    """

    shared_reads = ("free_adj", "matched")
    #: announcements are derived from shared state alone; the inbox (stale
    #: proposals already drained by the driver) is never read
    reads_inbox = False
    #: the "matched-status" messages feed the *next* propose round's
    #: machines only — worker-drivable inside a fused round block
    driver_reads_sends = False
    #: owner scope: machine m's delta clears free-neighbour sets of vertices
    #: m owns, and only m's own later runs (propose/announce over owned
    #: vertices) read them — same locality argument as the propose pruning.
    delta_scope = "owner"

    def run(self, ctx: MachineContext, inbox: list, shared: Mapping[str, Any]) -> list[int]:
        free_adj = shared["free_adj"]
        matched = shared["matched"]
        announcements: dict[str, list[int]] = {}
        announced: list[int] = []
        for v in self.owned[ctx.machine_id]:
            if v in matched and free_adj[v]:
                announced.append(v)
                for w in sorted(free_adj[v]):
                    announcements.setdefault(self.owner(w), []).append(v)
        for target, vertices in announcements.items():
            ctx.send(target, "matched-status", vertices)
        return announced

    def apply(self, shared: MutableMapping[str, Any], machine_id: str, delta: list[int]) -> None:
        if delta:
            free_adj = shared["free_adj"]
            for v in delta:
                free_adj[v] = set()


class CSRMatchingProposeProgram(VertexProgram):
    """The CSR recut of :class:`MatchingProposeProgram`.

    Edge liveness lives in the shared :class:`~repro.mpc.layout.AliveTable`
    — one bitmap over the machine's CSR entries — instead of per-vertex
    ``free_adj`` sets.  Pruning masks announced neighbours out of a *copy*
    of the bitmap (the shared row itself is only written by ``apply``, per
    the delta contract) and ships each shrunk row as a ``(start, end,
    bytes)`` slice; proposal choices index the alive entries of a row,
    which are exactly the dict layout's ``sorted(neighbours)`` because CSR
    rows are stored in ascending neighbour order — so choices, targets and
    message order are all bit-identical.  Message words use the closed form
    ``2 + 3k`` (tag 1 + list framing 1 + 2 words per pair), equal to the
    self-sized charge (pinned in the layout A/B tests).
    """

    shared_reads = ("edge_alive", "matched", "round_no")
    store_reads = ("csr",)
    #: the driver drains every "propose" message right after the round (the
    #: acceptance phase is a global driver decision) — this phase can only
    #: *end* a fused block, as its funneled terminal round
    driver_reads_sends = True
    #: owner scope: machine m's delta masks entries of m's own alive row,
    #: and only m's own later runs (propose/announce over owned rows) read
    #: it; the driver's has_free_edge check reads its own current copy.
    delta_scope = "owner"

    def __init__(self, owned: dict[str, list[int]], worker_ids: list[str], seed: int) -> None:
        super().__init__(owned, worker_ids)
        self.seed = seed

    def run(
        self, ctx: MachineContext, inbox: list, shared: Mapping[str, Any]
    ) -> dict[int, tuple[int, int, bytes]]:
        csr = ctx.load("csr")
        if csr is None or not csr.num_rows:
            return {}
        alive = shared["edge_alive"].rows[ctx.machine_id]
        matched = shared["matched"]
        round_no = shared["round_no"]
        announced = {v for msg in inbox if msg.tag == "matched-status" for v in msg.payload}
        seed = self.seed
        worker_ids = self.worker_ids
        indptr = csr.indptr
        indices = csr.indices
        owner_pos = csr.owner_pos
        pruned: dict[int, tuple[int, int, bytes]] = {}
        outgoing: dict[int, list[tuple[int, int]]] = {}
        np = numpy_or_none()
        if np is not None:
            views = csr.np_views()
            effective = np.frombuffer(alive, dtype=np.uint8)
            if announced and csr.num_entries:
                hits = np.isin(
                    views["indices"],
                    np.fromiter(sorted(announced), dtype=np.int64, count=len(announced)),
                ) & (effective != 0)
                if hits.any():
                    effective = effective.copy()
                    effective[hits] = 0
                    for row in np.unique(views["rows"][hits]).tolist():
                        start, end = indptr[row], indptr[row + 1]
                        pruned[csr.verts[row]] = (start, end, effective[start:end].tobytes())
            # One pass over the bitmap: the sorted alive-entry positions,
            # cut into rows by searching the row bounds — the rank-th alive
            # entry of row ``i`` is ``alive_pos[bounds[i] + rank]``, exactly
            # the dict layout's ``sorted(neighbours)[rank]``.
            alive_pos = np.flatnonzero(effective)
            bounds = np.searchsorted(alive_pos, views["indptr"])
            counts = bounds[1:] - bounds[:-1]
            for row, v in enumerate(csr.verts):
                count = counts[row]
                if not count or v in matched:
                    continue
                entry = int(alive_pos[bounds[row] + _mix(seed, round_no, v) % int(count)])
                outgoing.setdefault(owner_pos[entry], []).append((v, int(indices[entry])))
        else:
            effective = alive
            if announced:
                masked = None
                for row in range(csr.num_rows):
                    start, end = indptr[row], indptr[row + 1]
                    row_hit = False
                    for entry in range(start, end):
                        if effective[entry] and indices[entry] in announced:
                            if masked is None:
                                masked = bytearray(alive)
                            masked[entry] = 0
                            row_hit = True
                    if row_hit and masked is not None:
                        pruned[csr.verts[row]] = (start, end, bytes(masked[start:end]))
                if masked is not None:
                    effective = masked
            for row, v in enumerate(csr.verts):
                if v in matched:
                    continue
                start, end = indptr[row], indptr[row + 1]
                count = 0
                for entry in range(start, end):
                    if effective[entry]:
                        count += 1
                if not count:
                    continue
                rank = _mix(seed, round_no, v) % count
                for entry in range(start, end):
                    if effective[entry]:
                        if rank == 0:
                            outgoing.setdefault(owner_pos[entry], []).append((v, indices[entry]))
                            break
                        rank -= 1
        for pos, pairs in outgoing.items():
            ctx.send(worker_ids[pos], "propose", pairs, words=2 + 3 * len(pairs))
        return pruned

    def apply(
        self, shared: MutableMapping[str, Any], machine_id: str, delta: dict[int, tuple[int, int, bytes]]
    ) -> None:
        if delta:
            row = shared["edge_alive"].rows[machine_id]
            for start, end, segment in delta.values():
                row[start:end] = segment


class CSRMatchingAnnounceProgram(VertexProgram):
    """The CSR recut of :class:`MatchingAnnounceProgram`.

    Newly matched vertices announce along their still-alive CSR entries
    (ascending order == the dict layout's ``sorted(free_adj[v])``), and the
    delta lists the announced rows as ``(vertex, start, end)`` slices that
    ``apply`` zeroes — the flat equivalent of clearing ``free_adj[v]``.
    """

    shared_reads = ("edge_alive", "matched")
    store_reads = ("csr",)
    #: announcements are derived from shared state alone; the inbox (stale
    #: proposals already drained by the driver) is never read
    reads_inbox = False
    #: the "matched-status" messages feed the *next* propose round's
    #: machines only — worker-drivable inside a fused round block
    driver_reads_sends = False
    #: owner scope: machine m's delta zeroes slices of m's own alive row —
    #: same locality argument as the propose pruning.
    delta_scope = "owner"

    def run(
        self, ctx: MachineContext, inbox: list, shared: Mapping[str, Any]
    ) -> list[tuple[int, int, int]]:
        csr = ctx.load("csr")
        if csr is None or not csr.num_rows:
            return []
        alive = shared["edge_alive"].rows[ctx.machine_id]
        matched = shared["matched"]
        worker_ids = self.worker_ids
        indptr = csr.indptr
        owner_pos = csr.owner_pos
        announcements: dict[int, list[int]] = {}
        announced: list[tuple[int, int, int]] = []
        for row, v in enumerate(csr.verts):
            if v not in matched:
                continue
            start, end = indptr[row], indptr[row + 1]
            row_live = False
            for entry in range(start, end):
                if alive[entry]:
                    row_live = True
                    announcements.setdefault(owner_pos[entry], []).append(v)
            if row_live:
                announced.append((v, start, end))
        for pos, vertices in announcements.items():
            ctx.send(worker_ids[pos], "matched-status", vertices, words=3 + len(vertices))
        return announced

    def apply(
        self, shared: MutableMapping[str, Any], machine_id: str, delta: list[tuple[int, int, int]]
    ) -> None:
        if delta:
            row = shared["edge_alive"].rows[machine_id]
            for _vertex, start, end in delta:
                row[start:end] = bytes(end - start)


class StaticMaximalMatching:
    """Randomized proposal-round maximal matching on the simulator."""

    def __init__(
        self,
        graph: DynamicGraph,
        *,
        num_workers: int | None = None,
        seed: int = 2019,
        max_rounds: int | None = None,
        backend: str | None = None,
        shard_count: int | None = None,
        replan_every: int | None = None,
        resident_slots: int | None = None,
        resident_shm_ring_bytes: int | None = None,
        layout: str | None = None,
    ) -> None:
        self.graph = graph
        self.setup: StaticMPCSetup = build_static_cluster(
            graph,
            num_workers=num_workers,
            backend=backend,
            shard_count=shard_count,
            replan_every=replan_every,
            resident_slots=resident_slots,
            resident_shm_ring_bytes=resident_shm_ring_bytes,
            layout=layout,
            weighted=False,
        )
        self.cluster = self.setup.cluster
        self.seed = seed
        self.max_rounds = max_rounds if max_rounds is not None else 8 * max(4, graph.num_vertices.bit_length() + 1) + 32
        self.matching: set[tuple[int, int]] = set()
        self.rounds_used = 0

    def run(self, label: str = "static-matching") -> set[tuple[int, int]]:
        """Execute the algorithm; returns the computed maximal matching."""
        cluster = self.cluster
        setup = self.setup
        worker_ids = setup.worker_ids
        matched: set[int] = set()
        matching: set[tuple[int, int]] = set()
        csr_layout = setup.layout == "csr"
        if csr_layout:
            # Shared driver state, flat layout: the per-machine edge-alive
            # bitmaps over CSR entries, the matched vertex set, and the
            # current round number (per-round scalars live here, not on the
            # programs — programs stay frozen).
            csrs = {mid: setup.machine_csr(mid) for mid in worker_ids}
            state: dict[str, Any] = {
                "edge_alive": AliveTable(
                    {mid: bytearray(b"\x01" * csrs[mid].num_entries) for mid in worker_ids}
                ),
                "matched": matched,
                "round_no": 0,
            }
            alive_rows: dict[str, bytearray] = state["edge_alive"].rows
            propose: VertexProgram = CSRMatchingProposeProgram(setup.owned, worker_ids, self.seed)
            announce: VertexProgram = CSRMatchingAnnounceProgram(setup.owned, worker_ids)
            np = numpy_or_none()
            interner = setup.interner
            # Driver-side free-edge scan caches (numpy path): per machine the
            # dense interner position of every entry's source row and
            # neighbour, plus a dense matched bitmap grown by the acceptance
            # phase — the scan is then three gathers and a reduction.
            matched_mask = np.zeros(len(interner), dtype=np.uint8) if np is not None else None
            dense_cache: dict[str, tuple[Any, Any]] = {}

            def _dense_entries(mid: str) -> "tuple[Any, Any]":
                cached = dense_cache.get(mid)
                if cached is None:
                    csr = csrs[mid]
                    views = csr.np_views()
                    position = interner.index
                    row_dense = np.fromiter(
                        (position[v] for v in csr.verts), dtype=np.int64, count=csr.num_rows
                    )
                    source = np.repeat(row_dense, views["degrees"])
                    neighbor = np.fromiter(
                        (position[w] for w in csr.indices), dtype=np.int64, count=csr.num_entries
                    )
                    cached = dense_cache[mid] = (source, neighbor)
                return cached

            def has_free_edge() -> bool:
                # A free vertex with a *free* neighbour (pruning of last
                # round's matches happens lazily in the next proposal
                # program, so consult ``matched`` here to avoid a no-op
                # trailing round).
                if np is not None:
                    for mid in worker_ids:
                        alive = np.frombuffer(alive_rows[mid], dtype=np.uint8)
                        if not len(alive):
                            continue
                        source, neighbor = _dense_entries(mid)
                        free = (
                            (alive != 0)
                            & (matched_mask[source] == 0)
                            & (matched_mask[neighbor] == 0)
                        )
                        if free.any():
                            return True
                    return False
                for mid in worker_ids:
                    csr = csrs[mid]
                    alive = alive_rows[mid]
                    indptr = csr.indptr
                    indices = csr.indices
                    for row, v in enumerate(csr.verts):
                        if v in matched:
                            continue
                        for entry in range(indptr[row], indptr[row + 1]):
                            if alive[entry] and indices[entry] not in matched:
                                return True
                return False

        else:
            # Shared driver state, dict layout: per-vertex free-neighbour
            # sets instead of the alive bitmaps.
            state = {
                "free_adj": {v: set(self.graph.neighbors(v)) for v in self.graph.vertices},
                "matched": matched,
                "round_no": 0,
            }
            free_adj: dict[int, set[int]] = state["free_adj"]
            propose = MatchingProposeProgram(setup.owned, worker_ids, self.seed)
            announce = MatchingAnnounceProgram(setup.owned, worker_ids)
            matched_mask = None

            def has_free_edge() -> bool:
                # A free vertex with a *free* neighbour (pruning of last round's
                # matches happens lazily in the next proposal program, so
                # consult ``matched`` here to avoid a no-op trailing round).
                return any(
                    v not in matched and any(w not in matched for w in free_adj[v]) for v in free_adj
                )

        # Session scope for resident backends.  This driver *does* mutate
        # shared state outside program.apply — the acceptance phase marks
        # vertices matched — so that mutation is reported with
        # session.touch before the next superstep reads the key (the
        # delta-replay contract); every free_adj mutation travels via the
        # programs' own deltas (propose prunes, announce clears), which
        # replay covers without any re-shipping.
        with cluster.update(label), cluster.session(state) as session:
            rounds = 0
            pending_announce = False
            while rounds < self.max_rounds and has_free_edge():
                rounds += 1
                state["round_no"] = rounds
                # round_no was rebound out-of-band (free_adj mutations are
                # reported where they happen: pruning travels via the
                # propose program's own deltas, clearing via the guarded
                # touch in the round epilogue).
                session.touch("round_no")
                # Phase 1: announce the previous round's new statuses (so
                # machines prune dead edges first), then prune and propose
                # along chosen edges.  The announce phase is deferred from
                # the previous iteration so resident backends can fuse
                # ``[announce, propose]`` into one worker-driven block —
                # safe because has_free_edge masks matched endpoints
                # itself, so its answer is invariant to announce's
                # clears/prunes.  Propose ends the block: the driver must
                # drain the proposals for the global acceptance phase.
                if pending_announce:
                    cluster.superstep_block([announce, propose], machines=worker_ids, shared=state)
                else:
                    cluster.superstep(propose, machines=worker_ids, shared=state)
                pending_announce = True
                proposals_by_target: dict[int, list[int]] = {}
                for machine_id in worker_ids:
                    for msg in cluster.machine(machine_id).drain("propose"):
                        for (proposer, target) in msg.payload:
                            proposals_by_target.setdefault(target, []).append(proposer)

                # Phase 2: acceptances — a global decision resolving proposal
                # conflicts (a target may itself have proposed elsewhere).
                newly_matched: list[tuple[int, int]] = []
                for target, proposers in sorted(proposals_by_target.items()):
                    if target in matched:
                        continue
                    candidates = [p for p in proposers if p not in matched]
                    if not candidates:
                        continue
                    chosen = min(candidates)
                    if chosen == target:
                        continue
                    matched.add(target)
                    matched.add(chosen)
                    if matched_mask is not None:
                        matched_mask[self.setup.interner.index[target]] = 1
                        matched_mask[self.setup.interner.index[chosen]] = 1
                    newly_matched.append(normalize_edge(target, chosen))
                matching.update(newly_matched)
                # The acceptance decisions mutated the matched set
                # out-of-band; the announce program reads it.  The announce
                # superstep itself runs at the top of the next iteration
                # (fused with its propose) — or below, after the loop ends.
                session.touch("matched")
            if pending_announce:
                # Final announcement round: machines prune the last batch of
                # dead edges so the delivered message trace matches the
                # historical propose/announce alternation exactly.  The
                # announcers' own free-neighbour sets are cleared by the
                # program's delta at the barrier — no driver epilogue.
                cluster.superstep(announce, machines=worker_ids, shared=state)
            self.rounds_used = rounds

        self.matching = matching
        return matching
