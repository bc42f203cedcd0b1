"""Shared scaffolding for the static MPC baselines.

All three baselines operate on *vertex-partitioned* data: every worker
machine owns a set of vertices and stores its state and adjacency in one of
two interchangeable layouts:

``"csr"`` (the default)
    one :class:`~repro.mpc.layout.MachineCSR` per machine under the single
    ``"csr"`` key — contiguous ``array('q')``/``array('d')`` buffers the
    vectorized kernels walk directly, with per-entry partition owners
    hoisted out of the round loops.  A :class:`~repro.mpc.layout.VertexInterner`
    built once here gives the drivers a dense vertex-ID map for their own
    kernel caches; message payloads stay in raw vertex-id space.
``"dict"``
    the historical per-vertex ``("adj", v)`` list / ``("weights", v)`` dict
    stores.

Both layouts produce bit-identical rounds, messages and solutions on every
backend (property-tested in ``tests/static_mpc/test_layout_ab.py``); the
partition is the stateless hash partition either way, so drivers and
machines agree on ownership without any directory traffic.

The baselines are *superstep-style* algorithms: each round every machine
runs the same local code over its owned vertices.  That code is expressed
as module-level :class:`~repro.mpc.program.SuperstepProgram` classes
(:class:`VertexProgram` below is their common base, carrying the owner map
and worker ids as picklable program state), routed through
:meth:`Cluster.superstep` — so it picks up whatever execution strategy the
cluster's backend provides: sequential, or the ``resident`` backend's
long-lived worker slots (``backend=``/``shard_count=``/``resident_slots=``
below).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import DMPCConfig
from repro.graph.graph import DynamicGraph
from repro.mpc.cluster import Cluster
from repro.mpc.layout import MachineCSR, VertexInterner, build_machine_csr, resolve_static_layout
from repro.mpc.partition import hash_partition
from repro.mpc.program import SuperstepProgram

__all__ = ["StaticMPCSetup", "VertexProgram", "build_static_cluster"]


class VertexProgram(SuperstepProgram):
    """Superstep program over a vertex partition: owned vertices + owner map.

    The two per-cluster constants every static baseline program needs —
    which vertices each machine owns, and the worker-id list that makes
    :func:`~repro.mpc.partition.hash_partition` ownership computable
    anywhere — live on the program as plain picklable state, so the same
    instance runs in-process or inside a worker process.  Subclasses add
    their own constants (seeds, leader ids) the same way and must stay
    frozen once the first superstep runs.
    """

    def __init__(self, owned: dict[str, list[int]], worker_ids: list[str]) -> None:
        self.owned = owned
        self.worker_ids = list(worker_ids)

    def owner(self, vertex: int) -> str:
        """The machine owning ``vertex`` — pure function of the worker ids."""
        return hash_partition(vertex, self.worker_ids)


@dataclass
class StaticMPCSetup:
    """A cluster loaded with a vertex-partitioned copy of a graph."""

    cluster: Cluster
    worker_ids: list[str]
    graph: DynamicGraph
    #: machine id -> owned vertices, authoritative: populated in full by
    #: :func:`build_static_cluster` (every worker gets an entry, possibly
    #: empty), so lookups never fall back to rescanning the vertex set.
    owned: dict[str, list[int]] = field(default_factory=dict)
    #: which state layout the machine stores use ("csr" or "dict").
    layout: str = "csr"
    #: dense vertex-ID map, built once at cluster build time (CSR layout
    #: drivers index their kernel caches with it; ``None`` under "dict").
    interner: VertexInterner | None = None

    def owner(self, vertex: int) -> str:
        """The machine owning ``vertex``'s state and adjacency list."""
        return hash_partition(vertex, self.worker_ids)

    def owned_vertices(self, machine_id: str) -> list[int]:
        """All vertices owned by ``machine_id`` (authoritative cache).

        Raises ``KeyError`` for a machine that is not part of this setup —
        the cache is populated for every worker at build time, so a miss is
        a caller bug, not a reason to rescan the graph.
        """
        try:
            return self.owned[machine_id]
        except KeyError:
            raise KeyError(
                f"{machine_id!r} is not a worker machine of this static setup"
            ) from None

    def machine_csr(self, machine_id: str) -> MachineCSR:
        """Driver-side view of ``machine_id``'s CSR store (CSR layout only)."""
        csr = self.cluster.machine(machine_id).load("csr")
        if csr is None:
            raise KeyError(f"{machine_id!r} has no CSR store (layout={self.layout!r})")
        return csr


def build_static_cluster(
    graph: DynamicGraph,
    *,
    num_workers: int | None = None,
    backend: str | None = None,
    shard_count: int | None = None,
    replan_every: int | None = None,
    resident_slots: int | None = None,
    resident_shm_ring_bytes: int | None = None,
    layout: str | None = None,
    weighted: bool = True,
) -> StaticMPCSetup:
    """Create a cluster for a static baseline and load ``graph`` onto it.

    Static MPC algorithms in the literature assume per-machine memory that is
    (near-)linear in ``n`` — more generous than the ``O(sqrt(N))`` the DMPC
    model grants dynamic algorithms — so the baseline cluster relaxes the
    strict memory and per-round I/O enforcement.  The communication is still
    fully *accounted*, which is what the benchmarks compare.

    ``backend`` / ``shard_count`` / ``replan_every`` / ``resident_slots`` /
    ``resident_shm_ring_bytes`` select and tune the execution backend
    (:mod:`repro.runtime`) the baseline runs on; ``None`` defers to the
    usual resolution chain (``REPRO_BACKEND``, then ``reference``).

    ``layout`` selects the machine-store layout (``None`` defers to
    ``REPRO_STATIC_LAYOUT``, then ``"csr"``).  ``weighted=False`` declares
    that the workload never reads edge weights (connectivity, matching), so
    neither layout materializes them: the dict layout skips the
    ``("weights", v)`` stores and the CSR layout drops its weights buffer.
    """
    layout = resolve_static_layout(layout)
    n = max(1, graph.num_vertices)
    m = graph.num_edges
    config = DMPCConfig(
        capacity_n=n,
        capacity_m=max(1, m),
        strict_memory=False,
        backend=backend,
        shard_count=shard_count,
        replan_every=replan_every,
        resident_slots=resident_slots,
        resident_shm_ring_bytes=resident_shm_ring_bytes,
    )
    cluster = Cluster(config, enforce_io_cap=False)
    workers = num_workers if num_workers is not None else config.num_worker_machines
    worker_machines = cluster.add_machines("w", max(2, workers), role="worker")
    worker_ids = [m_.machine_id for m_ in worker_machines]

    setup = StaticMPCSetup(cluster=cluster, worker_ids=worker_ids, graph=graph, layout=layout)
    owned: dict[str, list[int]] = {mid: [] for mid in worker_ids}
    for v in graph.vertices:
        owned[setup.owner(v)].append(v)
    setup.owned = owned
    if layout == "csr":
        setup.interner = VertexInterner(graph.vertices)
        weight = (lambda v, w: float(graph.weight(v, w))) if weighted else None
        for machine_id, vertices in owned.items():
            csr = build_machine_csr(
                vertices,
                lambda v: sorted(graph.neighbors(v)),
                weight,
                worker_ids,
            )
            cluster.machine(machine_id).store("csr", csr)
    else:
        for machine_id, vertices in owned.items():
            machine = cluster.machine(machine_id)
            for v in vertices:
                machine.store(("adj", v), sorted(graph.neighbors(v)))
                if weighted:
                    machine.store(("weights", v), {w: graph.weight(v, w) for w in graph.neighbors(v)})
    return setup
