"""Pluggable execution backends for the DMPC simulator.

The runtime layer separates *simulation semantics* (messages, rounds,
costs, solutions — fixed by the algorithms) from *execution strategy* (how
storage is sized, how mailboxes are delivered, how much metrics detail is
retained — chosen per deployment).  See :mod:`repro.runtime.base` for the
protocol and the contract, :mod:`repro.runtime.reference` for the strict
baseline and :mod:`repro.runtime.fast` for the optimised strategy.

Select a backend through the config::

    config = DMPCConfig.for_graph(n, m, backend="fast")
    algorithm = DMPCConnectivity(config)   # no other change needed

or per cluster (``Cluster(config, backend="fast")``), or fleet-wide via the
``REPRO_BACKEND`` environment variable (used by the CI matrix).  Four
backends are registered:

``reference``
    strict, fully-eager, full per-pair metrics — the correctness baseline;
``fast``
    memoised sizing, staged-sender transport, sampled aggregate metrics;
``sharded``
    :mod:`repro.runtime.sharding` — the machine map partitioned into shards
    (:class:`ShardPlan`), per-shard staging and word aggregates, fused
    single-pass delivery, merged back into reference order each round;
``resident``
    :mod:`repro.runtime.resident` — the sharded backend plus session-scoped
    *resident* worker state: long-lived worker slots keep shard stores and
    the shared slice in memory for a whole run
    (:meth:`~repro.mpc.cluster.Cluster.session`), the driver ships only
    per-round deltas, and live re-plans migrate shard state between
    workers.  Outside a session it runs supersteps like ``sharded``.

Further backends (distributed shards) plug in by registering a new
:class:`~repro.runtime.base.ExecutionBackend` subclass — algorithm code
never changes.
"""

from __future__ import annotations

from repro.runtime.base import (
    BACKEND_ENV_VAR,
    BACKENDS,
    ExecutionBackend,
    ExecutionSession,
    MachineStorage,
    Transport,
    register_backend,
    resolve_backend,
)
from repro.runtime.fast import CachedStorage, FastBackend, FastTransport
from repro.runtime.reference import ReferenceBackend, ReferenceStorage, ReferenceTransport
from repro.runtime.resident import ResidentBackend, ResidentSession
from repro.runtime.sharding import DEFAULT_SHARD_COUNT, ShardedBackend, ShardedTransport, ShardPlan

__all__ = [
    "BACKEND_ENV_VAR",
    "BACKENDS",
    "ExecutionBackend",
    "ExecutionSession",
    "MachineStorage",
    "Transport",
    "register_backend",
    "resolve_backend",
    "ReferenceBackend",
    "ReferenceStorage",
    "ReferenceTransport",
    "FastBackend",
    "FastTransport",
    "CachedStorage",
    "ShardPlan",
    "ShardedBackend",
    "ShardedTransport",
    "DEFAULT_SHARD_COUNT",
    "ResidentBackend",
    "ResidentSession",
]
