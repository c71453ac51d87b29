"""Distributed KV-cache cluster: sharded, replicated, capacity-bounded serving.

The single-node serving stack (one :class:`~repro.storage.KVCacheStore`, one
:class:`~repro.network.NetworkLink`, one
:class:`~repro.serving.ContextLoadingEngine`) reproduces the paper's testbed;
this package scales it out:

* :class:`ConsistentHashRing` — directory-free context placement;
* :class:`StorageNode` — a capacity-bounded store plus its own link and stats;
* :class:`ShardedKVStore` — replicated placement with failover lookup;
* :class:`ClusterFrontend` — the engine extended with cluster routing and a
  text fallback on full cluster miss;
* :class:`WorkloadGenerator` — Zipf/Poisson multi-tenant workloads.

Runs go through the unified API: ``serve(ServingSpec(topology="cluster",
...), workload=WorkloadGenerator(...))`` builds the frontend behind a
:class:`~repro.serving.api.ClusterBackend` and reports per-node hit ratios,
evictions, TTFT percentiles and SLO attainment on one ``RunReport``.
"""

from .frontend import ClusterFrontend, ClusterIngestReport
from .hash_ring import ConsistentHashRing
from .node import StorageNode
from .sharded_store import Lookup, Placement, RebalanceReport, ShardedKVStore
from .workload import Request, WorkloadGenerator

__all__ = [
    "ClusterFrontend",
    "ClusterIngestReport",
    "ConsistentHashRing",
    "Lookup",
    "Placement",
    "RebalanceReport",
    "Request",
    "ShardedKVStore",
    "StorageNode",
    "WorkloadGenerator",
]
