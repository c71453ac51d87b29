"""The benchmark's workloads: one serving deployment, three traffic mixes.

Every workload serves the same deployment -- a 4-node, replication-2 cluster
with 8-way concurrency, an adaptive 1.0 s TTFT SLO and the default codec --
and draws its arrivals from :class:`~repro.cluster.workload.WorkloadGenerator`
as an open Poisson process at 0.5 requests per *simulated* second, so the
generator is never late.  On the host each run is one offline batch: one
process, one thread.

The workloads differ in the properties the host cost depends on: how much
work requests share (context reuse), and the working set relative to the
store capacity.

* ``hot-read`` -- few contexts, heavy reuse: the read path (chunk decode and
  materialisation, quality scoring in ``generate_with_kv``) dominates.
* ``cold-ingest`` -- a catalogue far larger than the request count: nearly
  every request ingests a new context, so KV generation and encoding at all
  levels dominate, and every payload is distinct.
* ``churn-bounded`` -- equally popular contexts over bounded node capacity
  (each node holds five of the contexts it is assigned): evictions force
  text fallbacks and re-ingests of identical payloads, and every first-touch
  ingest closes a simulation segment.  Which contexts survive the
  first-touch evictions decides the rest of the run, so that must not be a
  lottery drawn by the seed: popularity is uniform (under a Zipf mix the
  simulated TTFT was bimodal across seeds, on whether the hottest context
  survived) and the first touches scan the catalogue in rank order.

Inputs are a pure function of the seed.  The seed drives arrival times,
popularity draws and a small jitter on each context's length.  The catalogue
itself -- context ids, hence replica placement on the hash ring, and base
lengths -- belongs to the workload, not to the seed: with a handful of hot
contexts, whether two of them happened to share a node swung the simulated
TTFT and bytes by a fifth from seed to seed.  The base length is fixed by the
context's popularity rank, cycling through ``token_choices``; the jitter
spreads the TTFTs of equal-length contexts, so a percentile never sits on one
context's exact value.  It is a few tokens, not a share of the length: a 5%
jitter moved the short last chunk of a 3200-token context enough to flip the
adaptive controller's level choices, and bytes per request swung by a third
between seeds, while a 1% jitter left the 150-token contexts of
``cold-ingest`` with one TTFT per length, so its percentiles read the same on
nearly every seed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from repro.cluster.workload import WorkloadGenerator
from repro.serving.api import ServeRequest, ServingSpec

__all__ = ["Workload", "WORKLOADS", "ARRIVAL_RATE_PER_S", "SLO_S"]

#: Mean Poisson arrival rate, requests per simulated second.
ARRIVAL_RATE_PER_S = 0.5
#: TTFT objective of every workload, simulated seconds.
SLO_S = 1.0
#: Largest change, in tokens, the seed makes to a context's base length.
LENGTH_JITTER_TOKENS = 16


@dataclass(frozen=True)
class Workload:
    """One named traffic mix over the shared deployment."""

    name: str
    why: str
    num_requests: int
    num_contexts: int
    zipf_alpha: float
    token_choices: tuple[int, ...]
    max_bytes_per_node: float | None = None
    #: The first ``num_contexts`` requests touch the catalogue in rank order,
    #: so the evictions first touches cause -- hence which contexts stay
    #: resident -- are the same for every seed.
    scan_first: bool = False

    def spec(self) -> ServingSpec:
        """The deployment every workload serves, with this mix's capacity."""
        return ServingSpec(
            topology="cluster",
            num_nodes=4,
            replication=2,
            concurrency=8,
            slo_s=SLO_S,
            adaptive=True,
            max_bytes_per_node=self.max_bytes_per_node,
        )

    def requests(self, seed: int) -> list[ServeRequest]:
        """The seed's arrival stream, materialised as ``ServeRequest`` objects."""
        generator = WorkloadGenerator(
            num_contexts=self.num_contexts,
            zipf_alpha=self.zipf_alpha,
            arrival_rate_per_s=ARRIVAL_RATE_PER_S,
            token_choices=self.token_choices,
            seed=seed,
            context_prefix=self.name,
        )
        requests = []
        for index, request in enumerate(generator.iter_requests(self.num_requests)):
            rank = _rank(request.context_id)
            if self.scan_first and index < self.num_contexts:
                rank = index
            requests.append(
                ServeRequest(
                    context_id=generator.context_id(rank),
                    question=request.question,
                    arrival_s=request.arrival_s,
                    num_tokens=self.context_tokens(seed, rank),
                    slo_s=SLO_S,
                )
            )
        return requests

    def context_tokens(self, seed: int, rank: int) -> int:
        """Length of the context at a popularity rank: its base, jittered."""
        base = self.token_choices[rank % len(self.token_choices)]
        rng = np.random.default_rng((seed, rank))
        return base + int(rng.integers(-LENGTH_JITTER_TOKENS, LENGTH_JITTER_TOKENS + 1))

    def parameters(self) -> dict:
        """Everything that defines the workload, for the run record."""
        return {
            **asdict(self),
            "arrival_rate_per_s": ARRIVAL_RATE_PER_S,
            "length_jitter_tokens": LENGTH_JITTER_TOKENS,
            "spec": repr(self.spec()),
        }


def _rank(context_id: str) -> int:
    """Popularity rank encoded in a generated id (``<prefix>-<rank>``)."""
    return int(context_id.rsplit("-", 1)[1])


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="hot-read",
            why=(
                "6 contexts reused ~120x each: the read path (decode, materialise, "
                "quality scoring) dominates; a memoised codec or faster decode shows here"
            ),
            num_requests=720,
            num_contexts=6,
            zipf_alpha=1.0,
            token_choices=(1_600, 3_200, 800),
        ),
        Workload(
            name="cold-ingest",
            why=(
                "catalogue far larger than the request count: KV generation and "
                "encoding dominate and every payload is distinct, so a memo must not help"
            ),
            # Stays under the engine's 128-entry reference-KV memo, so a
            # query reuses the lossless KV its own ingest computed.  Short
            # contexts keep every ingested one in memory at once, and their
            # ~0.1 s TTFT leaves few arrivals queued, so p90 reads the length
            # mix rather than the luck of a handful of queued requests.
            num_requests=120,
            num_contexts=10_000,
            zipf_alpha=0.0,
            token_choices=(100, 125, 150),
        ),
        Workload(
            name="churn-bounded",
            why=(
                "bounded node capacity: evictions force text fallbacks, re-ingests of "
                "identical payloads and one simulation segment per first-touch ingest"
            ),
            num_requests=1_200,
            num_contexts=16,
            zipf_alpha=0.0,
            token_choices=(1_600,),
            max_bytes_per_node=560e6,
            scan_first=True,
        ),
    )
}
