"""Execution backends behind the unified serving API.

A :class:`Backend` turns a :class:`~repro.serving.api.spec.ServingSpec` into a
running serving stack and speaks the unified request/response shapes:

* :class:`SingleNodeBackend` — the sequential single-node engine (one store,
  one link, one query at a time);
* :class:`ConcurrentBackend` — the event-driven engine over a single node:
  staged requests contend for the shared link and GPU run queue;
* :class:`ClusterBackend` — the sharded/replicated (optionally tiered)
  cluster frontend, served sequentially or through the event engine.

All three expose the same protocol — ``ingest`` / ``submit`` / ``run`` /
``report`` — and return :class:`~repro.serving.api.types.ServeResponse`
objects with one schema, so experiments swap backends without re-plumbing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, Sequence, runtime_checkable

from ...metrics.cluster import NodeSummary, TierState, tier_state
from ...network.bandwidth import ConstantTrace, gbps
from ...network.link import NetworkLink
from ...telemetry.slo import AlertEngine, SLOObjective
from ...telemetry.timeseries import TimeSeriesRecorder, auto_window_s
from ...telemetry.trace import Tracer, emit_breakdown_spans
from ..engine import ContextLoadingEngine
from ..pipeline import IngestReport
from .spec import ServingSpec
from .types import RunReport, ServeRequest, ServeResponse

if TYPE_CHECKING:  # pragma: no cover - types only
    from ...cluster.frontend import ClusterFrontend

__all__ = [
    "Backend",
    "SingleNodeBackend",
    "ConcurrentBackend",
    "ClusterBackend",
    "build_backend",
]


def _constant_link(bandwidth_gbps: float) -> NetworkLink:
    return NetworkLink(ConstantTrace(gbps(bandwidth_gbps)))


def _concurrent_engine(engine, spec: ServingSpec):
    """The event-driven engine over ``engine`` with the spec's queueing knobs."""
    from ..concurrent.engine import ConcurrentEngine

    return ConcurrentEngine(
        engine,
        max_decode_batch=spec.max_decode_batch,
        batch_overhead=spec.batch_overhead,
        admission_limit=spec.admission_limit,
        gpu_workers=spec.gpu_workers,
        dispatch_policy=spec.dispatch_policy,
        autoscale=spec.autoscale,
    )


@runtime_checkable
class Backend(Protocol):
    """What every execution backend must speak."""

    spec: ServingSpec

    def ingest(self, context_id: str, num_tokens: int) -> IngestReport:
        """Prefill + encode + store a context (offline path, not simulated)."""
        ...

    def submit(self, request: ServeRequest) -> int:
        """Stage a request; served on the next :meth:`run`."""
        ...

    def run(self) -> list[ServeResponse]:
        """Serve all staged requests; responses in staging order."""
        ...

    def report(self, responses: Sequence[ServeResponse], **counters) -> RunReport:
        """Assemble the unified run report over served responses."""
        ...

    def attach_tracer(self, tracer: Tracer | None) -> None:
        """Wire a telemetry tracer through the backend's engines and stores."""
        ...

    def attach_simcheck(self, monitor) -> None:
        """Wire a simcheck monitor (sanitized clocks) through the backend."""
        ...

    # ------------------------------------------------------------- state taps
    def total_evictions(self) -> int: ...

    def tier_counters(self) -> TierState: ...

    def node_summaries(self) -> list[NodeSummary]: ...


class _EngineBackend:
    """Shared submission/report plumbing of the three adapters."""

    spec: ServingSpec

    #: The run's :class:`~repro.faults.ResilienceManager` (``None`` unless the
    #: spec carries a resilience policy or the driver injects faults).
    resilience = None

    def __init__(self, spec: ServingSpec) -> None:
        self.spec = spec
        self.tracer: Tracer | None = None
        self.simcheck = None
        self._staged: list[ServeRequest] = []

    # --------------------------------------------------------------- telemetry
    def attach_tracer(self, tracer: Tracer | None) -> None:
        """Wire a tracer through the backend (subclasses extend the wiring)."""
        self.tracer = tracer

    def attach_simcheck(self, monitor) -> None:
        """Record the monitor; event-driven subclasses also take its clocks."""
        self.simcheck = monitor

    def _active_tracer(self) -> Tracer | None:
        tracer = self.tracer
        return tracer if tracer is not None and tracer.enabled else None

    @staticmethod
    def _trace_store(store, tracer: Tracer | None, track: str) -> None:
        """Point a KV store (and its cold tier, if any) at the tracer."""
        store.tracer = tracer
        store.trace_track = track
        hot = getattr(store, "hot", None)
        if hot is not None:  # a TieredKVStore wraps an inner hot store
            hot.tracer = tracer
            hot.trace_track = track

    # ------------------------------------------------------------------ submit
    def submit(self, request: ServeRequest) -> int:
        self._staged.append(request)
        return len(self._staged) - 1

    def _take_staged(self) -> list[ServeRequest]:
        if not self._staged:
            raise ValueError("no requests submitted")
        staged, self._staged = self._staged, []
        return staged

    def _serve_sequential(self, staged, query_fn, extra_fn=None) -> list[ServeResponse]:
        """One-at-a-time serving in arrival order, responses in staging order.

        ``query_fn`` maps a :class:`ServeRequest` to the wrapped engine's
        response; ``extra_fn`` may derive additional unified fields from it.
        """
        tracer = self._active_tracer()
        resilience = self.resilience
        order = sorted(range(len(staged)), key=lambda i: (staged[i].arrival_s, i))
        responses: list[ServeResponse | None] = [None] * len(staged)
        for i in order:
            request = staged[i]
            if resilience is not None:
                # Breaker timers and repair queues run on arrival time.
                resilience.now = max(resilience.now, request.arrival_s)
            if tracer is not None:
                tracer.advance_to(request.arrival_s)
            response = query_fn(request)
            extras = {
                "arrival_s": request.arrival_s,
                "finish_s": request.arrival_s + response.ttft_s,
            }
            if extra_fn is not None:
                extras.update(extra_fn(response))
            upgraded = ServeResponse.upgrade(response, **extras)
            responses[i] = upgraded
            if tracer is not None:
                root = emit_breakdown_spans(
                    tracer,
                    label=request.context_id,
                    arrival_s=request.arrival_s,
                    ttft=response.ttft,
                )
                root.annotate(used_kv_cache=response.used_kv_cache)
                tracer.metrics.histogram("request_ttft_s", "per-request TTFT").observe(
                    response.ttft_s
                )
                tracer.metrics.counter("requests_served", "requests served per path").inc(
                    1, path="kv" if response.used_kv_cache else "text"
                )
                tracer.advance_to(upgraded.finish_s)
        return [response for response in responses if response is not None]

    # ------------------------------------------------------------------ report
    def report(
        self,
        responses: Sequence[ServeResponse],
        *,
        slo_s: float | None = None,
        shed: int = 0,
        hard_failures: int = 0,
        ingests: int = 0,
        failed_ingests: int = 0,
        replication_bytes: float = 0.0,
        evictions_before: int = 0,
        tier_before: TierState | None = None,
        mean_context_tokens: int = 0,
        min_duration_s: float = 0.0,
        shed_times: Sequence[float] = (),
        window_s: float | None = None,
        objectives: Sequence[SLOObjective] = (),
        alert_rules=None,
    ) -> RunReport:
        """Unified report; ``*_before`` snapshots make the counters per-run."""
        tier_now = self.tier_counters()
        before = tier_before or TierState(0, 0, 0.0, 0.0)
        report = RunReport.from_responses(
            responses,
            spec=self.spec,
            slo_s=slo_s if slo_s is not None else self.spec.slo_s,
            shed=shed,
            hard_failures=hard_failures,
            ingests=ingests,
            failed_ingests=failed_ingests,
            replication_bytes=replication_bytes,
            total_evictions=self.total_evictions() - evictions_before,
            tier=TierState(
                demotions=tier_now.demotions - before.demotions,
                promotions=tier_now.promotions - before.promotions,
                hot_bytes=tier_now.hot_bytes,
                cold_bytes=tier_now.cold_bytes,
            ),
            node_summaries=self.node_summaries(),
            mean_context_tokens=mean_context_tokens,
            min_duration_s=min_duration_s,
        )
        if responses or shed_times:
            recorder = TimeSeriesRecorder.from_run(
                responses,
                window_s=window_s or auto_window_s(report.duration_s),
                shed_times=shed_times,
                tracer=self._active_tracer(),
                duration_s=report.duration_s,
            )
            report.timeseries = recorder
            report.alerts = AlertEngine(objectives, rules=alert_rules).evaluate(
                recorder.windows()
            )
        return report


class SingleNodeBackend(_EngineBackend):
    """Sequential serving over one :class:`ContextLoadingEngine`."""

    kind = "single"

    def __init__(self, spec: ServingSpec, engine: ContextLoadingEngine | None = None) -> None:
        super().__init__(spec)
        if engine is None:
            engine = ContextLoadingEngine(
                spec.model,
                link=spec.link or _constant_link(spec.bandwidth_gbps),
                config=spec.resolved_config(),
                gpu=spec.gpu,
                base_quality=(
                    dict(spec.base_quality) if spec.base_quality is not None else None
                ),
                store_max_bytes=spec.max_bytes_per_node,
                store_eviction_policy=spec.eviction_policy,
            )
        self.engine = engine

    def attach_tracer(self, tracer: Tracer | None) -> None:
        super().attach_tracer(tracer)
        self._trace_store(self.engine.store, tracer, "storage:local")

    def ingest(self, context_id: str, num_tokens: int) -> IngestReport:
        return self.engine.ingest(context_id, num_tokens)

    # ---------------------------------------------------------------- topology
    def mark_down(self, node_id: str | None = None) -> None:
        """Crash the node: its store goes dark, queries degrade to text."""
        self.engine.store_up = False

    def mark_up(self, node_id: str | None = None) -> None:
        self.engine.store_up = True

    def run(self) -> list[ServeResponse]:
        from ...storage.tiered import HOT

        def query(request: ServeRequest):
            return self.engine.query(
                request.context_id,
                request.question,
                num_tokens=request.num_tokens,
                task=request.task,
                slo_s=request.slo_s,
            )

        def extras(response):
            out = {"served_tier": HOT if response.used_kv_cache else None}
            if not self.engine.store_up and response.context_id in self.engine.store:
                # The store holds the context but the node is down: this text
                # answer is a degraded one, not a plain miss.
                out["degraded"] = True
                out["degrade_cause"] = "node_down"
            return out

        return self._serve_sequential(self._take_staged(), query, extras)

    # ------------------------------------------------------------- state taps
    def total_evictions(self) -> int:
        return self.engine.store.eviction_count

    def tier_counters(self) -> TierState:
        return TierState(0, 0, float(self.engine.store.storage_bytes()), 0.0)

    def node_summaries(self) -> list[NodeSummary]:
        return []


class ConcurrentBackend(SingleNodeBackend):
    """Event-driven serving over one node: queueing, batching, admission."""

    kind = "concurrent"

    def __init__(self, spec: ServingSpec, engine: ContextLoadingEngine | None = None) -> None:
        super().__init__(spec, engine=engine)
        self._concurrent = _concurrent_engine(self.engine, spec)

    def attach_tracer(self, tracer: Tracer | None) -> None:
        super().attach_tracer(tracer)
        self._concurrent.tracer = tracer

    def attach_simcheck(self, monitor) -> None:
        super().attach_simcheck(monitor)
        self._concurrent.clock_factory = monitor.make_clock if monitor else None

    def run(self) -> list[ServeResponse]:
        staged = self._take_staged()
        for request in staged:
            self._concurrent.submit(
                request.context_id,
                request.question,
                arrival_s=request.arrival_s,
                num_tokens=request.num_tokens,
                task=request.task,
                slo_s=request.slo_s,
                session_id=request.session_id,
            )
        return list(self._concurrent.run())


class ClusterBackend(_EngineBackend):
    """Cluster serving: sharded, replicated, optionally tiered nodes.

    Sequential when ``spec.concurrency == 1``; otherwise staged requests are
    played through the event-driven engine against the replica links and the
    shared GPU run queue.
    """

    kind = "cluster"

    def __init__(self, spec: ServingSpec, frontend: "ClusterFrontend | None" = None) -> None:
        from ...cluster.frontend import ClusterFrontend

        super().__init__(spec)
        if frontend is None:
            speeds = spec.node_bandwidths_gbps or (spec.bandwidth_gbps,) * spec.num_nodes
            tiered = spec.cold_bytes_per_node is not None
            frontend = ClusterFrontend(
                spec.model,
                node_links=[_constant_link(speed) for speed in speeds],
                replication_factor=spec.replication,
                max_bytes_per_node=spec.max_bytes_per_node,
                eviction_policy=spec.eviction_policy,
                cold_bytes_per_node=spec.cold_bytes_per_node,
                tier_links=(
                    [_constant_link(spec.tier_bandwidth_gbps) for _ in range(spec.num_nodes)]
                    if tiered
                    else None
                ),
                placement=spec.placement,
                config=spec.resolved_config(),
                gpu=spec.gpu,
                base_quality=(
                    dict(spec.base_quality) if spec.base_quality is not None else None
                ),
                text_link=(
                    _constant_link(spec.text_bandwidth_gbps)
                    if spec.text_bandwidth_gbps is not None
                    else None
                ),
            )
        self.frontend = frontend
        if spec.resilience is not None:
            from ...faults.resilience import ResilienceManager

            self.resilience = ResilienceManager(spec.resilience)
            self.frontend.cluster.resilience = self.resilience
        self._concurrent = (
            _concurrent_engine(frontend, spec) if spec.concurrency > 1 else None
        )

    # --------------------------------------------------------------- telemetry
    def attach_tracer(self, tracer: Tracer | None) -> None:
        super().attach_tracer(tracer)
        cluster = self.frontend.cluster
        cluster.tracer = tracer
        for node_id, node in cluster.nodes.items():
            self._trace_store(node.store, tracer, f"storage:{node_id}")
        if self._concurrent is not None:
            self._concurrent.tracer = tracer

    def attach_simcheck(self, monitor) -> None:
        super().attach_simcheck(monitor)
        if self._concurrent is not None:
            self._concurrent.clock_factory = monitor.make_clock if monitor else None

    # ---------------------------------------------------------------- topology
    def mark_down(self, node_id: str) -> None:
        self.frontend.mark_down(node_id)

    def mark_up(self, node_id: str) -> None:
        self.frontend.mark_up(node_id)

    def replicas_for(self, context_id: str) -> list[str]:
        """Node ids holding replicas of a context (public topology tap).

        Examples and tests use this instead of reaching into
        ``backend.frontend.cluster`` internals.
        """
        return list(self.frontend.cluster.replicas_for(context_id))

    # ------------------------------------------------------------------ serve
    def ingest(self, context_id: str, num_tokens: int) -> IngestReport:
        return self.frontend.ingest(context_id, num_tokens)

    def run(self) -> list[ServeResponse]:
        staged = self._take_staged()
        if self._concurrent is None:

            def query(request: ServeRequest):
                return self.frontend.query(
                    request.context_id,
                    request.question,
                    num_tokens=request.num_tokens,
                    task=request.task,
                    slo_s=request.slo_s,
                )

            return self._serve_sequential(staged, query)
        for request in staged:
            self._concurrent.submit(
                request.context_id,
                request.question,
                arrival_s=request.arrival_s,
                num_tokens=request.num_tokens,
                task=request.task,
                slo_s=request.slo_s,
                session_id=request.session_id,
            )
        return list(self._concurrent.run())

    # ------------------------------------------------------------- state taps
    def total_evictions(self) -> int:
        return self.frontend.cluster.total_evictions()

    def tier_counters(self) -> TierState:
        return tier_state(self.frontend.cluster.nodes.values())

    def node_summaries(self) -> list[NodeSummary]:
        return self.frontend.cluster.node_summaries()


def build_backend(spec: ServingSpec, kind: str | None = None) -> Backend:
    """Build the execution backend a spec declares.

    ``kind`` overrides the derived choice (e.g. to force the sequential
    adapter on a spec whose ``concurrency`` is above 1); it must stay
    compatible with the spec's topology.

    Example
    -------
    >>> spec = ServingSpec(topology="cluster", num_nodes=4)
    >>> backend = build_backend(spec)  # kind inferred from the topology
    >>> backend.kind
    'cluster'
    """
    kind = kind or spec.backend_kind
    if kind in ("single", "concurrent") and spec.topology != "single":
        raise ValueError(f"backend kind {kind!r} requires the single topology")
    if kind == "cluster" and spec.topology == "single":
        raise ValueError("the cluster backend requires a tiered or cluster topology")
    if kind == "single":
        return SingleNodeBackend(spec)
    if kind == "concurrent":
        return ConcurrentBackend(spec)
    if kind == "cluster":
        return ClusterBackend(spec)
    raise ValueError(f"unknown backend kind {kind!r}")
