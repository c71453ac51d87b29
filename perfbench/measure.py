"""Measuring one workload: repetitions, metrics, output checks, layer view.

A *repetition* builds a fresh backend from the workload's spec (timed: one
``setup_s`` sample) and drives the seed's requests through it with
``Driver(backend, requests, simcheck=False).run()`` (timed: one host-time
sample).  The :mod:`reference` kernel is timed before the first repetition
and after each one; a repetition's host time per request over the mean of
the two kernel times on either side of it is one ``host_cost_per_request``
sample.  Every repetition of a run serves the same inputs, so every
repetition must produce the same simulated outputs; the simulated metrics
come from the first one.

Before the first timed repetition an untimed warm-up serves the first
:data:`WARMUP_REQUESTS` requests.  A process's first serve ran up to a
quarter slower than its later ones, and by a varying amount, with several
times their system time while the allocator grew its heap for the
multi-megabyte KV arrays; timed, it made the first repetition -- on
``hot-read`` and ``churn-bounded`` often the only one in a run -- read
differently from run to run.
"""

from __future__ import annotations

import gc
import hashlib
import math
import resource
import statistics
import time
from dataclasses import dataclass

from repro.metrics.stats import percentiles
from repro.serving.api import Driver, build_backend
from repro.streaming.adaptation import TEXT_CONFIG

import reference
from tracer import Tracer
from workloads import SLO_S, Workload

__all__ = [
    "END_TO_END",
    "PER_LAYER",
    "LAYERS",
    "measure",
    "measure_traced",
]

#: (name, unit, better, bound): what a user of the simulator sees.  ``bound``
#: is the share of the parent's median a metric may worsen by.
END_TO_END = (
    ("host_cost_per_request", "ref-passes", "lower", 0.24),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.12),
    ("sim_ttft_p50_s", "s", "lower", 0.24),
    ("sim_ttft_p90_s", "s", "lower", 0.24),
    ("slo_attainment", "fraction", "higher", 0.20),
    ("sim_mb_per_request", "MB", "lower", 0.24),
    ("quality_mean", "fraction", "higher", 0.02),
    ("served_ratio", "fraction", "higher", 0.02),
)

#: Layers in outside-in order; a span ``<layer>.<function>`` belongs to one.
LAYERS = (
    "serving.api",
    "cluster",
    "storage",
    "streaming",
    "serving.concurrent",
    "llm",
    "core",
)

#: (name, unit, better): the traced run's per-layer metrics.
PER_LAYER = (
    ("serving.api.share", "fraction", "lower"),
    ("serving.api.ingest.share", "fraction", "lower"),
    ("serving.api.ingest.calls", "count", "lower"),
    ("serving.api.ingest.host_s", "s", "lower"),
    ("serving.api.ingest.host_ms_p50", "ms", "lower"),
    ("serving.api.ingest.host_ms_p90", "ms", "lower"),
    ("serving.api.run.calls", "count", "lower"),
    ("serving.api.run.self_s", "s", "lower"),
    ("serving.api.report.host_s", "s", "lower"),
    ("serving.api.driver.self_s", "s", "lower"),
    ("cluster.share", "fraction", "lower"),
    ("cluster.store_kv.calls", "count", "lower"),
    ("cluster.store_kv.self_s", "s", "lower"),
    ("cluster.locate.calls", "count", "lower"),
    ("cluster.locate.host_s", "s", "lower"),
    ("cluster.locate.found_ratio", "fraction", "higher"),
    ("cluster.degraded_ratio", "fraction", "lower"),
    ("storage.share", "fraction", "lower"),
    ("storage.store.calls", "count", "lower"),
    ("storage.evictions", "count", "lower"),
    ("storage.resident_mb", "MB", "lower"),
    ("streaming.share", "fraction", "lower"),
    ("streaming.prepare_chunks.calls", "count", "lower"),
    ("streaming.prepare_chunks.self_s", "s", "lower"),
    ("serving.concurrent.share", "fraction", "lower"),
    ("serving.concurrent.materialise.calls", "count", "lower"),
    ("serving.concurrent.materialise.self_s", "s", "lower"),
    ("serving.concurrent.sim_run.calls", "count", "lower"),
    ("serving.concurrent.sim_run.self_s", "s", "lower"),
    ("serving.concurrent.events", "count", "lower"),
    ("serving.concurrent.events_per_host_s", "1/s", "higher"),
    ("serving.concurrent.queueing_p50_s", "s", "lower"),
    ("serving.concurrent.queueing_p90_s", "s", "lower"),
    ("serving.concurrent.kv_chunk_share", "fraction", "higher"),
    ("read_path.share", "fraction", "lower"),
    ("llm.share", "fraction", "lower"),
    ("llm.calculate_kv.calls", "count", "lower"),
    ("llm.calculate_kv.host_s", "s", "lower"),
    ("llm.calculate_kv.useful_ratio", "fraction", "higher"),
    ("llm.generate_with_kv.calls", "count", "lower"),
    ("llm.generate_with_kv.host_s", "s", "lower"),
    ("core.share", "fraction", "lower"),
    ("core.fit.host_s", "s", "lower"),
    ("core.encode.calls", "count", "lower"),
    ("core.encode.host_s", "s", "lower"),
    ("core.encode.tokens_per_host_s", "tokens/s", "higher"),
    ("core.encode.useful_ratio", "fraction", "higher"),
    ("core.decode.calls", "count", "lower"),
    ("core.decode.host_s", "s", "lower"),
    ("core.bits_per_element", "bits", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

#: Timed builds before the first repetition; each repetition adds one more.
SETUP_BUILDS = 1
#: Requests the untimed warm-up serves: enough to ingest and read several
#: multi-megabyte contexts, a small share of any workload's run.
WARMUP_REQUESTS = 8


# ------------------------------------------------------------------ one repetition
@dataclass
class Repetition:
    """What one build-and-serve left behind."""

    setup_s: float
    host_s: float
    offered: int
    report: object
    backend: object
    segments: int


def _build(workload: Workload) -> tuple[object, float]:
    start = time.perf_counter()
    backend = build_backend(workload.spec())
    return backend, time.perf_counter() - start


def serve(workload: Workload, requests: list) -> Repetition:
    """Build a fresh backend and drive the requests through it once."""
    backend, setup_s = _build(workload)
    # A simulation segment is one backend.run() call from the driver.
    run = backend.run
    segments = 0

    def counted_run():
        nonlocal segments
        segments += 1
        return run()

    backend.run = counted_run
    driver = Driver(backend, requests, simcheck=False)
    try:
        start = time.perf_counter()
        report = driver.run()
        host_s = time.perf_counter() - start
    finally:
        # The wrapper and the backend refer to each other; drop the wrapper
        # so the backend is freed as soon as the repetition is.
        del backend.run
    return Repetition(setup_s, host_s, len(requests), report, backend, segments)


# ----------------------------------------------------------------- outputs
def simulated_metrics(rep: Repetition) -> dict[str, float]:
    """The deterministic end-to-end metrics of a repetition's responses."""
    responses = rep.report.responses
    ttfts = [response.ttft_s for response in responses]
    p50, p90 = percentiles(ttfts, (50.0, 90.0))
    return {
        "sim_ttft_p50_s": p50,
        "sim_ttft_p90_s": p90,
        # Over *offered* requests: a shed or failed request misses the SLO.
        "slo_attainment": sum(ttft <= SLO_S for ttft in ttfts) / rep.offered,
        "sim_mb_per_request": statistics.fmean(
            response.transmitted_bytes for response in responses
        )
        / 1e6,
        "quality_mean": statistics.fmean(
            response.quality.relative_quality for response in responses
        ),
        "served_ratio": len(responses) / rep.offered,
    }


def digest(report) -> str:
    """Fingerprint of the simulated outputs: per-response TTFT, bytes, configs."""
    sha = hashlib.sha256()
    for response in report.responses:
        sha.update(
            repr(
                (
                    response.context_id,
                    float(response.ttft_s).hex(),
                    float(response.transmitted_bytes).hex(),
                    tuple(response.chunk_configs),
                )
            ).encode()
        )
    return sha.hexdigest()


def check_outputs(workload: Workload, rep: Repetition) -> list[str]:
    """Failed output checks of one repetition (empty when all hold)."""
    report = rep.report
    responses = report.responses
    failures = []
    if rep.offered != len(responses) + report.shed + report.hard_failures:
        failures.append(
            f"accounting: offered {rep.offered} != responses {len(responses)} "
            f"+ shed {report.shed} + hard failures {report.hard_failures}"
        )
    if report.hard_failures:
        failures.append(f"{report.hard_failures} hard failures")
    # Only a capacity-bounded store turns each first-touch ingest into a
    # segment boundary; unbounded runs are one continuous simulation.
    if workload.max_bytes_per_node is None and rep.segments != 1:
        failures.append(f"{rep.segments} simulation segments, expected exactly 1")
    if not responses:
        failures.append("no responses")
    for response in responses:
        if not (math.isfinite(response.ttft_s) and response.ttft_s > 0):
            failures.append(f"{response.context_id}: TTFT {response.ttft_s!r}")
            break
        if not 0.0 < response.quality.relative_quality <= 1.0 + 1e-9:
            failures.append(
                f"{response.context_id}: relative quality "
                f"{response.quality.relative_quality!r}"
            )
            break
    return failures


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def warm_up(workload: Workload, requests: list) -> Repetition:
    """Serve the first few requests untimed, so the timed repetitions start warm."""
    return serve(workload, requests[:WARMUP_REQUESTS])


# ------------------------------------------------------------------ untraced
@dataclass
class Outcome:
    """A run's metrics plus what the result record needs."""

    metrics: dict
    attempted: int
    failed: int
    failures: list
    samples: dict
    spans: list | None = None
    counts: dict | None = None


def measure(workload: Workload, requests: list, seconds: float) -> Outcome:
    """The end-to-end metrics, from repetitions filling ``seconds``."""
    kernel = reference.ReferenceKernel()
    setup = [_build(workload)[1] for _ in range(SETUP_BUILDS)]
    warm = warm_up(workload, requests)
    setup.append(warm.setup_s)
    attempted = warm.offered
    failed = warm.offered - len(warm.report.responses)
    failures = check_outputs(workload, warm)
    del warm
    gc.collect()
    host_ms: list[float] = []
    cost: list[float] = []
    reference_s = [kernel.pass_seconds()]
    simulated = first_digest = None
    start = time.perf_counter()
    while True:
        rep_start = time.perf_counter()
        rep = serve(workload, requests)
        reference_s.append(kernel.pass_seconds())
        setup.append(rep.setup_s)
        host_ms.append(rep.host_s / rep.offered * 1e3)
        cost.append(rep.host_s / rep.offered / statistics.fmean(reference_s[-2:]))
        attempted += rep.offered
        failed += rep.offered - len(rep.report.responses)
        failures += check_outputs(workload, rep)
        fingerprint = digest(rep.report)
        if simulated is None:
            simulated, first_digest = simulated_metrics(rep), fingerprint
        elif fingerprint != first_digest:
            failures.append("repetitions of the same inputs disagree")
        del rep
        gc.collect()
        now = time.perf_counter()
        if now - start + (now - rep_start) > seconds:
            break
    metrics = {
        "host_cost_per_request": statistics.median(cost),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb(),
        **simulated,
    }
    return Outcome(
        metrics=metrics,
        attempted=attempted,
        failed=failed,
        failures=failures,
        samples={
            "host_ms_per_request": host_ms,
            "reference_pass_s": reference_s,
            "host_cost_per_request": cost,
            "setup_s": setup,
            "digest": first_digest,
        },
    )


# ------------------------------------------------------------------- traced
def measure_traced(workload: Workload, requests: list, seconds: float) -> Outcome:
    """Per-layer metrics from pairs of traced and untraced repetitions.

    The untraced repetition of each pair must reproduce the traced one's
    simulated outputs exactly, and the ratio of their host times is the
    tracing overhead.  Both follow the same untimed warm-up; the traced
    repetition goes first, so whatever the warm-up left unpaid falls on it
    and the ratio errs high, never hiding overhead.
    """
    plain_ms: list[float] = []
    traced_ms: list[float] = []
    layers: list[dict] = []
    warm = warm_up(workload, requests)
    attempted = warm.offered
    failed = warm.offered - len(warm.report.responses)
    failures = check_outputs(workload, warm)
    del warm
    gc.collect()
    first_tracer = None
    start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        tracer = Tracer()
        with tracer.installed():
            rep = serve(workload, requests)
        traced_ms.append(rep.host_s / rep.offered * 1e3)
        # Both repetitions serve the same requests; count them once.
        attempted += rep.offered
        failed += rep.offered - len(rep.report.responses)
        failures += check_outputs(workload, rep)
        if rep.segments != len(tracer.named("serving.api.run")):
            failures.append("traced segment count disagrees with the driver's")
        traced_digest = digest(rep.report)
        layers.append(layer_metrics(tracer, rep))
        first_tracer = first_tracer or tracer
        del rep
        gc.collect()

        plain = serve(workload, requests)
        plain_ms.append(plain.host_s / plain.offered * 1e3)
        failures += check_outputs(workload, plain)
        if digest(plain.report) != traced_digest:
            failures.append("the traced run's simulated outputs differ from the untraced run's")
        del plain
        gc.collect()
        now = time.perf_counter()
        if now - start + (now - pair_start) > seconds:
            break
    metrics = {
        name: statistics.median(values[name] for values in layers)
        for name, _, _ in PER_LAYER
        if name != "trace.overhead_ratio"
    }
    metrics["trace.overhead_ratio"] = statistics.median(traced_ms) / statistics.median(
        plain_ms
    )
    return Outcome(
        metrics=metrics,
        attempted=attempted,
        failed=failed,
        failures=failures,
        samples={"untraced_host_ms": plain_ms, "traced_host_ms": traced_ms},
        spans=first_tracer.spans,
        counts=dict(first_tracer.counts),
    )


def layer_metrics(tracer: Tracer, rep: Repetition) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (build included)."""
    spans = tracer.spans
    self_times = tracer.self_times()

    def calls(name: str) -> int:
        return len(tracer.named(name))

    def host_s(name: str) -> float:
        return sum(span.duration for span in tracer.named(name))

    def self_s(name: str) -> float:
        return sum(t for span, t in zip(spans, self_times) if span.name == name)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    # Shares are of the traced Driver.run span; self times partition it.
    (driver_index,) = [i for i, span in enumerate(spans) if span.name == "serving.api.driver"]
    driver_s = spans[driver_index].duration
    under_driver = [
        i == driver_index or driver_index in tracer.ancestors(i) for i in range(len(spans))
    ]
    share = dict.fromkeys(LAYERS, 0.0)
    for index, span in enumerate(spans):
        if under_driver[index]:
            share[span.name.rsplit(".", 1)[0]] += self_times[index] / driver_s

    ingest_ms = [span.duration * 1e3 for span in tracer.named("serving.api.ingest")]
    ingest_p50, ingest_p90 = percentiles(ingest_ms, (50.0, 90.0))

    kv = tracer.named("llm.calculate_kv")
    # An encode is identified by its context and its position among the
    # encodes of one prepare_chunks call (chunk-major, level-minor), so a
    # re-ingest of an evicted context repeats keys already seen.
    encode_keys = []
    position: dict[int | None, int] = {}
    for index, span in enumerate(spans):
        if span.name == "core.encode":
            ordinal = position.get(span.parent, 0)
            position[span.parent] = ordinal + 1
            encode_keys.append((tracer.context_of(index), ordinal))
    encodes = tracer.named("core.encode")
    encode_s = host_s("core.encode")
    bits = [span.attrs["bits_per_element"] for span in encodes if "bits_per_element" in span.attrs]
    locates = tracer.named("cluster.locate")

    report = rep.report
    responses = report.responses
    queueing_p50, queueing_p90 = percentiles([r.queueing_s for r in responses], (50.0, 90.0))
    configs = [config for r in responses for config in r.chunk_configs]
    events = tracer.counts["serving.concurrent.events"]
    read_path_s = sum(
        span.duration
        for index, span in enumerate(spans)
        if under_driver[index]
        and span.name in ("serving.concurrent.materialise", "llm.generate_with_kv")
    )
    return {
        **{f"{layer}.share": share[layer] for layer in LAYERS},
        "serving.api.ingest.share": host_s("serving.api.ingest") / driver_s,
        "serving.api.ingest.calls": calls("serving.api.ingest"),
        "serving.api.ingest.host_s": host_s("serving.api.ingest"),
        "serving.api.ingest.host_ms_p50": ingest_p50,
        "serving.api.ingest.host_ms_p90": ingest_p90,
        "serving.api.run.calls": calls("serving.api.run"),
        "serving.api.run.self_s": self_s("serving.api.run"),
        "serving.api.report.host_s": host_s("serving.api.report"),
        "serving.api.driver.self_s": self_s("serving.api.driver"),
        "cluster.store_kv.calls": calls("cluster.store_kv"),
        "cluster.store_kv.self_s": self_s("cluster.store_kv"),
        "cluster.locate.calls": len(locates),
        "cluster.locate.host_s": host_s("cluster.locate"),
        "cluster.locate.found_ratio": ratio(
            sum(span.attrs.get("found", False) for span in locates), len(locates)
        ),
        "cluster.degraded_ratio": ratio(report.degraded, len(responses)),
        "storage.store.calls": calls("storage.store"),
        "storage.evictions": report.total_evictions,
        "storage.resident_mb": sum(
            summary.stored_bytes for summary in rep.backend.node_summaries()
        )
        / 1e6,
        "streaming.prepare_chunks.calls": calls("streaming.prepare_chunks"),
        "streaming.prepare_chunks.self_s": self_s("streaming.prepare_chunks"),
        "serving.concurrent.materialise.calls": calls("serving.concurrent.materialise"),
        "serving.concurrent.materialise.self_s": self_s("serving.concurrent.materialise"),
        "serving.concurrent.sim_run.calls": calls("serving.concurrent.sim_run"),
        "serving.concurrent.sim_run.self_s": self_s("serving.concurrent.sim_run"),
        "serving.concurrent.events": events,
        "serving.concurrent.events_per_host_s": ratio(
            events, host_s("serving.concurrent.sim_run")
        ),
        "serving.concurrent.queueing_p50_s": queueing_p50,
        "serving.concurrent.queueing_p90_s": queueing_p90,
        "serving.concurrent.kv_chunk_share": ratio(
            sum(config != TEXT_CONFIG for config in configs), len(configs)
        ),
        "read_path.share": read_path_s / driver_s,
        "llm.calculate_kv.calls": len(kv),
        "llm.calculate_kv.host_s": host_s("llm.calculate_kv"),
        "llm.calculate_kv.useful_ratio": ratio(
            len({(span.context_id, span.attrs.get("num_tokens")) for span in kv}), len(kv)
        ),
        "llm.generate_with_kv.calls": calls("llm.generate_with_kv"),
        "llm.generate_with_kv.host_s": host_s("llm.generate_with_kv"),
        "core.fit.host_s": host_s("core.fit"),
        "core.encode.calls": len(encodes),
        "core.encode.host_s": encode_s,
        "core.encode.tokens_per_host_s": ratio(
            sum(span.attrs["num_tokens"] for span in encodes), encode_s
        ),
        "core.encode.useful_ratio": ratio(len(set(encode_keys)), len(encode_keys)),
        "core.decode.calls": calls("core.decode"),
        "core.decode.host_s": host_s("core.decode"),
        "core.bits_per_element": statistics.fmean(bits) if bits else 0.0,
    }
