"""The repository benchmark: host cost, memory and simulated serving outcomes.

Run one workload (from the repository root)::

    python3 perfbench/run.py --workload hot-read --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
pairs each traced repetition with an untraced one and reports the per-layer
metrics, each layer's share of the traced ``Driver.run`` and the tracing
overhead.
Both check the simulated outputs.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``; the full
record, with the environment, samples and (traced) spans, is written under
``.perfbench/`` in the working directory.

``--workload all`` runs every workload, each in its own process, and prints
one table.  ``--write-manifest`` regenerates ``BENCHMARK.json`` from the
workload and metric definitions here.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = Path(".perfbench")
RUN_SECONDS = 30
#: BLAS / OpenMP pools are capped at one thread before numpy is imported.
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true")
    args = parser.parse_args(argv)
    if not args.write_manifest and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _import_program() -> None:
    """Make this checkout's ``repro`` (from ``src/``) and this directory importable.

    Raises :class:`FileNotFoundError` when the checkout has no ``src/repro``,
    so an installed copy of the package is never measured instead.
    """
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    for path in (str(ROOT / "src"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)


def environment() -> dict:
    import numpy
    import scipy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha or "unknown",
        "threads": {name: os.environ[name] for name in THREAD_VARIABLES},
    }


def write_manifest() -> None:
    from measure import END_TO_END, PER_LAYER
    from workloads import WORKLOADS

    manifest = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }
    (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest, indent=2) + "\n")


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    from measure import END_TO_END, LAYERS, PER_LAYER, measure, measure_traced
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    requests = workload.requests(seed)
    if trace:
        outcome = measure_traced(workload, requests, seconds)
        units = {metric: unit for metric, unit, _ in PER_LAYER}
    else:
        outcome = measure(workload, requests, seconds)
        units = {metric: unit for metric, unit, _, _ in END_TO_END}

    print(f"workload {name}  seed {seed}  trace {int(trace)}  requests {len(requests)}")
    if trace:
        for layer in LAYERS:
            print(f"  {layer:<20} {outcome.metrics[layer + '.share']:7.1%} of Driver.run")
            for metric, unit, _ in PER_LAYER:
                if metric.startswith(layer + ".") and not metric.endswith(".share"):
                    print(f"      {metric:<42} {outcome.metrics[metric]:>14.6g} {unit}")
        for metric in ("serving.api.ingest.share", "read_path.share", "trace.overhead_ratio"):
            print(f"  {metric:<46} {outcome.metrics[metric]:>14.6g} {units[metric]}")
    else:
        for metric, unit, _, _ in END_TO_END:
            print(f"  {metric:<22} {outcome.metrics[metric]:>14.6g} {unit}")
        raw_ms = statistics.median(outcome.samples["host_ms_per_request"])
        print(f"  {'host_ms_per_request':<22} {raw_ms:>14.6g} ms (uncalibrated; not a gated metric)")
    for failure in outcome.failures:
        print(f"  CHECK FAILED: {failure}")

    correct = not outcome.failures
    record = {
        "workload": name,
        "parameters": workload.parameters(),
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "correct": correct,
        "failures": outcome.failures,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": outcome.metrics,
        "samples": outcome.samples,
    }
    if outcome.spans is not None:
        record["counts"] = outcome.counts
        record["spans"] = [vars(span) for span in outcome.spans]
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record))

    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    metric: {"value": outcome.metrics[metric], "unit": units[metric]}
                    for metric in units
                },
            }
        )
    )
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process, so memory peaks stay separate."""
    from workloads import WORKLOADS

    status = 0
    results = {}
    for name in WORKLOADS:
        child = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload", name,
                "--seed", str(seed),
                "--seconds", str(seconds),
                "--trace", str(int(trace)),
            ],
            capture_output=True,
            text=True,
        )
        sys.stdout.write(child.stdout)
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        status = status or child.returncode
        results[name] = json.loads(lines[-1]) if child.returncode in (0, 1) and lines else None
    names = list(WORKLOADS)
    print(f"\n{'metric':<42} {'unit':<9}" + "".join(f"{n:>16}" for n in names))
    metrics = next((r["metrics"] for r in results.values() if r), {})
    for metric, info in metrics.items():
        row = [
            f"{results[n]['metrics'][metric]['value']:>16.6g}" if results[n] else f"{'-':>16}"
            for n in names
        ]
        print(f"{metric:<42} {info['unit']:<9}" + "".join(row))
    print("correct: " + ", ".join(f"{n}={bool(results[n] and results[n]['correct'])}" for n in names))
    return status


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"
    try:
        _import_program()
    except FileNotFoundError as error:
        print(error, file=sys.stderr)
        return 2
    if args.write_manifest:
        write_manifest()
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
