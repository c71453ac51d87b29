"""Serving integration: the end-to-end context-loading engine of §6.

The public surface is the unified API in :mod:`repro.serving.api`: declare a
:class:`~repro.serving.api.ServingSpec`, build a backend (or call
:func:`~repro.serving.api.serve`), and drive it with
:class:`~repro.serving.api.ServeRequest` objects.

The backends are built from two engines: the sequential
:class:`ContextLoadingEngine` serves one query at a time, and the
:mod:`repro.serving.concurrent` subpackage serves batches of queries through
a discrete-event simulation of the shared links and GPU run queue.
"""

from .engine import ContextLoadingEngine
from .pipeline import IngestReport, QueryResponse
from .concurrent import ConcurrentEngine
from .api import (
    AutoscaleSpec,
    Driver,
    RunReport,
    ServeRequest,
    ServeResponse,
    ServingSpec,
    build_backend,
    serve,
)
from .fleet import (
    DispatchPolicy,
    GpuWorkerPool,
    LeastLoadedDispatch,
    LocalityDispatch,
    StickyDispatch,
    make_dispatch,
)

__all__ = [
    "AutoscaleSpec",
    "ConcurrentEngine",
    "ContextLoadingEngine",
    "DispatchPolicy",
    "Driver",
    "GpuWorkerPool",
    "IngestReport",
    "LeastLoadedDispatch",
    "LocalityDispatch",
    "QueryResponse",
    "RunReport",
    "ServeRequest",
    "ServeResponse",
    "ServingSpec",
    "StickyDispatch",
    "build_backend",
    "make_dispatch",
    "serve",
]
