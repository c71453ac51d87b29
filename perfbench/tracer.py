"""Outside-in host-time tracer for the benchmark's traced run.

The tracer wraps the public functions at each layer boundary of the serving
stack -- from the driver down to the codec -- while it is installed, and
restores the originals when it is removed.  Nothing in the program changes:
the wrappers call the original function with the original arguments and
return its result, which the traced run proves by comparing its simulated
outputs with an untraced run's.

Each wrapped call records a :class:`Span` (name, host start and end, parent
span, and the ``context_id`` when the call carries one).  Spans stay in memory
until the run ends.  ``SimClock.schedule`` runs once per simulated event, so
it is counted rather than spanned.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterator

__all__ = ["Span", "Tracer", "SPANNED", "COUNTED"]


@dataclass
class Span:
    """One call into a layer, timed on the host clock (seconds)."""

    name: str
    start: float
    parent: int | None
    context_id: str | None = None
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _arg(index: int, attr: str | None = None) -> Callable:
    """Extract the ``context_id`` from positional argument ``index``."""

    def extract(args, kwargs):
        value = args[index] if len(args) > index else None
        if value is not None and attr is not None:
            value = getattr(value, attr, None)
        return value if isinstance(value, str) else None

    return extract


def _note_calculate_kv(span: Span, args, kwargs, result) -> None:
    span.attrs["num_tokens"] = result.num_tokens


def _note_encode(span: Span, args, kwargs, result) -> None:
    span.attrs["num_tokens"] = result.num_tokens
    if result.level.name == args[0].config.default_level.name:
        span.attrs["bits_per_element"] = result.bits_per_element


def _note_locate(span: Span, args, kwargs, result) -> None:
    span.attrs["found"] = result.node is not None


#: (owners, attribute, span name, context-id extractor, annotator).  An owner
#: is ``module`` or ``module:Class``; a module-level function is patched in
#: every module that imported it by name.
SPANNED = (
    (("repro.serving.api.driver:Driver",), "run", "serving.api.driver", None, None),
    (("repro.serving.api.backends:ClusterBackend",), "ingest", "serving.api.ingest", _arg(1), None),
    (("repro.serving.api.backends:ClusterBackend",), "run", "serving.api.run", None, None),
    (("repro.serving.api.backends:ClusterBackend",), "report", "serving.api.report", None, None),
    (("repro.llm.synthetic_model:SyntheticLLM",), "calculate_kv", "llm.calculate_kv", _arg(1), _note_calculate_kv),
    (("repro.llm.synthetic_model:SyntheticLLM",), "generate_with_kv", "llm.generate_with_kv", None, None),
    (("repro.core.encoder:CacheGenEncoder",), "fit", "core.fit", None, None),
    (("repro.core.encoder:CacheGenEncoder",), "encode", "core.encode", None, _note_encode),
    (("repro.core.decoder:CacheGenDecoder",), "decode", "core.decode", None, None),
    (
        ("repro.streaming.chunking", "repro.cluster.sharded_store", "repro.storage.kv_store"),
        "prepare_chunks",
        "streaming.prepare_chunks",
        None,
        None,
    ),
    (("repro.storage.kv_store:KVCacheStore",), "store_prepared", "storage.store", _arg(1, "context_id"), None),
    (("repro.cluster.sharded_store:ShardedKVStore",), "store_kv", "cluster.store_kv", _arg(1), None),
    (("repro.cluster.sharded_store:ShardedKVStore",), "locate", "cluster.locate", _arg(1), _note_locate),
    (("repro.serving.concurrent.processes:ChunkedKVLoad",), "materialise", "serving.concurrent.materialise", None, None),
    (("repro.serving.concurrent.simulator:ConcurrentLoadSimulator",), "run", "serving.concurrent.sim_run", None, None),
)

#: (owner, attribute, counter name): calls counted without a span.
COUNTED = (("repro.serving.concurrent.events:SimClock", "schedule", "serving.concurrent.events"),)


_INHERITED = object()


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class Tracer:
    """Records spans at the layer boundaries while :meth:`installed`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []

    # ---------------------------------------------------------------- wrappers
    def _spanned(self, fn: Callable, name: str, context_of, annotate) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(
                name=name,
                start=time.perf_counter(),
                parent=stack[-1] if stack else None,
                context_id=context_of(args, kwargs) if context_of else None,
            )
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if annotate is not None:
                annotate(span, args, kwargs, result)
            return result

        return traced

    def _counted(self, fn: Callable, name: str) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every boundary for the ``with`` block, then restore the originals.

        An inherited method is shadowed on the named class and deleted again
        on exit, so a base class is never touched.
        """
        saved: list[tuple[object, str, object]] = []

        def patch(target, attribute: str, wrapper: Callable) -> None:
            saved.append((target, attribute, vars(target).get(attribute, _INHERITED)))
            setattr(target, attribute, wrapper)

        try:
            for owners, attribute, name, context_of, annotate in SPANNED:
                for owner in owners:
                    target = _resolve(owner)
                    original = getattr(target, attribute)
                    patch(target, attribute, self._spanned(original, name, context_of, annotate))
            for owner, attribute, name in COUNTED:
                target = _resolve(owner)
                patch(target, attribute, self._counted(getattr(target, attribute), name))
            yield self
        finally:
            for target, attribute, original in reversed(saved):
                if original is _INHERITED:
                    delattr(target, attribute)
                else:
                    setattr(target, attribute, original)

    # ---------------------------------------------------------------- analysis
    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover.

        One thread runs every call, so siblings never overlap and the covered
        time is the sum of the children's durations.
        """
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.duration
        return [span.duration - child for span, child in zip(self.spans, covered)]

    def ancestors(self, index: int) -> Iterator[int]:
        parent = self.spans[index].parent
        while parent is not None:
            yield parent
            parent = self.spans[parent].parent

    def context_of(self, index: int) -> str | None:
        """The span's ``context_id``, else that of its nearest ancestor with one."""
        for candidate in (index, *self.ancestors(index)):
            if self.spans[candidate].context_id is not None:
                return self.spans[candidate].context_id
        return None
