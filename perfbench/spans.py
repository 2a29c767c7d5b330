"""Host-time spans around the simulator's layer entry points.

The traced benchmark run wraps the public entry point of each layer in a
span (name, start, end, parent) recorded on the host clock. Wrappers are
installed on the classes (and, for the fair-share solvers, on the names
``repro.netsim.network`` calls through) only for the duration of
:func:`installed`, and removed afterwards, so untraced runs execute the
unmodified program. Nothing under ``src/`` is edited.

What the wrappers cannot see: ``Network._rerate`` and ``Network._drain``
are private. The rerate runs from a deferred kernel callback, so its
bookkeeping lands in the self time of the enclosing ``simcore.step`` span
(a drain done inside ``Network.transfer`` lands in that span's self time).
Only the solver calls are separated out, as ``netsim.solve`` /
``netsim.prio_solve``.
"""

from __future__ import annotations

import functools
import inspect
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Iterator, Optional, Sequence

NO_PARENT = -1


@dataclass(frozen=True)
class Span:
    """One closed span; ``parent`` indexes the enclosing span or is -1."""

    name: str
    start: float
    end: float
    parent: int = NO_PARENT
    work: int = 0


class SpanRecorder:
    """Append-only in-memory span store with a single call stack.

    The simulator is single-threaded and every wrapped call returns (or its
    generator resume yields) before its caller continues, so spans nest
    strictly and one stack gives each span its parent. Columns are compact
    arrays because a traced run records hundreds of thousands of spans.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.works = array("q")
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int, work: int = 0) -> int:
        idx = len(self.name_ids)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1] if self._stack else NO_PARENT)
        self.works.append(work)
        self.ends.append(0.0)
        self._stack.append(idx)
        # Read the clock last so the bookkeeping above is not inside the span.
        self.starts.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError(
                f"span {self.names[self.name_ids[idx]]!r} closed out of order"
            )

    def __len__(self) -> int:
        return len(self.name_ids)

    def spans(self) -> list[Span]:
        names = self.names
        return [
            Span(names[n], s, e, p, w)
            for n, s, e, p, w in zip(
                self.name_ids, self.starts, self.ends, self.parents, self.works
            )
        ]


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children are merged as intervals (clipped to the parent), so overlapping
    or out-of-range children are not subtracted twice.
    """
    covered = [0.0] * len(spans)
    cursor = [s.start for s in spans]
    order = sorted(
        (i for i, s in enumerate(spans) if s.parent != NO_PARENT),
        key=lambda i: spans[i].start,
    )
    for i in order:
        child = spans[i]
        p = child.parent
        lo = max(child.start, cursor[p])
        hi = min(child.end, spans[p].end)
        if hi > lo:
            covered[p] += hi - lo
            cursor[p] = hi
    return [(s.end - s.start) - c for s, c in zip(spans, covered)]


@dataclass
class LayerStats:
    """Per-name totals. ``calls`` and ``total_s`` count only outermost spans
    of a name (a span whose parent has the same name, as with ``super()``
    chains, is folded into it); ``self_s`` sums every span's self time."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    work: int = 0


def aggregate(spans: Sequence[Span]) -> dict[str, LayerStats]:
    selfs = self_times(spans)
    out: dict[str, LayerStats] = {}
    for s, own in zip(spans, selfs):
        st = out.setdefault(s.name, LayerStats())
        st.self_s += own
        if s.parent != NO_PARENT and spans[s.parent].name == s.name:
            continue
        st.calls += 1
        st.total_s += s.end - s.start
        st.work += s.work
    return out


# -- wrappers -----------------------------------------------------------------


def _wrap_call(fn: Callable, name: str, rec: SpanRecorder,
               work: Optional[Callable] = None) -> Callable:
    nid = rec.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(nid, work(args) if work is not None else 0)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(idx)

    return wrapper


def _timed_resumes(gen, nid: int, rec: SpanRecorder):
    """Delegate to ``gen`` like ``yield from``, one span per resume."""
    resume, arg = gen.send, None
    while True:
        idx = rec.open(nid)
        try:
            item = resume(arg)
        except StopIteration as stop:
            return stop.value
        finally:
            rec.close(idx)
        try:
            arg = yield item
            resume = gen.send
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:  # delivered into the wrapped generator
            resume, arg = gen.throw, exc


def _wrap_generator(fn: Callable, name: str, rec: SpanRecorder) -> Callable:
    nid = rec.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return _timed_resumes(fn(*args, **kwargs), nid, rec)

    return wrapper


def _subclasses(cls) -> list:
    seen, todo = [], [cls]
    while todo:
        c = todo.pop()
        if c not in seen:
            seen.append(c)
            todo.extend(c.__subclasses__())
    return seen


def _defining(base, attr: str) -> list:
    """``base`` and every loaded subclass that defines ``attr`` itself."""
    return [c for c in _subclasses(base) if attr in vars(c)]


def _n_routes(args) -> int:
    return len(args[0])


def _targets():
    """(owner, attribute, span name[, work]) for every wrapped entry point;
    ``work`` maps the call's positional arguments to the span's work count."""
    import repro.core  # noqa: F401  (registers OSP and its SyncModel subclasses)
    import repro.netsim.network as network
    import repro.sync  # noqa: F401
    from repro.autograd.tensor import Tensor
    from repro.cluster.engines import Engine
    from repro.cluster.ps import ParameterServer
    from repro.core.lgp import LGPCorrector
    from repro.multijob.netview import JobNetworkView
    from repro.obs.timeseries import MetricSampler
    from repro.obs.tracer import Tracer
    from repro.simcore.environment import Environment
    from repro.sync.base import SyncModel

    out = [
        (Environment, "step", "simcore.step"),
        (network.Network, "transfer", "netsim.transfer"),
        # Network calls the solvers through its module globals; the
        # priority solver's per-class sub-solves go through the same name,
        # so they nest under netsim.prio_solve.
        (network, "fast_fair_rates", "netsim.solve", _n_routes),
        (network, "max_min_fair_rates", "netsim.solve", _n_routes),
        (network, "prio_fair_rates", "netsim.prio_solve", _n_routes),
        (JobNetworkView, "transfer", "multijob.view_transfer"),
        (ParameterServer, "accumulate", "cluster.ps_accumulate"),
        (ParameterServer, "apply_average", "cluster.ps_apply"),
        (ParameterServer, "apply_immediate", "cluster.ps_apply"),
        (Tensor, "backward", "autograd.backward"),
        (MetricSampler, "on_advance", "obs.sampler"),
    ]
    for attr in ("begin", "end", "instant", "gauge", "gauge_delta", "observe",
                 "add_traffic"):
        out.append((Tracer, attr, "obs.tracer"))
    for cls in _defining(SyncModel, "synchronize"):
        out.append((cls, "synchronize", "sync.synchronize"))
    for attr in ("apply_rs", "apply_ics"):
        for cls in _defining(LGPCorrector, attr):
            out.append((cls, attr, "core.lgp"))
    for attr, name in (
        ("compute", "engines.compute"),
        ("evaluate", "engines.eval"),
        ("sync_replica", "engines.sync_replica"),
        ("ps_layer_importance", "core.pgp"),
    ):
        for cls in _defining(Engine, attr):
            out.append((cls, attr, name))
    return out


@contextmanager
def installed(rec: SpanRecorder) -> Iterator[SpanRecorder]:
    """Wrap every layer entry point for the body of the ``with``; the
    original attributes are restored on exit, even on error."""
    saved = []
    try:
        for owner, attr, name, *work in _targets():
            original = vars(owner)[attr]
            if inspect.isgeneratorfunction(original):
                wrapped = _wrap_generator(original, name, rec)
            else:
                wrapped = _wrap_call(original, name, rec, *work)
            saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


__all__ = [
    "LayerStats",
    "Span",
    "SpanRecorder",
    "aggregate",
    "installed",
    "self_times",
]
