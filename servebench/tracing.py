"""Benchmark-owned layer tracing for the ``rpcheck serve`` daemon process.

:func:`install` wraps the public entry points of each layer the served
query passes through, from outside ``src/``:

============================  =============================================
layer                         wrapped entry point
============================  =============================================
``serve.daemon``              ``repro.obs.recorder.sink_scope`` as the
                              daemon's worker-thread body uses it (one
                              scope per request, carrying its id)
``serve.pool``                ``SessionPool.get_or_compile``
``lang``                      ``repro.lang.compile_source``
``api``                       ``repro.api.execute`` (the daemon's binding)
``analysis.<procedure>``      the ``repro.api.PROCEDURES`` registry entries
``analysis.session``          ``AnalysisSession.explore``
``core.semantics``            ``MemoizingSemantics.successors``
``core.hstate``               ``HState.__init__``
``core.embedding``            ``EmbeddingIndex.embeds`` and
                              ``EmbeddingIndex.dominates``, the top-level
                              embedding queries; their outcomes come from
                              the index's own counters, read per request
============================  =============================================

Each worker thread keeps a stack of open frames for the outer layers; a
frame's *self* time is its duration minus the frames and hot calls nested
in it.  Nothing is recorded per call.  The three hot boundaries
(successors, state construction, embedding) only add a count and a
duration to per-thread slots (embedding time is sampled, one call in
:data:`EMBED_SAMPLE`), and the enclosing frame subtracts the slots'
growth when it closes.  Per-request roll-ups are keyed by
``request_id``, held in memory and written once, by :func:`dump`, when
the daemon exits.
"""

from __future__ import annotations

import contextlib
import json
import threading
from time import perf_counter
from typing import Any, Dict, List

#: Per-request roll-ups: ``request_id -> {"layers": {layer: [count,
#: total_s, self_s]}, "counters": {name: int}}``.
REQUESTS: Dict[str, Dict[str, Any]] = {}
_LOCK = threading.Lock()

#: One top-level embedding query in this many is timed (see install()).
EMBED_SAMPLE = 32

# Hot slots, one list per thread and request:
# [hstate calls, hstate s, embedding s (sampled),
#  successors calls, successors s, hot s inside successors, successor misses]
_HS_N, _HS_T, _EM_T, _SU_N, _SU_T, _SU_IN, _SU_MISS = range(7)


def _hot_seconds(hot: List[float]) -> float:
    """Time spent in hot calls so far, each counted once."""
    return hot[_SU_T] + hot[_HS_T] + hot[_EM_T] - hot[_SU_IN]


class _ThreadState(threading.local):
    def __init__(self) -> None:
        #: Open frames, innermost last; each is ``[nested frame seconds,
        #: hot seconds inside nested frames]``.  ``None`` outside a
        #: request, which turns every wrapper off.
        self.stack: Any = None
        self.hot: Any = None
        self.layers: Dict[str, List[float]] = {}
        self.counters: Dict[str, int] = {}


_TLS = _ThreadState()


def _count(name: str, amount: int) -> None:
    counters = _TLS.counters
    counters[name] = counters.get(name, 0) + amount


def _timed(name: str, fn):
    """Wrap *fn* as one frame of layer *name*."""

    def wrapper(*args, **kwargs):
        stack = _TLS.stack
        if stack is None:
            return fn(*args, **kwargs)
        hot = _TLS.hot
        frame = [0.0, 0.0]
        stack.append(frame)
        hot_before = _hot_seconds(hot)
        started = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - started
            hot_inside = _hot_seconds(hot) - hot_before
            stack.pop()
            parent = stack[-1]
            parent[0] += elapsed
            parent[1] += hot_inside
            acc = _TLS.layers.get(name)
            if acc is None:
                acc = _TLS.layers[name] = [0, 0.0, 0.0]
            acc[0] += 1
            acc[1] += elapsed
            acc[2] += elapsed - frame[0] - (hot_inside - frame[1])

    return wrapper


@contextlib.contextmanager
def _request(request_id: str):
    """The ``serve.daemon`` frame: opens and flushes one request's roll-up."""
    root = [0.0, 0.0]
    hot = [0.0] * 7
    _TLS.stack, _TLS.hot, _TLS.layers, _TLS.counters = [root], hot, {}, {}
    started = perf_counter()
    try:
        yield
    finally:
        elapsed = perf_counter() - started
        layers = _TLS.layers
        layers["serve.daemon"] = [
            1, elapsed, elapsed - root[0] - (_hot_seconds(hot) - root[1])
        ]
        layers["core.hstate"] = [hot[_HS_N], hot[_HS_T], hot[_HS_T]]
        counters = _TLS.counters
        embeds = counters.get("embedding.calls", 0)
        layers["core.embedding"] = [embeds, hot[_EM_T], hot[_EM_T]]
        layers["core.semantics"] = [
            hot[_SU_N], hot[_SU_T], hot[_SU_T] - hot[_SU_IN]
        ]
        counters["successor_misses"] = int(hot[_SU_MISS])
        _TLS.stack = _TLS.hot = None
        with _LOCK:
            REQUESTS[request_id] = {"layers": layers, "counters": counters}


def install() -> None:
    """Wrap every layer boundary listed in the module docstring."""
    import repro.api as api
    import repro.lang as lang
    import repro.serve.daemon as daemon
    from repro.analysis.session import AnalysisSession
    from repro.core.embedding import EmbeddingIndex
    from repro.core.hstate import HState
    from repro.core.semantics import MemoizingSemantics
    from repro.serve.pool import SessionPool

    original_scope = daemon.sink_scope

    @contextlib.contextmanager
    def sink_scope(*args, **kwargs):
        request_id = (kwargs.get("context") or {}).get("request_id") or "?"
        with original_scope(*args, **kwargs) as scope, _request(request_id):
            yield scope

    daemon.sink_scope = sink_scope

    SessionPool.get_or_compile = _timed("serve.pool", SessionPool.get_or_compile)
    lang.compile_source = _timed("lang", lang.compile_source)

    execute = _timed("api", daemon.execute)

    def traced_execute(request, **kwargs):
        session = kwargs.get("session")
        if session is None or _TLS.stack is None:
            return execute(request, **kwargs)
        states = session.semantics.interned_states
        index = session.embedding_index.counters()
        try:
            return execute(request, **kwargs)
        finally:
            _count("interned_states", session.semantics.interned_states - states)
            for name, value in session.embedding_index.counters().items():
                _count(f"embedding.{name}", value - index[name])

    daemon.execute = traced_execute

    for name, procedure in list(api.PROCEDURES.items()):
        api.PROCEDURES[name] = _timed(f"analysis.{name}", procedure)

    explore = _timed("analysis.session", AnalysisSession.explore)

    def traced_explore(self, *args, **kwargs):
        before = len(self.graph)
        try:
            return explore(self, *args, **kwargs)
        finally:
            if _TLS.stack is not None:
                _count("states_discovered", len(self.graph) - before)

    AnalysisSession.explore = traced_explore

    # -- hot boundaries: fixed signatures, slot updates only ------------

    successors = MemoizingSemantics.successors

    def traced_successors(self, state):
        hot = _TLS.hot
        if hot is None:
            return successors(self, state)
        misses = self.cache_misses
        inner = hot[_HS_T]
        started = perf_counter()
        result = successors(self, state)
        hot[_SU_T] += perf_counter() - started
        hot[_SU_IN] += hot[_HS_T] - inner
        hot[_SU_N] += 1
        hot[_SU_MISS] += self.cache_misses - misses
        return result

    MemoizingSemantics.successors = traced_successors

    construct = HState.__init__

    def traced_init(self, items=()):
        hot = _TLS.hot
        if hot is None:
            return construct(self, items)
        started = perf_counter()
        construct(self, items)
        hot[_HS_T] += perf_counter() - started
        hot[_HS_N] += 1

    HState.__init__ = traced_init

    def embedding_query(query):
        # Millions of sub-microsecond calls: only every EMBED_SAMPLE-th
        # call is timed (its duration scaled up); the calls themselves are
        # counted exactly by the index's own counters.
        tick = [0]

        def traced(self, first, second, embedding=None):
            tick[0] += 1
            if tick[0] % EMBED_SAMPLE:
                return query(self, first, second, embedding)
            hot = _TLS.hot
            if hot is None:
                return query(self, first, second, embedding)
            started = perf_counter()
            result = query(self, first, second, embedding)
            hot[_EM_T] += (perf_counter() - started) * EMBED_SAMPLE
            return result

        return traced

    EmbeddingIndex.embeds = embedding_query(EmbeddingIndex.embeds)
    EmbeddingIndex.dominates = embedding_query(EmbeddingIndex.dominates)


def dump(path: str) -> None:
    """Write every request's roll-up to *path* (once, at daemon exit)."""
    with _LOCK:
        payload = dict(REQUESTS)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
