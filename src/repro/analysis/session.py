"""Shared analysis sessions: explore ``M_G`` once, answer many queries.

Every decision procedure of Section 3 is a search over the same reachable
fragment of ``M_G``.  Historically each entry point built its own
:class:`~repro.analysis.explore.Explorer` and re-ran the full BFS from
``σ0``; an :class:`AnalysisSession` instead owns **one** incrementally
growable :class:`~repro.analysis.explore.StateGraph` that all procedures
share:

* a search that paused at budget ``N`` *resumes* from its frontier when a
  later query asks for more — it never restarts;
* successor computation is memoized per state and all states are
  hash-consed (:class:`~repro.core.semantics.MemoizingSemantics`), so
  repeated queries mostly hit caches;
* an :class:`AnalysisStats` object counts everything (states expanded,
  transitions fired, cache hits, peak frontier, per-query wall time) and
  optional progress listeners observe long explorations as they run.

Usage::

    session = AnalysisSession(scheme)
    node_reachable(scheme, "q5", session=session)   # explores
    boundedness(scheme, session=session)            # reuses the graph
    check_ctl(scheme, AF(terminated()), session=session)  # reuses again
    session.stats.explorations                      # == 1

The module-level procedures keep working without a session — they create
a throwaway one per call — so the session is an opt-in optimisation, not
a breaking change.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..core.embedding import EmbeddingIndex
from ..core.hstate import HState
from ..core.scheme import RPScheme
from ..core.semantics import MemoizingSemantics
from ..errors import (
    AnalysisBudgetExceeded,
    AnalysisError,
    BudgetExhausted,
    CorruptionDetected,
    RPError,
)
from ..obs import MetricsRegistry, Tracer
from ..obs.recorder import ambient_recorder, record_incident
from .explore import DEFAULT_MAX_STATES, StateGraph


@dataclass
class AnalysisStats:
    """Counters and timings for one :class:`AnalysisSession`.

    Invariants (asserted in the test-suite): ``states_expanded`` ≤
    ``states_discovered``; all counters are monotone; ``explorations``
    counts *from-scratch* exploration passes — a session resumes its BFS
    instead of re-exploring, so it stays at 1 however many queries run.
    """

    #: Distinct states discovered (== the shared graph's size).
    states_discovered: int = 0
    #: States whose successors were expanded into the shared graph.
    states_expanded: int = 0
    #: Transitions recorded in the shared graph.
    transitions_fired: int = 0
    #: From-scratch exploration passes of ``M_G`` (1 for a used session).
    explorations: int = 0
    #: Largest frontier (discovered-but-unexpanded set) seen so far.
    peak_frontier: int = 0
    #: Wall-clock seconds spent growing the shared graph.
    explore_seconds: float = 0.0
    #: Per-query invocation counts, keyed by procedure name.
    queries: Dict[str, int] = field(default_factory=dict)
    #: Per-query cumulative wall-clock seconds.
    query_seconds: Dict[str, float] = field(default_factory=dict)
    #: Successor-cache hits/misses (mirrors the memoizing semantics).
    successor_cache_hits: int = 0
    successor_cache_misses: int = 0
    #: Distinct states that passed through the semantics' intern() or
    #: successors() (spine sub-states of its state table excluded).
    interned_states: int = 0
    #: Embedding queries answered by the session's EmbeddingIndex.
    embedding_calls: int = 0
    #: Embedding queries refuted by the signature domination test alone.
    embedding_signature_refutations: int = 0
    #: Embedding queries answered from the session-lifetime pair memo.
    embedding_memo_hits: int = 0

    #: Backref to the session's EmbeddingIndex (not a dataclass field);
    #: lets the counters refresh lazily whenever the stats are read.
    _embedding_index = None

    def sync_embedding(self) -> None:
        """Refresh the embedding counters from the session's index."""
        index = self._embedding_index
        if index is not None:
            self.embedding_calls = index.calls
            self.embedding_signature_refutations = index.signature_refutations
            self.embedding_memo_hits = index.memo_hits

    @contextmanager
    def timed(self, name: str):
        """Record one invocation of query *name* and its wall time."""
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.queries[name] = self.queries.get(name, 0) + 1
            self.query_seconds[name] = self.query_seconds.get(name, 0.0) + elapsed
            self.sync_embedding()

    def as_dict(self) -> Dict[str, Any]:
        """A JSON-ready snapshot (used by the benchmark harnesses)."""
        self.sync_embedding()
        return {
            "states_discovered": self.states_discovered,
            "states_expanded": self.states_expanded,
            "transitions_fired": self.transitions_fired,
            "explorations": self.explorations,
            "peak_frontier": self.peak_frontier,
            "explore_seconds": self.explore_seconds,
            "queries": dict(self.queries),
            "query_seconds": dict(self.query_seconds),
            "successor_cache_hits": self.successor_cache_hits,
            "successor_cache_misses": self.successor_cache_misses,
            "interned_states": self.interned_states,
            "embedding_calls": self.embedding_calls,
            "embedding_signature_refutations": self.embedding_signature_refutations,
            "embedding_memo_hits": self.embedding_memo_hits,
        }

    def render(self) -> str:
        """Human-readable multi-line summary (``rpcheck --stats``)."""
        self.sync_embedding()
        lines = [
            f"states discovered  : {self.states_discovered}",
            f"states expanded    : {self.states_expanded}",
            f"transitions fired  : {self.transitions_fired}",
            f"explorations       : {self.explorations}",
            f"peak frontier      : {self.peak_frontier}",
            f"successor cache    : {self.successor_cache_hits} hits / "
            f"{self.successor_cache_misses} misses",
            f"interned states    : {self.interned_states}",
            f"embedding calls    : {self.embedding_calls} "
            f"({self.embedding_signature_refutations} signature refutations, "
            f"{self.embedding_memo_hits} memo hits)",
            f"explore time       : {self.explore_seconds:.3f}s",
        ]
        for name in sorted(self.queries):
            lines.append(
                f"query {name:<18} x{self.queries[name]}"
                f"  ({self.query_seconds.get(name, 0.0):.3f}s)"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class ProgressEvent:
    """A snapshot emitted to progress listeners during exploration."""

    states: int
    transitions: int
    frontier: int
    elapsed: float


#: Signature of a progress listener (see AnalysisSession.on_progress).
ProgressListener = Callable[[ProgressEvent], None]


class AnalysisSession:
    """A per-scheme analysis engine with one shared, resumable state graph.

    Parameters
    ----------
    scheme:
        The RP scheme under analysis.
    initial:
        Exploration root (default ``σ0``).  A session answers queries
        about ``Reach(initial)``; procedures asked about a *different*
        initial state transparently use a throwaway session.
    progress_interval:
        Emit a :class:`ProgressEvent` to registered listeners every this
        many state expansions.
    embedding_index:
        The session's :class:`~repro.core.embedding.EmbeddingIndex`
        (default: a fresh accelerated one).  Pass
        ``EmbeddingIndex(accelerated=False)`` to run every embedding
        query through the naive reference path — the A/B switch of
        ``benchmarks/bench_wqo_index.py``.
    semantics:
        The successor engine (default: a fresh
        :class:`MemoizingSemantics`).  Injection point for the chaos
        harness (:class:`repro.robust.ChaosSemantics`) and any other
        instrumented backend; must be built for the same scheme.
    budget:
        The session's ambient :class:`~repro.robust.Budget`.  Checked
        once per state expansion (and inside the procedures' auxiliary
        search loops); usually installed per-call by the governed
        procedure wrappers rather than at construction.

    Attributes
    ----------
    graph:
        The shared :class:`StateGraph`.  Always a BFS-order prefix of the
        full exploration: growing it to budget ``2N`` after a pause at
        ``N`` yields state-for-state the same graph as a fresh ``2N`` run.
    semantics:
        The shared :class:`MemoizingSemantics` (successor cache + state
        table), also used by the procedures' auxiliary searches.
    embedding_index:
        Session-lifetime embedding memoisation (signature-pruned, keyed
        by gap identity) that boundedness, sup-reachability,
        inevitability, coverability and persistence route through.
    stats:
        The session's :class:`AnalysisStats`.
    memo:
        A procedure-managed cache for conclusive verdicts and other
        derived artefacts (CTL checker, sup-reachability antichain, ...).
    """

    def __init__(
        self,
        scheme: RPScheme,
        initial: Optional[HState] = None,
        *,
        progress_interval: int = 8192,
        embedding_index: Optional[EmbeddingIndex] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        semantics: Optional[MemoizingSemantics] = None,
        budget: Optional[Any] = None,
    ) -> None:
        self.scheme = scheme
        if semantics is not None and semantics.scheme is not scheme:
            raise AnalysisError(
                "session semantics was built for a different scheme "
                f"({semantics.scheme.name!r}, session scheme {scheme.name!r})"
            )
        self.semantics = semantics if semantics is not None else MemoizingSemantics(scheme)
        #: Ambient resource budget (duck-typed; see repro.robust.Budget).
        #: ``None`` means ungoverned — the historical behaviour.
        self.budget = budget
        start = initial if initial is not None else self.semantics.initial_state
        self.initial = self.semantics.intern(start)
        self.embedding_index = (
            embedding_index if embedding_index is not None else EmbeddingIndex()
        )
        # Flight-recorder default: sessions without an explicit tracer
        # record their phase spans into the process-wide bounded ring
        # buffer, so an incident dump always has recent telemetry.  Span
        # discipline (phases, never per-state work) keeps this within
        # the <5% obs-overhead bar (benchmarks/bench_obs_overhead.py).
        self.tracer = tracer if tracer is not None else Tracer(ambient_recorder())
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Single source of truth for frontier size (current/peak): the
        #: explore loop samples it, everything else only reads it.
        self._frontier_gauge = self.metrics.gauge(
            "explore.frontier", "discovered-but-unexpanded states"
        )
        self.stats = AnalysisStats()
        self.stats._embedding_index = self.embedding_index
        self.graph = StateGraph(scheme, self.initial)
        self.graph._add_state(self.initial, None)
        self.graph.unexpanded = [self.initial]
        self.memo: Dict[Any, Any] = {}
        self._queue: deque = deque([self.initial])
        self._expanded = 0
        self._progress_interval = max(1, progress_interval)
        self._listeners: List[ProgressListener] = []
        # ensure_explored concurrency contract (see the method docstring)
        self._explore_cv = threading.Condition()
        self._explore_active = False
        self._explore_target = 0
        #: Exploration requests answered by waiting on an in-flight
        #: exploration instead of running one (the serve daemon's
        #: coalescing counter; purely informational).
        self.coalesced_explorations = 0
        self._frontier_gauge.set(len(self._queue))
        self._sync_stats()

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def on_progress(self, listener: ProgressListener) -> None:
        """Register *listener* for periodic exploration progress events."""
        self._listeners.append(listener)

    @contextmanager
    def phase(self, name: str, **attrs: Any):
        """One top-level query phase: a stats timer plus a tracer span.

        Decision procedures wrap their body in this so every query shows
        up both in :class:`AnalysisStats` (counts, cumulative seconds) and
        in the trace (one span, with sub-phase spans nested under it).
        Yields the span so callers can attach result attributes.

        The phase is also the flight-recorder trigger point: a
        :class:`~repro.errors.BudgetExhausted`, a
        :class:`~repro.errors.CorruptionDetected`, or any *unexpected*
        exception (anything outside the typed :class:`RPError`
        hierarchy) escaping the body dumps a diagnostic bundle via
        :func:`repro.obs.record_incident` — a no-op unless a dump target
        is configured, idempotent per exception, and never masking the
        original error.  Routine :class:`AnalysisBudgetExceeded` state
        overruns stay quiet; they are an answer, not an incident.
        """
        start = time.perf_counter()
        try:
            with self.stats.timed(name):
                with self.tracer.span(name, **attrs) as span:
                    try:
                        yield span
                    except (BudgetExhausted, CorruptionDetected) as error:
                        record_incident(
                            self, error, reason=f"{type(error).__name__} in {name}"
                        )
                        raise
                    except RPError:
                        raise
                    except Exception as error:
                        record_incident(
                            self,
                            error,
                            reason=f"uncaught {type(error).__name__} in {name}",
                        )
                        raise
        finally:
            # live per-observation feed: the query-latency histogram gets
            # real samples (bucketed p50/p95/p99), not just a count/sum
            # snapshot synced after the fact
            self.metrics.histogram(
                "session.query_seconds", "per-procedure wall time"
            ).labels(procedure=name).observe(time.perf_counter() - start)

    def _sync_stats(self) -> None:
        stats = self.stats
        stats.states_discovered = len(self.graph)
        stats.states_expanded = self._expanded
        # peak_frontier has exactly one source of truth: the frontier
        # gauge, sampled by the explore loop (and once at construction).
        stats.peak_frontier = int(self._frontier_gauge.max or 0)
        stats.successor_cache_hits = self.semantics.cache_hits
        stats.successor_cache_misses = self.semantics.cache_misses
        stats.interned_states = self.semantics.interned_states
        stats.sync_embedding()

    def _sample_progress(self, started: float) -> None:
        """Periodic mid-exploration sample: gauges, a trace event, and the
        legacy :class:`ProgressEvent` listener callback (now a thin adapter
        over the same snapshot)."""
        states = len(self.graph)
        transitions = self.graph.num_transitions
        frontier = len(self._queue)
        elapsed = time.perf_counter() - started
        metrics = self.metrics
        metrics.gauge("explore.states", "states discovered so far").set(states)
        metrics.gauge("explore.transitions", "transitions recorded so far").set(
            transitions
        )
        semantics = self.semantics
        lookups = semantics.cache_hits + semantics.cache_misses
        if lookups:
            metrics.gauge(
                "explore.cache_hit_rate", "successor-cache hit fraction"
            ).set(semantics.cache_hits / lookups)
        if self.tracer.enabled:
            self.tracer.event(
                "explore.progress",
                states=states,
                transitions=transitions,
                frontier=frontier,
                elapsed=elapsed,
            )
        if self._listeners:
            event = ProgressEvent(
                states=states,
                transitions=transitions,
                frontier=frontier,
                elapsed=elapsed,
            )
            for listener in self._listeners:
                listener(event)

    def sync_metrics(self) -> MetricsRegistry:
        """Publish the session's counters into its metrics registry.

        Hot paths (the explore loop, the Embedder) keep raw attribute
        counters; this snapshots them into the registry via
        :meth:`~repro.obs.CounterMetric.set_total` so reading metrics
        never taxes exploration.  Returns the registry for convenience.
        """
        self._sync_stats()
        stats = self.stats
        metrics = self.metrics
        metrics.counter(
            "explore.states_discovered", "distinct states in the shared graph"
        ).set_total(stats.states_discovered)
        metrics.counter(
            "explore.states_expanded", "states whose successors were expanded"
        ).set_total(stats.states_expanded)
        metrics.counter(
            "explore.transitions_fired", "transitions recorded in the shared graph"
        ).set_total(stats.transitions_fired)
        metrics.counter(
            "explore.explorations", "from-scratch exploration passes"
        ).set_total(stats.explorations)
        metrics.counter(
            "semantics.cache_hits", "successor-cache hits"
        ).set_total(stats.successor_cache_hits)
        metrics.counter(
            "semantics.cache_misses", "successor-cache misses"
        ).set_total(stats.successor_cache_misses)
        metrics.counter(
            "semantics.interned_states", "distinct hash-consed states"
        ).set_total(stats.interned_states)
        queries = metrics.counter("session.queries", "per-procedure query counts")
        query_time = metrics.histogram(
            "session.query_seconds", "per-procedure wall time"
        )
        for name, count in stats.queries.items():
            queries.labels(procedure=name).set_total(count)
        for name, seconds in stats.query_seconds.items():
            child = query_time.labels(procedure=name)
            behind = stats.queries.get(name, 1) - child.count
            if behind > 0:
                # queries recorded outside phase() (sub-engines timing
                # straight into stats, restored checkpoints): fold the
                # missing mass in as average-valued observations so the
                # histogram's count/sum stay consistent with the stats
                average = max(0.0, (seconds - child.sum) / behind)
                for _ in range(behind):
                    child.observe(average)
        calls = metrics.counter("embedding.calls", "embedding queries answered")
        sig = metrics.counter(
            "embedding.signature_refutations",
            "embedding queries refuted by signature domination alone",
        )
        memo = metrics.counter(
            "embedding.memo_hits", "embedding queries answered from the pair memo"
        )
        for gap_key, embedder in self.embedding_index.embedders():
            label = "*" if gap_key is None else ",".join(sorted(gap_key))
            calls.labels(gap=label).set_total(embedder.calls)
            sig.labels(gap=label).set_total(embedder.sig_refutations)
            memo.labels(gap=label).set_total(embedder.memo_hits)
        calls.set_total(self.embedding_index.calls)
        sig.set_total(self.embedding_index.signature_refutations)
        memo.set_total(self.embedding_index.memo_hits)
        return metrics

    # ------------------------------------------------------------------
    # Resource governance & checkpointing
    # ------------------------------------------------------------------

    @property
    def frontier(self):
        """The discovered-but-unexpanded states, in BFS queue order."""
        return self._queue

    @property
    def expanded_count(self) -> int:
        """States whose successors have been expanded into the graph."""
        return self._expanded

    def checkpoint(self) -> Dict[str, Any]:
        """A JSON-ready snapshot of the session's resumable state.

        Captures the scheme, the explored BFS prefix (states in discovery
        order plus the recorded transitions of every expanded state), the
        frontier and the memoized antichains; feed the result to
        :meth:`restore` — in this process or another — to continue
        exactly where this session paused.
        """
        from ..robust.checkpoint import checkpoint_session

        return checkpoint_session(self)

    @classmethod
    def restore(
        cls,
        data: Dict[str, Any],
        *,
        scheme: Optional[RPScheme] = None,
        **session_kwargs: Any,
    ) -> "AnalysisSession":
        """Rebuild a session from a :meth:`checkpoint` snapshot.

        With *scheme* given, the checkpoint must have been taken for a
        structurally identical scheme; otherwise the scheme embedded in
        the checkpoint is used.  Extra keyword arguments pass through to
        the constructor (``tracer=``, ``metrics=``, ``budget=``, ...).
        """
        from ..robust.checkpoint import restore_session

        return restore_session(data, scheme=scheme, **session_kwargs)

    def _restore_frontier(self, expanded: int, complete: bool) -> None:
        """Reset the explore cursor after a checkpoint replay.

        The frontier of a BFS prefix is exactly the discovery-ordered
        suffix of un-expanded states, so the queue is rebuilt from the
        graph rather than stored separately.
        """
        self._expanded = expanded
        self._queue = deque(self.graph.states[expanded:])
        self.graph.unexpanded = list(self._queue)
        self.graph.complete = complete and not self._queue
        self.stats.transitions_fired = self.graph.num_transitions
        self._frontier_gauge.set(len(self._queue))
        self._sync_stats()

    # ------------------------------------------------------------------
    # Exploration
    # ------------------------------------------------------------------

    def explore(
        self,
        max_states: Optional[int] = None,
        *,
        stop_when: Optional[Callable[[HState], bool]] = None,
    ) -> StateGraph:
        """Grow the shared graph up to *max_states* discovered states.

        Resumes from the saved frontier; already-expanded work is never
        redone.  ``stop_when`` is evaluated on **newly discovered** states
        only (callers scan the existing graph first); when it fires, the
        current state's expansion is finished — keeping the graph a clean
        BFS prefix — and growth pauses.

        **Overshoot contract.**  States are expanded whole and the state
        budget is checked *between* expansions, so the graph may exceed
        ``max_states`` by at most one expansion batch — the out-degree of
        the last state expanded — and never by more.  The rule is
        deterministic, which is what makes paused-and-resumed growth
        bit-identical to a fresh run.

        Under an ambient :attr:`budget`, its ``max_states`` tightens the
        cap and ``budget.check`` runs once per expansion (deadline,
        cancellation, periodic memory sampling).  Expansion is atomic:
        successors are computed and validated *before* the state leaves
        the frontier, so an interruption — budget exhaustion, an injected
        fault, a detected corruption — always leaves the graph a clean
        resumable BFS prefix.
        """
        budget = max_states if max_states is not None else DEFAULT_MAX_STATES
        ambient = self.budget
        if ambient is not None:
            budget = ambient.effective_max_states(budget)
        graph = self.graph
        if not self._queue:
            return graph
        started = time.perf_counter()
        expanded_before = self._expanded
        queue = self._queue
        semantics = self.semantics
        index = graph.index
        stats = self.stats
        frontier_gauge = self._frontier_gauge
        stopped = False
        next_progress = self._expanded + self._progress_interval
        try:
            with self.tracer.span(
                "session.explore", budget=budget, resumed=expanded_before > 0
            ) as span:
                while queue and not stopped and len(graph.states) < budget:
                    if ambient is not None:
                        ambient.check(
                            states=len(graph.states),
                            frontier=len(queue),
                            expanded=self._expanded,
                        )
                    state = queue[0]
                    successors = semantics.successors(state)
                    for transition in successors:
                        if transition.source != state:
                            raise CorruptionDetected(
                                f"successor computation returned a transition "
                                f"sourced at {transition.source.to_notation()} "
                                f"while expanding {state.to_notation()}"
                            )
                    queue.popleft()
                    out = graph.edges[index[state]]
                    for transition in successors:
                        out.append(transition)
                        stats.transitions_fired += 1
                        target = transition.target
                        if target in index:
                            continue
                        graph._add_state(target, transition)
                        queue.append(target)
                        if (
                            stop_when is not None
                            and not stopped
                            and stop_when(target)
                        ):
                            stopped = True
                    self._expanded += 1
                    frontier_gauge.set(len(queue))
                    if self._expanded >= next_progress:
                        next_progress += self._progress_interval
                        self._sample_progress(started)
                span.set(
                    states=len(graph.states),
                    expanded=self._expanded - expanded_before,
                    stopped=stopped,
                )
        finally:
            graph.complete = not queue
            graph.unexpanded = list(queue)
            if expanded_before == 0 and self._expanded > 0:
                stats.explorations += 1
            stats.explore_seconds += time.perf_counter() - started
            self._sync_stats()
        return graph

    def ensure_explored(
        self, max_states: Optional[int] = None
    ) -> StateGraph:
        """Grow the shared graph to *max_states*, safely from many threads.

        **Concurrency contract.**  :meth:`explore` itself is
        single-threaded — it mutates the frontier queue and the graph in
        place.  ``ensure_explored`` is the thread-safe entry point the
        serve daemon routes through:

        * at most one exploration runs per session at any time
          (exploration is *serialized*);
        * a caller whose requested budget is already covered — by the
          current graph, or by an exploration in flight whose target is
          at least as large — **waits and coalesces** onto that result
          instead of queueing a redundant exploration
          (:attr:`coalesced_explorations` counts these);
        * a caller asking for *more* than the in-flight target waits its
          turn and then resumes exploration from the saved frontier —
          never from scratch — so the total work is the same as one big
          exploration.

        Returns the shared graph, grown to at least the requested budget
        or to completion.  Note this method only serializes
        *exploration*; query-level state (``memo``, stats, the embedding
        index) is serialized by the caller (the serve pool holds one
        lock per pooled scheme around each query).
        """
        budget = max_states if max_states is not None else DEFAULT_MAX_STATES
        if self.budget is not None:
            budget = self.budget.effective_max_states(budget)
        coalesced = False
        while True:
            with self._explore_cv:
                if self.graph.complete or len(self.graph) >= budget:
                    return self.graph
                if not self._explore_active:
                    self._explore_active = True
                    self._explore_target = budget
                    break
                # an exploration is in flight; wait for it (coalescing
                # when its target already covers this request)
                if self._explore_target >= budget and not coalesced:
                    coalesced = True
                    self.coalesced_explorations += 1
                self._explore_cv.wait()
        try:
            self.explore(budget)
        finally:
            with self._explore_cv:
                self._explore_active = False
                self._explore_cv.notify_all()
        return self.graph

    def explore_or_raise(
        self, max_states: Optional[int] = None, what: str = "exploration"
    ) -> StateGraph:
        """Grow to saturation; raise when the budget does not suffice.

        The exception reports the *exact* exploration extent at
        exhaustion — discovered states and frontier size — not the
        requested budget, which the overshoot contract of
        :meth:`explore` allows the graph to exceed by one batch.
        """
        budget = max_states if max_states is not None else DEFAULT_MAX_STATES
        graph = self.explore(budget)
        if not graph.complete:
            raise AnalysisBudgetExceeded(
                f"{what}: state budget of {budget} exhausted at exactly "
                f"{len(graph)} discovered states "
                f"({len(graph.unexpanded)} still unexpanded; the scheme may "
                f"be unbounded — raise max_states or use a procedure with an "
                f"unboundedness certificate)",
                explored=len(graph),
            )
        return graph

    # ------------------------------------------------------------------
    # Shared derived artefacts
    # ------------------------------------------------------------------

    def kept_states(self, max_kept: int) -> List[HState]:
        """The full domination-pruned reachable antichain cover (cached).

        This is the sup-reachability engine's kept-state set; persistence
        and every downward-closed emptiness question scan it.  The search
        terminates on every scheme by the wqo property, so a completed
        result is budget-independent and cached for the session's life.
        """
        cached = self.memo.get("kept-states")
        if cached is None:
            from .sup_reachability import _kept_states

            with self.stats.timed("sup-reach-engine"):
                with self.tracer.span(
                    "sup-reach.antichain-saturation", max_kept=max_kept
                ) as span:
                    cached = _kept_states(
                        self.semantics,
                        self.initial,
                        max_kept,
                        index=self.embedding_index,
                        budget=self.budget,
                    )
                    span.set(kept=len(cached))
            self.memo["kept-states"] = cached
        return cached


def resolve_session(
    scheme: RPScheme,
    session: Optional[AnalysisSession],
    initial: Optional[HState],
) -> AnalysisSession:
    """The session a procedure should use.

    A supplied *session* is validated against *scheme* and used whenever
    the query's initial state matches; otherwise (including the common
    no-session case) a throwaway session is created, which reproduces the
    historical one-exploration-per-call behaviour.
    """
    if session is not None:
        if session.scheme is not scheme:
            raise AnalysisError(
                "analysis session was created for a different scheme "
                f"({session.scheme.name!r}, queried with {scheme.name!r})"
            )
        if initial is None or initial == session.initial:
            return session
    return AnalysisSession(scheme, initial=initial)
