"""Tests for ``repro.obs`` — tracing, metrics, sinks, report — and for
the instrumentation threaded through the analysis engine.

Covers the PR's observability acceptance surface:

* span nesting / timing monotonicity and the contextvars current-span;
* JSONL round-trip (``JsonlSink`` → ``load_records`` → ``build_tree``);
* label-cardinality cap and registry type discipline;
* ``peak_frontier`` single-source-of-truth regression;
* ``RunProfile`` byte-compatible golden equality on the registry backend;
* differential: tracing/metrics never change verdicts;
* the ``rpcheck --trace/--metrics`` flags and ``report`` subcommand.
"""

import json

import pytest

from repro.analysis import boundedness, halts, node_reachable
from repro.analysis.session import AnalysisSession
from repro.errors import AnalysisBudgetExceeded
from repro.obs import (
    DEFAULT_LABEL_CARDINALITY,
    JsonlSink,
    MemorySink,
    MetricsRegistry,
    NOOP_SPAN,
    NullSink,
    Tracer,
    build_tree,
    current_span,
    hot_spans,
    load_records,
    registry_from_dict,
    render_report,
)
from repro.zoo import ZOO_ALL, fig2_scheme


# ----------------------------------------------------------------------
# Tracer / spans
# ----------------------------------------------------------------------


class TestSpans:
    def test_nesting_and_close_order(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        with tracer.span("outer", kind="test") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
        records = sink.spans()
        # children close (and emit) before parents
        assert [r["name"] for r in records] == ["inner", "outer"]
        assert records[0]["parent"] == records[1]["id"]
        assert records[1]["parent"] is None
        assert records[1]["attrs"] == {"kind": "test"}

    def test_timing_monotonicity(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        with tracer.span("outer"):
            with tracer.span("inner"):
                sum(range(1000))
        inner, outer = sink.spans()
        assert inner["wall"] >= 0.0 and outer["wall"] >= 0.0
        assert inner["cpu"] >= 0.0 and outer["cpu"] >= 0.0
        assert inner["wall"] <= outer["wall"]
        assert inner["start"] >= outer["start"]

    def test_current_span_tracking(self):
        tracer = Tracer(MemorySink())
        assert current_span() is None
        with tracer.span("a") as a:
            assert current_span() is a
            with tracer.span("b") as b:
                assert current_span() is b
            assert current_span() is a
        assert current_span() is None

    def test_disabled_tracer_returns_noop_singleton(self):
        tracer = Tracer()  # no sink -> NullSink -> disabled
        assert not tracer.enabled
        assert tracer.span("anything", x=1) is NOOP_SPAN
        assert tracer.span("other") is NOOP_SPAN
        with tracer.span("nested") as span:
            assert span is NOOP_SPAN
            assert span.set(k="v") is NOOP_SPAN
            assert current_span() is None  # no contextvar traffic

    def test_null_sink_is_disabled(self):
        assert not NullSink().enabled
        assert not Tracer(NullSink()).enabled

    def test_exception_annotates_span(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        with pytest.raises(RuntimeError):
            with tracer.span("failing"):
                raise RuntimeError("boom")
        [record] = sink.spans()
        assert record["attrs"]["error"] == "RuntimeError"

    def test_events_attach_to_current_span(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        with tracer.span("phase") as span:
            tracer.event("tick", n=1)
        [event] = sink.events()
        assert event["span"] == span.span_id
        assert event["attrs"] == {"n": 1}

    def test_set_attaches_result_attrs(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        with tracer.span("phase") as span:
            span.set(outcome="done", count=3)
        [record] = sink.spans()
        assert record["attrs"] == {"outcome": "done", "count": 3}


# ----------------------------------------------------------------------
# JSONL round-trip / report
# ----------------------------------------------------------------------


class TestJsonlRoundTrip:
    def _trace_to(self, path):
        sink = JsonlSink(str(path))
        tracer = Tracer(sink)
        with tracer.span("root", program="test"):
            with tracer.span("child-a"):
                tracer.event("progress", states=5)
            with tracer.span("child-b"):
                pass
        tracer.close()

    def test_round_trip_rebuilds_tree(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        self._trace_to(path)
        records = load_records(str(path))
        assert all(isinstance(r, dict) and "type" in r for r in records)
        roots = build_tree(records)
        assert len(roots) == 1
        root = roots[0]
        assert root.name == "root"
        assert [c.name for c in root.children] == ["child-a", "child-b"]
        assert root.attrs == {"program": "test"}
        [event] = root.children[0].events
        assert event["name"] == "progress"

    def test_self_time_accounting(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        self._trace_to(path)
        [root] = build_tree(load_records(str(path)))
        total_self = sum(node.self_wall for node in root.walk())
        # single-rooted tree: self times reproduce the root's wall time
        assert total_self == pytest.approx(root.wall, rel=1e-6)

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type":"span","id":1,"name":"x","start":0}\nnot json\n')
        with pytest.raises(ValueError, match="line 2"):
            load_records(str(path))

    def test_non_record_line_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(ValueError, match="line 1"):
            load_records(str(path))

    def test_unserialisable_attrs_degrade_to_repr(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(str(path))
        tracer = Tracer(sink)
        with tracer.span("phase", payload=object()):
            pass
        tracer.close()
        [record] = load_records(str(path))
        assert "object object" in record["attrs"]["payload"]

    def test_hot_spans_ranked_by_self_time(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        self._trace_to(path)
        roots = build_tree(load_records(str(path)))
        ranked = hot_spans(roots, top=2)
        assert len(ranked) == 2
        assert ranked[0].self_wall >= ranked[1].self_wall

    def test_render_report(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        self._trace_to(path)
        text = render_report(load_records(str(path)))
        assert "root" in text
        assert "child-a" in text
        assert "self" in text


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


class TestMetrics:
    def test_counter_monotone(self):
        registry = MetricsRegistry()
        counter = registry.counter("c", "a counter")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_counter_set_total_snapshot(self):
        counter = MetricsRegistry().counter("c")
        counter.set_total(10)
        counter.set_total(10)
        counter.set_total(12)
        with pytest.raises(ValueError, match="backwards"):
            counter.set_total(5)

    def test_gauge_extremes(self):
        gauge = MetricsRegistry().gauge("g")
        assert gauge.value is None
        for sample in (3, 7, 2):
            gauge.set(sample)
        assert gauge.value == 2
        assert gauge.max == 7
        assert gauge.min == 2

    def test_histogram_summary(self):
        hist = MetricsRegistry().histogram("h")
        assert hist.mean is None
        for value in (1.0, 3.0, 2.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.sum == 6.0
        assert hist.mean == 2.0
        assert hist.min == 1.0 and hist.max == 3.0

    def test_get_or_create_and_type_conflict(self):
        registry = MetricsRegistry()
        counter = registry.counter("x")
        assert registry.counter("x") is counter
        with pytest.raises(TypeError, match="already registered"):
            registry.gauge("x")

    def test_labelled_children(self):
        registry = MetricsRegistry()
        counter = registry.counter("queries")
        counter.labels(procedure="boundedness").inc(2)
        counter.labels(procedure="halts").inc()
        # same label set -> same child, order-insensitive keys
        assert (
            counter.labels(procedure="boundedness")
            is counter.labels(**{"procedure": "boundedness"})
        )
        snapshot = counter.as_dict()
        assert snapshot["labels"]["{procedure=boundedness}"]["value"] == 2
        assert snapshot["labels"]["{procedure=halts}"]["value"] == 1

    def test_cardinality_cap_overflows(self):
        registry = MetricsRegistry(max_label_sets=3)
        counter = registry.counter("c")
        for i in range(3):
            counter.labels(key=i).inc()
        overflow_a = counter.labels(key="new-a")
        overflow_b = counter.labels(key="new-b")
        assert overflow_a is overflow_b  # one shared overflow child
        overflow_a.inc(5)
        assert counter.labels_dropped == 2
        # existing children keep working past the cap
        counter.labels(key=0).inc()
        assert counter.labels(key=0).value == 2
        snapshot = counter.as_dict()
        assert snapshot["labels_dropped"] == 2
        assert snapshot["labels"]["{__overflow__=true}"]["value"] == 5

    def test_default_cardinality_is_bounded(self):
        counter = MetricsRegistry().counter("c")
        for i in range(DEFAULT_LABEL_CARDINALITY + 50):
            counter.labels(i=i).inc()
        assert len(list(counter.children())) == DEFAULT_LABEL_CARDINALITY + 1
        assert counter.labels_dropped == 50

    def test_merge_folds_registries(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(2)
        b.counter("c").inc(3)
        b.counter("c").labels(kind="x").inc(7)
        a.gauge("g").set(5)
        b.gauge("g").set(1)
        b.histogram("h").observe(2.0)
        a.merge(b)
        assert a.counter("c").value == 5
        assert a.counter("c").labels(kind="x").value == 7
        assert a.gauge("g").value == 1  # last sample wins...
        assert a.gauge("g").max == 5  # ...extremes widen
        assert a.histogram("h").count == 1
        b.counter("only-in-b").inc()
        a.merge(b)
        assert "only-in-b" in a

    def test_render_and_as_dict(self):
        registry = MetricsRegistry()
        registry.counter("alpha", "first").inc(3)
        registry.gauge("beta").set(1.5)
        text = registry.render()
        assert "alpha" in text and "3" in text
        assert "beta" in text and "1.5" in text
        snapshot = registry.as_dict()
        assert snapshot["alpha"] == {
            "type": "counter",
            "value": 3,
            "description": "first",
        }
        assert json.dumps(snapshot)  # JSON-ready


# ----------------------------------------------------------------------
# Engine instrumentation
# ----------------------------------------------------------------------


class TestSessionObservability:
    def test_peak_frontier_single_source_of_truth(self):
        # regression: stats.peak_frontier is derived from the frontier
        # gauge, not tracked separately — the two can never disagree
        session = AnalysisSession(fig2_scheme())
        session.explore()
        stats = session.stats
        assert stats.peak_frontier >= 1
        assert stats.peak_frontier == int(session.metrics.gauge("explore.frontier").max)

    def test_peak_frontier_survives_resumed_exploration(self):
        session = AnalysisSession(fig2_scheme())
        with pytest.raises(AnalysisBudgetExceeded):
            session.explore_or_raise(20, what="test")
        first_peak = session.stats.peak_frontier
        session.explore()
        assert session.stats.peak_frontier >= first_peak

    def test_sync_metrics_mirrors_stats(self):
        session = AnalysisSession(fig2_scheme())
        boundedness(session.scheme, session=session)
        registry = session.sync_metrics()
        assert registry is session.metrics
        assert (
            registry.counter("explore.states_discovered").value
            == session.stats.states_discovered
        )
        queries = registry.counter("session.queries")
        assert queries.labels(procedure="boundedness").value >= 1

    def test_boundedness_span_tree(self):
        sink = MemorySink()
        session = AnalysisSession(fig2_scheme(), tracer=Tracer(sink))
        verdict = boundedness(session.scheme, session=session)
        assert verdict.method  # verdict reached; fig2 is unbounded
        [root] = build_tree(sink.records)
        assert root.name == "boundedness"
        names = {node.name for node in root.walk()}
        assert "session.explore" in names

    def test_progress_events_in_trace(self):
        sink = MemorySink()
        session = AnalysisSession(fig2_scheme(), tracer=Tracer(sink))
        session.explore()
        progress = [e for e in sink.events() if e["name"] == "explore.progress"]
        assert progress
        assert {"states", "transitions", "frontier"} <= progress[-1]["attrs"].keys()

    def test_registry_round_trips_through_dict(self):
        session = AnalysisSession(fig2_scheme())
        boundedness(session.scheme, session=session)
        snapshot = session.sync_metrics().as_dict()
        # counters, gauges, histograms and labelled children all present
        assert snapshot["session.queries"]["labels"]
        assert snapshot["session.query_seconds"]["type"] == "histogram"
        rebuilt = registry_from_dict(snapshot)
        assert rebuilt.as_dict() == snapshot

    @pytest.mark.parametrize("name", ["fig2", "spawner", "mutex"])
    def test_differential_tracing_never_changes_verdicts(self, name):
        factory = dict(ZOO_ALL)[name]
        outcomes = []
        for tracer in (None, Tracer(MemorySink())):
            scheme = factory()
            session = AnalysisSession(scheme, tracer=tracer)
            row = []
            for procedure in (boundedness, halts):
                try:
                    verdict = procedure(scheme, max_states=4000, session=session)
                    row.append((verdict.holds, verdict.method))
                except AnalysisBudgetExceeded:
                    row.append("budget")
            for node in scheme.node_ids:
                row.append(node_reachable(scheme, node, session=session).holds)
            outcomes.append(row)
        assert outcomes[0] == outcomes[1]


class TestRunProfileGolden:
    def _profile(self, **kwargs):
        from repro.interp import ProgramInterpretation
        from repro.interp.profiler import profile_run
        from repro.lang import compile_source

        source = """
        global jobs := 2;
        program main {
            pcall worker;
            pcall worker;
            wait;
            end;
        }
        procedure worker {
            jobs := jobs - 1;
            end;
        }
        """
        compiled = compile_source(source)
        return profile_run(
            compiled.scheme, ProgramInterpretation(compiled), **kwargs
        )

    def test_golden_equality_with_registry_backend(self):
        # the registry-backed profiler must be byte-compatible with the
        # dataclass API: same dataclass, field for field
        plain, _ = self._profile()
        registry = MetricsRegistry()
        backed, _ = self._profile(metrics=registry)
        assert backed == plain

    def test_registry_carries_run_metrics(self):
        registry = MetricsRegistry()
        profile, _ = self._profile(metrics=registry)
        parallelism = registry.histogram("run.parallelism")
        assert int(parallelism.max) == profile.peak_parallelism
        assert registry.counter("run.waits_fired").value == profile.waits_fired
        spawns = registry.counter("run.spawns")
        assert spawns.labels(procedure="worker").value == 2

    def test_traced_run_spans(self):
        sink = MemorySink()
        profile, _ = self._profile(tracer=Tracer(sink))
        [root] = build_tree(sink.records)
        assert root.name == "interp.scheduled-run"
        assert root.attrs["steps"] == profile.steps


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------


class TestCliObservability:
    @pytest.fixture
    def fig1_file(self, tmp_path):
        from repro.zoo import FIG1_PROGRAM

        path = tmp_path / "fig1.rp"
        path.write_text(FIG1_PROGRAM)
        return str(path)

    def test_trace_flag_writes_jsonl(self, fig1_file, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "trace.jsonl"
        code = main([fig1_file, "--max-states", "2000", "--trace", str(trace)])
        out = capsys.readouterr().out
        assert code == 0
        assert "trace" in out
        [root] = build_tree(load_records(str(trace)))
        assert root.name == "rpcheck"
        names = {node.name for node in root.walk()}
        assert "boundedness" in names

    def test_metrics_flag_writes_json(self, fig1_file, tmp_path, capsys):
        from repro.cli import main

        metrics = tmp_path / "metrics.json"
        code = main([fig1_file, "--max-states", "2000", "--metrics", str(metrics)])
        assert code == 0
        snapshot = json.loads(metrics.read_text())
        assert snapshot["explore.states_discovered"]["type"] == "counter"
        assert snapshot["explore.states_discovered"]["value"] > 0

    def test_stats_flag_renders_registry(self, fig1_file, capsys):
        from repro.cli import main

        code = main([fig1_file, "--max-states", "2000", "--stats"])
        out = capsys.readouterr().out
        assert code == 0
        assert "session stats" in out
        assert "explore.states_discovered" in out

    def test_report_subcommand(self, fig1_file, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "trace.jsonl"
        main([fig1_file, "--max-states", "2000", "--trace", str(trace)])
        capsys.readouterr()
        code = main(["report", str(trace)])
        out = capsys.readouterr().out
        assert code == 0
        assert "rpcheck" in out
        assert "self-times account for" in out

    def test_report_self_time_coverage(self, fig1_file, tmp_path):
        # acceptance: a boundedness run's span tree accounts for >= 90%
        # of the root span's wall time in self times
        from repro.cli import main

        trace = tmp_path / "trace.jsonl"
        main([fig1_file, "--max-states", "2000", "--trace", str(trace)])
        [root] = build_tree(load_records(str(trace)))
        total_self = sum(node.self_wall for node in root.walk())
        assert total_self >= 0.9 * root.wall

    def test_report_on_missing_file_fails(self, capsys):
        from repro.cli import main

        code = main(["report", "/nonexistent/trace.jsonl"])
        assert code == 2

    def test_trace_does_not_change_cli_verdicts(self, fig1_file, tmp_path, capsys):
        from repro.cli import main

        main([fig1_file, "--max-states", "2000"])
        plain = capsys.readouterr().out
        main([fig1_file, "--max-states", "2000", "--trace", str(tmp_path / "t.jsonl")])
        traced = capsys.readouterr().out
        keep = [
            line
            for line in plain.splitlines()
            if any(k in line for k in ("boundedness", "halting", "normed"))
        ]
        assert keep
        for line in keep:
            assert line in traced
