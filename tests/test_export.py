"""Tests for telemetry export and live introspection (PR 8 tentpole).

Covers the export surface end to end: OTLP/JSON span and metrics
mapping, the :class:`OtlpJsonSink` (file and HTTP transports, bounded
queue, orphan-event accounting), the Prometheus text exposition, the
stdlib sampling profiler (signal and thread modes), histogram bucket
percentiles (merge, wire round-trip), the ``rpcheck-diff/1`` schema tag,
the latency-percentile report section, and the static ledger dashboard —
module and ``rpcheck dashboard`` CLI.
"""

import http.server
import json
import re
import threading
import time

import pytest

from repro.cli import main
from repro.obs import (
    DIFF_SCHEMA,
    JsonlSink,
    Ledger,
    MemorySink,
    MetricsRegistry,
    OtlpJsonSink,
    OTLP_ENV,
    SamplingProfiler,
    Tracer,
    build_tree,
    latency_percentiles,
    make_entry,
    otlp_metrics_request,
    otlp_span,
    otlp_spans_request,
    prometheus_exposition,
    registry_from_dict,
    render_dashboard,
)
from repro.obs.export import INSTRUMENTATION_SCOPE
from repro.obs.metrics import HISTOGRAM_BUCKET_BOUNDS, HistogramMetric
from repro.zoo import FIG1_PROGRAM


@pytest.fixture
def fig1_file(tmp_path):
    path = tmp_path / "fig1.rp"
    path.write_text(FIG1_PROGRAM)
    return str(path)


# ----------------------------------------------------------------------
# OTLP/JSON mapping
# ----------------------------------------------------------------------


class TestOtlpMapping:
    def test_span_record_maps_onto_otlp_span(self):
        record = {
            "type": "span",
            "id": 7,
            "parent": 3,
            "name": "boundedness",
            "start": 100.0,
            "wall": 0.25,
            "cpu": 0.2,
            "attrs": {"states": 41, "ok": True, "ratio": 0.5},
        }
        span = otlp_span(record, trace_id="ab" * 16, epoch_anchor=1000.0)
        assert span["traceId"] == "ab" * 16
        assert re.fullmatch(r"[0-9a-f]{16}", span["spanId"])
        assert re.fullmatch(r"[0-9a-f]{16}", span["parentSpanId"])
        assert span["name"] == "boundedness"
        # perf-counter start + anchor -> epoch nanos, as decimal strings
        assert span["startTimeUnixNano"] == str(int(1100.0 * 1e9))
        assert int(span["endTimeUnixNano"]) - int(span["startTimeUnixNano"]) == int(
            0.25 * 1e9
        )
        attrs = {a["key"]: a["value"] for a in span["attributes"]}
        assert attrs["states"] == {"intValue": "41"}  # proto3 int64-as-string
        assert attrs["ok"] == {"boolValue": True}
        assert attrs["ratio"] == {"doubleValue": 0.5}
        assert attrs["repro.cpu_seconds"] == {"doubleValue": 0.2}

    def test_events_become_span_events(self):
        record = {"type": "span", "id": 1, "name": "s", "start": 0.0, "wall": 1.0}
        events = [
            {"type": "event", "span": 1, "name": "tick", "time": 0.5, "attrs": {"n": 2}}
        ]
        span = otlp_span(record, trace_id="0" * 32, epoch_anchor=0.0, events=events)
        [event] = span["events"]
        assert event["name"] == "tick"
        assert event["timeUnixNano"] == str(int(0.5 * 1e9))

    def test_spans_request_envelope(self):
        request = otlp_spans_request([{"name": "x"}], service_name="svc")
        [resource_spans] = request["resourceSpans"]
        attrs = {
            a["key"]: a["value"] for a in resource_spans["resource"]["attributes"]
        }
        assert attrs["service.name"] == {"stringValue": "svc"}
        [scope_spans] = resource_spans["scopeSpans"]
        assert scope_spans["scope"]["name"] == INSTRUMENTATION_SCOPE
        assert scope_spans["spans"] == [{"name": "x"}]

    def test_metrics_request_shapes(self):
        registry = MetricsRegistry()
        registry.counter("queries", "total queries").inc(3)
        registry.counter("queries").labels(procedure="halts").inc(2)
        registry.gauge("frontier").set(11)
        registry.histogram("latency").observe(0.5)
        request = otlp_metrics_request(registry)
        [rm] = request["resourceMetrics"]
        [scope_metrics] = rm["scopeMetrics"]
        metrics = {m["name"]: m for m in scope_metrics["metrics"]}
        sum_body = metrics["queries"]["sum"]
        assert sum_body["isMonotonic"] is True
        assert sum_body["aggregationTemporality"] == 2  # CUMULATIVE
        values = {
            tuple(
                (a["key"], a["value"]["stringValue"])
                for a in p["attributes"]
            ): p["asDouble"]
            for p in sum_body["dataPoints"]
        }
        assert values[()] == 3.0
        assert values[(("procedure", "halts"),)] == 2.0
        [gauge_point] = metrics["frontier"]["gauge"]["dataPoints"]
        assert gauge_point["asDouble"] == 11.0
        [hist_point] = metrics["latency"]["histogram"]["dataPoints"]
        assert hist_point["count"] == "1"
        assert hist_point["sum"] == 0.5
        assert len(hist_point["bucketCounts"]) == len(HISTOGRAM_BUCKET_BOUNDS) + 1
        assert sum(int(c) for c in hist_point["bucketCounts"]) == 1
        assert hist_point["explicitBounds"] == list(HISTOGRAM_BUCKET_BOUNDS)

    def test_empty_metrics_are_omitted(self):
        registry = MetricsRegistry()
        registry.gauge("never-set")
        registry.histogram("never-observed")
        request = otlp_metrics_request(registry)
        assert request["resourceMetrics"][0]["scopeMetrics"][0]["metrics"] == []


class TestOtlpSink:
    def _trace_through(self, sink):
        tracer = Tracer(sink)
        with tracer.span("root", program="t"):
            with tracer.span("child"):
                tracer.event("progress", states=5)
        tracer.close()

    def test_file_transport_round_trip(self, tmp_path):
        target = tmp_path / "otlp.json"
        sink = OtlpJsonSink(str(target))
        self._trace_through(sink)
        lines = [
            json.loads(line)
            for line in target.read_text().splitlines()
            if line.strip()
        ]
        assert lines, "expected at least one export request line"
        spans = [
            span
            for request in lines
            for rs in request["resourceSpans"]
            for ss in rs["scopeSpans"]
            for span in ss["spans"]
        ]
        by_name = {span["name"]: span for span in spans}
        assert set(by_name) == {"root", "child"}
        # the event emitted inside "child" attached to the child span
        [event] = by_name["child"]["events"]
        assert event["name"] == "progress"
        assert by_name["child"]["parentSpanId"] != "0" * 16
        assert sink.stats()["exported_spans"] == 2
        assert sink.stats()["dropped_events"] == 0

    def test_bounded_queue_drops_and_counts(self, tmp_path):
        sink = OtlpJsonSink(
            str(tmp_path / "o.json"), queue_size=2, batch_size=100
        )
        # batch_size > queue_size: nothing flushes, overflow must drop
        for index in range(5):
            sink.emit(
                {"type": "span", "id": index, "name": "s", "start": 0.0, "wall": 0.0}
            )
        assert sink.stats()["queued"] == 2
        assert sink.stats()["dropped_spans"] == 3

    def test_orphan_events_counted_at_close(self, tmp_path):
        sink = OtlpJsonSink(str(tmp_path / "o.json"))
        sink.emit({"type": "event", "span": 99, "name": "orphan", "time": 0.0})
        sink.close()
        assert sink.stats()["dropped_events"] == 1

    def test_http_transport_posts_json(self, tmp_path):
        received = []

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers["Content-Length"])
                received.append(
                    (
                        self.headers["Content-Type"],
                        json.loads(self.rfile.read(length)),
                    )
                )
                self.send_response(200)
                self.end_headers()

            def log_message(self, *args):
                pass

        server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            url = f"http://127.0.0.1:{server.server_address[1]}/v1/traces"
            sink = OtlpJsonSink(url)
            self._trace_through(sink)
            sink.close()
        finally:
            server.shutdown()
            thread.join(timeout=10)
        assert received
        content_type, body = received[0]
        assert content_type == "application/json"
        assert "resourceSpans" in body
        assert sink.stats()["export_failures"] == 0

    def test_unreachable_endpoint_counts_failures_not_raises(self):
        sink = OtlpJsonSink("http://127.0.0.1:9/", http_timeout=0.5)
        sink.emit({"type": "span", "id": 1, "name": "s", "start": 0.0, "wall": 0.0})
        sink.flush()
        stats = sink.stats()
        assert stats["export_failures"] >= 1
        assert stats["dropped_spans"] == 1
        assert stats["exported_spans"] == 0


class TestCliOtlp:
    def _export_lines(self, path):
        return [
            json.loads(line)
            for line in path.read_text().splitlines()
            if line.strip()
        ]

    def test_trace_format_otlp_flag(self, fig1_file, tmp_path, capsys):
        target = tmp_path / "trace.otlp.json"
        code = main(
            [
                fig1_file,
                "--max-states",
                "2000",
                "--trace",
                str(target),
                "--trace-format",
                "otlp",
            ]
        )
        assert code == 0
        lines = self._export_lines(target)
        span_requests = [l for l in lines if "resourceSpans" in l]
        metric_requests = [l for l in lines if "resourceMetrics" in l]
        assert span_requests, "expected OTLP span export requests"
        assert metric_requests, "expected one final metrics export"
        names = {
            span["name"]
            for request in span_requests
            for rs in request["resourceSpans"]
            for ss in rs["scopeSpans"]
            for span in ss["spans"]
        }
        assert "rpcheck" in names
        assert "boundedness" in names
        metric_names = {
            m["name"]
            for request in metric_requests
            for rm in request["resourceMetrics"]
            for sm in rm["scopeMetrics"]
            for m in sm["metrics"]
        }
        assert "explore.states_discovered" in metric_names

    def test_otlp_env_var_adds_exporter(self, fig1_file, tmp_path, monkeypatch, capsys):
        target = tmp_path / "env.otlp.json"
        monkeypatch.setenv(OTLP_ENV, str(target))
        code = main([fig1_file, "--max-states", "2000"])
        assert code == 0
        assert any("resourceSpans" in l for l in self._export_lines(target))

    def test_default_remains_jsonl(self, fig1_file, tmp_path, capsys):
        target = tmp_path / "trace.jsonl"
        code = main([fig1_file, "--max-states", "2000", "--trace", str(target)])
        assert code == 0
        records = self._export_lines(target)
        assert all("type" in r for r in records)  # tracer records, not OTLP
        assert not any("resourceSpans" in r for r in records)


# ----------------------------------------------------------------------
# Prometheus exposition
# ----------------------------------------------------------------------

# text exposition 0.0.4: comment lines or `name{labels} value`
PROM_SAMPLE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9.e+-]+(Inf|NaN)?$"
)


def assert_valid_prometheus(text):
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        assert PROM_SAMPLE.match(line), f"invalid exposition line: {line!r}"


class TestPrometheus:
    def test_counter_gauge_histogram_families(self):
        registry = MetricsRegistry()
        registry.counter("serve.served", "queries answered").inc(7)
        registry.counter("serve.served").labels(procedure="halts").inc(2)
        registry.gauge("explore.frontier").set(3)
        hist = registry.histogram("latency.seconds", "per-query latency")
        for value in (0.001, 0.01, 0.01, 4.0):
            hist.observe(value)
        text = prometheus_exposition(registry)
        assert_valid_prometheus(text)
        assert "# TYPE serve_served_total counter" in text
        assert "serve_served_total 7" in text
        assert 'serve_served_total{procedure="halts"} 2' in text
        assert "# TYPE explore_frontier gauge" in text
        assert "explore_frontier 3" in text
        assert "# TYPE latency_seconds histogram" in text
        assert "latency_seconds_count 4" in text
        assert "latency_seconds_sum" in text
        buckets = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("latency_seconds_bucket")
        ]
        assert buckets == sorted(buckets)  # cumulative
        assert buckets[-1] == 4  # +Inf bucket == count
        assert 'le="+Inf"' in text

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c").labels(path='a"b\\c').inc()
        text = prometheus_exposition(registry)
        assert '\\"' in text and "\\\\" in text

    def test_unset_gauge_omitted(self):
        registry = MetricsRegistry()
        registry.gauge("g", "never sampled")
        text = prometheus_exposition(registry)
        assert "\ng " not in text and not text.startswith("g ")


# ----------------------------------------------------------------------
# Histogram percentiles
# ----------------------------------------------------------------------


class TestHistogramPercentiles:
    def test_percentiles_track_uniform_distribution(self):
        hist = HistogramMetric("h")
        for index in range(1, 10001):
            hist.observe(index / 1000.0)  # uniform over (0, 10]
        assert hist.percentile(0.50) == pytest.approx(5.0, rel=0.10)
        assert hist.percentile(0.95) == pytest.approx(9.5, rel=0.10)
        assert hist.percentile(0.99) == pytest.approx(9.9, rel=0.10)

    def test_single_observation_is_exact(self):
        hist = HistogramMetric("h")
        hist.observe(0.125)
        for q in (0.5, 0.95, 0.99):
            assert hist.percentile(q) == 0.125

    def test_value_dict_carries_percentiles_and_buckets(self):
        hist = HistogramMetric("h")
        hist.observe(1.0)
        snapshot = hist.value_dict()
        assert {"p50", "p95", "p99", "buckets"} <= snapshot.keys()
        assert sum(snapshot["buckets"]) == 1

    def test_merge_of_percentile_bearing_histograms(self):
        # satellite: merge() must fold bucket arrays elementwise so the
        # merged percentiles see both sides' observations
        a, b = MetricsRegistry(), MetricsRegistry()
        fast = a.histogram("latency")
        slow = b.histogram("latency")
        for _ in range(900):
            fast.observe(0.001)
        for _ in range(100):
            slow.observe(1.0)
        a.merge(b)
        merged = a.histogram("latency")
        assert merged.count == 1000
        assert sum(merged.buckets) == 1000
        assert merged.percentile(0.50) == pytest.approx(0.001, rel=0.5)
        # p95 exceeds the 90%-fast mass and lands in the slow tail
        assert merged.percentile(0.99) == pytest.approx(1.0, rel=0.5)

    def test_buckets_survive_wire_round_trip(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h")
        for value in (0.001, 0.5, 0.5, 20.0):
            hist.observe(value)
        clone = registry_from_dict(registry.as_dict())
        assert clone.histogram("h").buckets == hist.buckets
        assert clone.histogram("h").percentile(0.95) == hist.percentile(0.95)


# ----------------------------------------------------------------------
# Sampling profiler
# ----------------------------------------------------------------------


def _burn(n=400000):
    total = 0
    for index in range(n):
        total += index * index
    return total


COLLAPSED_LINE = re.compile(r"^\S.* \d+$")


class TestSamplingProfiler:
    def test_signal_mode_collects_samples(self):
        profiler = SamplingProfiler(hz=500)
        profiler.start()
        try:
            deadline = time.time() + 2.0
            while profiler.stats()["samples"] < 3 and time.time() < deadline:
                _burn(100000)
        finally:
            profiler.stop()
        stats = profiler.stats()
        assert stats["samples"] >= 3
        lines = profiler.collapsed()
        assert lines
        for line in lines:
            assert COLLAPSED_LINE.match(line), line
        assert any("_burn" in line for line in lines)

    def test_thread_mode_fallback(self):
        profiler = SamplingProfiler(hz=500, mode="thread")
        with profiler:
            deadline = time.time() + 2.0
            while profiler.stats()["samples"] < 2 and time.time() < deadline:
                _burn(100000)
        assert profiler.stats()["mode"] == "thread"
        assert profiler.stats()["samples"] >= 2

    def test_start_stop_restores_and_restarts(self):
        profiler = SamplingProfiler(hz=200)
        profiler.start()
        profiler.stop()
        # a second session on the same profiler keeps accumulating
        profiler.start()
        _burn(50000)
        profiler.stop()
        assert profiler.stats()["samples"] >= 0  # no crash, coherent stats

    def test_flamegraph_sample_cli(self, fig1_file, tmp_path, capsys):
        out = tmp_path / "stacks.txt"
        code = main(
            [
                "flamegraph",
                fig1_file,
                "--sample",
                "500",
                "--max-states",
                "4000",
                "--out",
                str(out),
            ]
        )
        err = capsys.readouterr().err
        assert code == 0
        assert "sampled" in err and "500Hz" in err
        for line in out.read_text().splitlines():
            assert COLLAPSED_LINE.match(line), line


# ----------------------------------------------------------------------
# Diff schema / report percentiles
# ----------------------------------------------------------------------


class TestDiffSchema:
    def _ledger_with_two_runs(self, tmp_path):
        from repro.zoo import spawner_loop

        ledger = Ledger(str(tmp_path / "ledger.jsonl"))
        scheme = spawner_loop()
        for wall in (1.0, 2.0):
            ledger.append(
                make_entry(kind="analysis", scheme=scheme, wall_seconds=wall)
            )
        return ledger

    def test_diff_json_carries_schema_tag(self, tmp_path, capsys):
        ledger = self._ledger_with_two_runs(tmp_path)
        code = main(["diff", "0", "1", "--ledger", ledger.path, "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == DIFF_SCHEMA == "rpcheck-diff/1"
        assert isinstance(payload["clean"], bool)
        # exit codes unchanged: 0 clean / 1 drift
        assert code == (0 if payload["clean"] else 1)


class TestReportPercentiles:
    def test_stats_flag_renders_percentiles(self, fig1_file, capsys):
        code = main([fig1_file, "--max-states", "2000", "--stats"])
        out = capsys.readouterr().out
        assert code == 0
        assert "p50" in out and "p95" in out and "p99" in out

    def test_report_text_and_json_percentiles(self, fig1_file, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        main([fig1_file, "--max-states", "2000", "--trace", str(trace)])
        capsys.readouterr()
        code = main(["report", str(trace)])
        out = capsys.readouterr().out
        assert code == 0
        assert "percentiles" in out
        code = main(["report", str(trace), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert "latency" in payload
        row = payload["latency"]["rpcheck"]
        assert {"count", "p50", "p95", "p99", "max"} <= row.keys()

    def test_latency_percentiles_from_tree(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        for _ in range(5):
            with tracer.span("unit"):
                pass
        rows = latency_percentiles(build_tree(sink.records))
        assert rows["unit"]["count"] == 5
        assert rows["unit"]["p50"] <= rows["unit"]["p99"] <= rows["unit"]["max"]


# ----------------------------------------------------------------------
# Dashboard
# ----------------------------------------------------------------------


def _synthetic_entries(count=4):
    from repro.zoo import spawner_loop

    scheme = spawner_loop()
    entries = []
    for index in range(count):
        entry = make_entry(
            kind="analysis",
            scheme=scheme,
            wall_seconds=0.1 * (index + 1),
            procedures={
                "boundedness": {"verdict": "no", "seconds": 0.05 * (index + 1)}
            },
            spans={"boundedness": {"count": 1, "wall": 0.05, "self": 0.04}},
            outcome="ok" if index % 2 == 0 else "partial",
        )
        entries.append(entry)
    return entries


class TestDashboard:
    def test_render_is_self_contained_html(self):
        page = render_dashboard(_synthetic_entries(), source="runs.jsonl")
        assert page.lstrip().startswith("<!DOCTYPE html>")
        assert "<svg" in page and "<style>" in page
        assert "<script" not in page
        assert 'src="http' not in page and 'href="http' not in page
        assert "boundedness" in page
        # every run appears as one scatter point
        assert page.count('class="run-dot"') == 4 or "circle" in page

    def test_render_empty_ledger_still_valid(self):
        page = render_dashboard([])
        assert "<!DOCTYPE html>" in page
        assert "no runs" in page.lower() or "0 runs" in page

    def test_dashboard_cli_renders_three_runs(self, fig1_file, tmp_path, capsys):
        # acceptance: a real ledger with >= 3 runs renders through the CLI
        ledger = tmp_path / "runs.jsonl"
        for _ in range(3):
            main([fig1_file, "--max-states", "2000", "--ledger", str(ledger)])
        capsys.readouterr()
        out = tmp_path / "dash.html"
        code = main(["dashboard", "--ledger", str(ledger), "-o", str(out)])
        message = capsys.readouterr().out
        assert code == 0
        assert "3 runs" in message
        page = out.read_text()
        assert "<svg" in page and "<script" not in page
        assert "boundedness" in page

    def test_dashboard_cli_bad_ledger_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        code = main(
            ["dashboard", "--ledger", str(bad), "-o", str(tmp_path / "o.html")]
        )
        assert code == 2
