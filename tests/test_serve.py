"""Integration tests for the ``repro.serve`` daemon (PR 6 tentpole).

A real daemon on a real unix socket (background thread, tmp-dir socket
kept short for the sockaddr_un limit), exercised the way the ISSUE's
differential gate demands: concurrent mixed-procedure queries must come
back *identical* to in-process :func:`repro.api.execute` answers —
including partial/exhaustion structure — plus the concurrency contracts
(exploration coalescing, per-request sink scoping, disconnect
cancellation) and the ledger side-channel (one ``kind="serve"`` entry
per query).
"""

import json
import os
import re
import socket
import threading
import time
import urllib.error
import urllib.request
import uuid

import pytest

from repro.analysis import AnalysisSession
from repro.api import AnalysisRequest, BudgetSpec, execute
from repro.obs import Ledger, scheme_fingerprint
from repro.serve import ServeClient, ServeOverloaded, daemon_in_thread
from repro.zoo import (
    FIG1_PROGRAM,
    deep_pipeline,
    mixed_grove,
    terminating_chain,
    wide_mix,
)

# (family name, scheme factory) — the zoo mix the bench also uses
FAMILIES = {
    "pipeline3": deep_pipeline(3),
    "widemix4": wide_mix(4),
    "grove2x3": mixed_grove(2, 3),
}


def _short_tmp() -> str:
    # sockaddr_un paths are ~107 bytes; pytest tmp_path nests too deep
    path = f"/tmp/rps-{uuid.uuid4().hex[:8]}"
    os.makedirs(path, exist_ok=True)
    return path


@pytest.fixture()
def served():
    """A running daemon preloaded with the zoo families; yields
    ``(daemon, socket_path, ledger)``."""
    tmp = _short_tmp()
    sock = os.path.join(tmp, "s.sock")
    ledger_path = os.path.join(tmp, "ledger.jsonl")
    with daemon_in_thread(
        sock, ledger_path=ledger_path, flight_dir=tmp, concurrency=4
    ) as daemon:
        for scheme in FAMILIES.values():
            daemon.pool.adopt(scheme)
        yield daemon, sock, Ledger(ledger_path)


def _query_matrix():
    """(procedure, params) per family — ≥4 procedures, mixed shapes."""
    matrix = []
    for name, scheme in FAMILIES.items():
        fingerprint = scheme_fingerprint(scheme)
        node = sorted(scheme.node_ids)[0]
        matrix.extend(
            [
                (fingerprint, scheme, "boundedness", {}),
                (fingerprint, scheme, "halts", {}),
                (fingerprint, scheme, "node_reachable", {"node": node}),
                (fingerprint, scheme, "normed", {}),
            ]
        )
    return matrix


class TestProtocolBasics:
    def test_ping_and_pool(self, served):
        daemon, sock, _ = served
        with ServeClient(sock) as client:
            pong = client.ping()
            assert pong["pid"] == os.getpid()
            assert pong["schemes"] == len(FAMILIES)
            stats = client.pool_stats()
            assert {e["scheme"] for e in stats["entries"]} == {
                s.name for s in FAMILIES.values()
            }

    def test_source_query_compiles_and_pools(self, served):
        daemon, sock, _ = served
        with ServeClient(sock) as client:
            first = client.query("boundedness", source=FIG1_PROGRAM)
            assert first.verdict == "no"
            before = daemon.pool.misses
            second = client.query("halts", source=FIG1_PROGRAM)
            assert second.verdict in ("yes", "no")
        # the second query hit the pooled compilation of the same source
        assert daemon.pool.misses == before
        assert daemon.pool.hits >= 1

    def test_malformed_line_answers_error(self, served):
        _, sock, _ = served
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as raw:
            raw.connect(sock)
            raw.sendall(b"this is not json\n")
            reply = json.loads(raw.makefile("rb").readline())
        assert reply["type"] == "error"

    def test_unknown_fingerprint_is_error_response(self, served):
        _, sock, _ = served
        with ServeClient(sock) as client:
            response = client.query(
                "halts", fingerprint="sha256:feedfacefeedface"
            )
        assert response.verdict == "error"
        assert response.error["type"] == "ApiError"


class TestDifferentialGate:
    def test_concurrent_served_verdicts_match_in_process(self, served):
        """Every (procedure × zoo family), fired concurrently at the
        daemon, must equal the in-process answer — the acceptance gate."""
        daemon, sock, _ = served
        matrix = _query_matrix()
        expected = {}
        for fingerprint, scheme, procedure, params in matrix:
            key = (fingerprint, procedure, tuple(sorted(params.items())))
            expected[key] = execute(
                AnalysisRequest(
                    procedure=procedure,
                    fingerprint=fingerprint,
                    params=params,
                ),
                scheme=scheme,
            ).comparable()

        results, errors = {}, []

        def worker(fingerprint, procedure, params):
            try:
                with ServeClient(sock) as client:
                    response = client.query(
                        procedure, fingerprint=fingerprint, **params
                    )
                key = (fingerprint, procedure, tuple(sorted(params.items())))
                results[key] = response.comparable()
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(fp, proc, params))
            for fp, _, proc, params in matrix
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        assert results == expected

    def test_partial_exhaustion_structure_matches(self, served):
        """Budget exhaustion comes back as the same structured partial the
        in-process call produces (fresh schemes on both sides so neither
        answers from a warm graph)."""
        daemon, sock, _ = served
        scheme = mixed_grove(3, 2)
        fingerprint = daemon.pool.adopt(scheme).fingerprint
        local = execute(
            AnalysisRequest(
                procedure="boundedness",
                fingerprint=fingerprint,
                budget=BudgetSpec(deadline=0.0),
            ),
            scheme=mixed_grove(3, 2),  # a fresh twin, cold like the pool's
        )
        with ServeClient(sock) as client:
            remote = client.query(
                "boundedness",
                fingerprint=fingerprint,
                budget=BudgetSpec(deadline=0.0),
            )
        assert remote.verdict == "unknown"
        assert remote.partial["resource"] == "deadline"
        assert remote.comparable() == local.comparable()


class TestStreaming:
    def test_events_stream_before_response(self, served):
        daemon, sock, _ = served
        fingerprint = scheme_fingerprint(FAMILIES["pipeline3"])
        events = []
        with ServeClient(sock) as client:
            response = client.query(
                "boundedness",
                fingerprint=fingerprint,
                stream=True,
                on_event=events.append,
            )
        assert response.verdict in ("yes", "no")
        assert events, "expected tracer records to stream ahead of the response"
        assert any(r.get("name") == "boundedness" for r in events)

    def test_no_stream_means_no_event_lines(self, served):
        _, sock, _ = served
        fingerprint = scheme_fingerprint(FAMILIES["widemix4"])
        events = []
        with ServeClient(sock) as client:
            client.query(
                "halts", fingerprint=fingerprint, on_event=events.append
            )
        assert events == []


class TestLedger:
    def test_one_serve_entry_per_query(self, served):
        daemon, sock, ledger = served
        fingerprint = scheme_fingerprint(FAMILIES["pipeline3"])
        queries = [
            ("boundedness", {}),
            ("halts", {}),
            ("normed", {}),
        ]
        with ServeClient(sock) as client:
            for procedure, params in queries:
                client.query(
                    procedure,
                    fingerprint=fingerprint,
                    request_id=f"rq-{procedure}",
                    **params,
                )
        entries = ledger.entries()
        assert len(entries) == len(queries)
        assert {e["kind"] for e in entries} == {"serve"}
        assert [e["extra"]["request_id"] for e in entries] == [
            "rq-boundedness", "rq-halts", "rq-normed",
        ]
        assert {e["scheme"]["fingerprint"] for e in entries} == {fingerprint}


class TestCancellation:
    def test_client_disconnect_cancels_via_token(self, served):
        """Hanging up mid-query trips the request's CancelToken: the
        analysis unwinds cooperatively instead of running to completion."""
        daemon, sock, ledger = served
        scheme = mixed_grove(3, 3)  # big enough to still be running
        fingerprint = daemon.pool.adopt(scheme).fingerprint
        raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        raw.connect(sock)
        request = AnalysisRequest(
            procedure="boundedness",
            fingerprint=fingerprint,
            params={"max_states": 2_000_000},
            request_id="rq-hangup",
        )
        raw.sendall(json.dumps(request.to_json_dict()).encode() + b"\n")
        time.sleep(0.3)  # let the worker start exploring
        raw.close()  # hang up mid-query
        deadline = time.time() + 30
        while time.time() < deadline:
            entries = [
                e
                for e in ledger.entries()
                if e["extra"].get("request_id") == "rq-hangup"
            ]
            if entries:
                break
            time.sleep(0.1)
        assert entries, "cancelled query never reached the ledger"
        entry = entries[0]
        assert entry["outcome"] == "partial"
        assert entry["procedures"]["boundedness"]["verdict"] == "partial"
        assert entry["procedures"]["boundedness"]["resource"] == "cancelled"


OCCUPIER_CAP = 30000  # boundedness on mixed_grove(3, 3): seconds, not ms


def _occupy(client, box):
    """Run the long occupier query; stash the response/exception in *box*."""
    try:
        box["response"] = client.query(
            "boundedness",
            fingerprint=box["fingerprint"],
            max_states=OCCUPIER_CAP,
        )
    except Exception as exc:  # noqa: BLE001 - surfaced by the test body
        box["error"] = exc


def _wait_until(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


class TestServeResilience:
    """Load shedding, retry, health, watchdog, reconnect."""

    def _daemon_dir(self):
        tmp = f"/tmp/rpp-{uuid.uuid4().hex[:8]}"
        os.makedirs(tmp, exist_ok=True)
        return tmp, os.path.join(tmp, "s.sock")

    def test_overload_sheds_structured_and_retry_succeeds(self):
        tmp, sock = self._daemon_dir()
        grove = mixed_grove(3, 3)
        quick = wide_mix(3)
        with daemon_in_thread(
            sock, flight_dir=tmp, concurrency=1, max_queue=0
        ) as daemon:
            daemon.pool.adopt(grove)
            daemon.pool.adopt(quick)
            box = {"fingerprint": scheme_fingerprint(grove)}
            occupier = ServeClient(sock, timeout=300.0)
            thread = threading.Thread(target=_occupy, args=(occupier, box))
            thread.start()
            try:
                assert _wait_until(lambda: daemon._pending >= 1)
                # no retry budget: the shed surfaces as ServeOverloaded
                with ServeClient(sock, max_retries=0) as impatient:
                    with pytest.raises(ServeOverloaded) as shed:
                        impatient.query(
                            "halts",
                            fingerprint=scheme_fingerprint(quick),
                            max_states=400,
                        )
                assert shed.value.retry_after > 0
                assert daemon.shed >= 1
                # a patient client rides retry_after/backoff to the verdict
                with ServeClient(
                    sock, max_retries=60, backoff=0.2, backoff_max=2.0
                ) as patient:
                    response = patient.query(
                        "halts",
                        fingerprint=scheme_fingerprint(quick),
                        max_states=400,
                    )
                    assert response.ok
                    assert patient.retries >= 1
            finally:
                thread.join(timeout=300.0)
                occupier.close()
            assert not thread.is_alive()
            assert "error" not in box, f"occupier failed: {box.get('error')!r}"
            # the accepted query was never disturbed by the shed traffic
            local = execute(
                AnalysisRequest(
                    procedure="boundedness",
                    fingerprint=box["fingerprint"],
                    params={"max_states": OCCUPIER_CAP},
                ),
                scheme=grove,
                session=AnalysisSession(grove),
            )
            assert box["response"].comparable() == local.comparable()

    def test_health_endpoint_reports_readiness(self):
        tmp, sock = self._daemon_dir()
        grove = mixed_grove(3, 3)
        with daemon_in_thread(
            sock, flight_dir=tmp, http_port=0, concurrency=1, max_queue=0
        ) as daemon:
            daemon.pool.adopt(grove)
            base = f"http://127.0.0.1:{daemon.bound_http_port}"
            payload = json.loads(
                urllib.request.urlopen(f"{base}/v1/health", timeout=10).read()
            )
            assert payload["live"] is True and payload["ready"] is True
            box = {"fingerprint": scheme_fingerprint(grove)}
            occupier = ServeClient(sock, timeout=300.0)
            thread = threading.Thread(target=_occupy, args=(occupier, box))
            thread.start()
            try:
                assert _wait_until(lambda: daemon._pending >= 1)
                try:
                    urllib.request.urlopen(f"{base}/v1/health", timeout=10)
                    pytest.fail("saturated daemon must answer 503")
                except urllib.error.HTTPError as error:
                    assert error.code == 503
                    busy = json.loads(error.read())
                    assert busy["live"] is True and busy["ready"] is False
                # HTTP analyze sheds with 429 + structured retry hint
                request = urllib.request.Request(
                    f"{base}/v1/analyze",
                    data=json.dumps(
                        {
                            "schema": "rpcheck-request/1",
                            "procedure": "halts",
                            "fingerprint": box["fingerprint"],
                            "params": {"max_states": 400},
                        }
                    ).encode("utf-8"),
                    headers={"Content-Type": "application/json"},
                )
                try:
                    urllib.request.urlopen(request, timeout=10)
                    pytest.fail("saturated daemon must answer 429")
                except urllib.error.HTTPError as error:
                    assert error.code == 429
                    body = json.loads(error.read())
                    assert body["error"] == "overloaded"
                    assert body["retry_after"] > 0
            finally:
                thread.join(timeout=300.0)
                occupier.close()
            assert "error" not in box, f"occupier failed: {box.get('error')!r}"

    def test_client_reconnects_across_daemon_restart(self):
        tmp, sock = self._daemon_dir()
        quick = wide_mix(3)
        fingerprint = scheme_fingerprint(quick)
        client = None
        try:
            with daemon_in_thread(sock, flight_dir=tmp) as daemon:
                daemon.pool.adopt(quick)
                client = ServeClient(sock, max_retries=60, backoff=0.1)
                first = client.query(
                    "halts", fingerprint=fingerprint, max_states=400
                )
                assert first.ok
            # daemon gone; the held connection is now dead
            with daemon_in_thread(sock, flight_dir=tmp) as daemon:
                daemon.pool.adopt(quick)
                second = client.query(
                    "halts", fingerprint=fingerprint, max_states=400
                )
                assert second.ok
                assert client.retries >= 1
                assert second.comparable() == first.comparable()
        finally:
            if client is not None:
                client.close()

    def test_watchdog_cancels_stuck_query(self):
        tmp, sock = self._daemon_dir()
        grove = mixed_grove(3, 3)
        fingerprint = scheme_fingerprint(grove)
        with daemon_in_thread(
            sock, flight_dir=tmp, query_timeout=1.0
        ) as daemon:
            daemon.pool.adopt(grove)
            with ServeClient(sock, timeout=300.0) as client:
                started = time.monotonic()
                response = client.query(
                    "boundedness",
                    fingerprint=fingerprint,
                    max_states=OCCUPIER_CAP,
                )
                elapsed = time.monotonic() - started
                assert response.verdict == "unknown"
                assert response.partial is not None
                assert response.partial["resource"] == "cancelled"
                assert elapsed < 30.0, "watchdog must cut the query short"
                assert daemon.watchdog_reaped == 1
                # the cancelled query left the pooled session resumable:
                # the same session answers a follow-up query correctly
                follow_up = client.query(
                    "halts", fingerprint=fingerprint, max_states=400
                )
            entry = daemon.pool.get(fingerprint)
            assert entry is not None
            assert entry.queries == 2
            assert daemon.watchdog_reaped == 1
        local = execute(
            AnalysisRequest(
                procedure="halts",
                fingerprint=fingerprint,
                params={"max_states": 400},
            ),
            scheme=grove,
            session=AnalysisSession(grove),
        )
        assert follow_up.ok
        assert follow_up.comparable() == local.comparable()


class TestRequestIsolation:
    def test_overlapping_faulting_requests_get_disjoint_bundles(self, served):
        """Two concurrently faulting requests must dump two separate
        flight bundles, each holding only its own request's records —
        the regression test for the process-ambient recorder fix."""
        daemon, sock, _ = served
        tmp = daemon.flight_dir
        scheme_a, scheme_b = mixed_grove(2, 4), mixed_grove(4, 2)
        fp_a = daemon.pool.adopt(scheme_a).fingerprint
        fp_b = daemon.pool.adopt(scheme_b).fingerprint
        barrier = threading.Barrier(2)
        failures = []

        def fault(fingerprint, procedure):
            try:
                barrier.wait(timeout=10)
                with ServeClient(sock) as client:
                    response = client.query(
                        procedure,
                        fingerprint=fingerprint,
                        budget=BudgetSpec(deadline=0.05),
                    )
                assert response.verdict == "unknown", response.verdict
            except Exception as error:  # noqa: BLE001
                failures.append(error)

        threads = [
            threading.Thread(target=fault, args=(fp_a, "boundedness")),
            threading.Thread(target=fault, args=(fp_b, "normed")),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not failures
        bundles = sorted(
            os.path.join(tmp, name)
            for name in os.listdir(tmp)
            if name.endswith(".json")
        )
        assert len(bundles) == 2
        reasons = set()
        for path in bundles:
            with open(path, "r", encoding="utf-8") as handle:
                bundle = json.load(handle)
            reasons.add(bundle["reason"])
            phase_names = {
                record.get("name")
                for record in bundle["records"]
                if record.get("kind") == "span"
            }
            # each bundle saw exactly one request's phases, not both
            assert not ({"boundedness", "normed"} <= phase_names)
        assert reasons == {
            "BudgetExhausted in boundedness",
            "BudgetExhausted in normed",
        }


class TestEnsureExplored:
    def test_waiters_coalesce_onto_one_exploration(self):
        """The session-level half of the serve concurrency contract:
        concurrent ``ensure_explored`` calls share one exploration."""
        from repro.analysis import AnalysisSession

        session = AnalysisSession(terminating_chain(8))
        barrier = threading.Barrier(4)
        graphs = []

        def worker():
            barrier.wait(timeout=10)
            graphs.append(session.ensure_explored(10_000))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(graphs) == 4
        assert all(graph is session.graph for graph in graphs)
        assert session.graph.complete
        # everyone rode one exploration; nobody re-explored afterwards
        assert session.ensure_explored(10_000) is session.graph

    def test_larger_ask_resumes_after_inflight(self):
        from repro.analysis import AnalysisSession

        session = AnalysisSession(mixed_grove(2, 3))
        small = session.ensure_explored(50)
        assert len(small) >= 50 or small.complete
        larger = session.ensure_explored(500)
        assert larger is session.graph
        assert len(larger) >= 500 or larger.complete


class TestIntrospection:
    """The live-introspection surface: ``stats`` op, ``GET /v1/metrics``
    (Prometheus text), ``GET /v1/runs`` — scraped while queries stream."""

    PROM_SAMPLE = re.compile(
        r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9.e+-]+(Inf|NaN)?$"
    )

    def _http_get(self, port, path):
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}{path}", timeout=30
        ) as response:
            return (
                response.status,
                response.headers.get("Content-Type", ""),
                response.read().decode("utf-8"),
            )

    @pytest.fixture()
    def served_http(self):
        tmp = _short_tmp()
        sock = os.path.join(tmp, "s.sock")
        ledger_path = os.path.join(tmp, "ledger.jsonl")
        with daemon_in_thread(
            sock,
            ledger_path=ledger_path,
            flight_dir=tmp,
            concurrency=4,
            http_port=0,
        ) as daemon:
            for scheme in FAMILIES.values():
                daemon.pool.adopt(scheme)
            yield daemon, sock, daemon.bound_http_port

    def test_stats_op(self, served_http):
        daemon, sock, _ = served_http
        with ServeClient(sock) as client:
            client.query(
                "halts", fingerprint=scheme_fingerprint(FAMILIES["pipeline3"])
            )
            stats = client.stats()
        assert stats["served"] >= 1
        assert stats["schemes"] == len(FAMILIES)
        assert "explore.states_discovered" in stats["metrics"]

    def test_runs_endpoint_lists_serve_entries(self, served_http):
        daemon, sock, port = served_http
        with ServeClient(sock) as client:
            client.query(
                "halts", fingerprint=scheme_fingerprint(FAMILIES["widemix4"])
            )
        status, content_type, body = self._http_get(port, "/v1/runs?tail=5")
        assert status == 200
        assert content_type.startswith("application/json")
        payload = json.loads(body)
        assert payload["count"] >= 1
        assert payload["runs"][-1]["kind"] == "serve"

    def test_runs_endpoint_rejects_bad_tail(self, served_http):
        _, _, port = served_http
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._http_get(port, "/v1/runs?tail=bogus")
        assert excinfo.value.code == 400

    def test_metrics_scrape_while_queries_stream(self, served_http):
        """The acceptance gate: /v1/metrics answers valid Prometheus
        while queries are actively streaming through the daemon."""
        daemon, sock, port = served_http
        fingerprint = scheme_fingerprint(FAMILIES["grove2x3"])
        stop = threading.Event()
        failures = []

        def stream_queries():
            try:
                while not stop.is_set():
                    with ServeClient(sock) as client:
                        client.query(
                            "boundedness",
                            fingerprint=fingerprint,
                            stream=True,
                            on_event=lambda record: None,
                        )
            except Exception as error:  # noqa: BLE001 - reported below
                failures.append(error)

        thread = threading.Thread(target=stream_queries)
        thread.start()
        try:
            deadline = time.time() + 60
            scrapes = 0
            while time.time() < deadline:
                status, content_type, body = self._http_get(port, "/v1/metrics")
                assert status == 200
                assert content_type.startswith("text/plain")
                assert "version=0.0.4" in content_type
                for line in body.splitlines():
                    if not line or line.startswith("#"):
                        continue
                    assert self.PROM_SAMPLE.match(line), (
                        f"invalid exposition line: {line!r}"
                    )
                assert "serve_served_total" in body
                scrapes += 1
                # keep scraping until queries have completed between
                # scrapes, so the exposition was read mid-stream
                if scrapes >= 3 and daemon.served >= 2:
                    break
                time.sleep(0.2)
        finally:
            stop.set()
            thread.join(timeout=60)
        assert not failures
        assert scrapes >= 3 and daemon.served >= 2, (
            f"only {scrapes} scrapes over {daemon.served} served queries"
        )

    def test_unknown_route_is_404(self, served_http):
        _, _, port = served_http
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._http_get(port, "/v1/nope")
        assert excinfo.value.code == 404


class TestCleanShutdown:
    def test_shutdown_op_stops_daemon(self):
        tmp = _short_tmp()
        sock = os.path.join(tmp, "s.sock")
        with daemon_in_thread(sock) as daemon:
            with ServeClient(sock) as client:
                assert client.shutdown()["type"] == "shutdown"
            deadline = time.time() + 10
            while os.path.exists(sock) and time.time() < deadline:
                time.sleep(0.05)
            assert not os.path.exists(sock)
