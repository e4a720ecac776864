"""Tests for the :mod:`repro.api` typed request/response facade (PR 6).

The facade is the single evaluation path shared by the CLI, the serve
daemon and library callers, so these tests pin the contract everything
else leans on: versioned JSON round-trips for both dataclasses,
structural validation errors, the uniform verdict mapping (conclusive /
battery / partial / exhaustion / error), the ledger side-channel, and
the ``comparable()`` view the serve differential gate is built on.
"""

import dataclasses
import json
import os
import socket
import urllib.request
import uuid

import pytest

from repro.analysis import AnalysisSession, boundedness
from repro.api import (
    PROCEDURES,
    REQUEST_SCHEMA,
    RESPONSE_SCHEMA,
    AnalysisRequest,
    AnalysisResponse,
    ApiError,
    BudgetSpec,
    TraceOptions,
    execute,
)
from repro.obs import Ledger, scheme_fingerprint
from repro.robust import Budget
from repro.serve import daemon_in_thread
from repro.zoo import FIG1_PROGRAM, mixed_grove, terminating_chain


class TestRequestRoundTrip:
    def test_minimal_request_round_trips(self):
        request = AnalysisRequest(procedure="boundedness", source=FIG1_PROGRAM)
        payload = request.to_json_dict()
        assert payload["schema"] == REQUEST_SCHEMA
        # the wire shape must be plain JSON
        restored = AnalysisRequest.from_json_dict(json.loads(json.dumps(payload)))
        assert restored == request

    def test_full_request_round_trips(self):
        request = AnalysisRequest(
            procedure="mutually_exclusive",
            fingerprint="sha256:0123456789abcdef",
            params={"first": "q1", "second": "q2", "max_states": 500},
            budget=BudgetSpec(deadline=2.5, max_states=10_000, max_memory_mib=64),
            trace=TraceOptions(stream=True, stats=False),
            request_id="req-42",
        )
        restored = AnalysisRequest.from_json_dict(request.to_json_dict())
        assert restored == request
        assert restored.budget.max_memory_mib == 64

    def test_budget_spec_builds_live_budget(self):
        budget = BudgetSpec(deadline=3.0, max_memory_mib=1).to_budget()
        assert budget.deadline == 3.0
        assert budget.max_memory_bytes == 1024 * 1024
        assert budget.on_exhaust == "partial"

    def test_frozen(self):
        request = AnalysisRequest(procedure="halts", source=FIG1_PROGRAM)
        with pytest.raises(dataclasses.FrozenInstanceError):
            request.procedure = "normed"


class TestRequestValidation:
    def test_unknown_procedure_rejected(self):
        with pytest.raises(ApiError, match="unknown procedure"):
            AnalysisRequest(procedure="frobnicate", source="x").validate()

    def test_source_xor_fingerprint(self):
        with pytest.raises(ApiError, match="source or a fingerprint"):
            AnalysisRequest(procedure="halts").validate()
        with pytest.raises(ApiError, match="not both"):
            AnalysisRequest(
                procedure="halts", source="x", fingerprint="sha256:ff"
            ).validate()

    def test_wrong_schema_tag_rejected(self):
        payload = AnalysisRequest(procedure="halts", source="x").to_json_dict()
        payload["schema"] = "rpcheck-request/999"
        with pytest.raises(ApiError, match="schema"):
            AnalysisRequest.from_json_dict(payload)

    def test_unknown_budget_keys_rejected(self):
        with pytest.raises(ApiError, match="unknown keys"):
            BudgetSpec.from_dict({"deadline": 1, "cores": 4})


class TestRemovedWorkersField:
    """``workers`` left the request when parallel exploration was
    removed.  Clients built before that send ``"workers": null``, so the
    sequential values still parse; any other value is a typed error."""

    def _payload(self, **extra):
        payload = AnalysisRequest(
            procedure="boundedness", source=FIG1_PROGRAM
        ).to_json_dict()
        payload.update(extra)
        return payload

    @pytest.mark.parametrize("value", [None, 1])
    def test_sequential_value_parses_and_is_answered_as_before(self, value):
        request = AnalysisRequest.from_json_dict(self._payload(workers=value))
        assert request == AnalysisRequest.from_json_dict(self._payload())
        assert "workers" not in request.to_json_dict()
        baseline = execute(
            AnalysisRequest(procedure="boundedness", source=FIG1_PROGRAM)
        )
        assert execute(request).comparable() == baseline.comparable()

    @pytest.mark.parametrize("value", [2, 4, 0, -1, True, 1.0, "1"])
    def test_other_values_are_an_api_error(self, value):
        with pytest.raises(ApiError, match="parallel exploration was removed"):
            AnalysisRequest.from_json_dict(self._payload(workers=value))

    def test_daemon_answers_workers_2_with_error_verdict(self):
        tmp = f"/tmp/rpa-{uuid.uuid4().hex[:8]}"
        os.makedirs(tmp, exist_ok=True)
        sock = os.path.join(tmp, "s.sock")
        with daemon_in_thread(sock, flight_dir=tmp, http_port=0) as daemon:
            replies = []
            for workers in (2, None):
                with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as raw:
                    raw.connect(sock)
                    line = json.dumps(self._payload(workers=workers))
                    raw.sendall(line.encode("utf-8") + b"\n")
                    replies.append(json.loads(raw.makefile("rb").readline()))
            http = urllib.request.Request(
                f"http://127.0.0.1:{daemon.bound_http_port}/v1/analyze",
                data=json.dumps(self._payload(workers=2)).encode("utf-8"),
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(http, timeout=30) as answer:
                over_http = json.loads(answer.read())
        rejected, accepted = (r["response"] for r in replies)
        for response in (rejected, over_http):
            assert response["verdict"] == "error"
            assert response["error"]["type"] == "ApiError"
            assert "parallel exploration was removed" in response["error"]["message"]
        baseline = execute(
            AnalysisRequest(procedure="boundedness", source=FIG1_PROGRAM)
        )
        served = AnalysisResponse.from_json_dict(accepted)
        assert served.comparable() == baseline.comparable()


class TestResponseRoundTrip:
    def test_response_round_trips(self):
        response = execute(
            AnalysisRequest(procedure="boundedness", source=FIG1_PROGRAM)
        )
        assert response.to_json_dict()["schema"] == RESPONSE_SCHEMA
        restored = AnalysisResponse.from_json_dict(
            json.loads(json.dumps(response.to_json_dict(), default=repr))
        )
        assert restored.comparable() == response.comparable()
        assert restored.run_id == response.run_id


class TestExecute:
    def test_conclusive_single_verdict(self):
        response = execute(
            AnalysisRequest(procedure="boundedness", source=FIG1_PROGRAM)
        )
        assert response.ok
        assert response.verdict == "no"
        assert response.holds is False
        assert response.procedures["boundedness"]["verdict"] == "no"
        assert response.scheme["fingerprint"].startswith("sha256:")

    def test_matches_direct_procedure_call(self):
        scheme = terminating_chain(5)
        direct = boundedness(scheme)
        response = execute(
            AnalysisRequest(
                procedure="boundedness",
                fingerprint=scheme_fingerprint(scheme),
            ),
            scheme=scheme,
        )
        assert response.verdict == ("yes" if direct.holds else "no")
        assert response.method == direct.method

    def test_battery_report(self):
        response = execute(
            AnalysisRequest(procedure="analyze", source=FIG1_PROGRAM)
        )
        assert response.verdict in ("conclusive", "inconclusive")
        assert set(response.procedures) == {
            "boundedness", "halting", "normedness",
        }
        assert "render" in response.details

    def test_partial_structure_over_budget(self):
        scheme = mixed_grove(3, 3)
        response = execute(
            AnalysisRequest(
                procedure="boundedness",
                fingerprint=scheme_fingerprint(scheme),
                budget=BudgetSpec(deadline=0.0),
            ),
            scheme=scheme,
        )
        assert response.verdict == "unknown"
        assert response.partial["resource"] == "deadline"
        assert response.partial["resumable"] is True
        assert response.procedures["boundedness"]["verdict"] == "partial"

    def test_budget_override_wins_over_spec(self):
        scheme = terminating_chain(5)
        response = execute(
            AnalysisRequest(
                procedure="boundedness",
                fingerprint=scheme_fingerprint(scheme),
                budget=BudgetSpec(deadline=0.0),
            ),
            scheme=scheme,
            budget=Budget(max_states=10_000, on_exhaust="partial"),
        )
        # the caller-built budget (no deadline) replaced the spec
        assert response.verdict in ("yes", "no")

    def test_missing_required_param_is_error_response(self):
        response = execute(
            AnalysisRequest(procedure="node_reachable", source=FIG1_PROGRAM)
        )
        assert response.verdict == "error"
        assert response.error["type"] == "ApiError"
        assert "node" in response.error["message"]

    def test_unknown_param_is_error_response(self):
        response = execute(
            AnalysisRequest(
                procedure="halts",
                source=FIG1_PROGRAM,
                params={"warp_factor": 9},
            )
        )
        assert response.verdict == "error"
        assert response.error["type"] == "TypeError"

    def test_parse_error_is_error_response(self):
        response = execute(
            AnalysisRequest(procedure="halts", source="proc { this is not rp")
        )
        assert response.verdict == "error"
        assert response.ok is False

    def test_fingerprint_without_scheme_is_error(self):
        response = execute(
            AnalysisRequest(procedure="halts", fingerprint="sha256:00ff")
        )
        assert response.verdict == "error"

    def test_session_reuse(self):
        scheme = terminating_chain(6)
        session = AnalysisSession(scheme)
        request = AnalysisRequest(
            procedure="halts", fingerprint=scheme_fingerprint(scheme)
        )
        first = execute(request, scheme=scheme, session=session)
        explored = len(session.graph)
        second = execute(request, scheme=scheme, session=session)
        assert first.comparable() == second.comparable()
        assert len(session.graph) == explored  # warm: no re-exploration

    def test_ledger_records_query(self, tmp_path):
        ledger = Ledger(str(tmp_path / "ledger.jsonl"))
        response = execute(
            AnalysisRequest(
                procedure="boundedness",
                source=FIG1_PROGRAM,
                request_id="req-7",
            ),
            ledger=ledger,
            ledger_kind="serve",
        )
        entries = ledger.entries()
        assert len(entries) == 1
        entry = entries[0]
        assert entry["kind"] == "serve"
        assert entry["run_id"] == response.run_id
        assert entry["procedures"]["boundedness"]["verdict"] == "no"
        assert entry["extra"]["request_id"] == "req-7"
        assert entry["scheme"]["fingerprint"] == response.scheme["fingerprint"]

    def test_registry_covers_documented_procedures(self):
        assert {
            "analyze", "boundedness", "halts", "may_terminate", "normed",
            "node_reachable", "mutually_exclusive", "sup_reachability",
            "persistent",
        } <= set(PROCEDURES)


class TestComparable:
    def test_comparable_drops_run_variant_fields(self):
        request = AnalysisRequest(procedure="boundedness", source=FIG1_PROGRAM)
        first = execute(request)
        second = execute(request)
        assert first.run_id != second.run_id
        assert first.comparable() == second.comparable()

    def test_comparable_keeps_partial_structure(self):
        scheme = mixed_grove(3, 3)
        response = execute(
            AnalysisRequest(
                procedure="boundedness",
                fingerprint=scheme_fingerprint(scheme),
                budget=BudgetSpec(deadline=0.0),
            ),
            scheme=scheme,
        )
        view = response.comparable()
        assert view["partial"] == {"resource": "deadline", "resumable": True}
        # progress counters legitimately vary and must be absent
        assert "states_explored" not in view["partial"]
