"""A synchronous client for the ``rpcheck serve`` daemon.

:class:`ServeClient` wraps one unix-socket connection and speaks the
NDJSON protocol :mod:`repro.serve.daemon` documents: write one
``rpcheck-request/1`` line, read ``{"type": "event"}`` lines (forwarded
to an ``on_event`` callback) until the ``{"type": "response"}`` line
arrives, return it as a typed
:class:`~repro.api.AnalysisResponse`.  The CLI (``rpcheck client``),
the serve integration tests and the throughput benchmark all drive the
daemon through this one class, so a protocol change breaks loudly in
three places at once.

Blocking and thread-compatible, not thread-*safe*: one client per
thread (each opens its own connection; the daemon multiplexes).

Resilience: analysis queries are **idempotent** (same request, same
answer — the differential gates pin it), so the client retries them.  A
dropped connection — daemon restart, transient socket error — triggers
reconnect-and-resend with jittered exponential backoff; a structured
``overloaded`` rejection (the daemon shedding load, see
docs/serving.md) is retried after the server's ``retry_after`` hint.
``max_retries=0`` restores fail-fast behaviour.
"""

from __future__ import annotations

import json
import random
import socket
import time
import uuid
from typing import Any, Callable, Dict, List, Optional

from ..api import (
    AnalysisRequest,
    AnalysisResponse,
    ApiError,
    BudgetSpec,
    TraceOptions,
)
from ..obs.tracer import TraceContext, current_span

__all__ = ["ServeClient", "ServeError", "ServeOverloaded", "client_main"]


class ServeError(ApiError):
    """The daemon answered with a protocol-level error (or hung up)."""


class ServeOverloaded(ServeError):
    """The daemon shed this request at admission (queue full).

    ``retry_after`` carries the daemon's backoff hint in seconds.
    Raised to the caller only once the client's retry budget is spent
    (or with ``max_retries=0``).
    """

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class _ConnectionLost(ServeError):
    """Internal: the transport died mid-exchange (retryable)."""


class ServeClient:
    """One blocking NDJSON connection to a :class:`ServeDaemon`."""

    def __init__(
        self,
        socket_path: str,
        *,
        timeout: float = 120.0,
        max_retries: int = 3,
        backoff: float = 0.1,
        backoff_max: float = 2.0,
        sleep: Callable[[float], None] = time.sleep,
        rng: Optional[random.Random] = None,
        metrics: Optional[Any] = None,
    ) -> None:
        self.socket_path = str(socket_path)
        self.timeout = timeout
        self.max_retries = max(0, max_retries)
        self.backoff = backoff
        self.backoff_max = backoff_max
        #: Reconnect/overload retries performed over this client's life.
        self.retries = 0
        #: Optional MetricsRegistry mirroring retries as
        #: ``serve.client_retries`` (ties client behaviour into the same
        #: observability artefacts as the server-side counters).
        self.metrics = metrics
        self._sleep = sleep
        self._rng = rng if rng is not None else random.Random()
        self._sock: Optional[socket.socket] = None
        self._file = None
        self._connect()

    # ------------------------------------------------------------------

    def _connect(self) -> None:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self.timeout)
        try:
            sock.connect(self.socket_path)
        except OSError:
            sock.close()
            raise
        self._sock = sock
        self._file = sock.makefile("rwb")

    def _disconnect(self) -> None:
        file, sock = self._file, self._sock
        self._file = self._sock = None
        try:
            if file is not None:
                file.close()
        except OSError:
            pass
        finally:
            if sock is not None:
                try:
                    sock.close()
                except OSError:
                    pass

    def _ensure_connected(self) -> None:
        if self._sock is None:
            self._connect()

    def _delay(self, attempt: int) -> float:
        """Jittered exponential backoff for retry *attempt* (0-based)."""
        base = min(self.backoff_max, self.backoff * (2**attempt))
        return base * (0.5 + 0.5 * self._rng.random())

    def close(self) -> None:
        self._disconnect()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------

    def _send_line(self, payload: Dict[str, Any]) -> None:
        self._file.write(
            json.dumps(payload, separators=(",", ":"), default=repr).encode(
                "utf-8"
            )
            + b"\n"
        )
        self._file.flush()

    def _read_line(self) -> Dict[str, Any]:
        line = self._file.readline()
        if not line:
            raise _ConnectionLost("daemon closed the connection")
        payload = json.loads(line)
        if not isinstance(payload, dict):
            raise ServeError(f"daemon sent a non-object line: {payload!r}")
        return payload

    # ------------------------------------------------------------------

    def _exchange(
        self,
        request: AnalysisRequest,
        on_event: Optional[Callable[[Dict[str, Any]], None]],
    ) -> AnalysisResponse:
        """One send/receive round trip (no retry)."""
        self._send_line(request.to_json_dict())
        while True:
            payload = self._read_line()
            kind = payload.get("type")
            if kind == "event":
                if on_event is not None:
                    on_event(payload.get("record") or {})
                continue
            if kind == "response":
                return AnalysisResponse.from_json_dict(
                    payload.get("response") or {}
                )
            if kind == "overloaded":
                raise ServeOverloaded(
                    str(payload.get("message") or "daemon overloaded"),
                    float(payload.get("retry_after") or 0.0),
                )
            if kind == "error":
                raise ServeError(str(payload.get("message")))
            raise ServeError(f"unexpected line type {kind!r}")

    def request(
        self,
        request: AnalysisRequest,
        *,
        on_event: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> AnalysisResponse:
        """Send one :class:`AnalysisRequest`, return the typed response.

        ``on_event`` receives each streamed ``record`` dict as it
        arrives (only meaningful with ``trace.stream=True``); event
        callback errors are the caller's problem — they propagate.

        Retries up to ``max_retries`` times: a lost connection
        reconnects and resends (queries are idempotent; streamed events
        may replay); an ``overloaded`` rejection waits out the larger of
        the daemon's ``retry_after`` hint and the client's own jittered
        exponential backoff, then resends on the same connection.
        """
        attempt = 0
        while True:
            try:
                self._ensure_connected()
                return self._exchange(request, on_event)
            except ServeOverloaded as overloaded:
                if attempt >= self.max_retries:
                    raise
                self._sleep(max(overloaded.retry_after, self._delay(attempt)))
            except (_ConnectionLost, OSError):
                self._disconnect()
                if attempt >= self.max_retries:
                    raise
                self._sleep(self._delay(attempt))
            attempt += 1
            self.retries += 1
            if self.metrics is not None:
                self.metrics.counter(
                    "serve.client_retries",
                    "client-side reconnect/overload retries",
                ).inc()

    def query(
        self,
        procedure: str,
        *,
        source: Optional[str] = None,
        fingerprint: Optional[str] = None,
        budget: Optional[BudgetSpec] = None,
        stream: bool = False,
        on_event: Optional[Callable[[Dict[str, Any]], None]] = None,
        request_id: Optional[str] = None,
        traceparent: Optional[str] = None,
        **params: Any,
    ) -> AnalysisResponse:
        """Convenience wrapper building the request from keyword arguments.

        Every query carries a ``request_id`` (minted here when the
        caller omits one) and a ``traceparent``: if the calling thread
        is inside a local span, its trace context is propagated so the
        daemon's spans join this process's trace; otherwise a fresh
        trace id is minted client-side so the whole server-side query
        still shares one trace.
        """
        request = AnalysisRequest(
            procedure=procedure,
            source=source,
            fingerprint=fingerprint,
            params=params,
            budget=budget,
            trace=TraceOptions(stream=stream),
            request_id=request_id or uuid.uuid4().hex,
            traceparent=traceparent or self._mint_traceparent(),
        )
        return self.request(request, on_event=on_event)

    @staticmethod
    def _mint_traceparent() -> str:
        """The caller's trace context as a wire header (or a fresh one)."""
        span = current_span()
        if span is not None and getattr(span, "trace", None) is not None:
            return span.trace.child(span.span_id).to_traceparent()
        return TraceContext().to_traceparent()

    # ------------------------------------------------------------------

    def _op(self, op: str, expect: str) -> Dict[str, Any]:
        self._ensure_connected()
        self._send_line({"op": op})
        payload = self._read_line()
        if payload.get("type") != expect:
            raise ServeError(
                f"op {op!r} answered with {payload.get('type')!r}"
            )
        return payload

    def ping(self) -> Dict[str, Any]:
        """Daemon liveness + counters (``{"type": "pong", ...}`` payload)."""
        return self._op("ping", "pong")

    def pool_stats(self) -> Dict[str, Any]:
        """The daemon's :meth:`~repro.serve.pool.SessionPool.snapshot`."""
        return self._op("pool", "pool")

    def stats(self) -> Dict[str, Any]:
        """Daemon counters plus the merged metrics registry snapshot.

        The ``metrics`` key is a :meth:`~repro.obs.MetricsRegistry.as_dict`
        payload (rebuildable with :func:`~repro.obs.registry_from_dict`)
        covering every pooled session.
        """
        return self._op("stats", "stats")

    def shutdown(self) -> Dict[str, Any]:
        """Ask the daemon to exit (the daemon closes this connection)."""
        return self._op("shutdown", "shutdown")


# ----------------------------------------------------------------------
# CLI entry point
# ----------------------------------------------------------------------


def _parse_params(pairs: List[str]) -> Dict[str, Any]:
    """``k=v`` pairs with JSON-decoded values (bare words stay strings)."""
    params: Dict[str, Any] = {}
    for pair in pairs:
        name, sep, raw = pair.partition("=")
        if not sep:
            raise SystemExit(f"rpcheck client: --param needs k=v, got {pair!r}")
        try:
            params[name] = json.loads(raw)
        except ValueError:
            params[name] = raw
    return params


def client_main(argv: Optional[List[str]] = None) -> int:
    """``rpcheck client``: query a running daemon from the command line."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="rpcheck client",
        description="Send one query (or op) to a running rpcheck serve daemon.",
    )
    parser.add_argument("--socket", required=True, help="daemon unix socket")
    parser.add_argument(
        "command",
        help="a procedure name (boundedness, analyze, node_reachable, ...) "
        "or an op: ping, pool, stats, shutdown",
    )
    parser.add_argument("--file", help="RP program file to analyse")
    parser.add_argument(
        "--fingerprint", help="query a scheme the daemon already holds"
    )
    parser.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="K=V",
        help="procedure parameter (repeatable; values parsed as JSON)",
    )
    parser.add_argument(
        "--deadline", type=float, help="budget: wall-clock seconds"
    )
    parser.add_argument(
        "--max-states", type=int, help="budget: exploration state cap"
    )
    parser.add_argument(
        "--stream",
        action="store_true",
        help="print tracer events as they arrive",
    )
    parser.add_argument(
        "--json", action="store_true", help="print the raw response JSON"
    )
    args = parser.parse_args(argv)
    try:
        return _client_run(args)
    except BrokenPipeError:
        # stdout's reader went away (e.g. ``rpcheck client ... | head``);
        # point stdout at /dev/null so the interpreter's exit-time flush
        # does not raise a second time, and exit quietly
        import os
        import sys

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def _client_run(args) -> int:
    with ServeClient(args.socket) as client:
        if args.command in ("ping", "pool", "stats", "shutdown"):
            payload = getattr(
                client, {"pool": "pool_stats"}.get(args.command, args.command)
            )()
            print(json.dumps(payload, indent=2, default=repr))
            return 0
        source = None
        if args.file:
            with open(args.file, "r", encoding="utf-8") as handle:
                source = handle.read()
        budget = None
        if args.deadline is not None or args.max_states is not None:
            budget = BudgetSpec(
                deadline=args.deadline, max_states=args.max_states
            )

        def on_event(record: Dict[str, Any]) -> None:
            print(f"event: {json.dumps(record, default=repr)}")

        response = client.query(
            args.command,
            source=source,
            fingerprint=args.fingerprint,
            budget=budget,
            stream=args.stream,
            on_event=on_event if args.stream else None,
            **_parse_params(args.param),
        )
    if args.json:
        print(json.dumps(response.to_json_dict(), indent=2, default=repr))
    else:
        render = response.details.get("render")
        if render:
            print(render)
        else:
            print(f"{response.procedure}: {response.verdict}")
            for name, summary in response.procedures.items():
                print(f"  {name}: {json.dumps(summary, default=repr)}")
        if response.error is not None:
            print(f"error: {response.error['type']}: {response.error['message']}")
    return 0 if response.ok else 1
