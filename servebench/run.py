"""Served-query benchmark: RP source queries through a real ``rpcheck serve``.

Usage (from the root of a checkout)::

    python3 servebench/run.py --workload warm_mix --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics against an untraced daemon;
``--trace 1`` runs a fixed number of rounds twice, untraced and then
under the layer tracing of ``tracing.py``, and reports the per-layer
metrics.  Human-readable lines go first; the last line of standard
output is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``).  See ``README.md`` in this directory for the workloads and
what each metric is predicted to move.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
if not os.path.isfile(os.path.join(ROOT, "src", "repro", "serve", "daemon.py")):
    sys.exit(f"servebench: no program source under {os.path.join(ROOT, 'src')}")
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import workloads  # noqa: E402
from repro.obs.tracer import TraceContext  # noqa: E402
from repro.serve import ServeClient, ServeError, ServeOverloaded  # noqa: E402

#: Fresh daemons started per run to measure set-up; the last one serves.
SETUPS = 3
#: Rounds each phase of a traced run executes (fixed, so counts repeat).
TRACE_ROUNDS = {"warm_mix": 100, "cold_mix": 1, "wqo_basis": 2}
#: A timed run goes on past ``--seconds`` until it has this many queries,
#: so at least ten samples lie beyond the 90th percentile.
MIN_QUERIES = 100
#: Per-query client timeout (seconds); far above any query's cost.
CLIENT_TIMEOUT = 120.0
#: Scratch space for sockets, flight bundles, logs and trace files.
TMP_DIR = ".servebench_tmp"

# With two or more CPUs the daemon and the load generator each get one,
# so neither migrates and the daemon's threads never share a core with
# the client's: unpinned, the latency of millisecond queries doubled or
# halved from one run to the next.
_CPUS = sorted(os.sched_getaffinity(0))
CLIENT_CPU, DAEMON_CPU = (_CPUS[0], _CPUS[-1]) if len(_CPUS) > 1 else (None, None)
_PR_SET_PDEATHSIG = 1


def _daemon_preexec() -> None:
    """In the daemon child: pin it, and get ``SIGTERM`` if the bench dies."""
    if DAEMON_CPU is not None:
        os.sched_setaffinity(0, {DAEMON_CPU})
    try:
        ctypes.CDLL(None).prctl(_PR_SET_PDEATHSIG, signal.SIGTERM)
    except (OSError, AttributeError):
        pass


# ----------------------------------------------------------------------
# Daemon process
# ----------------------------------------------------------------------


def _proc_cpu_seconds(pid: int) -> float:
    with open(f"/proc/{pid}/stat", "r", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _proc_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


class Daemon:
    """One ``rpcheck serve`` process on a unix socket in the scratch dir."""

    def __init__(self, scratch: str, name: str, hashseed: int, trace: bool) -> None:
        self.socket = os.path.join(scratch, f"{name}.sock")
        self.trace_out = os.path.join(scratch, f"{name}.trace.json") if trace else None
        flight = os.path.join(scratch, f"{name}.flight")
        os.makedirs(flight, exist_ok=True)
        env = dict(os.environ)
        for key in ("RPCHECK_LEDGER", "RPCHECK_FLIGHT_DIR"):
            env.pop(key, None)
        env["PYTHONHASHSEED"] = str(hashseed)
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        cmd = [sys.executable, os.path.join("servebench", "launcher.py")]
        if self.trace_out:
            cmd += ["--trace-out", self.trace_out]
        cmd += ["--", "--socket", self.socket, "--flight-dir", flight]
        self.log_path = os.path.join(scratch, f"{name}.log")
        started = time.perf_counter()
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                cmd,
                cwd=ROOT,
                env=env,
                stdout=log,
                stderr=subprocess.STDOUT,
                preexec_fn=_daemon_preexec,
            )
        self.pid = self.proc.pid
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited early: {self._log_tail()}")
            if os.path.exists(self.socket):
                try:
                    with ServeClient(self.socket, timeout=5.0, max_retries=0) as c:
                        c.ping()
                    break
                except OSError:
                    pass
            if time.perf_counter() - started > 60.0:
                self.stop()
                raise RuntimeError("daemon did not answer ping within 60 s")
            time.sleep(0.005)

    def _log_tail(self) -> str:
        with open(self.log_path, "rb") as handle:
            return handle.read()[-2000:].decode("utf-8", "replace")

    def client(self, **kwargs) -> ServeClient:
        return ServeClient(self.socket, timeout=CLIENT_TIMEOUT, **kwargs)

    def counters(self) -> Dict[str, int]:
        """Pool hits/misses/evictions and requests shed, since start."""
        with self.client(max_retries=0) as c:
            pool = c.pool_stats()
            stats = c.stats()
        shed = stats.get("metrics", {}).get("serve.shed", {}).get("value", 0)
        return {
            "hits": pool["hits"],
            "misses": pool["misses"],
            "evictions": pool["evictions"],
            "shed": int(shed or 0),
        }

    def stop(self) -> None:
        """Ask for shutdown, wait for the process, kill it if it hangs."""
        if self.proc.poll() is None:
            try:
                with self.client(max_retries=0) as c:
                    c.shutdown()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def _start(scratch: str, workload, seed: int, name: str, trace: bool) -> Tuple[Daemon, float]:
    """A ready daemon (warmed up on warm workloads) and its set-up seconds."""
    started = time.perf_counter()
    daemon = Daemon(scratch, name, hashseed=seed % (2**32), trace=trace)
    try:
        if workload.warm:
            with daemon.client() as client:
                for query in workloads.warm_up_queries(workload, seed):
                    response = client.request(query.request())
                    if response.verdict == "error":
                        raise RuntimeError(f"warm-up query failed: {response.error}")
    except BaseException:
        daemon.stop()
        raise
    return daemon, time.perf_counter() - started


# ----------------------------------------------------------------------
# Load generation
# ----------------------------------------------------------------------


@dataclass
class Outcome:
    query: Any
    request_id: str
    latency: float = 0.0
    verdict: str = ""
    wrong: Optional[str] = None
    error: Optional[str] = None
    explored: int = 0


@dataclass
class Phase:
    outcomes: List[Outcome] = field(default_factory=list)
    wall: float = 0.0
    cpu: float = 0.0
    retries: int = 0
    counters: Dict[str, int] = field(default_factory=dict)

    def latencies_ms(self) -> List[float]:
        return [o.latency * 1000.0 for o in self.outcomes if o.error is None]


def _ask(client: ServeClient, request_id: str, query) -> Outcome:
    """Send one query, time it send → response, check the answer."""
    request = query.request(
        request_id=request_id, traceparent=TraceContext().to_traceparent()
    )
    outcome = Outcome(query=query, request_id=request_id)
    started = time.perf_counter()
    try:
        response = client.request(request)
    except ServeOverloaded as error:
        outcome.error = f"shed: {error}"
    except (ServeError, OSError, ValueError) as error:
        outcome.error = f"transport: {error}"
    else:
        outcome.verdict = response.verdict
        if response.verdict == "error":
            outcome.error = f"error: {response.error}"
        else:
            outcome.wrong = workloads.check(query, response)
            explored = response.details.get("explored")
            if query.procedure == "normed" and isinstance(explored, int):
                outcome.explored = explored
    outcome.latency = time.perf_counter() - started
    return outcome


def _drive(daemon: Daemon, workload, seed: int, *, seconds=None, rounds=None) -> Phase:
    """Closed loop over one connection: each query goes out on the last answer.

    Whole rounds only: a timed loop stops at the first round boundary
    after *seconds* once :data:`MIN_QUERIES` were sent, a counted loop
    after *rounds* rounds.
    """
    phase = Phase()
    before = daemon.counters()
    cpu_before = _proc_cpu_seconds(daemon.pid)
    started = time.perf_counter()
    with daemon.client() as client:
        for done, batch in enumerate(workloads.iter_rounds(workload, seed)):
            if rounds is not None and done >= rounds:
                break
            if (
                seconds is not None
                and time.perf_counter() - started >= seconds
                and len(phase.outcomes) >= MIN_QUERIES
            ):
                break
            for query in batch:
                request_id = f"{workload.name}-{seed}-{len(phase.outcomes) + 1}"
                phase.outcomes.append(_ask(client, request_id, query))
        phase.retries = client.retries
    phase.wall = time.perf_counter() - started
    phase.cpu = _proc_cpu_seconds(daemon.pid) - cpu_before
    after = daemon.counters()
    phase.counters = {key: after[key] - before[key] for key in after}
    return phase


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _steadiness(phase: Phase, p50: float, p90: float) -> None:
    """Print the cost classes and which class each percentile lands in."""
    classes: Dict[str, List[float]] = {}
    for outcome in phase.outcomes:
        if outcome.error is None:
            classes.setdefault(outcome.query.cost, []).append(outcome.latency * 1000.0)
    for name, values in sorted(classes.items(), key=lambda kv: statistics.median(kv[1])):
        print(
            f"# class {name:<18} n={len(values):<5} "
            f"median={statistics.median(values):9.3f} ms "
            f"range={min(values):.3f}..{max(values):.3f} ms"
        )
    ranked = sorted(
        (o.latency * 1000.0, o.query.cost) for o in phase.outcomes if o.error is None
    )
    for label, value in (("p50", p50), ("p90", p90)):
        # the classes of the samples on either side of the percentile
        above = next(i for i, (v, _) in enumerate(ranked) if v >= value)
        sides = {ranked[max(above - 1, 0)][1], ranked[above][1]}
        print(f"# {label}={value:.3f} ms falls between samples of: {', '.join(sorted(sides))}")


def _end_to_end(phase: Phase, workload, setups: List[float], hwm: float) -> Dict[str, Any]:
    latencies = phase.latencies_ms()
    attempted = len(phase.outcomes)
    errors = sum(1 for o in phase.outcomes if o.error is not None)
    wrong = sum(1 for o in phase.outcomes if o.wrong is not None)
    decided = sum(1 for o in phase.outcomes if o.verdict in ("yes", "no"))
    p50 = statistics.median(latencies)
    p90 = statistics.quantiles(latencies, n=10)[8]
    beyond = sum(1 for v in latencies if v > p90)
    print(
        f"# {attempted} queries in {phase.wall:.2f} s; "
        f"p50 from {len(latencies)} samples, {beyond} beyond p90"
    )
    _steadiness(phase, p50, p90)
    print(f"# setup samples (s): {', '.join(f'{s:.4f}' for s in setups)}")
    print(
        f"# pool hits={phase.counters['hits']} misses={phase.counters['misses']} "
        f"evictions={phase.counters['evictions']} shed={phase.counters['shed']}"
    )
    print(f"wrong_verdicts {wrong} count")
    print(f"error_ratio {_ratio(errors, attempted)} ratio")
    return {
        "setup_s": (statistics.median(setups), "s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_p90_ms": (p90, "ms"),
        "throughput_qps": (attempted / phase.wall, "q/s"),
        "daemon_cpu_ms_per_query": (phase.cpu * 1000.0 / attempted, "ms"),
        "peak_rss_mb": (hwm, "MB"),
        "decided_ratio": (decided / attempted, "ratio"),
    }


def _roll_up(traced: Phase, trace_file: str):
    """Per-layer ``[count, total_s, self_s]`` totals, counters, per-request lists."""
    with open(trace_file, "r", encoding="utf-8") as handle:
        requests = json.load(handle)
    totals: Dict[str, List[float]] = {}
    counters: Dict[str, int] = {}
    per_request: Dict[str, List[float]] = {"compile": [], "api_self": [], "overhead": []}
    daemon_s = client_s = 0.0
    for outcome in traced.outcomes:
        record = requests.get(outcome.request_id)
        if record is None or outcome.error is not None:
            continue
        layers = record["layers"]
        for name, values in layers.items():
            acc = totals.setdefault(name, [0, 0.0, 0.0])
            for index, value in enumerate(values):
                acc[index] += value
        for name, value in record["counters"].items():
            counters[name] = counters.get(name, 0) + value
        api = layers["api"]
        per_request["compile"].append(layers["lang"][1] * 1000.0)
        per_request["api_self"].append(api[2] * 1000.0)
        per_request["overhead"].append((outcome.latency - api[1]) * 1000.0)
        daemon_s += layers["serve.daemon"][1]
        client_s += outcome.latency
    totals["serve.client"] = [len(traced.outcomes), client_s, client_s - daemon_s]
    return totals, counters, per_request


def _per_layer(untraced: Phase, traced: Phase, trace_file: str) -> Dict[str, Any]:
    totals, counters, per_request = _roll_up(traced, trace_file)

    def layer(name: str, index: int) -> float:
        return totals.get(name, [0, 0.0, 0.0])[index]

    successor_calls = layer("core.semantics", 0)
    constructions = layer("core.hstate", 0)
    embed_calls = counters.get("embedding.calls", 0)
    discovered = counters.get("states_discovered", 0)
    hits, misses = traced.counters["hits"], traced.counters["misses"]
    cpu_untraced = untraced.cpu / len(untraced.outcomes)
    cpu_traced = traced.cpu / len(traced.outcomes)
    metrics: Dict[str, Tuple[float, str]] = {
        "core.hstate.constructions": (int(constructions), "count"),
        "core.hstate.constructions_per_state": (
            _ratio(constructions, counters.get("interned_states", 0)), "ratio"),
        "core.hstate.construct_s": (layer("core.hstate", 2), "s"),
        "core.semantics.successor_calls": (int(successor_calls), "count"),
        "core.semantics.cache_hit_ratio": (
            _ratio(successor_calls - counters["successor_misses"], successor_calls),
            "ratio"),
        "core.semantics.successors_self_s": (layer("core.semantics", 2), "s"),
        "analysis.session.explore_self_s": (layer("analysis.session", 2), "s"),
        "analysis.session.states_discovered": (discovered, "count"),
        "analysis.session.states_per_s": (
            _ratio(discovered, layer("analysis.session", 1)), "1/s"),
        "analysis.normed.searched_states": (
            sum(o.explored for o in traced.outcomes), "count"),
        "analysis.normed.self_s": (layer("analysis.normed", 2), "s"),
    }
    for procedure in ("boundedness", "halts", "may_terminate", "node_reachable",
                      "sup_reachability", "persistent"):
        metrics[f"analysis.{procedure}.self_s"] = (layer(f"analysis.{procedure}", 2), "s")
    metrics.update({
        "core.embedding.calls": (embed_calls, "count"),
        "core.embedding.refutation_ratio": (
            _ratio(counters.get("embedding.signature_refutations", 0), embed_calls), "ratio"),
        "core.embedding.memo_hit_ratio": (
            _ratio(counters.get("embedding.memo_hits", 0), embed_calls), "ratio"),
        "core.embedding.self_s": (layer("core.embedding", 2), "s"),
        "lang.compile_ms_p50": (statistics.median(per_request["compile"]), "ms"),
        "api.execute_self_ms_p50": (statistics.median(per_request["api_self"]), "ms"),
        "serve.daemon.overhead_ms_p50": (statistics.median(per_request["overhead"]), "ms"),
        "serve.daemon.shed": (traced.counters["shed"], "count"),
        "serve.client.retries": (traced.retries, "count"),
        "serve.pool.hit_ratio": (_ratio(hits, hits + misses), "ratio"),
        "serve.pool.evictions": (traced.counters["evictions"], "count"),
        "bench.trace_overhead_pct": (
            100.0 * (cpu_traced - cpu_untraced) / cpu_untraced, "%"),
        "bench.trace_coverage_pct": (
            100.0 * _ratio(layer("serve.daemon", 1), layer("serve.client", 1)), "%"),
    })
    _print_split(totals)
    return metrics


#: Layer groups whose self time the traced run compares; every layer not
#: named here (procedures, session) counts as "analysis".
GROUPS = {
    "kernel (core.hstate + core.semantics)": ("core.hstate", "core.semantics"),
    "embedding (core.embedding)": ("core.embedding",),
    "front (lang + api + serve.*)": (
        "lang", "api", "serve.pool", "serve.daemon", "serve.client"),
}


def _print_split(totals: Dict[str, List[float]]) -> None:
    grand = sum(acc[2] for acc in totals.values())
    print("# self time by layer (traced phase):")
    for name, acc in sorted(totals.items(), key=lambda kv: -kv[1][2]):
        print(
            f"#   {name:<28} calls={int(acc[0]):<9} self={acc[2]:9.4f} s "
            f"({100.0 * _ratio(acc[2], grand):5.1f}%)"
        )
    shares = {
        group: sum(totals.get(m, [0, 0.0, 0.0])[2] for m in members)
        for group, members in GROUPS.items()
    }
    claimed = {m for members in GROUPS.values() for m in members}
    shares["analysis (procedures + session)"] = sum(
        acc[2] for name, acc in totals.items() if name not in claimed
    )
    for group, value in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"# group {group:<40} {100.0 * _ratio(value, grand):5.1f}%")


def _verdict(phases: List[Phase], workload) -> Tuple[bool, int, int]:
    """``(correct, attempted, failed)`` over *phases*, printing each problem."""
    attempted = failed = wrong = 0
    for phase in phases:
        attempted += len(phase.outcomes)
        for outcome in phase.outcomes:
            if outcome.wrong is not None:
                wrong += 1
                print(f"# WRONG VERDICT {outcome.wrong}")
            if outcome.error is not None:
                failed += 1
                print(f"# FAILED {outcome.query.label()}: {outcome.error}")
        if not workload.warm and phase.counters["hits"]:
            print(f"# INVALID: {workload.name} hit the pool {phase.counters['hits']} time(s)")
            wrong += 1
    return wrong == 0, attempted, failed


def _emit(metrics: Dict[str, Tuple[float, str]], correct: bool, attempted: int, failed: int) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


# ----------------------------------------------------------------------


def _timed_run(scratch: str, workload, seed: int, seconds: float) -> None:
    setups: List[float] = []
    daemon = None
    for index in range(SETUPS):
        if daemon is not None:
            daemon.stop()
        daemon, elapsed = _start(scratch, workload, seed, f"d{index}", trace=False)
        setups.append(elapsed)
    try:
        phase = _drive(daemon, workload, seed, seconds=seconds)
        hwm = _proc_hwm_mb(daemon.pid)
    finally:
        daemon.stop()
    correct, attempted, failed = _verdict([phase], workload)
    metrics = _end_to_end(phase, workload, setups, hwm)
    _emit(metrics, correct, attempted, failed)


def _traced_run(scratch: str, workload, seed: int) -> None:
    rounds = TRACE_ROUNDS[workload.name]
    phases = []
    for name, trace in (("plain", False), ("traced", True)):
        daemon, _ = _start(scratch, workload, seed, name, trace=trace)
        try:
            phases.append(_drive(daemon, workload, seed, rounds=rounds))
        finally:
            daemon.stop()
    untraced, traced = phases
    correct, attempted, failed = _verdict(phases, workload)
    print(f"# traced phase: {len(traced.outcomes)} queries in {rounds} round(s)")
    metrics = _per_layer(untraced, traced, daemon.trace_out)
    _emit(metrics, correct, attempted, failed)


def _terminate(signum, _frame) -> None:
    raise SystemExit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    # a terminated benchmark still runs its finally blocks: daemons stop
    signal.signal(signal.SIGTERM, _terminate)
    os.chdir(ROOT)
    if CLIENT_CPU is not None:
        os.sched_setaffinity(0, {CLIENT_CPU})
    os.makedirs(TMP_DIR, exist_ok=True)
    scratch = os.path.relpath(tempfile.mkdtemp(prefix="run-", dir=TMP_DIR))
    try:
        if args.trace:
            _traced_run(scratch, workload, args.seed)
        else:
            _timed_run(scratch, workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(TMP_DIR)
        except OSError:
            pass  # another run still uses it
    return 0


if __name__ == "__main__":
    sys.exit(main())
