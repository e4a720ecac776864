"""State-kernel benchmark: HState construction and spine rewriting.

The kernel is the layer under every exploring procedure: building
hierarchical states (``HState``) and rewriting one position of a state
(``HState.replace``), which is how every rule of ``M_G`` fires.  Two
kinds of cells:

* **exploration** — a fresh :class:`AnalysisSession` explores
  ``wide_mix(4)`` to 8000 states.  Reported with the number of
  ``HState`` constructions it made, constructions per distinct state
  (1.0 would mean every state was built exactly once) and
  constructions/s.
* **replace against spine depth** — on explored ``deep_pipeline(3)`` and
  ``call_ladder(8)`` states of a given height, rewrite the deepest
  invocation in place, once through a warm session table (the path
  ``MemoizingSemantics`` takes: one lookup per spine node) and once
  untabled (the path plain ``AbstractSemantics`` takes: one
  construction per spine node).

Run as a script::

    PYTHONPATH=src python benchmarks/bench_kernel.py           # → BENCH_kernel.json
    PYTHONPATH=src python benchmarks/bench_kernel.py --smoke   # CI sanity pass, writes nothing

Every timed cell runs long enough to clear the regression watchdog's
5 ms floor; the acceptance block checks that, and that the exploration
builds at most two states per distinct state.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Tuple

from _harness import BenchHarness
from repro.analysis import AnalysisSession
from repro.core.hstate import HState
from repro.zoo import call_ladder, deep_pipeline, wide_mix

EXPLORE_STATES = 8_000
REPEATS = 3

#: (family label, scheme factory, exploration cap, spine depths measured)
REPLACE_FAMILIES = [
    ("deep_pipeline3", lambda: deep_pipeline(3), 4_000, (2, 4, 8, 12)),
    ("call_ladder8", lambda: call_ladder(8), 4_000, (3, 6, 9)),
]

#: Rewrites per replace cell (spread over the cell's states).
REPLACE_CALLS = 10_000

#: The watchdog's absolute floor: cells faster than this are never gated.
FLOOR_SECONDS = 0.005

#: Acceptance bar for the exploration cell (ROADMAP item 1).
MAX_CONSTRUCTIONS_PER_STATE = 2.0


def count_constructions(fn) -> Tuple[int, object]:
    """Run *fn* with ``HState.__init__`` counted; ``(count, result)``."""
    original = HState.__init__
    calls = [0]

    def counted(self, items=()):
        calls[0] += 1
        original(self, items)

    HState.__init__ = counted
    try:
        result = fn()
    finally:
        HState.__init__ = original
    return calls[0], result


def _explore(scheme, cap: int) -> AnalysisSession:
    session = AnalysisSession(scheme)
    session.explore(max_states=cap)
    return session


def exploration_cell(harness: BenchHarness, cap: int) -> Dict[str, object]:
    scheme = wide_mix(4)
    seconds, session = harness.measure(
        f"explore/wide_mix4/{cap}", lambda: _explore(scheme, cap)
    )
    constructions, counted = count_constructions(lambda: _explore(scheme, cap))
    states = len(counted.graph)
    assert states == len(session.graph)
    return {
        "family": "wide_mix(4)",
        "max_states": cap,
        "states": states,
        "transitions": counted.graph.num_transitions,
        "seconds": seconds,
        "constructions": constructions,
        "constructions_per_state": constructions / states,
        "constructions_per_s": constructions / seconds,
        "states_per_s": states / seconds,
    }


def _deepest_rewrites(states, depth: int) -> List[Tuple[HState, tuple, tuple]]:
    """``(state, path, replacement)`` for every deepest invocation."""
    rewrites = []
    for state in states:
        if state.height != depth:
            continue
        for path, node, children in state.positions():
            if len(path) == depth:
                rewrites.append((state, path, ((node, children),)))
    return rewrites


def _replace_all(rewrites, calls: int, table) -> None:
    count = len(rewrites)
    for index in range(calls):
        state, path, replacement = rewrites[index % count]
        state.replace(path, replacement, table)


def replace_cells(harness: BenchHarness, calls: int, smoke: bool) -> List[Dict[str, object]]:
    rows = []
    for label, factory, cap, depths in REPLACE_FAMILIES:
        session = _explore(factory(), cap // 4 if smoke else cap)
        states = list(session.graph.states)
        for depth in depths:
            rewrites = _deepest_rewrites(states, depth)
            if not rewrites:
                continue
            table = {}
            _replace_all(rewrites, len(rewrites), table)  # warm: every lookup hits
            tabled, _ = harness.measure(
                f"replace/{label}/depth={depth}/table",
                lambda: _replace_all(rewrites, calls, table),
            )
            untabled, _ = harness.measure(
                f"replace/{label}/depth={depth}/untabled",
                lambda: _replace_all(rewrites, calls, None),
            )
            built, _ = count_constructions(lambda: _replace_all(rewrites, calls, None))
            hits, _ = count_constructions(lambda: _replace_all(rewrites, calls, table))
            rows.append(
                {
                    "family": label,
                    "depth": depth,
                    "rewrites": len(rewrites),
                    "calls": calls,
                    "table_seconds": tabled,
                    "untabled_seconds": untabled,
                    "table_us_per_call": tabled / calls * 1e6,
                    "untabled_us_per_call": untabled / calls * 1e6,
                    "table_constructions_per_call": hits / calls,
                    "untabled_constructions_per_call": built / calls,
                }
            )
    return rows


def run(smoke: bool = False) -> Tuple[Dict[str, object], BenchHarness]:
    harness = BenchHarness("kernel", warmup=0 if smoke else 1, repeats=1 if smoke else REPEATS)
    cap = EXPLORE_STATES // 10 if smoke else EXPLORE_STATES
    exploration = exploration_cell(harness, cap)
    replace = replace_cells(harness, REPLACE_CALLS // 10 if smoke else REPLACE_CALLS, smoke)
    cells = [exploration["seconds"]]
    for row in replace:
        cells += [row["table_seconds"], row["untabled_seconds"]]
    acceptance = {
        "floor_seconds": FLOOR_SECONDS,
        "min_cell_seconds": min(cells),
        "max_constructions_per_state": MAX_CONSTRUCTIONS_PER_STATE,
        "constructions_per_state": exploration["constructions_per_state"],
        "within_budget": min(cells) >= FLOOR_SECONDS
        and exploration["constructions_per_state"] <= MAX_CONSTRUCTIONS_PER_STATE,
    }
    results = {
        "benchmark": "kernel",
        "smoke": smoke,
        "exploration": exploration,
        "replace": replace,
        "acceptance": acceptance,
    }
    return results, harness


def main(argv: List[str]) -> int:
    smoke = "--smoke" in argv
    results, harness = run(smoke=smoke)
    exploration = results["exploration"]
    print(
        f"explore wide_mix(4) to {exploration['max_states']}: "
        f"{exploration['seconds']:.3f}s, {exploration['states']} states, "
        f"{exploration['constructions']} constructions "
        f"({exploration['constructions_per_state']:.2f}/state, "
        f"{exploration['constructions_per_s']:.0f}/s)"
    )
    for row in results["replace"]:
        print(
            f"replace {row['family']:<15} depth {row['depth']:>2}: "
            f"table {row['table_us_per_call']:6.2f} us/call, "
            f"untabled {row['untabled_us_per_call']:6.2f} us/call "
            f"({row['untabled_constructions_per_call']:.1f} constructions/call)"
        )
    acceptance = results["acceptance"]
    print(
        f"acceptance: shortest cell {acceptance['min_cell_seconds'] * 1e3:.1f} ms "
        f"(floor {FLOOR_SECONDS * 1e3:.0f} ms), "
        f"{acceptance['constructions_per_state']:.2f} constructions per state "
        f"(bar {MAX_CONSTRUCTIONS_PER_STATE})"
    )
    if smoke:
        # smoke cells are too short for the floor; only the construction bar applies
        print("smoke run: JSON not written")
        return 0 if acceptance["constructions_per_state"] <= MAX_CONSTRUCTIONS_PER_STATE else 1
    print(f"wrote {harness.write(results=results, meta={'max_states': EXPLORE_STATES})}")
    return 0 if acceptance["within_budget"] else 1

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
