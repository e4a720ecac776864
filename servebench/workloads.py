"""Seeded RP-source workloads and their hand-written known answers.

Every query the benchmark sends is RP *source text*: the five
``repro.zoo`` families this module renders in the concrete syntax of
:mod:`repro.lang`.  A rendering compiles to a scheme isomorphic to the
zoo factory's (``test_workloads.py`` checks it); the seed-derived tag in
the program name changes the scheme's name and so its fingerprint, which
is how ``cold_mix`` defeats the daemon's session pool without any
private shortcut.

Expected verdicts come from :data:`KNOWN`, written from each family's
construction — never from the checker's own output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro import zoo
from repro.api import AnalysisRequest

#: State cap of every exploring query (the serve smoke and throughput
#: benches use the same one).
MAX_STATES = 4_000

#: Procedures that accept the ``max_states`` parameter.  The two
#: basis-driven procedures take no state cap: the wqo bounds their
#: antichain search and they always answer exactly.
EXPLORING = ("boundedness", "halts", "may_terminate", "node_reachable", "normed")


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------


def _block(lines: List[str]) -> str:
    return "\n".join(lines) + "\n"


def render_deep_pipeline(name: str, segments: int) -> str:
    out = []
    for i in range(segments):
        head = f"program {name}" if i == 0 else f"procedure segment{i}"
        me = name if i == 0 else f"segment{i}"
        out.append(f"{head} {{")
        out.append(f"    if b{i} then {{ pcall {me}; wait; }} else {{ }}")
        if i + 1 < segments:
            out.append(f"    pcall segment{i + 1};")
        out.append("    end;")
        out.append("}")
    return _block(out)


def render_wide_mix(name: str, kinds: int) -> str:
    out = [f"program {name} {{", "    while more do {"]
    out += [f"        pcall worker{k};" for k in range(kinds)]
    out += ["    }", "    end;", "}"]
    for k in range(kinds):
        out += [f"procedure worker{k} {{", f"    work{k};", "    end;", "}"]
    return _block(out)


def render_mixed_grove(name: str, depth: int, width: int) -> str:
    out = []
    for i in range(depth):
        head = f"program {name}" if i == 0 else f"procedure level{i}"
        out.append(f"{head} {{")
        out += [f"    pcall level{i + 1};"] * width
        out += ["    wait;", "    end;", "}"]
    out += [f"procedure level{depth} {{", "    leaf;", "    end;", "}"]
    return _block(out)


def render_bounded_spawner(name: str, children: int) -> str:
    out = [f"program {name} {{"]
    out += ["    pcall child;"] * children
    out += ["    wait;", "    end;", "}"]
    out += ["procedure child {", "    work;", "    end;", "}"]
    return _block(out)


def render_call_ladder(name: str, depth: int) -> str:
    return render_mixed_grove(name, depth, 2)


#: family -> (renderer, short name used in program names)
RENDERERS: Dict[str, Tuple[Callable[..., str], str]] = {
    "deep_pipeline": (render_deep_pipeline, "pipeline"),
    "wide_mix": (render_wide_mix, "widemix"),
    "mixed_grove": (render_mixed_grove, "grove"),
    "bounded_spawner": (render_bounded_spawner, "spawn"),
    "call_ladder": (render_call_ladder, "ladder"),
}


def program_name(family: str, params: Tuple[int, ...], tag: str) -> str:
    short = RENDERERS[family][1]
    return f"{short}{'x'.join(map(str, params))}_{tag}"


def render(family: str, params: Tuple[int, ...], tag: str) -> str:
    """The RP source of ``family(*params)`` with main named after *tag*."""
    renderer = RENDERERS[family][0]
    return renderer(program_name(family, params, tag), *params)


def reference_scheme(family: str, params: Tuple[int, ...]):
    """The ``repro.zoo`` scheme the rendering must be isomorphic to."""
    return getattr(zoo, family)(*params)


# ----------------------------------------------------------------------
# Known answers
# ----------------------------------------------------------------------

UNBOUNDED = ("deep_pipeline", "wide_mix")

#: (family kind, procedure) -> (expected verdict, reason).  "unbounded"
#: covers deep_pipeline and wide_mix, "bounded" the other three.
KNOWN: Dict[Tuple[str, str], Tuple[str, str]] = {
    ("unbounded", "boundedness"): (
        "no",
        "each family can recurse (pipeline) or spawn (wide_mix) without limit",
    ),
    ("unbounded", "halts"): (
        "no",
        "taking the recursing/looping branch forever gives an infinite run",
    ),
    ("unbounded", "may_terminate"): (
        "yes",
        "taking every else/exit branch reaches the empty state",
    ),
    ("unbounded", "normed"): (
        "yes",
        "from any state each live invocation can take its exit branch and "
        "every waiter then resumes, so the empty state stays reachable",
    ),
    ("unbounded", "node_reachable"): (
        "yes",
        "the rendering has no dead code: every node lies on some run",
    ),
    ("bounded", "boundedness"): (
        "yes",
        "a fixed, acyclic call tree: no loop and no recursion",
    ),
    ("bounded", "halts"): ("yes", "an acyclic call tree ends on every run"),
    ("bounded", "may_terminate"): ("yes", "every run reaches the empty state"),
    ("bounded", "normed"): ("yes", "every run from every state ends"),
    ("bounded", "node_reachable"): (
        "yes",
        "the rendering has no dead code: every node lies on some run",
    ),
    ("bounded", "sup_reachability"): (
        "yes",
        "the empty state is reachable and embeds into every state, so the "
        "basis of the upward closure of Reach is exactly {∅}",
    ),
    ("bounded", "persistent"): (
        "no",
        "the empty state is reachable and holds no node of any set",
    ),
}

#: The sup-reachability basis of every terminating family.
EMPTY_BASIS = ["∅"]


def family_kind(family: str) -> str:
    return "unbounded" if family in UNBOUNDED else "bounded"


def expected(family: str, procedure: str) -> str:
    return KNOWN[(family_kind(family), procedure)][0]


# ----------------------------------------------------------------------
# Queries
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Query:
    """One request of a workload and the answer it must get."""

    family: str
    params: Tuple[int, ...]
    procedure: str
    source: str
    args: Dict[str, Any] = field(default_factory=dict)
    #: Cost class used by the steadiness report.
    cost: str = ""

    @property
    def expected(self) -> str:
        return expected(self.family, self.procedure)

    def label(self) -> str:
        return f"{self.family}{self.params}.{self.procedure}"

    def request(self, **fields: Any) -> AnalysisRequest:
        """The ``rpcheck-request/1`` for this query (extra *fields* passed on)."""
        return AnalysisRequest(
            procedure=self.procedure, source=self.source, params=dict(self.args), **fields
        )


@lru_cache(maxsize=None)
def node_count(family: str, params: Tuple[int, ...]) -> int:
    return len(reference_scheme(family, params))


@dataclass(frozen=True)
class Cell:
    """One (family, params, procedure) slot of a workload's round."""

    family: str
    params: Tuple[int, ...]
    procedure: str
    cost: str
    weight: int = 1

    def query(self, tag: str) -> Query:
        args: Dict[str, Any] = {}
        if self.procedure in EXPLORING:
            args["max_states"] = MAX_STATES
        nodes = node_count(self.family, self.params)
        if self.procedure == "node_reachable":
            # compiled node ids are q0..q{n-1}; the last one ends the
            # innermost procedure, so the search has to reach it
            args["node"] = f"q{nodes - 1}"
        if self.procedure == "persistent":
            # the whole node set: only ∅ is free of it, so the witness
            # search runs until the empty state is kept
            args["nodes"] = [f"q{i}" for i in range(nodes)]
        return Query(
            family=self.family,
            params=self.params,
            procedure=self.procedure,
            source=render(self.family, self.params, tag),
            args=args,
            cost=self.cost,
        )


@dataclass(frozen=True)
class Workload:
    name: str
    #: The cells of one round; a run repeats whole rounds.
    cells: Tuple[Cell, ...]
    #: Warm workloads pool their programs during set-up and keep one tag
    #: per program; cold ones give every query a fresh tag.
    warm: bool = False


def _tag(rng: random.Random) -> str:
    return f"t{rng.getrandbits(40):010x}"


def _warm_tags(workload: Workload, seed: int) -> Dict[Tuple[str, Tuple[int, ...]], str]:
    rng = random.Random(f"{workload.name}:{seed}:tags")
    return {
        key: _tag(rng)
        for key in sorted({(cell.family, cell.params) for cell in workload.cells})
    }


def _pattern(workload: Workload) -> List[str]:
    """The cost class of each position of a round.

    Every class is spread evenly over the round, in the same pattern for
    every seed: which query follows which, and which pooled session each
    query evicts, then has the same cost class on every seed.
    """
    keyed = []
    for cost in sorted({cell.cost for cell in workload.cells}):
        size = sum(cell.weight for cell in workload.cells if cell.cost == cost)
        keyed += [((k + 0.5) / size, cost) for k in range(size)]
    return [cost for _, cost in sorted(keyed)]


def iter_rounds(workload: Workload, seed: int) -> Iterator[List[Query]]:
    """Endless rounds of *workload*'s queries, reproducible from *seed*.

    A round holds every cell ``weight`` times.  The seed orders the cells
    within each cost class (and draws the program tags); the positions of
    the classes are fixed by :func:`_pattern`.
    """
    rng = random.Random(f"{workload.name}:{seed}")
    tags = _warm_tags(workload, seed) if workload.warm else None
    pattern = _pattern(workload)
    members: Dict[str, List[Cell]] = {}
    for cell in workload.cells:
        members.setdefault(cell.cost, []).extend([cell] * cell.weight)
    while True:
        for cells in members.values():
            rng.shuffle(cells)
        cursor = {cost: iter(cells) for cost, cells in members.items()}
        batch = []
        for cost in pattern:
            cell = next(cursor[cost])
            tag = tags[(cell.family, cell.params)] if tags is not None else _tag(rng)
            batch.append(cell.query(tag))
        yield batch


def warm_up_queries(workload: Workload, seed: int) -> List[Query]:
    """One query per warm cell, sent during set-up to pool and explore."""
    tags = _warm_tags(workload, seed)
    return [cell.query(tags[(cell.family, cell.params)]) for cell in workload.cells]


def _cells(cost: str, programs, procedures, weight: int = 1) -> List[Cell]:
    return [
        Cell(family, params, procedure, cost, weight)
        for family, params in programs
        for procedure in procedures
    ]


FIVE = ("boundedness", "halts", "may_terminate", "node_reachable", "normed")
BASIS = ("sup_reachability", "persistent")
PIPE3, WIDE4 = ("deep_pipeline", (3,)), ("wide_mix", (4,))
GROVE23 = ("mixed_grove", (2, 3))
SPAWN4, LADDER2, GROVE22 = ("bounded_spawner", (4,)), ("call_ladder", (2,)), ("mixed_grove", (2, 2))

#: The mixes are weighted so that the median and the 90th percentile of
#: each workload fall inside one cost class rather than on the boundary
#: between two (the run prints the classes and where each percentile
#: lands).
WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        # Pooled, explored programs: framing, admission, compile and
        # api.execute over cached graphs; the kernel barely runs.
        Workload(
            name="warm_mix",
            warm=True,
            cells=tuple(
                _cells("warm-replay", (PIPE3, WIDE4), FIVE[:4])
                + _cells("warm-replay", (GROVE23,), ("boundedness", "may_terminate", "node_reachable"))
                + _cells("warm-replay", (SPAWN4,), FIVE + ("persistent",))
                + _cells("warm-replay", (LADDER2,), FIVE + BASIS)
                + _cells("warm-sweep", (PIPE3, WIDE4), ("normed",), weight=3)
            ),
        ),
        # A new program name per query: compile, pool miss and eviction,
        # exploration, successors and HState construction.
        Workload(
            name="cold_mix",
            cells=tuple(
                _cells("cold-cheap", (PIPE3, WIDE4), ("boundedness", "halts", "node_reachable"), weight=4)
                + _cells("cold-cheap", (WIDE4,), ("may_terminate",), weight=4)
                + _cells("cold-cheap", (SPAWN4, LADDER2, GROVE22), ("node_reachable",), weight=3)
                + _cells("cold-small", (PIPE3,), ("may_terminate",))
                + _cells("cold-small", (SPAWN4,), ("sup_reachability",))
                + _cells("cold-small", (LADDER2,), ("persistent",))
                + _cells("grove-explore", (GROVE23,), ("boundedness", "halts"))
                + _cells("normed-unbounded", (PIPE3, WIDE4), ("normed",), weight=4)
            ),
        ),
        # Cold antichain-basis searches: forest embedding and signature
        # domination.
        Workload(
            name="wqo_basis",
            cells=tuple(
                _cells("explore-small", (SPAWN4,), FIVE)
                + _cells("basis-small", (LADDER2, GROVE22), BASIS, weight=4)
                + _cells("basis-large", (("bounded_spawner", (12,)),), BASIS)
                + _cells("basis-xlarge", (("bounded_spawner", (14,)),), BASIS, weight=2)
            ),
        ),
    )
}


def check(query: Query, response: Any) -> Optional[str]:
    """``None`` when *response* agrees with the known answer, else why not.

    Only exact ``yes``/``no`` verdicts are checked; an undecided answer
    (``inconclusive``/``unknown``) is counted by ``decided_ratio`` instead.
    """
    verdict = response.verdict
    if verdict not in ("yes", "no"):
        return None
    if verdict != query.expected:
        return f"{query.label()}: got {verdict}, expected {query.expected}"
    if query.procedure == "sup_reachability":
        basis = response.details.get("basis")
        if basis != EMPTY_BASIS:
            return f"{query.label()}: basis {basis}, expected {EMPTY_BASIS}"
    return None
