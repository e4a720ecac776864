"""Checks of the benchmark's input generator.

Run from the root of a checkout::

    python3 -m pytest servebench/test_workloads.py
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import pytest  # noqa: E402

import workloads  # noqa: E402
from repro.core.isomorphism import isomorphic  # noqa: E402
from repro.lang import compile_source  # noqa: E402
from repro.obs import scheme_fingerprint  # noqa: E402

PROGRAMS = sorted(
    {
        (cell.family, cell.params)
        for workload in workloads.WORKLOADS.values()
        for cell in workload.cells
    }
)


@pytest.mark.parametrize("family,params", PROGRAMS)
def test_rendering_is_isomorphic_to_the_zoo_scheme(family, params):
    compiled = compile_source(workloads.render(family, params, "t0")).scheme
    assert isomorphic(compiled, workloads.reference_scheme(family, params))


@pytest.mark.parametrize("family,params", PROGRAMS)
def test_distinct_tags_give_distinct_fingerprints(family, params):
    prints = {
        scheme_fingerprint(compile_source(workloads.render(family, params, tag)).scheme)
        for tag in ("ta", "tb", "tc")
    }
    assert len(prints) == 3


def _rounds(name, seed, count):
    rounds = workloads.iter_rounds(workloads.WORKLOADS[name], seed)
    return [next(rounds) for _ in range(count)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_seed_always_yields_the_same_queries(name):
    assert _rounds(name, 7, 3) == _rounds(name, 7, 3)
    assert _rounds(name, 7, 3) != _rounds(name, 8, 3)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_rounds_keep_the_cost_mix(name):
    workload = workloads.WORKLOADS[name]
    expected = sorted(
        (cell.family, cell.params, cell.procedure)
        for cell in workload.cells
        for _ in range(cell.weight)
    )
    for batch in _rounds(name, 3, 4):
        assert sorted((q.family, q.params, q.procedure) for q in batch) == expected


def test_cold_queries_never_repeat_a_program():
    sources = [q.source for batch in _rounds("cold_mix", 5, 3) for q in batch]
    assert len(set(sources)) == len(sources)


def test_warm_queries_reuse_their_programs():
    sources = {q.source for batch in _rounds("warm_mix", 5, 3) for q in batch}
    programs = {(c.family, c.params) for c in workloads.WORKLOADS["warm_mix"].cells}
    assert len(sources) == len(programs)


def test_every_issued_query_has_a_known_answer():
    for workload in workloads.WORKLOADS.values():
        for cell in workload.cells:
            kind = workloads.family_kind(cell.family)
            assert (kind, cell.procedure) in workloads.KNOWN
