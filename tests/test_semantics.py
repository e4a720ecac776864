"""Tests for the abstract semantics M_G (Definition 2, Proposition 3)."""

import gc
import sys
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.session import AnalysisSession
from repro.core.alphabet import TAU
from repro.core.generate import random_hstate
from repro.core.hstate import EMPTY, HState
from repro.core.semantics import AbstractSemantics, MemoizingSemantics
from repro.errors import StateError
from repro.zoo import fig2_scheme, spawner_loop, wait_blocked

P = HState.parse


@pytest.fixture
def sem():
    return AbstractSemantics(fig2_scheme())


class TestLocalRules:
    def test_action_rule(self, sem):
        # q0 --a1--> q1, children carried along
        [t] = [t for t in sem.successors(P("q0,{q7}")) if t.node == "q0"]
        assert t.label == "a1"
        assert t.rule == "action"
        assert t.target == P("q1,{q7}")

    def test_action_carries_children(self):
        sem = AbstractSemantics(fig2_scheme())
        transitions = [
            t for t in sem.successors(P("q0,{q9}")) if t.node == "q0"
        ]
        assert [t.target for t in transitions] == [P("q1,{q9}")]

    def test_test_rule_has_two_branches(self, sem):
        branches = [t for t in sem.successors(P("q3")) if t.node == "q3"]
        assert {t.branch for t in branches} == {0, 1}
        assert {t.target for t in branches} == {P("q1"), P("q4")}
        assert all(t.label == "b1" for t in branches)
        assert all(t.rule == "test" for t in branches)

    def test_call_rule_spawns_child(self, sem):
        [t] = [t for t in sem.successors(P("q1")) if t.node == "q1"]
        assert t.label == TAU
        assert t.rule == "call"
        assert t.target == P("q2,{q7}")

    def test_call_rule_keeps_existing_children(self, sem):
        [t] = [t for t in sem.successors(P("q1,{q9}")) if t.node == "q1"]
        assert t.target == P("q2,{q9,q7}")

    def test_wait_rule_enabled_only_childless(self, sem):
        enabled = [t for t in sem.successors(P("q4")) if t.node == "q4"]
        assert len(enabled) == 1
        assert enabled[0].rule == "wait"
        assert enabled[0].target == P("q5")
        blocked = [t for t in sem.successors(P("q4,{q7}")) if t.node == "q4"]
        assert blocked == []

    def test_end_rule_releases_children(self, sem):
        [t] = [t for t in sem.successors(P("q9,{q11,q12}")) if t.node == "q9"]
        assert t.label == TAU
        assert t.rule == "end"
        assert t.target == P("q11,q12")

    def test_end_rule_plain(self, sem):
        [t] = [t for t in sem.successors(P("q6")) if t.node == "q6"]
        assert t.target == EMPTY


class TestParallelism:
    def test_brother_activity(self, sem):
        # paral1: q0 can still act with a brother present
        transitions = sem.successors(P("q0,q6"))
        nodes = {t.node for t in transitions}
        assert nodes == {"q0", "q6"}

    def test_child_activity_below_parent(self, sem):
        # paral2: a child token can move below its (blocked) parent
        state = P("q4,{q7}")  # parent at wait, child at test b2
        transitions = sem.successors(state)
        assert all(t.node == "q7" for t in transitions)
        targets = {t.target for t in transitions}
        assert targets == {P("q4,{q8}"), P("q4,{q10}")}

    def test_interleaving_count(self, sem):
        # two independent tokens at q0: two action firings possible
        transitions = sem.successors(P("q0,q0"))
        assert len(transitions) == 2
        assert all(t.target == P("q0,q1") for t in transitions)


class TestFig5Evolution:
    def test_sigma1_to_sigma4(self, sem):
        from repro.zoo import fig5_states

        s1, s2, s3, s4 = fig5_states()
        # σ1 → σ2: token at q10 (pcall) moves to q11 spawning q7
        assert any(
            t.target == s2 and t.rule == "call" and t.node == "q10"
            for t in sem.successors(s1)
        )
        # σ2 → σ3: parent at q1 (pcall) moves to q2 spawning q7
        assert any(
            t.target == s3 and t.rule == "call" and t.node == "q1"
            for t in sem.successors(s2)
        )
        # σ3 → σ4: invocation at q9 (end) terminates, releasing q11
        assert any(
            t.target == s4 and t.rule == "end" and t.node == "q9"
            for t in sem.successors(s3)
        )


class TestProposition3:
    """σ ↛ iff σ = ∅ — schemes have no deadlock."""

    def test_empty_is_terminal(self, sem):
        assert sem.is_terminal(EMPTY)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_nonempty_states_have_successors(self, data):
        scheme = fig2_scheme()
        sem = AbstractSemantics(scheme)
        nodes = list(scheme.node_ids)
        state = data.draw(_scheme_states(nodes))
        if not state.is_empty():
            assert sem.successors(state), state.to_notation()

    def test_reachable_states_never_deadlock(self):
        sem = AbstractSemantics(fig2_scheme())
        frontier = [sem.initial_state]
        seen = set(frontier)
        for _ in range(200):
            if not frontier:
                break
            state = frontier.pop()
            successors = sem.successors(state)
            assert successors or state.is_empty()
            for t in successors:
                if t.target not in seen and len(seen) < 300:
                    seen.add(t.target)
                    frontier.append(t.target)


def _scheme_states(nodes):
    return st.recursive(
        st.builds(HState),
        lambda children: st.builds(
            lambda items: HState(items),
            st.lists(st.tuples(st.sampled_from(nodes), children), max_size=4),
        ),
        max_leaves=5,
    )


class TestReplay:
    def test_replay_simple(self):
        sem = AbstractSemantics(spawner_loop())
        descriptors = [("m0", "test", 0), ("m1", "call", 0)]
        trace = sem.replay(sem.initial_state, descriptors)
        assert trace is not None
        assert trace[-1].target == P("m0,{c0}")

    def test_replay_failure(self):
        sem = AbstractSemantics(spawner_loop())
        assert sem.replay(sem.initial_state, [("m1", "call", 0)]) is None

    def test_replay_backtracks_over_token_choice(self):
        sem = AbstractSemantics(wait_blocked())
        # m0 pcall, then the child spins; wait never fires
        trace = sem.replay(
            sem.initial_state,
            [("m0", "call", 0), ("c0", "action", 0), ("c0b", "action", 0)],
        )
        assert trace is not None
        assert trace[-1].target == P("m1,{c0}")

    def test_run_checks_chaining(self):
        sem = AbstractSemantics(spawner_loop())
        transitions = sem.successors(sem.initial_state)
        final = sem.run([transitions[0]])
        assert final == transitions[0].target

    def test_run_rejects_broken_chain(self):
        sem = AbstractSemantics(spawner_loop())
        t = sem.successors(sem.initial_state)[0]
        t2 = sem.successors(sem.initial_state)[1]
        if t2.source == t.target:  # pragma: no cover - defensive
            pytest.skip("states coincide")
        with pytest.raises(StateError):
            sem.run([t, t2])

    def test_run_rejects_empty(self):
        sem = AbstractSemantics(spawner_loop())
        with pytest.raises(StateError):
            sem.run([])


class TestQueries:
    def test_enabled_labels(self, sem):
        assert sem.enabled_labels(P("q0")) == ("a1",)
        assert sem.enabled_labels(P("q1")) == (TAU,)
        assert sem.enabled_labels(EMPTY) == ()

    def test_step(self, sem):
        assert sem.step(P("q0"), "a1") == [P("q1")]
        assert sem.step(P("q0"), "zz") == []


def _shape(transition):
    """Everything observable about a transition, target by value."""
    target = transition.target
    return (
        transition.label,
        transition.rule,
        transition.node,
        transition.path,
        transition.branch,
        target.to_notation(),
        hash(target),
        target.sort_key(),
    )


class TestHashConsedSemantics:
    """The table path of MemoizingSemantics against the untabled one.

    fig2 has every node kind, so random states over its nodes fire every
    local rule (action, test, call, wait, end) at every position.
    """

    SEEDS = range(120)

    def _states(self, scheme):
        nodes = list(scheme.node_ids)
        return [random_hstate(seed, nodes=nodes, max_size=8) for seed in self.SEEDS]

    def test_memoizing_successors_equal_untabled(self):
        scheme = fig2_scheme()
        plain = AbstractSemantics(scheme)
        memo = MemoizingSemantics(scheme)
        rules = set()
        for state in self._states(scheme):
            expected = plain.successors(state)
            got = memo.successors(HState.parse(state.to_notation()))
            assert [_shape(t) for t in got] == [_shape(t) for t in expected]
            for transition in got:
                rules.add(transition.rule)
                reparsed = HState.parse(transition.target.to_notation())
                assert reparsed == transition.target
                assert hash(reparsed) == hash(transition.target)
        assert rules == {"action", "test", "call", "wait", "end"}

    def test_equal_targets_are_identical(self):
        scheme = fig2_scheme()
        memo = MemoizingSemantics(scheme)
        canonical = {}
        for state in self._states(scheme):
            for transition in memo.successors(state):
                target = transition.target
                assert canonical.setdefault(target, target) is target
                assert memo.intern(HState.parse(target.to_notation())) is target
                # a target re-expanded as a source keeps its identity
                for again in memo.successors(target):
                    assert canonical.setdefault(again.target, again.target) is again.target

    def test_dropping_a_session_frees_its_table(self):
        session = AnalysisSession(fig2_scheme())
        session.explore(max_states=300)
        semantics = weakref.ref(session.semantics)
        table = session.semantics._table
        assert len(table) >= len(session.graph)
        # a spine sub-state: only the table refers to it
        graph_states = set(session.graph.states)
        state = max(
            (s for s in table.values() if s not in graph_states), key=lambda s: s.size
        )
        del session, table, graph_states
        gc.collect()
        assert semantics() is None
        # nothing but this frame holds it now: no table outlives its session
        assert sys.getrefcount(state) == 2
