"""Connectivity of Parikh models: SCC entry constraints and on-demand cuts.

The Parikh formula keeps Kirchhoff's flow conservation but not the
spanning-tree part φ_Span, so its models may use cycles that no run
reaches.  Master encodings carry one entry constraint per cyclic SCC;
:func:`repro.core.parikh.connectivity_cuts` turns every remaining
disconnected component of a model into a lemma.  These tests pin both
halves: the lemmas exclude disconnected models, and every constraint and
lemma holds on every real run.
"""

from typing import Dict, List, Tuple

from hypothesis import given, settings, strategies as st

from repro.core import parikh
from repro.core.tag_automaton import TagAutomaton
from repro.core.tags import symbol_tag
from repro.budget import Budget
from repro.lia import LiaSolver, conj, eq, evaluate, ge, var

from helpers import solve_parikh


def _automaton(transitions, initial, final) -> TagAutomaton:
    automaton = TagAutomaton()
    for src, symbol, dst in transitions:
        automaton.add_transition(src, [symbol_tag(symbol)], dst)
    for state in list(initial) + list(final):
        automaton.add_state(state)
    automaton.initial = set(initial)
    automaton.final = set(final)
    return automaton


def _count(enc: parikh.ParikhEncoding, symbol: str):
    return enc.tag_count(symbol_tag(symbol))


def _figure_eight():
    """Two 2-cycles in one SCC; only ``1`` is entered from outside.

    0 -s-> 1 -a-> 2 -a-> 1 (cycle A), 2 -x-> 3 -b-> 4 -b-> 3 (cycle B),
    4 -y-> 1, and 1 -e-> 5 leaves; 5 is final.  Cycle B is reachable only
    through ``x``.
    """
    return _automaton(
        [(0, "s", 1), (1, "a", 2), (2, "a", 1), (2, "x", 3), (3, "b", 4), (4, "b", 3),
         (4, "y", 1), (1, "e", 5)],
        initial=[0],
        final=[5],
    )


def test_cut_loop_excludes_a_disconnected_cycle():
    enc = parikh.encode(_figure_eight(), prefix="f.", connectivity=True)
    # Using cycle B without ever taking x: no real run does that, but the
    # SCC entry constraint is met by entering the SCC at 1.
    query = conj([enc.formula, ge(_count(enc, "b"), 2), eq(_count(enc, "x"), 0)])
    relaxed = LiaSolver().check(query, budget=Budget(30.0))
    assert relaxed.is_sat
    assert parikh.run_from_model(enc, relaxed.model) is None
    lemmas = parikh.connectivity_cuts(enc, relaxed.model)
    assert lemmas and not any(evaluate(lemma, relaxed.model.values) for lemma in lemmas)

    assert solve_parikh(query, [enc]).is_unsat


def test_cut_loop_then_reconstructs_a_run():
    enc = parikh.encode(_figure_eight(), prefix="f.", connectivity=True)
    query = conj([enc.formula, ge(_count(enc, "b"), 2)])
    result = solve_parikh(query, [enc])
    assert result.is_sat
    run = parikh.run_from_model(enc, result.model)
    word = "".join(transition.symbol() for transition in run)
    assert word.count("b") >= 2 and "x" in word and word.endswith("e")


def test_relaxed_encoding_needs_cuts_even_for_a_simple_cycle():
    # An inner MBQI copy has no SCC constraints: the self-loop at 2 is
    # usable without visiting 2 until a cut says otherwise.
    automaton = _automaton([(0, "a", 1), (0, "x", 2), (2, "b", 2), (2, "y", 1)], initial=[0], final=[1])
    enc = parikh.encode(automaton, prefix="r.")
    query = conj([enc.formula, ge(_count(enc, "b"), 1), eq(_count(enc, "x"), 0)])
    assert LiaSolver().check(query, budget=Budget(30.0)).is_sat
    assert solve_parikh(query, [enc]).is_unsat
    master = parikh.encode(automaton, prefix="m.", connectivity=True)
    query = conj([master.formula, ge(_count(master, "b"), 1), eq(_count(master, "x"), 0)])
    assert LiaSolver().check(query, budget=Budget(30.0)).is_unsat


# ----------------------------------------------------------------------
# Property: constraints and lemmas hold on every real run
# ----------------------------------------------------------------------
def _real_runs(automaton: TagAutomaton, max_length: int) -> List[Tuple[int, List[int]]]:
    """``(start, transition indices)`` of every accepting run up to ``max_length``."""
    runs = []
    stack = [(start, start, []) for start in sorted(automaton.initial)]
    while stack:
        start, state, path = stack.pop()
        if state in automaton.final:
            runs.append((start, path))
        if len(path) == max_length:
            continue
        for index, transition in enumerate(automaton.transitions):
            if transition.src == state:
                stack.append((start, transition.dst, path + [index]))
    return runs


def _parikh_vector(enc: parikh.ParikhEncoding, start: int, path: List[int]) -> Dict[str, int]:
    automaton = enc.automaton
    end = automaton.transitions[path[-1]].dst if path else start
    values = {name: 0 for name in enc.transition_vars}
    for index in path:
        values[enc.transition_vars[index]] += 1
    for state in automaton.states:
        values[enc.gamma_initial(state)] = int(state == start)
        values[enc.gamma_final(state)] = int(state == end)
    for tag, name in enc.tag_vars.items():
        values[name] = sum(
            values[enc.transition_vars[i]] for i, t in enumerate(automaton.transitions) if tag in t.tags
        )
    return values


_transitions = st.lists(
    st.tuples(st.integers(0, 3), st.sampled_from("ab"), st.integers(0, 3)), min_size=1, max_size=7
)


@settings(max_examples=40, deadline=None)
@given(
    _transitions,
    st.sets(st.integers(0, 3), min_size=1, max_size=2),
    st.sets(st.integers(0, 3), min_size=1, max_size=2),
    st.integers(0, 3),
    st.integers(0, 2),
    st.booleans(),
)
def test_constraints_and_lemmas_hold_on_real_runs(transitions, initial, final, a_count, b_count, master):
    automaton = _automaton(transitions, initial, final)
    enc = parikh.encode(automaton, prefix="p.", connectivity=master)
    wanted = [ge(_count(enc, "a"), a_count), eq(_count(enc, "b"), b_count)]
    lemmas: list = []
    result = solve_parikh(conj([enc.formula] + wanted), [enc], lemmas=lemmas)

    runs = _real_runs(automaton, max_length=6)
    for start, path in runs:
        values = _parikh_vector(enc, start, path)
        assert evaluate(enc.formula, values)
        for lemma in lemmas:
            assert evaluate(lemma, values), f"lemma {lemma} excludes the real run {path}"

    if result.is_sat:
        run = parikh.run_from_model(enc, result.model)
        state = next(q for q in automaton.states if result.model.get(enc.gamma_initial(q), 0) == 1)
        assert state in automaton.initial
        for transition in run:
            assert transition.src == state
            state = transition.dst
        assert state in automaton.final
    else:
        witnesses = [
            path for start, path in runs
            if all(evaluate(formula, _parikh_vector(enc, start, path)) for formula in wanted)
        ]
        assert not witnesses, f"unsat, yet the run {witnesses[0]} satisfies the query"
