"""Unit tests for the core NFA data structure."""

import random

from repro.automata import EPSILON, Nfa, remove_epsilon


def test_from_word_accepts_exactly_that_word():
    nfa = Nfa.from_word("abc")
    assert nfa.accepts("abc")
    assert not nfa.accepts("ab")
    assert not nfa.accepts("abcd")
    assert not nfa.accepts("")


def test_from_word_empty_word():
    nfa = Nfa.from_word("")
    assert nfa.accepts("")
    assert not nfa.accepts("a")


def test_from_words_finite_language():
    nfa = Nfa.from_words(["a", "bb", ""])
    assert nfa.accepts("a")
    assert nfa.accepts("bb")
    assert nfa.accepts("")
    assert not nfa.accepts("b")
    assert not nfa.accepts("ab")


def test_universal_accepts_everything():
    nfa = Nfa.universal("ab")
    for word in ["", "a", "b", "ab", "ba", "aabb"]:
        assert nfa.accepts(word)


def test_empty_language():
    nfa = Nfa.empty_language()
    assert nfa.is_empty()
    assert not nfa.accepts("")


def test_epsilon_language():
    nfa = Nfa.epsilon_language()
    assert nfa.accepts("")
    assert not nfa.accepts("a")
    assert not nfa.is_empty()


def test_epsilon_closure_follows_chains():
    nfa = Nfa()
    a, b, c = nfa.add_state(), nfa.add_state(), nfa.add_state()
    nfa.make_initial(a)
    nfa.add_transition(a, EPSILON, b)
    nfa.add_transition(b, EPSILON, c)
    assert nfa.epsilon_closure([a]) == frozenset({a, b, c})


def test_trim_removes_useless_states():
    nfa = Nfa()
    a, b, c, d = (nfa.add_state() for _ in range(4))
    nfa.make_initial(a)
    nfa.make_final(c)
    nfa.add_transition(a, "x", b)
    nfa.add_transition(b, "y", c)
    nfa.add_transition(a, "z", d)  # d is a dead end
    trimmed = nfa.trim()
    assert d not in trimmed.states
    assert trimmed.accepts("xy")
    assert not trimmed.accepts("z")


def test_trim_keeps_epsilon_acceptance():
    nfa = Nfa()
    a = nfa.add_state()
    nfa.make_initial(a)
    nfa.make_final(a)
    trimmed = nfa.trim()
    assert trimmed.accepts("")


def test_size_counts_states_and_transitions():
    nfa = Nfa.from_word("ab")
    assert nfa.size() == len(nfa.states) + nfa.num_transitions()


def test_add_transition_validates_symbols():
    nfa = Nfa()
    a, b = nfa.add_state(), nfa.add_state()
    import pytest

    with pytest.raises(ValueError):
        nfa.add_transition(a, "ab", b)


def test_reachable_and_coreachable():
    nfa = Nfa()
    a, b, c = nfa.add_state(), nfa.add_state(), nfa.add_state()
    nfa.make_initial(a)
    nfa.make_final(b)
    nfa.add_transition(a, "x", b)
    nfa.add_transition(c, "y", b)
    dense = nfa.dense()
    assert dense.reachable_mask() == (1 << dense.index[a]) | (1 << dense.index[b])
    assert dense.coreachable_mask() == (1 << dense.n) - 1


def test_fresh_state_ids_never_collide():
    nfa = Nfa()
    nfa.add_state(5)
    assert nfa.add_state() == 6
    nfa.make_final(10)
    assert nfa.add_state() == 11
    nfa.add_transition(20, "a", 21)
    fresh = nfa.add_state()
    assert fresh == 22
    assert fresh not in {5, 6, 10, 11, 20, 21}


def test_fresh_state_ids_after_copy_and_trim():
    nfa = Nfa.from_word("abc")
    shifted = Nfa(nfa.alphabet)
    nfa.copy_into(shifted, 7)
    for derived in (nfa.copy(), nfa.trim(), shifted):
        fresh = derived.add_state()
        assert fresh not in (derived.states - {fresh})


def _random_nfa(rng, states=8, transitions=20, alphabet="abc"):
    nfa = Nfa(alphabet)
    for _ in range(states):
        nfa.add_state()
    for _ in range(transitions):
        src = rng.randrange(states)
        dst = rng.randrange(states)
        symbol = rng.choice([EPSILON] + list(alphabet))
        nfa.add_transition(src, symbol, dst)
    nfa.make_initial(rng.randrange(states))
    nfa.make_final(rng.randrange(states))
    return nfa


def test_transitions_on_matches_iter_transitions():
    """The alphabet-partitioned index is a faithful view of the delta."""
    rng = random.Random(3)
    for _ in range(20):
        nfa = _random_nfa(rng)
        by_symbol = {}
        for src, symbol, dst in nfa.iter_transitions():
            by_symbol.setdefault(symbol, set()).add((src, dst))
        for symbol in list(by_symbol) + ["unused"]:
            indexed = {
                (src, dst)
                for src, dsts in nfa.transitions_on(symbol).items()
                for dst in dsts
            }
            assert indexed == by_symbol.get(symbol, set())


def test_transitions_map_lists_outgoing_transitions():
    nfa = Nfa("ab")
    a, b = nfa.add_state(), nfa.add_state()
    nfa.add_transition(a, "a", b)
    nfa.add_transition(a, EPSILON, b)
    assert nfa.transitions_map(a) == {"a": {b}, EPSILON: {b}}
    assert nfa.transitions_map(b) == {}


# ----------------------------------------------------------------------
# Automata built from rows carry their transition table lazily
# ----------------------------------------------------------------------
def _eager_build(args):
    """The states, initial, final and transitions ``Nfa.from_rows`` wrote
    eagerly before its table became lazy (the reference of the lazy one)."""
    _alphabet, symbols, rows, eps, initial, final, keep, state_ids = args
    kept = [s for s in range(len(state_ids)) if keep >> s & 1]
    ids = [state_ids[s] for s in kept]
    labelled = list(zip(symbols, rows))
    if eps is not None:
        labelled.append((EPSILON, eps))
    delta = {}
    for symbol, row in labelled:
        for i, s in enumerate(kept):
            targets = {ids[j] for j, t in enumerate(kept) if row[s] >> t & 1}
            if targets:
                delta.setdefault(ids[i], {})[symbol] = targets
    transitions = [
        (src, symbol, dst)
        for src, by_symbol in delta.items()
        for symbol, dsts in by_symbol.items()
        for dst in dsts
    ]
    return (
        set(ids),
        {ids[i] for i, s in enumerate(kept) if initial >> s & 1},
        {ids[i] for i, s in enumerate(kept) if final >> s & 1},
        transitions,
    )


def _pipelines_inputs():
    """The first 21 inversion scenarios of at most two stages of the seed-11
    pipeline stream (the benchmark's ``pipelines`` inputs)."""
    from repro.benchgen import pipelines

    rng = random.Random(11)
    for index in range(96 * 8):
        scenario = pipelines._scenario(rng, index, False)
        if scenario.kind == "inversion" and len(scenario.left.stages) <= 2:
            yield scenario.instance()[1]


def test_automata_built_from_rows_read_as_an_eager_build(monkeypatch):
    from itertools import islice

    from repro.solver import PositionSolver, SolverConfig

    built = []
    from_rows = Nfa.from_rows

    def recording(*args):
        result = from_rows(*args)
        # A lazy copy, read after the run: callers may mutate the result.
        built.append((args, result.copy()))
        return result

    monkeypatch.setattr(Nfa, "from_rows", staticmethod(recording))
    for problem in islice(_pipelines_inputs(), 21):
        PositionSolver(SolverConfig(timeout=30.0)).check(problem)
    rng = random.Random(5)
    for _ in range(20):  # trimming keeps ε rows and compacts states
        nfa = Nfa("ab")
        for _ in range(12):
            symbol = rng.choice(("a", "b", EPSILON))
            nfa.add_transition(rng.randrange(8), symbol, rng.randrange(8))
        nfa.make_initial(0)
        nfa.make_final(rng.randrange(8))
        nfa.trim()
    assert len(built) > 100
    assert any(args[3] is not None for args, _ in built)
    for args, nfa in built:
        assert nfa._delta is None
        states, initial, final, transitions = _eager_build(args)
        assert list(nfa.iter_transitions()) == transitions
        assert (nfa.states, nfa.initial, nfa.final) == (states, initial, final)


def _lazy_automaton():
    """``ab*`` through ε edges, trimmed of a dead state: built from rows,
    its table not yet read."""
    nfa = Nfa("ab")
    nfa.add_transition(0, "a", 1)
    nfa.add_transition(1, "b", 1)
    nfa.add_transition(1, EPSILON, 2)
    nfa.add_transition(1, "b", 3)
    nfa.add_transition(3, EPSILON, 2)
    nfa.add_transition(0, "b", 4)  # 4 is dead
    nfa.make_initial(0)
    nfa.make_final(2)
    nfa = nfa.trim()
    assert nfa._delta is None
    return nfa


def _transitions(nfa):
    return sorted(nfa.iter_transitions(), key=repr)


def test_lazy_automata_keep_every_transition_through_mutation():
    reference = _transitions(_lazy_automaton())
    assert reference
    assert _lazy_automaton().has_epsilon()
    eps_free = remove_epsilon(_lazy_automaton())
    assert eps_free._delta is None and not eps_free.has_epsilon()

    nfa = _lazy_automaton()
    state = max(nfa.states) + 1
    nfa.add_transition(min(nfa.states), "b", state)
    assert _transitions(nfa) == sorted(reference + [(min(nfa.states), "b", state)], key=repr)

    for setter in ("states", "initial", "final"):
        nfa = _lazy_automaton()
        setattr(nfa, setter, set(getattr(nfa, setter)))
        assert _transitions(nfa) == reference, setter
        assert nfa.dense().accepts("abb") and not nfa.dense().accepts("b")

    nfa = _lazy_automaton()
    copy = nfa.copy()
    copy.make_final(min(copy.states))
    assert _transitions(copy) == reference
    assert _transitions(nfa) == reference

    nfa = _lazy_automaton()
    target = Nfa.from_rows("ab", ("a",), ((0b1,),), None, 0b1, 0b1, 0b1, (0,))
    rename = {state: 1 + index for index, state in enumerate(sorted(nfa.states))}
    nfa.copy_into(target)
    spliced = {(rename[src], symbol, rename[dst]) for src, symbol, dst in reference}
    assert set(target.iter_transitions()) == spliced | {(0, "a", 0)}
