"""Differential tests for the integer-dense automata core.

Randomized NFAs (with ε-loops, dead states, and >64-state blocks that force
multi-word bitsets) are run through both the dense implementations in
``repro.automata.operations``/``repro.automata.dense`` and the pre-rewrite
set-based oracles kept in ``repro.automata.legacy``; languages and verdicts
must coincide.  The interning-identity contract is covered at the end.
"""

import random

import pytest

from repro.automata import legacy as leg
from repro.automata import operations as ops
from repro.automata.dense import (
    DenseNfa,
    as_dense,
    as_nfa,
    intern_nfa,
    iter_bits,
)
from repro.automata.enumeration import count_words_of_length, words_up_to
from repro.automata.minimization import minimize
from repro.automata.nfa import EPSILON, Nfa
from repro.budget import Budget, BudgetExceeded


def random_nfa(rng, n_states, symbols="ab", eps_prob=0.15, density=3.0):
    """A random NFA: ε-loops and dead states arise naturally from sparsity."""
    nfa = Nfa(set(symbols))
    states = [nfa.add_state() for _ in range(n_states)]
    for _ in range(rng.randint(1, int(density * n_states))):
        src, dst = rng.choice(states), rng.choice(states)
        if rng.random() < eps_prob:
            nfa.add_transition(src, EPSILON, dst)
        else:
            nfa.add_transition(src, rng.choice(symbols), dst)
    for _ in range(rng.randint(1, 2)):
        nfa.make_initial(rng.choice(states))
    for _ in range(rng.randint(1, 2)):
        nfa.make_final(rng.choice(states))
    return nfa


def language(nfa, max_length=4):
    return set(words_up_to(nfa, max_length))


def state_ids(dense, mask):
    """The facade state ids of the dense states set in ``mask``."""
    return {dense.state_ids[i] for i in iter_bits(mask)}


def shifted(nfa, offset):
    """A copy of ``nfa`` with its states renamed to ``offset, offset+1, ...``."""
    result = Nfa(nfa.alphabet)
    part = nfa.copy_into(result, offset)
    result.initial = part.initial
    result.final = part.final
    return result


# ----------------------------------------------------------------------
# Differential properties on small random automata
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(40))
def test_differential_small(seed):
    rng = random.Random(seed)
    a = random_nfa(rng, rng.randint(2, 8))
    b = random_nfa(rng, rng.randint(2, 8))

    assert language(ops.remove_epsilon(a)) == language(leg.legacy_remove_epsilon(a))

    dense_dfa, dense_map = ops.determinize(a, "ab")
    legacy_dfa, legacy_map = leg.legacy_determinize(a, "ab")
    assert language(dense_dfa) == language(legacy_dfa)
    # The subset map's key set is the same (values are numberings).
    assert set(dense_map) == set(legacy_map)
    # The DFA is complete and deterministic over the requested alphabet.
    for state in dense_dfa.states:
        for symbol in "ab":
            assert len(dense_dfa.successors(state, symbol)) == 1

    assert language(ops.intersection(a, b)) == language(leg.legacy_intersection(a, b))
    assert ops.intersection_empty(a, b) == leg.legacy_intersection_empty(a, b)
    assert ops.is_subset(a, b, "ab") == leg.legacy_is_subset(a, b, "ab")
    assert a.is_empty() == leg.legacy_is_empty(a)
    dense = a.dense()
    assert state_ids(dense, dense.reachable_mask()) == leg.legacy_reachable_states(a)
    assert state_ids(dense, dense.coreachable_mask()) == leg.legacy_coreachable_states(a)
    assert language(a.trim()) == language(leg.legacy_trim(a))
    assert language(ops.complement(a, "ab"), 3) == language(leg.legacy_complement(a, "ab"), 3)
    for word in ("", "a", "b", "ab", "ba", "aab", "bab"):
        assert a.accepts(word) == leg.legacy_accepts(a, word)


@pytest.mark.parametrize("seed", range(10))
def test_differential_large_blocks(seed):
    """>64 states: bitsets span multiple machine words."""
    rng = random.Random(1000 + seed)
    a = random_nfa(rng, rng.randint(70, 100), density=2.0)
    b = random_nfa(rng, rng.randint(70, 100), density=2.0)
    assert a.dense().n > 64

    assert a.is_empty() == leg.legacy_is_empty(a)
    dense = a.dense()
    assert state_ids(dense, dense.reachable_mask()) == leg.legacy_reachable_states(a)
    assert state_ids(dense, dense.coreachable_mask()) == leg.legacy_coreachable_states(a)
    assert language(a.trim(), 3) == language(leg.legacy_trim(a), 3)
    assert ops.intersection_empty(a, b) == leg.legacy_intersection_empty(a, b)
    assert language(ops.remove_epsilon(a), 3) == language(leg.legacy_remove_epsilon(a), 3)


def _structure(nfa):
    return nfa.states, nfa.initial, nfa.final, list(nfa.iter_transitions())


def _trimmed_product_pair(seed):
    """Seeds cycle through ε-rich, sparse (often empty) and >64-state pairs."""
    rng = random.Random(3000 + seed)
    if seed % 4 == 3:
        # A word chain keeps >64 product states useful; random extra edges
        # (ε included) and a few dead states ride on it.
        word = "".join(rng.choice("ab") for _ in range(rng.randint(66, 80)))
        wide = ops.union(Nfa.from_word(word), random_nfa(rng, 6))
        states = sorted(wide.states)
        for _ in range(20):
            symbol = EPSILON if rng.random() < 0.2 else rng.choice("ab")
            wide.add_transition(rng.choice(states), symbol, rng.choice(states))
        return wide, ops.union(Nfa.universal("ab"), random_nfa(rng, 3))
    if seed % 4 == 2:
        return (
            random_nfa(rng, rng.randint(2, 6), density=0.6),
            random_nfa(rng, rng.randint(2, 6), density=0.6),
        )
    eps_prob = 0.4 if seed % 4 == 1 else 0.15
    return (
        random_nfa(rng, rng.randint(2, 10), eps_prob=eps_prob),
        random_nfa(rng, rng.randint(2, 10), eps_prob=eps_prob),
    )


@pytest.mark.parametrize("seed", range(40))
def test_trimmed_intersection_equals_trim_of_product(seed):
    a, b = _trimmed_product_pair(seed)
    expected = ops.intersection(a, b).trim()
    assert _structure(ops.intersection(a, b, trim=True)) == _structure(expected)


def test_trimmed_intersection_covers_epsilon_empty_and_wide_products():
    found = {"epsilon": False, "empty": False, "wide": False}
    for seed in range(40):
        a, b = _trimmed_product_pair(seed)
        found["epsilon"] |= a.has_epsilon() or b.has_epsilon()
        product = ops.intersection(a, b)
        found["empty"] |= not product.trim().states
        found["wide"] |= len(product.trim().states) > 64
    assert all(found.values()), found


@pytest.mark.parametrize("seed", [seed for seed in range(40) if seed % 4 != 3])
def test_one_walk_finishes_every_pair_of_finals(seed):
    # One walk from the initial pairs serves every choice of final states:
    # finishing it is the trimmed product of the two endpoint views.
    a, b = _trimmed_product_pair(seed)
    left, right = as_dense(a).eps_free(), as_dense(b).eps_free()
    walk = ops.ProductWalk(left, right)
    for p in range(left.n):
        for q in range(right.n):
            expected = ops.intersection(
                left.with_endpoints(left.initial, 1 << p),
                right.with_endpoints(right.initial, 1 << q),
                trim=True,
            )
            final = walk.final_mask(1 << p, 1 << q)
            keep = walk.coreachable(final)
            assert (final == 0) == (not expected.states)
            assert walk.has_edge(keep) == bool(expected.num_transitions())
            assert _structure(walk.to_nfa(final, keep)) == _structure(expected)


def test_trimmed_intersection_charges_the_coreachability_walk():
    rng = random.Random(11)
    a = random_nfa(rng, 80, density=2.5)
    budget = Budget()
    with budget.activate():
        trimmed = ops.intersection(a, Nfa.universal("ab"), trim=True)
    assert trimmed.states
    assert budget.stats_snapshot()["steps.automata.coreachable"] > 0


# ----------------------------------------------------------------------
# The row builder behind every operation result (Nfa.from_rows)
# ----------------------------------------------------------------------
def spread(nfa, stride=3, offset=5):
    """``nfa`` with state ``s`` renamed to ``offset + stride * s``."""
    result = Nfa(nfa.alphabet)
    for state in sorted(nfa.states):
        result.add_state(offset + stride * state)
    for src, symbol, dst in nfa.iter_transitions():
        result.add_transition(offset + stride * src, symbol, offset + stride * dst)
    for state in nfa.initial:
        result.make_initial(offset + stride * state)
    for state in nfa.final:
        result.make_final(offset + stride * state)
    return result


def _builder_input(seed):
    """Seeds cycle through ε-rich, >64-state, non-contiguous and
    empty-language automata."""
    rng = random.Random(5000 + seed)
    kind = seed % 4
    if kind == 0:
        return random_nfa(rng, rng.randint(2, 10), eps_prob=0.4)
    if kind == 1:
        word = "".join(rng.choice("ab") for _ in range(rng.randint(66, 80)))
        wide = ops.union(Nfa.from_word(word), random_nfa(rng, 5))
        states = sorted(wide.states)
        for _ in range(15):
            symbol = EPSILON if rng.random() < 0.2 else rng.choice("ab")
            wide.add_transition(rng.choice(states), symbol, rng.choice(states))
        return wide
    if kind == 2:
        return spread(random_nfa(rng, rng.randint(3, 20), eps_prob=0.3))
    empty = spread(random_nfa(rng, rng.randint(2, 8)), stride=2)
    empty.final = set()
    return empty


def _assert_dense_attached(nfa):
    attached = nfa._dense
    assert attached is not None
    compiled = DenseNfa.from_nfa(nfa)
    assert attached.canonical_key() == compiled.canonical_key()
    assert attached.state_ids == compiled.state_ids


def _builder_results(seed):
    """Every builder-made result for one seed, with its legacy oracle."""
    a = _builder_input(seed)
    b = random_nfa(random.Random(seed), 4, eps_prob=0.2)
    results = [
        ("trim", a.trim(), leg.legacy_trim(a)),
        ("to_nfa", as_dense(a).to_nfa(), None),
        ("determinize", ops.determinize(a, "ab")[0], leg.legacy_determinize(a, "ab")[0]),
        ("intersection", ops.intersection(a, b), leg.legacy_intersection(a, b)),
        (
            "trimmed intersection",
            ops.intersection(a, b, trim=True),
            leg.legacy_trim(leg.legacy_intersection(a, b)),
        ),
    ]
    if a.has_epsilon():  # an ε-free input is copied, not rebuilt
        results.append(
            ("remove_epsilon", ops.remove_epsilon(a), leg.legacy_remove_epsilon(a))
        )
    return a, results


@pytest.mark.parametrize("seed", range(24))
def test_builder_results_match_legacy_oracles(seed):
    a, results = _builder_results(seed)
    for name, result, oracle in results:
        # Before anything compiles it: the builder attached the dense form.
        _assert_dense_attached(result)
        if name == "to_nfa":
            assert result.states == set(range(len(a.states))), name
            assert language(result) == language(a), name
        elif name == "trimmed intersection":
            # Product states are numbered in discovery order; only the
            # count of useful pairs is comparable.
            assert len(result.states) == len(oracle.states), name
            assert language(result) == language(oracle), name
        else:
            assert result.states == oracle.states, name
            assert language(result) == language(oracle), name


def test_builder_inputs_cover_epsilon_wide_spread_and_empty():
    found = {"epsilon": False, "wide": False, "spread": False, "empty": False}
    for seed in range(24):
        a, results = _builder_results(seed)
        found["epsilon"] |= a.has_epsilon()
        found["wide"] |= any(len(result.states) > 64 for _, result, _ in results)
        found["spread"] |= max(a.states) >= len(a.states)
        found["empty"] |= a.is_empty() and bool(a.states)
    assert all(found.values()), found


#: small automata with the transition order ``trim``, ``remove_epsilon``,
#: ``to_nfa`` and ``intersection(trim=True)`` produce for them, pinned:
#: each is symbol-major (ε last), then source, then destination ascending
GOLDEN_A = (
    [3, 5, 7, 9, 11, 13],
    [11, 13],
    [5, 13],
    [(7, "a", 13), (9, "a", 5), (3, "a", 7), (9, None, 11), (5, "b", 3),
     (7, "b", 5), (5, None, 3), (11, None, 9), (3, "a", 3), (5, "a", 5)],
)
GOLDEN_B = (
    [3, 6, 9, 12, 15],
    [3, 9],
    [3, 9],
    [(6, "b", 12), (12, "b", 6), (3, "a", 9), (15, None, 9), (9, "b", 9),
     (6, "a", 12)],
)
GOLDEN_C = (
    [3, 4, 5, 6],
    [4, 5],
    [3, 5],
    [(3, "a", 6), (6, "a", 3), (3, "b", 4), (5, "b", 5), (6, "b", 3),
     (5, "a", 3), (4, "b", 5)],
)


def _golden(spec):
    states, initial, final, transitions = spec
    nfa = Nfa("ab")
    for state in states:
        nfa.add_state(state)
    for transition in transitions:
        nfa.add_transition(*transition)
    for state in initial:
        nfa.make_initial(state)
    for state in final:
        nfa.make_final(state)
    return nfa


def test_builder_transition_order_is_pinned():
    a, b, c = _golden(GOLDEN_A), _golden(GOLDEN_B), _golden(GOLDEN_C)
    assert list(a.trim().iter_transitions()) == [
        (3, "a", 3), (3, "a", 7), (5, "a", 5), (5, "b", 3), (5, None, 3),
        (7, "a", 13), (7, "b", 5), (9, "a", 5), (9, None, 11), (11, None, 9),
    ]
    assert list(ops.remove_epsilon(a).iter_transitions()) == [
        (3, "a", 3), (3, "a", 7), (5, "a", 3), (5, "a", 5), (5, "a", 7),
        (5, "b", 3), (7, "a", 13), (7, "b", 5), (9, "a", 5), (11, "a", 5),
    ]
    assert list(as_dense(b).to_nfa().iter_transitions()) == [
        (0, "a", 2), (1, "a", 3), (1, "b", 3), (2, "b", 2), (3, "b", 1),
        (4, None, 2),
    ]
    assert list(ops.intersection(a, c, trim=True).iter_transitions()) == [
        (1, "a", 4), (4, "a", 5), (4, "a", 6), (4, "a", 7), (5, "a", 9),
        (5, "a", 10), (6, "a", 9), (6, "a", 10), (6, "a", 4), (6, "b", 9),
        (7, "a", 11), (7, "b", 4), (9, "a", 5), (9, "a", 7), (14, "a", 9),
        (14, "a", 10), (10, "b", 13), (13, "b", 14),
    ]
    assert list(ops.intersection(b, c, trim=True).iter_transitions()) == [
        (1, "a", 4), (2, "b", 3), (3, "b", 3), (4, "b", 2),
    ]


@pytest.mark.parametrize("seed", range(10))
def test_differential_parikh_style_counts(seed):
    """Word counts per length (the Parikh-image proxy the oracle uses)."""
    rng = random.Random(2000 + seed)
    a = random_nfa(rng, rng.randint(2, 7))
    legacy_dfa, _ = leg.legacy_determinize(a, a.alphabet or {"a"})
    for length in range(4):
        expected = sum(1 for w in set(words_up_to(legacy_dfa, 4)) if len(w) == length)
        assert count_words_of_length(a, length) == expected


def test_minimize_and_signature_agree_with_language():
    rng = random.Random(42)
    for _ in range(15):
        a = random_nfa(rng, rng.randint(2, 7))
        minimal = minimize(a, "ab")
        assert language(minimal) == language(a)
        b = ops.union(a, Nfa.empty_language())
        assert ops.is_subset(a, b, "ab") and ops.is_subset(b, a, "ab")


# ----------------------------------------------------------------------
# Dense form specifics
# ----------------------------------------------------------------------
def test_with_endpoints_matches_segment_copy():
    rng = random.Random(7)
    nfa = leg.legacy_remove_epsilon(random_nfa(rng, 6))
    dense = nfa.dense()
    states = sorted(nfa.states)
    for src in states[:3]:
        for dst in states[:3]:
            view = dense.with_endpoints(
                1 << dense.index[src], 1 << dense.index[dst]
            )
            segment = nfa.copy()
            segment.initial = {src}
            segment.final = {dst}
            assert language(as_nfa(view)) == language(segment)


def test_product_is_empty_epsilon_word():
    # Both sides accept exactly ε through different structures.
    left = Nfa.epsilon_language()
    right = Nfa.from_word("")
    assert not ops.intersection_empty(left, right)
    assert not ops.intersection_empty(as_dense(left), as_dense(right))


def test_dense_cache_invalidated_on_mutation():
    nfa = Nfa.from_word("ab")
    assert nfa.accepts("ab")
    first = nfa.dense()
    state = nfa.add_state()
    nfa.make_final(state)
    assert nfa.dense() is not first
    # Direct endpoint assignment (the noodler segment idiom) must also
    # invalidate — including on copies sharing the dense form.
    clone = nfa.copy()
    clone.initial = set(nfa.final)
    assert clone.dense() is not nfa.dense()


def test_budget_steps_bound_dense_determinize():
    # An automaton whose subset construction explodes must hit the step
    # limit instead of running to completion.
    rng = random.Random(3)
    nfa = random_nfa(rng, 14, symbols="ab", eps_prob=0.0, density=6.0)
    budget = Budget(None, max_steps=5)
    with budget.activate():
        with pytest.raises(BudgetExceeded):
            ops.determinize(nfa, "ab")


def test_step_limit_determinism():
    """Same step cap ⇒ same failure point, run after run."""
    rng = random.Random(5)
    nfa = random_nfa(rng, 12, eps_prob=0.0, density=6.0)

    def steps_at_failure(cap):
        budget = Budget(None, max_steps=cap)
        with budget.activate():
            try:
                ops.determinize(nfa.copy(), "ab")
            except BudgetExceeded:
                return ("exceeded", budget.steps)
        return ("done", budget.steps)

    assert steps_at_failure(7) == steps_at_failure(7)
    assert steps_at_failure(50) == steps_at_failure(50)


# ----------------------------------------------------------------------
# Interning contract
# ----------------------------------------------------------------------
def test_interning_identity_modulo_renaming():
    rng = random.Random(19)
    nfa = random_nfa(rng, 6)
    assert intern_nfa(nfa) is intern_nfa(shifted(nfa, 100))
    assert intern_nfa(nfa) is intern_nfa(nfa.copy())


def test_interning_distinguishes_declared_alphabet():
    # Same structure, different declared alphabet: complementation differs,
    # so these must NOT be identified.
    a = Nfa.from_word("a")
    b = Nfa.from_word("a")
    b_wide = ops.union(b, Nfa.empty_language())
    b_wide._alphabet.add("c")
    assert intern_nfa(a) is not intern_nfa(b_wide)


def test_interned_canonical_key_matches_dense():
    rng = random.Random(23)
    nfa = random_nfa(rng, 5)
    canonical = intern_nfa(nfa)
    assert canonical.dense().canonical_key() == nfa.dense().canonical_key()
    assert isinstance(canonical.dense(), DenseNfa)


def test_iter_bits():
    assert list(iter_bits(0)) == []
    assert list(iter_bits(0b1011)) == [0, 1, 3]
    big = (1 << 200) | (1 << 64) | 1
    assert list(iter_bits(big)) == [0, 64, 200]
