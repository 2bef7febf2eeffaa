"""Length sets of automata (``repro.core.lengths``) against brute force.

Forty seeded random automata cycle through ε-rich, finite, wide (> 64
states), non-contiguously numbered and empty languages.  For each, the
lengths the facade ``Nfa`` accepts up to ``3·(states+1)`` must be exactly
the lengths the LIA formula admits, and the word picked for a length must
exist, be accepted and have that length exactly when the length is in the
set.  An automaton whose lasso outgrows ``states + transitions + 1`` masks
must keep the tag-automaton Parikh encoding.
"""

import random

import pytest

from repro import LengthConstraint, RegexMembership, Session, SolverConfig, Status, str_len
from repro.automata import operations as ops
from repro.automata.enumeration import words_up_to
from repro.automata.nfa import EPSILON, Nfa
from repro.core.lengths import LengthEncoding, encode_length, length_lasso
from repro.core.single import TagEncoding
from repro.lia import eq, evaluate
from repro.solver import solver as solver_module
from repro.solver.solver import IncrementalPipeline
from test_automata_dense import random_nfa, spread

KINDS = ("epsilon", "finite", "wide", "spread", "empty")


def _automaton(seed):
    rng = random.Random(7000 + seed)
    kind = KINDS[seed % len(KINDS)]
    if kind == "epsilon":
        return kind, random_nfa(rng, rng.randint(2, 10), eps_prob=0.4)
    if kind == "finite":
        nfa = Nfa(set("ab"))
        states = [nfa.add_state() for _ in range(rng.randint(2, 9))]
        for _ in range(2 * len(states)):
            src, dst = sorted(rng.sample(states, 2))
            nfa.add_transition(src, rng.choice(["a", "b", EPSILON]), dst)
        nfa.make_initial(states[0])
        for state in rng.sample(states, 2):
            nfa.make_final(state)
        return kind, nfa
    if kind == "wide":
        word = "".join(rng.choice("ab") for _ in range(rng.randint(66, 80)))
        wide = ops.union(Nfa.from_word(word), random_nfa(rng, 5))
        states = sorted(wide.states)
        for _ in range(15):
            symbol = EPSILON if rng.random() < 0.2 else rng.choice("ab")
            wide.add_transition(rng.choice(states), symbol, rng.choice(states))
        return kind, wide
    if kind == "spread":
        return kind, spread(random_nfa(rng, rng.randint(3, 20), eps_prob=0.3), stride=7)
    empty = spread(random_nfa(rng, rng.randint(2, 8)), stride=2)
    empty.final = set()
    return kind, empty


def _accepted_lengths(nfa, horizon):
    """The accepted lengths up to ``horizon``, by a set walk over the facade."""
    lengths = set()
    current = nfa.epsilon_closure(nfa.initial)
    for n in range(horizon + 1):
        if current & nfa.final:
            lengths.add(n)
        successors = set()
        for state in current:
            for symbol in nfa.alphabet:
                successors |= nfa.successors(state, symbol)
        current = nfa.epsilon_closure(successors)
    return lengths


def _formula_lengths(encoding, horizon):
    """The lengths the encoding's formula admits up to ``horizon``.

    A length ``n`` past the tail can only meet the residue ``(n − T) mod C``,
    so ``k = (n − T) // C`` is the one candidate multiplier.
    """
    lasso = encoding.lasso
    others = sorted(set(encoding.formula.variables()) - {encoding.length})
    lengths = set()
    for n in range(horizon + 1):
        k = max(0, (n - lasso.tail) // lasso.cycle)
        if evaluate(encoding.formula, {encoding.length: n, **{name: k for name in others}}):
            lengths.add(n)
    return lengths


def test_inputs_cover_every_kind():
    kinds = [_automaton(seed)[0] for seed in range(40)]
    assert set(kinds) == set(KINDS)
    assert any(len(nfa.states) > 64 for _, nfa in map(_automaton, range(40)))
    assert all(nfa.is_empty() for kind, nfa in map(_automaton, range(40)) if kind == "empty")


@pytest.mark.parametrize("seed", range(40))
def test_length_set_matches_brute_force(seed):
    _kind, nfa = _automaton(seed)
    horizon = 3 * (len(nfa.states) + 1)
    encoding = encode_length("x", nfa, prefix="p.")
    assert isinstance(encoding, LengthEncoding)
    lengths = _accepted_lengths(nfa, horizon)
    assert _formula_lengths(encoding, horizon) == lengths
    # Short lengths against plain word enumeration.
    short = {len(word) for word in words_up_to(nfa, 8)}
    assert short == {n for n in lengths if n <= 8}
    for n in range(horizon + 1):
        word = encoding.lasso.word(n)
        if n in lengths:
            assert word is not None and len(word) == n and nfa.accepts(word), (n, word)
            assert encoding.assignment({encoding.length: n}) == {"x": word}
        else:
            assert word is None, (n, word)


def test_formula_shapes():
    # Σ*: every length accepted from the tail on, so one bound, no multiplier.
    star = encode_length("x", Nfa.universal("ab"))
    assert set(star.formula.variables()) == {star.length}
    # (ab)*: period 2, one residue, so one multiplier.
    pairs = Nfa(set("ab"))
    first, second = pairs.add_state(), pairs.add_state()
    pairs.add_transition(first, "a", second)
    pairs.add_transition(second, "b", first)
    pairs.make_initial(first)
    pairs.make_final(first)
    encoding = encode_length("x", pairs)
    assert (encoding.lasso.tail, encoding.lasso.cycle) == (0, 2)
    assert len(set(encoding.formula.variables())) == 2


def _coprime_cycles():
    """``(a^2)* ∪ … ∪ (a^13)*`` (ε-free, as the pipeline's automata are):
    its length set has period 30030, far beyond ``states + transitions + 1``."""
    nfa = Nfa({"a"})
    start = nfa.add_state()
    nfa.make_initial(start)
    for period in (2, 3, 5, 7, 11, 13):
        ring = [nfa.add_state() for _ in range(period)]
        nfa.add_transition(start, EPSILON, ring[0])
        nfa.make_final(ring[0])
        for src, dst in zip(ring, ring[1:] + ring[:1]):
            nfa.add_transition(src, "a", dst)
    return ops.remove_epsilon(nfa)


def test_lasso_past_the_bound_keeps_the_parikh_encoding(monkeypatch):
    nfa = _coprime_cycles()
    assert length_lasso(nfa) is None
    component = IncrementalPipeline()._prepare_component(0, 0, [], [], {"x"}, {"x": nfa})
    assert isinstance(component.encoding, TagEncoding)

    calls = []
    real = solver_module.encode_system
    monkeypatch.setattr(
        solver_module, "encode_system", lambda *a, **k: calls.append(1) or real(*a, **k)
    )
    for length, expected in ((77, Status.SAT), (17, Status.UNSAT)):
        session = Session(config=SolverConfig(timeout=30.0), alphabet=("a",))
        session.add(RegexMembership("x", nfa, positive=True))
        session.add(LengthConstraint(eq(str_len("x"), length)))
        result = session.check()
        assert result.status is expected
        if expected is Status.SAT:
            assert len(result.model.strings["x"]) == length
    assert len(calls) == 2


def test_length_only_component_skips_the_parikh_encoding(monkeypatch):
    calls = []
    real = solver_module.encode_system
    monkeypatch.setattr(
        solver_module, "encode_system", lambda *a, **k: calls.append(1) or real(*a, **k)
    )
    session = Session(config=SolverConfig(timeout=30.0), alphabet=("a", "b"))
    session.add(RegexMembership("x", "(ab)*a", positive=True))
    session.add(LengthConstraint(eq(str_len("x"), 7)))
    result = session.check()
    assert result.status is Status.SAT
    assert result.model.strings["x"] == "abababa"
    assert calls == []
