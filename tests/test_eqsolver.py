"""Tests for the noodlification-based equation substrate."""

import random

from repro.automata import Nfa, compile_regex, words_up_to
from repro.eqsolver import Branch, decompose, noodlify_assignment, EquationTooHard
from test_automata_dense import random_nfa

import pytest


def test_noodlify_simple_split():
    # x = y z with x in (ab)*, y in a*, z in (a|b)*
    target = compile_regex("(ab)*", alphabet="ab")
    parts = [("y", compile_regex("a*", alphabet="ab")), ("z", compile_regex("(a|b)*", alphabet="ab"))]
    noodles = noodlify_assignment(target, parts)
    assert noodles
    # Every noodle must refine the parts so the concatenation stays in (ab)*.
    for noodle in noodles:
        for y_word in words_up_to(noodle["y"], 2):
            for z_word in words_up_to(noodle["z"], 2):
                assert target.accepts(y_word + z_word)


def test_noodlify_empty_when_incompatible():
    target = compile_regex("aa", alphabet="ab")
    parts = [("y", compile_regex("b", alphabet="ab")), ("z", compile_regex("a*", alphabet="ab"))]
    noodles = noodlify_assignment(target, parts)
    assert noodles == []


def test_noodlify_rejects_repeated_variables():
    target = compile_regex("(ab)*", alphabet="ab")
    with pytest.raises(EquationTooHard):
        noodlify_assignment(target, [("y", Nfa.universal("ab")), ("y", Nfa.universal("ab"))])


def test_decompose_assignment_equation():
    automata = {
        "x": compile_regex("ab(a|b)*", alphabet="ab"),
        "y": compile_regex("(a|b)*", alphabet="ab"),
    }
    result = decompose([(("x",), ("y",))], automata)
    assert result.complete
    assert result.branches
    for branch in result.branches:
        assert branch.expand("x") == ("y",)
        # y's language must now be inside ab(a|b)*.
        for word in words_up_to(branch.automata["y"], 3):
            assert automata["x"].accepts(word)


def test_decompose_unsat_equation():
    automata = {
        "x": compile_regex("aa", alphabet="ab"),
        "y": compile_regex("b*", alphabet="ab"),
        "z": compile_regex("b*", alphabet="ab"),
    }
    result = decompose([(("x",), ("y", "z"))], automata)
    assert result.complete
    assert result.branches == []


def test_decompose_var_to_epsilon():
    automata = {"x": compile_regex("a*", alphabet="ab")}
    result = decompose([(("x",), ())], automata)
    assert result.complete
    assert result.branches
    assert result.branches[0].expand("x") == ()


def test_decompose_chained_equations():
    automata = {
        "x": compile_regex("(a|b)*", alphabet="ab"),
        "y": compile_regex("a*", alphabet="ab"),
        "z": compile_regex("(ab)*", alphabet="ab"),
    }
    equations = [(("x",), ("y", "z")), (("y",), ())]
    result = decompose(equations, automata)
    assert result.branches
    for branch in result.branches:
        assert branch.expand("x") == ("y", "z") or branch.expand("x") == ("z",) or True
        # Expanding x never mentions x itself.
        assert "x" not in branch.expand("x")


def test_decompose_solves_two_sided_equations_by_levi_splits():
    automata = {
        "x": compile_regex("(ab)*", alphabet="ab"),
        "y": compile_regex("b*", alphabet="ab"),
        "z": compile_regex("a*", alphabet="ab"),
        "w": compile_regex("(a|b)*", alphabet="ab"),
    }
    # Both sides are proper concatenations: eliminated by Levi splits.
    result = decompose([(("x", "y"), ("z", "w"))], automata, alphabet=("a", "b"))
    assert result.complete
    assert result.branches
    # Soundness: in every branch, picking any words for the remaining
    # variables and expanding both sides yields the same concatenation.
    for branch in result.branches:
        remaining = {
            name
            for name in branch.automata
            if name not in branch.substitution
        }
        words = {}
        for name in remaining:
            choices = list(words_up_to(branch.automata[name], 2))
            assert choices, f"{name} has an empty refinement"
            words[name] = choices[-1]
        lhs = "".join(words[p] for p in branch.expand_term(("x", "y")))
        rhs = "".join(words[p] for p in branch.expand_term(("z", "w")))
        assert lhs == rhs


def test_decompose_levi_finds_two_sided_solutions():
    automata = {
        "x": compile_regex("a*", alphabet="ab"),
        "y": compile_regex("b*", alphabet="ab"),
        "z": compile_regex("aab*", alphabet="ab"),
    }
    # x . y = z has the solutions aa b^n; the decomposition must keep one.
    result = decompose([(("x", "y"), ("z",))], automata, alphabet=("a", "b"))
    assert result.complete or result.branches
    found = False
    for branch in result.branches:
        words = {}
        ok = True
        for name in branch.automata:
            if name in branch.substitution:
                continue
            choices = list(words_up_to(branch.automata[name], 3))
            if not choices:
                ok = False
                break
            words[name] = choices[-1]
        if not ok:
            continue
        lhs = "".join(words[p] for p in branch.expand_term(("x", "y")))
        rhs = "".join(words[p] for p in branch.expand_term(("z",)))
        if lhs == rhs and automata["z"].accepts(rhs):
            found = True
    assert found


def test_noodlify_minimization_is_budgeted():
    # The pre-split minimization must not determinize an exponential
    # subset space: this target's DFA has ~2^22 states, and the old
    # behaviour (instant EquationTooHard) must be preserved rather than
    # stalling past any solver deadline.
    import time

    target = compile_regex("(a|b)*a(a|b){21}", alphabet="ab")
    parts = [
        ("y", compile_regex("(a|b)*", alphabet="ab")),
        ("z", compile_regex("(a|b)*", alphabet="ab")),
        ("w", compile_regex("(a|b)*", alphabet="ab")),
    ]
    started = time.monotonic()
    with pytest.raises(EquationTooHard):
        noodlify_assignment(target, parts)
    assert time.monotonic() - started < 5.0


def test_decompose_reports_incompleteness_on_levi_budget():
    automata = {
        "x": compile_regex("(a|b)*", alphabet="ab"),
        "y": compile_regex("(a|b)*", alphabet="ab"),
        "z": compile_regex("(a|b)*", alphabet="ab"),
        "w": compile_regex("(a|b)*", alphabet="ab"),
    }
    result = decompose(
        [(("x", "y"), ("z", "w"))], automata, alphabet=("a", "b"), max_levi_splits=0
    )
    assert not result.complete


def test_branch_expand_is_transitive():
    branch = Branch(automata={}, substitution={"x": ("y", "z"), "y": ("w",)})
    assert branch.expand("x") == ("w", "z")
    assert branch.expand_term(("x", "x")) == ("w", "z", "w", "z")


# ----------------------------------------------------------------------
# The depth-first, memoised noodlification against the product loop
# ----------------------------------------------------------------------
def _reference_noodlify(target, parts):
    """The boundary-assignment product loop, one fresh product per segment."""
    from itertools import product

    from repro.automata import intersection, remove_epsilon

    target = remove_epsilon(target) if target.has_epsilon() else target
    part_automata = [remove_epsilon(nfa) if nfa.has_epsilon() else nfa for _, nfa in parts]
    target_dense = target.dense()
    state_bit = {state: 1 << i for state, i in target_dense.index.items()}
    choices = (
        [sorted(target.initial)]
        + [sorted(target.states)] * (len(parts) - 1)
        + [sorted(target.final)]
    )
    noodles = []
    for assignment in product(*choices):
        refinement = {}
        for index, ((name, _), part_nfa) in enumerate(zip(parts, part_automata)):
            start, end = assignment[index], assignment[index + 1]
            segment = target_dense.with_endpoints(state_bit[start], state_bit[end])
            refined = intersection(part_nfa, segment).trim()
            if not refined.states:
                if start == end and part_nfa.accepts(""):
                    refined = Nfa.epsilon_language()
                else:
                    break
            refinement[name] = refined
        else:
            noodles.append(refinement)
    return noodles


def _structure(nfa):
    return nfa.states, nfa.initial, nfa.final, list(nfa.iter_transitions())


def _assert_same_noodles(target, parts):
    from repro.automata import remove_epsilon

    prepared = remove_epsilon(target)
    boundaries = len(prepared.initial) * len(prepared.final)
    boundaries *= len(prepared.states) ** (len(parts) - 1)
    # Below the split cap the target is used as given (no minimisation).
    assert boundaries <= 256
    noodles = noodlify_assignment(target, parts)
    expected = _reference_noodlify(target, parts)
    assert [list(noodle) for noodle in noodles] == [list(noodle) for noodle in expected]
    for noodle, reference in zip(noodles, expected):
        for name in noodle:
            assert _structure(noodle[name]) == _structure(reference[name])
    return noodles


def _random_split(seed):
    """A random target and 2 (even seeds) or 3 (odd seeds) random parts."""
    rng = random.Random(seed)
    count = 2 + seed % 2
    target = random_nfa(rng, rng.randint(2, 5 if count == 2 else 4))
    parts = [(f"y{i}", random_nfa(rng, rng.randint(1, 4))) for i in range(count)]
    return target, parts


@pytest.mark.parametrize("seed", range(30))
def test_noodlify_matches_the_product_loop(seed):
    _assert_same_noodles(*_random_split(seed))


def test_noodlify_covers_nonempty_random_splits():
    produced = {2: 0, 3: 0}
    for seed in range(30):
        target, parts = _random_split(seed)
        produced[len(parts)] += len(noodlify_assignment(target, parts))
    assert produced[2] > 0 and produced[3] > 0, produced


def test_noodlify_empty_first_segment_prunes_the_rest(monkeypatch):
    import repro.eqsolver.noodler as noodler
    from repro.automata import remove_epsilon

    target = compile_regex("a(a|b)*", alphabet="ab")
    # ε-free, so the noodler refines this very object
    first = remove_epsilon(compile_regex("b(a|b)*", alphabet="ab"))
    parts = [("y", first), ("z", compile_regex("(a|b)*", alphabet="ab")), ("w", Nfa.universal("ab"))]
    assert _assert_same_noodles(target, parts) == []

    refined_parts = []
    real = noodler.intersection

    def counting(part, segment, trim=False):
        refined_parts.append(part)
        return real(part, segment, trim=trim)

    monkeypatch.setattr(noodler, "intersection", counting)
    noodlify_assignment(target, parts)
    # Only first-part segments were refined: every one is empty, so no
    # boundary assignment reaches the second part.
    assert refined_parts and all(part is first for part in refined_parts)


def test_noodlify_epsilon_segment_matches_the_product_loop():
    # y ∈ a* may take the empty word on a segment that starts and ends in
    # the same target state.
    target = compile_regex("(ab)*", alphabet="ab")
    parts = [
        ("y", compile_regex("a*", alphabet="ab")),
        ("z", compile_regex("(ab)*", alphabet="ab")),
        ("w", compile_regex("b*", alphabet="ab")),
    ]
    noodles = _assert_same_noodles(target, parts)
    assert any(noodle["y"].accepts("") for noodle in noodles)
    assert any(noodle["w"].accepts("") for noodle in noodles)


def test_decompose_variable_equation_keeps_the_shared_empty_word():
    automata = {
        "x": compile_regex("a*", alphabet="ab"),
        "y": compile_regex("b*", alphabet="ab"),
    }
    result = decompose([(("x",), ("y",))], automata, alphabet=("a", "b"))
    assert result.complete and len(result.branches) == 1
    refined = result.branches[0].automata["x"]
    assert refined is result.branches[0].automata["y"]
    assert set(words_up_to(refined, 3)) == {""}
    automata["y"] = compile_regex("b+", alphabet="ab")
    assert decompose([(("x",), ("y",))], automata, alphabet=("a", "b")).branches == []
