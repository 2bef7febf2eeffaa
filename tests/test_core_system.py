"""Tests for the system construction (§5.3, §6.5, Appendix C).

End-to-end LIA solving of the A^III encoding is expensive in pure Python, so
most of these tests validate structural properties of the construction (copy
counts, tag inventory, fairness of the formula) plus a couple of very small
end-to-end cases; the solver-level component splitting keeps the expensive
path off the common benchmarks.
"""

import pytest

from repro.automata import compile_regex
from repro.core.predicates import Disequality, NotPrefixOf, NotSuffixOf, StrAt
from repro.core.system import build_system_automaton, encode_system
from repro.core.single import encode_single
from repro.core.witness import extract_assignment
from repro.lia import formula_size, var, eq, conj
from repro.lia.terms import And

from helpers import brute_force_predicates, solve_parikh


def small_automata():
    return {
        "x": compile_regex("a|b", alphabet="ab"),
        "y": compile_regex("a|b", alphabet="ab"),
        "z": compile_regex("a|b", alphabet="ab"),
    }


def test_system_automaton_has_2k_plus_1_copies():
    automata = small_automata()
    base_states = sum(len(a.states) for a in automata.values())
    automaton, info = build_system_automaton(automata, ["x", "y", "z"], num_predicates=2)
    assert len(automaton.states) == base_states * (2 * 2 + 1)
    # Accepting states sit at odd levels only: levels 1, 3, 5.
    assert automaton.final
    assert info.order == ("x", "y", "z")


def test_system_automaton_mismatch_and_copy_tags():
    automata = small_automata()
    automaton, _ = build_system_automaton(automata, ["x", "y"], num_predicates=1)
    kinds = {tag.kind for tag in automaton.tags()}
    assert {"S", "L", "P", "MD"} <= kinds
    # With a single predicate there is no room for copy tags (they start at level 2).
    predicates = {tag.args[2] for tag in automaton.tags() if tag.kind == "MD"}
    assert predicates == {1}


def test_system_automaton_copy_tags_with_two_predicates():
    automata = small_automata()
    automaton, _ = build_system_automaton(automata, ["x", "y", "z"], num_predicates=2)
    kinds = {tag.kind for tag in automaton.tags()}
    assert "CD" in kinds


def test_encode_system_formula_polynomial_size():
    """Theorem 5.3: the formula stays polynomial in the number of disequalities."""
    automata = small_automata()
    sizes = []
    for count in (1, 2, 3):
        predicates = [Disequality(("x",), ("y",)), Disequality(("x",), ("z",)), Disequality(("y",), ("z",))][:count]
        encoding = encode_system(predicates, automata, prefix=f"k{count}.")
        sizes.append(formula_size(encoding.formula))
    assert sizes[0] < sizes[1] < sizes[2]
    # Far from the 2^Θ(n log n) blow-up of the naive ordering enumeration.
    assert sizes[2] < 40 * sizes[0]


def test_encode_system_with_zero_mismatch_predicates_lengths_only():
    automata = {"x": compile_regex("(ab)*", alphabet="ab")}
    encoding = encode_system([], automata, extra_variables=["x"])
    from repro.lia import eq, ge

    length = eq(var("n"), encoding.length_of("x"))
    result = solve_parikh(conj([encoding.formula, length, ge(var("n"), 4)]), [encoding.parikh])
    assert result.is_sat
    assert result.model["n"] % 2 == 0


def test_encode_system_exposes_lengths():
    automata = small_automata()
    encoding = encode_system([Disequality(("x",), ("y",))], automata, extra_variables=["z"])
    assert encoding.length_of("z").variables()  # the counter exists


@pytest.mark.skip(reason="A^III end-to-end solving needs several minutes on the pure-Python LIA backend; run manually")
def test_system_end_to_end_shared_variable():
    """A tiny shared-variable system solved through the A^III encoding."""
    automata = small_automata()
    predicates = [Disequality(("x",), ("y",)), Disequality(("x",), ("z",))]
    encoding = encode_system(predicates, automata)
    result = solve_parikh(encoding.formula, [encoding.parikh], timeout=600.0)
    assert result.is_sat


def test_single_and_system_agree_on_one_predicate_formula_semantics():
    """Both constructions encode the same predicate (structural smoke check)."""
    automata = {
        "x": compile_regex("a", alphabet="ab"),
        "y": compile_regex("a", alphabet="ab"),
    }
    predicate = Disequality(("x",), ("y",))
    single = encode_single(predicate, automata)
    system = encode_system([predicate], automata)
    assert isinstance(single.formula, And)
    assert isinstance(system.formula, And)
    # x and y are forced to "a": the single construction refutes the predicate.
    assert solve_parikh(single.formula, [single.parikh]).is_unsat


#: (predicate, finite languages, satisfiable?) covering every predicate kind
FINITE_CASES = [
    (Disequality(("x",), ("y",)), {"x": "a|ab", "y": "ab"}, True),
    (Disequality(("x",), ("y",)), {"x": "ab", "y": "ab"}, False),
    (Disequality(("x", "y"), ("y", "x")), {"x": "a|b", "y": "ab"}, True),
    (NotPrefixOf(("x",), ("y",)), {"x": "ab", "y": "abb|ba"}, True),
    (NotPrefixOf(("x",), ("y",)), {"x": "ab", "y": "abb|ab"}, False),
    (NotSuffixOf(("x",), ("y",)), {"x": "b", "y": "ab|ba"}, True),
    (NotSuffixOf(("x",), ("y",)), {"x": "b", "y": "ab|bb"}, False),
    (NotSuffixOf(("x",), ("y", "x")), {"x": "a|ab", "y": "b"}, False),
    (StrAt("x", ("y",), 1), {"x": "b", "y": "ab|aa"}, True),
    (StrAt("x", ("y",), 0), {"x": "b", "y": "ab|aa"}, False),
    (StrAt("x", ("y", "z"), 2), {"x": "a|b", "y": "ab", "z": "b"}, True),
    (StrAt("x", ("y",), 0, negated=True), {"x": "a", "y": "ab|ba"}, True),
    (StrAt("x", ("y",), 0, negated=True), {"x": "a", "y": "ab|aa"}, False),
    (StrAt("x", ("y", "z"), 1, negated=True), {"x": "b", "y": "a", "z": "b|bb"}, False),
]


@pytest.mark.parametrize("predicate, languages, satisfiable", FINITE_CASES)
def test_single_and_system_encodings_agree_with_brute_force(predicate, languages, satisfiable):
    """``A^II`` and ``A^III`` both give the brute-force verdict, with a real witness."""
    automata = {name: compile_regex(regex, alphabet="ab") for name, regex in languages.items()}
    assert (brute_force_predicates([predicate], automata, max_length=3) is not None) == satisfiable
    for encoding in (encode_single(predicate, automata), encode_system([predicate], automata)):
        result = solve_parikh(encoding.formula, [encoding.parikh])
        assert result.is_sat == satisfiable
        if satisfiable:
            strings = extract_assignment(encoding.parikh, result.model, sorted(automata))
            assert all(automata[name].accepts(word) for name, word in strings.items())
            assert predicate.holds(strings, {})
