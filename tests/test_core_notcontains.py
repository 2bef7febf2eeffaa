"""Tests for the ¬contains machinery (§6.4)."""

from repro.automata import compile_regex
from repro.core.notcontains import NotContainsEncoder, base_transition_counts, find_failing_offset
from repro.core.predicates import NotContains
from repro.core.single import encode_single
from repro.core.predicates import Disequality
from repro.core.witness import extract_assignment
from repro.lia import conj

from helpers import solve_parikh


def test_find_failing_offset():
    predicate = NotContains(("x",), ("y",))
    assert find_failing_offset(predicate, {"x": "ab", "y": "aabb"}) == 1
    assert find_failing_offset(predicate, {"x": "ba", "y": "aaaa"}) is None
    # The paper's Fig. 5 example: aba is not contained in aabba.
    assert find_failing_offset(predicate, {"x": "aba", "y": "aabba"}) is None


def test_flatness_requirement_detection():
    flat = {
        "x": compile_regex("(ab)*", alphabet="ab"),
        "y": compile_regex("a*", alphabet="ab"),
    }
    encoder = NotContainsEncoder(NotContains(("x",), ("y",)), flat)
    assert encoder.languages_are_flat()

    non_flat = {
        "x": compile_regex("(a|b)*", alphabet="ab"),
        "y": compile_regex("a*", alphabet="ab"),
    }
    encoder = NotContainsEncoder(NotContains(("x",), ("y",)), non_flat)
    assert not encoder.languages_are_flat()


def test_base_transition_counts_cover_variable_transitions():
    automata = {
        "x": compile_regex("(ab)*", alphabet="ab"),
        "y": compile_regex("a*", alphabet="ab"),
    }
    encoding = encode_single(Disequality(("x",), ("y",)), automata)
    counts = base_transition_counts(encoding.parikh, encoding.info)
    variables = {key[0] for key in counts}
    assert variables == {"x", "y"}
    # Every count is a sum over the copies of the base transition (>= 3 copies each).
    assert all(len(expr.coeffs) >= 3 for expr in counts.values())


def test_instantiation_lemma_mentions_master_counts():
    automata = {
        "x": compile_regex("a*", alphabet="ab"),
        "y": compile_regex("(ab)*", alphabet="ab"),
    }
    predicate = NotContains(("x",), ("y",))
    encoder = NotContainsEncoder(predicate, automata)
    master = encode_single(Disequality(("x",), ("y",)), automata, prefix="m.")
    master_counts = base_transition_counts(master.parikh, master.info)
    lemma, inner = encoder.instantiation_lemma(0, master_counts, master.length_of)
    names = set(lemma.variables())
    assert any(name.startswith("m.") for name in names)  # linked to the master encoding
    assert any(name.startswith("nc0.") for name in names)  # fresh inner copy
    assert inner.prefix == "nc0.0." and set(inner.transition_vars) <= names


def test_instantiation_lemma_solves_with_connected_runs():
    """Offset 0 of ``a`` inside ``(ab)*`` fails unless the haystack is too short."""
    automata = {
        "x": compile_regex("a", alphabet="ab"),
        "y": compile_regex("(ab)*", alphabet="ab"),
    }
    encoder = NotContainsEncoder(NotContains(("x",), ("y",)), automata)
    master = encode_single(Disequality(("x",), ("y",)), automata, prefix="m.")
    master_counts = base_transition_counts(master.parikh, master.info)
    lemma, inner = encoder.instantiation_lemma(0, master_counts, master.length_of)
    result = solve_parikh(conj([master.formula, lemma]), [master.parikh, inner])
    assert result.is_sat
    strings = extract_assignment(master.parikh, result.model, ["x", "y"])
    assert strings == {"x": "a", "y": ""}

