"""Tests for tag automata, LenTag, ε-concatenation and Parikh formulae (§4)."""

from repro.automata import compile_regex
from repro.core import parikh
from repro.core.tag_automaton import concat_for_variables, len_tag
from repro.core.tags import Tag, length_tag, position_tag, symbol_tag, symbol_of, variable_of
from repro.core.witness import assignment_from_run
from repro.lia import eq, conj, ge, var

from helpers import solve_parikh


def test_tag_basics():
    tag = symbol_tag("a")
    assert tag.kind == "S"
    assert tag.var_name("pre") == "pre#S[a]"
    assert symbol_of({tag, length_tag("x")}) == "a"
    assert variable_of({tag, length_tag("x")}) == "x"
    assert position_tag("x", 2) != position_tag("x", 3)


def test_len_tag_structure():
    nfa = compile_regex("(ab)*", alphabet="ab")
    ta = len_tag(nfa, "x")
    assert len(ta.transitions) == nfa.num_transitions()
    for transition in ta.transitions:
        kinds = sorted(tag.kind for tag in transition.tags)
        assert kinds == ["L", "S"]
        assert transition.variable == "x"


def test_eps_concat_links_automata():
    automata = {
        "x": compile_regex("ab", alphabet="ab"),
        "y": compile_regex("b", alphabet="ab"),
    }
    combined, info = concat_for_variables(automata, ["x", "y"])
    assert info.order == ("x", "y")
    # There must be at least one ε-connector (empty tag set).
    assert any(not t.tags for t in combined.transitions)
    # Every state belongs to one of the variables.
    assert set(info.state_var.values()) == {"x", "y"}


def test_parikh_formula_counts_lengths():
    automata = {
        "x": compile_regex("(ab)*", alphabet="ab"),
        "y": compile_regex("a*", alphabet="ab"),
    }
    combined, _ = concat_for_variables(automata, ["x", "y"])
    enc = parikh.encode(combined, prefix="q.")
    # Ask for a run with len(x) = 4 and len(y) = 3.
    formula = conj(
        [
            enc.formula,
            eq(enc.tag_count(length_tag("x")), 4),
            eq(enc.tag_count(length_tag("y")), 3),
        ]
    )
    result = solve_parikh(formula, [enc])
    assert result.is_sat
    run = parikh.run_from_model(enc, result.model)
    assert run is not None
    words = assignment_from_run(run)
    assert words["x"] == "abab"
    assert words["y"] == "aaa"


def test_parikh_formula_rejects_impossible_lengths():
    automata = {"x": compile_regex("(ab)*", alphabet="ab")}
    combined, _ = concat_for_variables(automata, ["x"])
    enc = parikh.encode(combined)
    # (ab)* has no word of odd length.
    formula = conj([enc.formula, eq(enc.tag_count(length_tag("x")), 3)])
    result = solve_parikh(formula, [enc])
    assert result.is_unsat


def test_parikh_formula_empty_word_run():
    automata = {"x": compile_regex("(ab)*", alphabet="ab")}
    combined, _ = concat_for_variables(automata, ["x"])
    enc = parikh.encode(combined)
    formula = conj([enc.formula, eq(enc.tag_count(length_tag("x")), 0)])
    result = solve_parikh(formula, [enc])
    assert result.is_sat
    run = parikh.run_from_model(enc, result.model)
    assert run == []  # empty run: x is the empty word


def test_parikh_formula_symbol_counts():
    automata = {"x": compile_regex("(a|b)*", alphabet="ab")}
    combined, _ = concat_for_variables(automata, ["x"])
    enc = parikh.encode(combined)
    # 2 a's and 1 b.
    formula = conj(
        [
            enc.formula,
            eq(enc.tag_count(symbol_tag("a")), 2),
            eq(enc.tag_count(symbol_tag("b")), 1),
        ]
    )
    result = solve_parikh(formula, [enc])
    assert result.is_sat
    run = parikh.run_from_model(enc, result.model)
    word = assignment_from_run(run)["x"]
    assert sorted(word) == ["a", "a", "b"]


def test_parikh_unused_tag_counts_as_zero():
    automata = {"x": compile_regex("a", alphabet="ab")}
    combined, _ = concat_for_variables(automata, ["x"])
    enc = parikh.encode(combined)
    assert enc.tag_count(length_tag("nonexistent")).is_constant()
