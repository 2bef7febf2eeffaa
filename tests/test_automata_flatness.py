"""Tests for flatness detection and related helpers (paper §2 examples)."""

from repro.automata import Nfa, compile_regex, is_flat, is_subset, minimize
from repro.automata.flatness import strongly_connected_components
from repro.automata.enumeration import count_words_of_length, is_finite, shortest_word


def test_paper_flat_example():
    # (ab)*c((ab)* + (ba)*) is flat.
    nfa = compile_regex("(ab)*c((ab)*|(ba)*)", alphabet="abc")
    assert is_flat(nfa)


def test_paper_nonflat_example():
    # (a+b)* is not flat: a single state with two self-loops.
    nfa = compile_regex("(a|b)*", alphabet="ab")
    assert not is_flat(nfa)


def test_finite_languages_are_flat():
    assert is_flat(Nfa.from_words(["abc", "a", ""]))


def test_single_loop_is_flat():
    assert is_flat(compile_regex("a*", alphabet="ab"))
    assert is_flat(compile_regex("(abc)*", alphabet="abc"))


def test_nested_loops_not_flat():
    # (a*b)* has nested loops after trimming.
    nfa = compile_regex("(a*b)*", alphabet="ab")
    assert not is_flat(nfa)


def test_scc_decomposition():
    nfa = compile_regex("(ab)*c", alphabet="abc")
    components = strongly_connected_components(nfa.trim())
    sizes = sorted(len(c) for c in components)
    assert sizes[-1] == 2  # the (ab) loop


def test_is_finite():
    assert is_finite(Nfa.from_words(["a", "bb"]))
    assert not is_finite(compile_regex("a*", alphabet="a"))


def test_shortest_word():
    assert shortest_word(compile_regex("aaa|aa", alphabet="a")) == "aa"
    assert shortest_word(Nfa.empty_language()) is None
    assert shortest_word(compile_regex("a*", alphabet="a")) == ""


def test_count_words_of_length():
    nfa = compile_regex("(a|b)*", alphabet="ab")
    assert count_words_of_length(nfa, 3) == 8
    assert count_words_of_length(compile_regex("(ab)*", alphabet="ab"), 4) == 1
    assert count_words_of_length(compile_regex("(ab)*", alphabet="ab"), 3) == 0


def test_minimize_produces_equivalent_small_dfa():
    nfa = compile_regex("(a|b)(a|b)", alphabet="ab")
    minimal = minimize(nfa, "ab")
    for word in ["", "a", "ab", "ba", "bb", "aab"]:
        assert nfa.accepts(word) == minimal.accepts(word)
    assert len(minimal.states) <= 3


def test_equivalent_automata_include_each_other():
    left = compile_regex("a|a", alphabet="ab")
    right = compile_regex("a", alphabet="ab")
    other = compile_regex("b", alphabet="ab")
    assert is_subset(left, right, "ab") and is_subset(right, left, "ab")
    assert not is_subset(left, other, "ab")
