"""Unit and property tests for NFA operations."""

from hypothesis import given, settings, strategies as st

from repro.automata import (
    Nfa,
    complement,
    concat,
    determinize,
    intersection,
    is_subset,
    optional,
    remove_epsilon,
    repeat,
    star,
    union,
    words_up_to,
)


def test_union_combines_languages():
    nfa = union(Nfa.from_word("a"), Nfa.from_word("bb"))
    assert nfa.accepts("a")
    assert nfa.accepts("bb")
    assert not nfa.accepts("ab")


def test_concat_joins_languages():
    nfa = concat(Nfa.from_word("ab"), Nfa.from_word("cd"))
    assert nfa.accepts("abcd")
    assert not nfa.accepts("ab")
    assert not nfa.accepts("cd")


def test_star_iterates():
    nfa = star(Nfa.from_word("ab"))
    for word in ["", "ab", "abab", "ababab"]:
        assert nfa.accepts(word)
    assert not nfa.accepts("a")
    assert not nfa.accepts("aba")


def test_plus_requires_one_iteration():
    nfa = repeat(Nfa.from_word("a"), 1, None)
    assert not nfa.accepts("")
    assert nfa.accepts("a")
    assert nfa.accepts("aaa")


def test_optional_adds_epsilon():
    nfa = optional(Nfa.from_word("ab"))
    assert nfa.accepts("")
    assert nfa.accepts("ab")
    assert not nfa.accepts("abab")


def test_repeat_bounded():
    nfa = repeat(Nfa.from_word("a"), 2, 3)
    assert not nfa.accepts("a")
    assert nfa.accepts("aa")
    assert nfa.accepts("aaa")
    assert not nfa.accepts("aaaa")


def test_repeat_unbounded():
    nfa = repeat(Nfa.from_word("a"), 2, None)
    assert not nfa.accepts("a")
    assert nfa.accepts("aa")
    assert nfa.accepts("aaaaa")


def test_remove_epsilon_preserves_language():
    nfa = star(Nfa.from_word("ab"))
    eps_free = remove_epsilon(nfa)
    assert not eps_free.has_epsilon()
    for word in ["", "ab", "abab", "a", "ba"]:
        assert nfa.accepts(word) == eps_free.accepts(word)


def test_determinize_is_deterministic_and_equivalent():
    nfa = union(Nfa.from_word("ab"), Nfa.from_word("ac"))
    dfa, _ = determinize(nfa, "abc")
    for state in dfa.states:
        for symbol in "abc":
            assert len(dfa.successors(state, symbol)) == 1
    for word in ["ab", "ac", "a", "abc", ""]:
        assert nfa.accepts(word) == dfa.accepts(word)


def test_complement_flips_membership():
    nfa = Nfa.from_word("ab")
    comp = complement(nfa, "ab")
    assert not comp.accepts("ab")
    for word in ["", "a", "b", "ba", "abb"]:
        assert comp.accepts(word)


def test_intersection_of_star_languages():
    left = star(Nfa.from_word("ab"))
    right = star(union(Nfa.from_word("a"), Nfa.from_word("b")))
    inter = intersection(left, right)
    assert inter.accepts("abab")
    assert not inter.accepts("aab")


def test_difference_and_subset():
    small = Nfa.from_word("ab")
    big = star(union(Nfa.from_word("a"), Nfa.from_word("b")))
    assert is_subset(small, big, "ab")
    assert not is_subset(big, small, "ab")
    diff = intersection(big, complement(small, "ab"))
    assert not diff.accepts("ab")
    assert diff.accepts("ba")


def test_equivalence_of_different_shapes():
    left = union(Nfa.from_word("a"), Nfa.from_word("a"))
    right = Nfa.from_word("a")
    assert is_subset(left, right, "a") and is_subset(right, left, "a")


# ----------------------------------------------------------------------
# Property-based tests: operations agree with the set semantics on bounded
# enumerations of words.
# ----------------------------------------------------------------------
_words = st.lists(st.text(alphabet="ab", min_size=0, max_size=3), min_size=0, max_size=4)


@settings(max_examples=40, deadline=None)
@given(_words, _words)
def test_union_matches_set_union(words_a, words_b):
    nfa = union(Nfa.from_words(words_a), Nfa.from_words(words_b))
    expected = set(words_a) | set(words_b)
    produced = set(words_up_to(nfa, 3))
    assert produced == {w for w in expected if len(w) <= 3}


@settings(max_examples=40, deadline=None)
@given(_words, _words)
def test_intersection_matches_set_intersection(words_a, words_b):
    nfa = intersection(Nfa.from_words(words_a), Nfa.from_words(words_b))
    expected = set(words_a) & set(words_b)
    produced = set(words_up_to(nfa, 3))
    assert produced == expected


@settings(max_examples=40, deadline=None)
@given(_words, _words)
def test_concat_matches_set_concatenation(words_a, words_b):
    nfa = concat(Nfa.from_words(words_a), Nfa.from_words(words_b))
    expected = {a + b for a in words_a for b in words_b}
    produced = set(words_up_to(nfa, 6))
    assert produced == {w for w in expected if len(w) <= 6}


@settings(max_examples=30, deadline=None)
@given(_words)
def test_complement_is_involutive_on_membership(words):
    nfa = Nfa.from_words(words)
    comp = complement(nfa, "ab")
    double = complement(comp, "ab")
    for word in ["", "a", "b", "ab", "ba", "aab"]:
        assert nfa.accepts(word) == double.accepts(word)
        assert nfa.accepts(word) != comp.accepts(word)
