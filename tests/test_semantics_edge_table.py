"""Exhaustive SMT-LIB 2.6 edge table for the extended string functions.

``str.substr`` / ``str.indexof`` / ``str.replace`` are re-implemented
here *directly from the standard's definitions* (a deliberately
independent second implementation, transcribing the quantified axioms
case by case) and compared against :mod:`repro.strings.semantics` — the
oracle every model verification, ground truth and fuzz differential in
the repo ultimately rests on — over **all** strings of length ≤ 3 on a
2-letter alphabet, with offsets and lengths swept through the negative /
zero / in-range / past-the-end regions.  The same table is then pushed
through :func:`eval_atom` so the atom evaluator agrees with the
function-level semantics.
"""

from itertools import product

from repro.lia import LinExpr
from repro.strings.ast import IndexOfAtom, ReplaceAtom, SubstrAtom, lit, term
from repro.strings.semantics import eval_atom, str_indexof, str_replace, str_substr

WORDS = [""] + [
    "".join(w) for n in (1, 2, 3) for w in product("ab", repeat=n)
]  # 15 strings
OFFSETS = range(-2, 6)
LENGTHS = range(-2, 6)


# -- the independent spec transcriptions --------------------------------
def spec_substr(s: str, i: int, n: int) -> str:
    """SMT-LIB 2.6: the empty string unless ``0 <= i < |s|`` and ``n > 0``;
    otherwise the unique maximal-length prefix of the suffix at ``i`` of
    length at most ``n``."""
    if i < 0 or i >= len(s) or n <= 0:
        return ""
    return s[i : i + min(n, len(s) - i)]


def spec_indexof(s: str, t: str, i: int) -> int:
    """SMT-LIB 2.6: -1 when ``i`` is out of ``[0, |s|]`` or no occurrence
    of ``t`` starts at a position ``>= i``; otherwise the least such
    position (an empty needle occurs at every position, including |s|)."""
    if i < 0 or i > len(s):
        return -1
    for position in range(i, len(s) + 1):
        if s[position : position + len(t)] == t and position + len(t) <= len(s):
            return position
    return -1


def spec_replace(s: str, t: str, r: str) -> str:
    """SMT-LIB 2.6: ``s`` with the *first* occurrence of ``t`` replaced by
    ``r``; ``s`` itself when ``t`` does not occur; an empty ``t`` occurs
    first at position 0, so the result is ``r + s``."""
    if t == "":
        return r + s
    position = s.find(t)
    if position < 0:
        return s
    return s[:position] + r + s[position + len(t) :]


# -- function-level agreement -------------------------------------------
def test_substr_edge_table():
    for s in WORDS:
        for i in OFFSETS:
            for n in LENGTHS:
                assert str_substr(s, i, n) == spec_substr(s, i, n), (s, i, n)


def test_indexof_edge_table():
    for s in WORDS:
        for t in WORDS:
            for i in OFFSETS:
                assert str_indexof(s, t, i) == spec_indexof(s, t, i), (s, t, i)


def test_replace_edge_table():
    for s in WORDS:
        for t in WORDS:
            for r in WORDS:
                assert str_replace(s, t, r) == spec_replace(s, t, r), (s, t, r)


# -- named corner rows of the standard's table --------------------------
def test_edge_rows_named():
    # substr: negative offset, offset == |s|, zero/negative length
    assert str_substr("ab", -1, 2) == ""
    assert str_substr("ab", 2, 1) == ""
    assert str_substr("ab", 0, 0) == ""
    assert str_substr("ab", 1, 5) == "b"
    # indexof: empty needle at every offset incl. |s|; offset out of range
    assert str_indexof("ab", "", 0) == 0
    assert str_indexof("ab", "", 2) == 2
    assert str_indexof("ab", "", 3) == -1
    assert str_indexof("ab", "b", -1) == -1
    assert str_indexof("", "", 0) == 0
    # replace: empty needle prepends; absent needle is the identity
    assert str_replace("ab", "", "b") == "bab"
    assert str_replace("ab", "ba", "x") == "ab"
    assert str_replace("", "", "r") == "r"


# -- atom-level agreement -----------------------------------------------
def test_substr_atom_matches_function_semantics():
    for s in WORDS:
        for i in OFFSETS:
            for n in LENGTHS:
                expected = spec_substr(s, i, n)
                atom = SubstrAtom(
                    term("t"), term(lit(s)), LinExpr.constant(i), LinExpr.constant(n)
                )
                assert eval_atom(atom, {"t": expected}), (s, i, n)
                for wrong in WORDS:
                    if wrong != expected and len(wrong) <= 2:
                        assert not eval_atom(atom, {"t": wrong}), (s, i, n, wrong)
                        break


def test_indexof_atom_matches_function_semantics():
    for s in WORDS:
        for t in WORDS[:7]:  # "", "a", "b", "aa", "ab", "ba", "bb"
            for i in OFFSETS:
                expected = spec_indexof(s, t, i)
                atom = IndexOfAtom(
                    LinExpr.constant(expected),
                    term(lit(s)),
                    term(lit(t)),
                    LinExpr.constant(i),
                )
                assert eval_atom(atom, {}), (s, t, i)
                wrong_atom = IndexOfAtom(
                    LinExpr.constant(expected + 1),
                    term(lit(s)),
                    term(lit(t)),
                    LinExpr.constant(i),
                )
                assert not eval_atom(wrong_atom, {}), (s, t, i)


def test_replace_atom_matches_function_semantics():
    for s in WORDS:
        for t in WORDS[:7]:
            for r in ("", "a", "ba"):
                expected = spec_replace(s, t, r)
                atom = ReplaceAtom(
                    term("out"), term(lit(s)), term(lit(t)), term(lit(r))
                )
                assert eval_atom(atom, {"out": expected}), (s, t, r)
                assert not eval_atom(atom, {"out": expected + "ab"}), (s, t, r)


def test_membership_compiles_its_pattern_once():
    import repro.strings.semantics as semantics
    from repro.strings.ast import RegexMembership

    semantics._compiled.cache_clear()
    atom = RegexMembership("x", "(ab)*b")
    assert eval_atom(atom, {"x": "abb"})
    assert not eval_atom(atom, {"x": "ab"})
    info = semantics._compiled.cache_info()
    assert (info.misses, info.hits) == (1, 1)
