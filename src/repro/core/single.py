"""Encodings for a *single* existential position constraint (§5.1, §5.2, §6.2, §6.3).

The shared machinery is the three-copy tag automaton ``A^II`` of §5.2: the
ε-concatenation ``A◦`` of the variable automata is copied three times; the
transition from copy 1 to copy 2 samples the first mismatch symbol (tag
⟨M1, a, x⟩) and the transition from copy 2 to copy 3 samples the second
(⟨M2, a, x⟩).  Position tags ⟨P1/P2/P3, x⟩ count, per variable, how many of
its transitions were taken in each copy; length tags ⟨L, x⟩ count them in
total.

From the Parikh tag formula of ``A^II`` the functions below assemble the
per-predicate LIA formulae:

* :func:`encode_disequality` — eq. (15) (and the §5.1 special case),
* :func:`encode_not_prefixof` / :func:`encode_not_suffixof` — §6.2,
* :func:`encode_str_at` — §6.3 (both the positive and the negated form).

Two deliberate deviations from the paper's presentation are documented in
the code below (they fix what we believe are typos):

1. the ¬suffixof position condition uses *suffix* sums of the preceding
   occurrences (distance to the end of the respective side), and
2. the ¬str.at case split includes the missing case ``len(x_s) = 0`` with an
   in-bounds index (the empty string never equals a one-character string).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..automata.nfa import Nfa
from ..lia import Formula, LinExpr, conj, disj, eq, ge, gt, le, lt, ne
from . import parikh
from .predicates import Disequality, NotPrefixOf, NotSuffixOf, StrAt
from .tag_automaton import ConcatInfo, TagAutomaton, concat_for_variables
from .tags import Tag, length_tag, mismatch_tag, position_tag, symbol_tag


@dataclass
class SingleEncoding:
    """Result of encoding one position predicate.

    ``formula`` is equisatisfiable (together with the surrounding integer
    constraints) to the predicate under the regular membership constraints;
    ``parikh`` gives access to the tag counters (e.g. for adding length
    constraints), and ``variable_order`` is the order ≼ of the concatenation.
    """

    formula: Formula
    parikh: parikh.ParikhEncoding
    automaton: TagAutomaton
    info: ConcatInfo
    variable_order: Tuple[str, ...]

    def length_of(self, variable: str) -> LinExpr:
        """LIA expression for ``len(variable)`` (the ⟨L, x⟩ counter)."""
        return self.parikh.tag_count(length_tag(variable))


# ----------------------------------------------------------------------
# Tag-automaton construction (A^II)
# ----------------------------------------------------------------------
def build_mismatch_automaton(
    automata: Dict[str, Nfa], variables: Sequence[str]
) -> Tuple[TagAutomaton, ConcatInfo]:
    """Construct ``A^II`` (§5.2) for the given variable order.

    The automaton has three copies of ``A◦``; accepting states are the final
    states of copies 1 (no mismatch — the predicate must then be satisfied
    through lengths) and 3 (both mismatch symbols sampled).
    """
    base, info = concat_for_variables(automata, variables)
    offset = max(base.states, default=-1) + 1

    result = TagAutomaton()

    def copy_state(state: int, level: int) -> int:
        return state + (level - 1) * offset

    for level in (1, 2, 3):
        for state in base.states:
            result.add_state(copy_state(state, level))
    result.initial = {copy_state(state, 1) for state in base.initial}
    result.final = {copy_state(state, 1) for state in base.final} | {
        copy_state(state, 3) for state in base.final
    }

    for transition in base.transitions:
        src, dst = transition.src, transition.dst
        variable = transition.variable
        symbol = transition.symbol()
        if symbol is None:
            # ε-connector between variable automata: replicate at each level.
            for level in (1, 2, 3):
                result.add_transition(
                    copy_state(src, level), frozenset(), copy_state(dst, level), base_id=transition.base_id
                )
            continue
        sym = symbol_tag(symbol)
        length = length_tag(variable)
        # Copy 1: before the first mismatch.
        result.add_transition(
            copy_state(src, 1),
            {sym, length, position_tag(variable, 1)},
            copy_state(dst, 1),
            base_id=transition.base_id,
            variable=variable,
        )
        # The first mismatch: jump from copy 1 to copy 2 (tagged P2).
        result.add_transition(
            copy_state(src, 1),
            {sym, length, position_tag(variable, 2), mismatch_tag(variable, 1, symbol)},
            copy_state(dst, 2),
            base_id=transition.base_id,
            variable=variable,
        )
        # Copy 2: between the two mismatches.
        result.add_transition(
            copy_state(src, 2),
            {sym, length, position_tag(variable, 2)},
            copy_state(dst, 2),
            base_id=transition.base_id,
            variable=variable,
        )
        # The second mismatch: jump from copy 2 to copy 3 (tagged P3).
        result.add_transition(
            copy_state(src, 2),
            {sym, length, position_tag(variable, 3), mismatch_tag(variable, 2, symbol)},
            copy_state(dst, 3),
            base_id=transition.base_id,
            variable=variable,
        )
        # Copy 3: after the second mismatch.
        result.add_transition(
            copy_state(src, 3),
            {sym, length, position_tag(variable, 3)},
            copy_state(dst, 3),
            base_id=transition.base_id,
            variable=variable,
        )
    return result, info


# ----------------------------------------------------------------------
# Formula building blocks
# ----------------------------------------------------------------------
def _alphabet_of(automata: Dict[str, Nfa], variables: Iterable[str]) -> Tuple[str, ...]:
    symbols = set()
    for name in variables:
        symbols |= automata[name].alphabet
    return tuple(sorted(symbols))


def _occurrence_prefix(enc: parikh.ParikhEncoding, side: Sequence[str], index: int) -> LinExpr:
    """Σ_{u < index} #⟨L, side[u]⟩ — lengths of occurrences preceding ``index`` (1-based)."""
    return LinExpr.sum_of(enc.tag_count(length_tag(side[u])) for u in range(index - 1))


def _occurrence_suffix(enc: parikh.ParikhEncoding, side: Sequence[str], index: int) -> LinExpr:
    """Σ_{u > index} #⟨L, side[u]⟩ — lengths of occurrences following ``index`` (1-based)."""
    return LinExpr.sum_of(enc.tag_count(length_tag(side[u])) for u in range(index, len(side)))


def _side_length(enc: parikh.ParikhEncoding, side: Sequence[str]) -> LinExpr:
    """Total length of a side (occurrences counted with multiplicity)."""
    return LinExpr.sum_of(enc.tag_count(length_tag(name)) for name in side)


def _mismatch_count(enc: parikh.ParikhEncoding, variable: str, order: int, alphabet: Sequence[str]) -> LinExpr:
    """Σ_a #⟨M_order, variable, a⟩."""
    return LinExpr.sum_of(enc.tag_count(mismatch_tag(variable, order, a)) for a in alphabet)


def _symbols_differ(enc: parikh.ParikhEncoding, variables: Sequence[str], alphabet: Sequence[str]) -> Formula:
    """φ_sym (eq. 8): the two sampled symbols are different."""
    parts = []
    for a in alphabet:
        total = LinExpr.sum_of(
            enc.tag_count(mismatch_tag(x, order, a)) for x in variables for order in (1, 2)
        )
        parts.append(lt(total, 2))
    return conj(parts)


def _symbols_equal(enc: parikh.ParikhEncoding, variables: Sequence[str], alphabet: Sequence[str]) -> Formula:
    """φ'_sym (§6.3): the two sampled symbols are the same."""
    parts = []
    for a in alphabet:
        total = LinExpr.sum_of(
            enc.tag_count(mismatch_tag(x, order, a)) for x in variables for order in (1, 2)
        )
        parts.append(ne(total, 1))
    return conj(parts)


def _order_index(info: ConcatInfo, variable: str) -> int:
    return info.order.index(variable)


def _position_formula_prefix(
    enc: parikh.ParikhEncoding,
    info: ConcatInfo,
    lhs: Sequence[str],
    rhs: Sequence[str],
    i: int,
    j: int,
) -> Formula:
    """φ_pos(i, j) (eqs. 9–11): equal global mismatch positions from the start."""
    x, y = lhs[i - 1], rhs[j - 1]
    lhs_prefix = _occurrence_prefix(enc, lhs, i)
    rhs_prefix = _occurrence_prefix(enc, rhs, j)
    p1x = enc.tag_count(position_tag(x, 1))
    p2x = enc.tag_count(position_tag(x, 2))
    p1y = enc.tag_count(position_tag(y, 1))
    p2y = enc.tag_count(position_tag(y, 2))
    if x != y:
        if _order_index(info, x) < _order_index(info, y):
            return eq(p1x + lhs_prefix, p2y + rhs_prefix)
        return eq(p2x + lhs_prefix, p1y + rhs_prefix)
    # Occurrences of the same variable: either side may hold the first mismatch.
    return disj(
        [
            eq(p1x + lhs_prefix, p1x + p2x + rhs_prefix),
            eq(p1x + p2x + lhs_prefix, p1x + rhs_prefix),
        ]
    )


def _position_formula_suffix(
    enc: parikh.ParikhEncoding,
    info: ConcatInfo,
    lhs: Sequence[str],
    rhs: Sequence[str],
    i: int,
    j: int,
) -> Formula:
    """φ^NS_pos(i, j) (§6.2): equal mismatch distances from the *end*.

    Deviation from eq. (23)/(24) of the paper: the occurrence sums range over
    the occurrences *after* the mismatch occurrence (suffix sums), which is
    what "counting the mismatch position from the end of its arguments"
    requires; the paper's prefix sums appear to be a typo.
    """
    x, y = lhs[i - 1], rhs[j - 1]
    lhs_suffix = _occurrence_suffix(enc, lhs, i)
    rhs_suffix = _occurrence_suffix(enc, rhs, j)
    p2x = enc.tag_count(position_tag(x, 2))
    p3x = enc.tag_count(position_tag(x, 3))
    p2y = enc.tag_count(position_tag(y, 2))
    p3y = enc.tag_count(position_tag(y, 3))
    if x != y:
        if _order_index(info, x) < _order_index(info, y):
            return eq(p2x + p3x + lhs_suffix, p3y + rhs_suffix)
        return eq(p3x + lhs_suffix, p2y + p3y + rhs_suffix)
    return disj(
        [
            eq(p2x + p3x + lhs_suffix, p3x + rhs_suffix),
            eq(p3x + lhs_suffix, p2x + p3x + rhs_suffix),
        ]
    )


def _mismatch_exists(
    enc: parikh.ParikhEncoding,
    info: ConcatInfo,
    x: str,
    y: str,
    alphabet: Sequence[str],
) -> Formula:
    """Require that mismatches were sampled in the right variables (eqs. 12–13)."""
    if x == y or _order_index(info, x) <= _order_index(info, y):
        first, second = x, y
    else:
        first, second = y, x
    return conj(
        [
            gt(_mismatch_count(enc, first, 1, alphabet), 0),
            gt(_mismatch_count(enc, second, 2, alphabet), 0),
        ]
    )


def _mismatch_disjunction(
    enc: parikh.ParikhEncoding,
    info: ConcatInfo,
    lhs: Sequence[str],
    rhs: Sequence[str],
    alphabet: Sequence[str],
    from_end: bool,
) -> Formula:
    """φ_mis (eq. 14): some pair of occurrences holds the mismatch."""
    position_formula = _position_formula_suffix if from_end else _position_formula_prefix
    options: List[Formula] = []
    for i in range(1, len(lhs) + 1):
        for j in range(1, len(rhs) + 1):
            options.append(
                conj(
                    [
                        position_formula(enc, info, lhs, rhs, i, j),
                        _mismatch_exists(enc, info, lhs[i - 1], rhs[j - 1], alphabet),
                    ]
                )
            )
    return disj(options)


# ----------------------------------------------------------------------
# Public encoders
# ----------------------------------------------------------------------
def _prepare(
    automata: Dict[str, Nfa], variables: Sequence[str], prefix: str
) -> Tuple[TagAutomaton, ConcatInfo, parikh.ParikhEncoding]:
    automaton, info = build_mismatch_automaton(automata, variables)
    enc = parikh.encode(automaton, prefix=prefix, connectivity=True)
    return automaton, info, enc


def encode_disequality(
    predicate: Disequality, automata: Dict[str, Nfa], prefix: str = "",
    extra_variables: Sequence[str] = (),
) -> SingleEncoding:
    """Encode ``lhs ≠ rhs`` (eq. 15; §5.1 is the special case of two variables)."""
    variables = _with_extras(predicate.string_variables(), extra_variables)
    automaton, info, enc = _prepare(automata, variables, prefix)
    alphabet = _alphabet_of(automata, variables)

    length_differs = ne(_side_length(enc, predicate.lhs), _side_length(enc, predicate.rhs))
    mismatch = conj(
        [
            _symbols_differ(enc, variables, alphabet),
            _mismatch_disjunction(enc, info, predicate.lhs, predicate.rhs, alphabet, from_end=False),
        ]
    )
    formula = conj([enc.formula, disj([length_differs, mismatch])])
    return SingleEncoding(formula, enc, automaton, info, info.order)


def encode_not_prefixof(
    predicate: NotPrefixOf, automata: Dict[str, Nfa], prefix: str = "",
    extra_variables: Sequence[str] = (),
) -> SingleEncoding:
    """Encode ``¬prefixof(lhs, rhs)`` (§6.2, eq. 22)."""
    variables = _with_extras(predicate.string_variables(), extra_variables)
    automaton, info, enc = _prepare(automata, variables, prefix)
    alphabet = _alphabet_of(automata, variables)

    longer = gt(_side_length(enc, predicate.lhs), _side_length(enc, predicate.rhs))
    mismatch = conj(
        [
            _symbols_differ(enc, variables, alphabet),
            _mismatch_disjunction(enc, info, predicate.lhs, predicate.rhs, alphabet, from_end=False),
        ]
    )
    formula = conj([enc.formula, disj([longer, mismatch])])
    return SingleEncoding(formula, enc, automaton, info, info.order)


def encode_not_suffixof(
    predicate: NotSuffixOf, automata: Dict[str, Nfa], prefix: str = "",
    extra_variables: Sequence[str] = (),
) -> SingleEncoding:
    """Encode ``¬suffixof(lhs, rhs)`` (§6.2, eqs. 23–24 with corrected sums)."""
    variables = _with_extras(predicate.string_variables(), extra_variables)
    automaton, info, enc = _prepare(automata, variables, prefix)
    alphabet = _alphabet_of(automata, variables)

    longer = gt(_side_length(enc, predicate.lhs), _side_length(enc, predicate.rhs))
    mismatch = conj(
        [
            _symbols_differ(enc, variables, alphabet),
            _mismatch_disjunction(enc, info, predicate.lhs, predicate.rhs, alphabet, from_end=True),
        ]
    )
    formula = conj([enc.formula, disj([longer, mismatch])])
    return SingleEncoding(formula, enc, automaton, info, info.order)


def encode_str_at(
    predicate: StrAt, automata: Dict[str, Nfa], prefix: str = "",
    extra_variables: Sequence[str] = (),
) -> SingleEncoding:
    """Encode ``x_s = str.at(y_1...y_m, t_i)`` or its negation (§6.3, eqs. 27–28)."""
    variables = _with_extras(predicate.string_variables(), extra_variables)
    automaton, info, enc = _prepare(automata, variables, prefix)
    alphabet = _alphabet_of(automata, variables)

    target = predicate.target
    haystack = predicate.haystack
    index = predicate.index

    target_length = enc.tag_count(length_tag(target))
    haystack_length = _side_length(enc, haystack)
    in_bounds = conj([ge(index, 0), lt(index, haystack_length)])
    out_of_bounds = disj([lt(index, 0), ge(index, haystack_length)])

    # The position/existence disjunction over occurrences of the haystack.
    options: List[Formula] = []
    for j in range(1, len(haystack) + 1):
        y = haystack[j - 1]
        rhs_prefix = _occurrence_prefix(enc, haystack, j)
        p1y = enc.tag_count(position_tag(y, 1))
        p2y = enc.tag_count(position_tag(y, 2))
        existence = _mismatch_exists(enc, info, target, y, alphabet)
        if y == target:
            # The sampled character of the target may come before or after the
            # sampled haystack position within the same variable.
            options.append(
                conj([disj([eq(index, p1y + rhs_prefix), eq(index, p1y + p2y + rhs_prefix)]), existence])
            )
        elif _order_index(info, y) < _order_index(info, target):
            options.append(conj([eq(index, p1y + rhs_prefix), existence]))
        else:
            options.append(conj([eq(index, p2y + rhs_prefix), existence]))
    sampled_position = disj(options)

    if predicate.negated:
        # Deviation from eq. (27): the paper misses the case of an empty
        # target with an in-bounds index (ε never equals a 1-character word).
        formula_body = disj(
            [
                conj([gt(target_length, 0), out_of_bounds]),
                gt(target_length, 1),
                conj([eq(target_length, 0), in_bounds]),
                conj(
                    [
                        eq(target_length, 1),
                        in_bounds,
                        _symbols_differ(enc, variables, alphabet),
                        sampled_position,
                    ]
                ),
            ]
        )
    else:
        formula_body = disj(
            [
                conj([eq(target_length, 0), out_of_bounds]),
                conj(
                    [
                        eq(target_length, 1),
                        in_bounds,
                        _symbols_equal(enc, variables, alphabet),
                        sampled_position,
                    ]
                ),
            ]
        )
    formula = conj([enc.formula, formula_body])
    return SingleEncoding(formula, enc, automaton, info, info.order)


def encode_single(
    predicate, automata: Dict[str, Nfa], prefix: str = "", extra_variables: Sequence[str] = ()
) -> SingleEncoding:
    """Dispatch on the predicate type (all single existential predicates)."""
    if isinstance(predicate, Disequality):
        return encode_disequality(predicate, automata, prefix, extra_variables)
    if isinstance(predicate, NotPrefixOf):
        return encode_not_prefixof(predicate, automata, prefix, extra_variables)
    if isinstance(predicate, NotSuffixOf):
        return encode_not_suffixof(predicate, automata, prefix, extra_variables)
    if isinstance(predicate, StrAt):
        return encode_str_at(predicate, automata, prefix, extra_variables)
    raise TypeError(f"encode_single does not handle {predicate!r}")


def _with_extras(variables: Sequence[str], extras: Sequence[str]) -> Tuple[str, ...]:
    """Append extra variables (deduplicated) to a predicate's variable list."""
    combined = list(variables)
    for name in extras:
        if name not in combined:
            combined.append(name)
    return tuple(combined)
