"""Encoding of *systems* of position constraints (§5.3, §6.5, Appendix C).

A system of ``K`` mismatch-requiring predicates (disequalities, ¬prefixof,
¬suffixof, str.at, ¬str.at) is encoded with one tag automaton ``A^III`` made
of ``2K + 1`` copies of the ε-concatenation ``A◦``.  Every level change
either *samples* a mismatch symbol for a predicate/side (tag
⟨M_i, x, D, s, a⟩ on a regular transition of variable ``x``) or declares that
a predicate/side *shares* the symbol sampled at the previous level (copy tag
⟨C_i, x, D, s⟩ on a stuttering transition).  Auxiliary integer variables
``m_{D,s}`` (sampled symbol, as an integer code), ``c_i`` (symbol sampled at
level ``i``) and ``p_{D,s}`` (local position of the sample inside its
variable) connect the Parikh counters with the per-predicate satisfaction
conditions.

Length equalities (§6.1) ride along on the same automaton — they only read
the ⟨L, x⟩ counters and need no mismatch machinery.

Two documented deviations from the paper (believed typos, validated against
the brute-force oracle in the test-suite):

* the position of a *copied* sample is ``Σ_{l'≤l} #P_{l'}(x) − 1`` (the
  ``−1`` compensates for the ⟨P_l, x⟩ tag carried by the originating
  mismatch transition; eq. (42) omits it),
* ¬suffixof alignment uses suffix occurrence sums (see
  :mod:`repro.core.single`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..automata.nfa import Nfa
from ..lia import Formula, LinExpr, conj, disj, eq, ge, gt, implies, le, lt, ne, var
from . import parikh
from .predicates import (
    Disequality,
    LengthEquality,
    NotPrefixOf,
    NotSuffixOf,
    PositionPredicate,
    StrAt,
)
from .tag_automaton import ConcatInfo, TagAutomaton, concat_for_variables
from .tags import (
    length_tag,
    position_tag,
    symbol_tag,
    system_copy_tag,
    system_mismatch_tag,
)

SIDES = ("L", "R")


@dataclass
class SystemEncoding:
    """Result of encoding a system of position predicates."""

    formula: Formula
    parikh: parikh.ParikhEncoding
    automaton: TagAutomaton
    info: ConcatInfo
    variable_order: Tuple[str, ...]
    num_mismatch_predicates: int
    symbol_codes: Dict[str, int]

    def length_of(self, variable: str) -> LinExpr:
        """LIA expression for ``len(variable)``."""
        return self.parikh.tag_count(length_tag(variable))


# ----------------------------------------------------------------------
# Tag automaton A^III
# ----------------------------------------------------------------------
def build_system_automaton(
    automata: Dict[str, Nfa],
    variables: Sequence[str],
    num_predicates: int,
) -> Tuple[TagAutomaton, ConcatInfo]:
    """Construct ``A^III`` with ``2*num_predicates + 1`` copies of ``A◦`` (§5.3)."""
    base, info = concat_for_variables(automata, variables)
    levels = 2 * num_predicates + 1
    offset = max(base.states, default=-1) + 1

    result = TagAutomaton()

    def copy_state(state: int, level: int) -> int:
        return state + (level - 1) * offset

    for level in range(1, levels + 1):
        for state in base.states:
            result.add_state(copy_state(state, level))
    result.initial = {copy_state(state, 1) for state in base.initial}
    result.final = {
        copy_state(state, level)
        for state in base.final
        for level in range(1, levels + 1, 2)
    }

    predicates = range(1, num_predicates + 1)

    for transition in base.transitions:
        src, dst = transition.src, transition.dst
        variable = transition.variable
        symbol = transition.symbol()
        if symbol is None:
            for level in range(1, levels + 1):
                result.add_transition(
                    copy_state(src, level), frozenset(), copy_state(dst, level), base_id=transition.base_id
                )
            continue
        sym = symbol_tag(symbol)
        length = length_tag(variable)
        for level in range(1, levels + 1):
            result.add_transition(
                copy_state(src, level),
                {sym, length, position_tag(variable, level)},
                copy_state(dst, level),
                base_id=transition.base_id,
                variable=variable,
            )
        # Mismatch guesses: one per (level, predicate, side).
        for level in range(1, levels):
            for predicate in predicates:
                for side in SIDES:
                    result.add_transition(
                        copy_state(src, level),
                        {
                            sym,
                            length,
                            position_tag(variable, level + 1),
                            system_mismatch_tag(level, variable, predicate, side, symbol),
                        },
                        copy_state(dst, level + 1),
                        base_id=transition.base_id,
                        variable=variable,
                    )

    # Copy (sharing) transitions: stutter on the A◦ state, move up one level.
    for state in base.states:
        variable = info.state_var.get(state)
        if variable is None:
            continue
        for level in range(2, levels):
            for predicate in predicates:
                for side in SIDES:
                    result.add_transition(
                        copy_state(state, level),
                        {system_copy_tag(level, variable, predicate, side)},
                        copy_state(state, level + 1),
                        variable=variable,
                    )
    return result, info


# ----------------------------------------------------------------------
# Formula construction
# ----------------------------------------------------------------------
class _SystemContext:
    """Shared state while building the system formula."""

    def __init__(
        self,
        enc: parikh.ParikhEncoding,
        info: ConcatInfo,
        alphabet: Sequence[str],
        num_predicates: int,
        prefix: str,
    ) -> None:
        self.enc = enc
        self.info = info
        self.alphabet = tuple(alphabet)
        self.num_predicates = num_predicates
        self.levels = 2 * num_predicates + 1
        self.prefix = prefix
        self.symbol_codes = {symbol: index + 1 for index, symbol in enumerate(self.alphabet)}

    # -- auxiliary integer variables ------------------------------------
    def mismatch_symbol(self, predicate: int, side: str) -> LinExpr:
        return var(f"{self.prefix}$m[{predicate}.{side}]")

    def level_symbol(self, level: int) -> LinExpr:
        return var(f"{self.prefix}$c[{level}]")

    def mismatch_position(self, predicate: int, side: str) -> LinExpr:
        return var(f"{self.prefix}$p[{predicate}.{side}]")

    # -- tag counters -----------------------------------------------------
    def length(self, variable: str) -> LinExpr:
        return self.enc.tag_count(length_tag(variable))

    def side_length(self, side: Sequence[str]) -> LinExpr:
        return LinExpr.sum_of(self.length(name) for name in side)

    def occurrence_prefix(self, side: Sequence[str], index: int) -> LinExpr:
        return LinExpr.sum_of(self.length(side[u]) for u in range(index - 1))

    def occurrence_suffix(self, side: Sequence[str], index: int) -> LinExpr:
        return LinExpr.sum_of(self.length(side[u]) for u in range(index, len(side)))

    def mismatch_count(self, level: int, variable: str, predicate: int, side: str) -> LinExpr:
        return LinExpr.sum_of(
            self.enc.tag_count(system_mismatch_tag(level, variable, predicate, side, a))
            for a in self.alphabet
        )

    def copy_count(self, level: int, variable: str, predicate: int, side: str) -> LinExpr:
        return self.enc.tag_count(system_copy_tag(level, variable, predicate, side))

    def position_prefix_sum(self, variable: str, level: int) -> LinExpr:
        return LinExpr.sum_of(
            self.enc.tag_count(position_tag(variable, l)) for l in range(1, level + 1)
        )

    # -- structural subformulae (§5.3, Appendix C) ------------------------
    def fairness(self) -> Formula:
        """φ_Fair (eq. 17): at most one sample per predicate side."""
        parts: List[Formula] = []
        for predicate in range(1, self.num_predicates + 1):
            for side in SIDES:
                total = LinExpr.sum_of(
                    [
                        self.mismatch_count(level, variable, predicate, side)
                        for level in range(1, self.levels)
                        for variable in self.info.order
                    ]
                    + [
                        self.copy_count(level, variable, predicate, side)
                        for level in range(2, self.levels)
                        for variable in self.info.order
                    ]
                )
                parts.append(le(total, 1))
        return conj(parts)

    def consistency(self) -> Formula:
        """φ_Consistent (eq. 18): auxiliary symbol variables match the samples."""
        parts: List[Formula] = []
        for predicate in range(1, self.num_predicates + 1):
            for side in SIDES:
                target = self.mismatch_symbol(predicate, side)
                for level in range(1, self.levels):
                    for symbol in self.alphabet:
                        sampled = LinExpr.sum_of(
                            self.enc.tag_count(system_mismatch_tag(level, variable, predicate, side, symbol))
                            for variable in self.info.order
                        )
                        code = self.symbol_codes[symbol]
                        parts.append(
                            implies(
                                ge(sampled, 1),
                                conj([eq(self.level_symbol(level), code), eq(target, code)]),
                            )
                        )
                for level in range(2, self.levels):
                    copied = LinExpr.sum_of(
                        self.copy_count(level, variable, predicate, side) for variable in self.info.order
                    )
                    parts.append(
                        implies(
                            ge(copied, 1),
                            conj(
                                [
                                    eq(self.level_symbol(level), self.level_symbol(level - 1)),
                                    eq(target, self.level_symbol(level - 1)),
                                ]
                            ),
                        )
                    )
        return conj(parts)

    def copy_wellformedness(self) -> Formula:
        """φ_Copies (eq. 19): copy tags follow a sample of the same variable immediately."""
        parts: List[Formula] = []
        for variable in self.info.order:
            for level in range(1, self.levels - 1):
                sampled_here = LinExpr.sum_of(
                    [
                        self.mismatch_count(level, variable, predicate, side)
                        for predicate in range(1, self.num_predicates + 1)
                        for side in SIDES
                    ]
                    + (
                        [
                            self.copy_count(level, variable, predicate, side)
                            for predicate in range(1, self.num_predicates + 1)
                            for side in SIDES
                        ]
                        if level >= 2
                        else []
                    )
                )
                copied_next = LinExpr.sum_of(
                    self.copy_count(level + 1, variable, predicate, side)
                    for predicate in range(1, self.num_predicates + 1)
                    for side in SIDES
                )
                parts.append(implies(eq(sampled_here, 0), eq(copied_next, 0)))
            for level in range(2, self.levels):
                copied = LinExpr.sum_of(
                    self.copy_count(level, variable, predicate, side)
                    for predicate in range(1, self.num_predicates + 1)
                    for side in SIDES
                )
                previous_mismatches = LinExpr.sum_of(
                    self.mismatch_count(level - 1, variable, predicate, side)
                    for predicate in range(1, self.num_predicates + 1)
                    for side in SIDES
                )
                parts.append(
                    implies(
                        ge(copied, 1),
                        eq(self.enc.tag_count(position_tag(variable, level)) - previous_mismatches, 0),
                    )
                )
        return conj(parts)

    # -- per-predicate helpers --------------------------------------------
    def sample_exists(self, predicate: int, side: str, variable: str) -> Formula:
        """φ_∃ (eq. 44): the sample for (predicate, side) lives in ``variable``."""
        total = LinExpr.sum_of(
            [self.mismatch_count(level, variable, predicate, side) for level in range(1, self.levels)]
            + [self.copy_count(level, variable, predicate, side) for level in range(2, self.levels)]
        )
        return ge(total, 1)

    def position_definition(self, predicate: int, side: str, variable: str) -> Formula:
        """φ_Pos (eq. 42, corrected): bind p_{D,s} to the local sample position."""
        target = self.mismatch_position(predicate, side)
        parts: List[Formula] = []
        for level in range(1, self.levels):
            parts.append(
                implies(
                    ge(self.mismatch_count(level, variable, predicate, side), 1),
                    eq(target, self.position_prefix_sum(variable, level)),
                )
            )
        for level in range(2, self.levels):
            parts.append(
                implies(
                    ge(self.copy_count(level, variable, predicate, side), 1),
                    eq(target, self.position_prefix_sum(variable, level) - 1),
                )
            )
        return conj(parts)

    def align_from_start(
        self, predicate: int, lhs: Sequence[str], rhs: Sequence[str], i: int, j: int
    ) -> Formula:
        """φ_Align (eq. 43): equal global positions measured from the start."""
        return eq(
            self.occurrence_prefix(lhs, i) + self.mismatch_position(predicate, "L"),
            self.occurrence_prefix(rhs, j) + self.mismatch_position(predicate, "R"),
        )

    def align_from_end(
        self, predicate: int, lhs: Sequence[str], rhs: Sequence[str], i: int, j: int
    ) -> Formula:
        """¬suffixof alignment: equal distances measured from the end."""
        lhs_var, rhs_var = lhs[i - 1], rhs[j - 1]
        lhs_distance = (
            self.occurrence_suffix(lhs, i) + self.length(lhs_var) - self.mismatch_position(predicate, "L")
        )
        rhs_distance = (
            self.occurrence_suffix(rhs, j) + self.length(rhs_var) - self.mismatch_position(predicate, "R")
        )
        return eq(lhs_distance, rhs_distance)

    def mismatch_disjunct(
        self,
        predicate: int,
        lhs: Sequence[str],
        rhs: Sequence[str],
        from_end: bool,
        symbols_equal: bool,
    ) -> Formula:
        """∨_{i,j} of per-occurrence mismatch conditions (eq. 45)."""
        align = self.align_from_end if from_end else self.align_from_start
        symbol_condition = (
            eq(self.mismatch_symbol(predicate, "L"), self.mismatch_symbol(predicate, "R"))
            if symbols_equal
            else ne(self.mismatch_symbol(predicate, "L"), self.mismatch_symbol(predicate, "R"))
        )
        options: List[Formula] = []
        for i in range(1, len(lhs) + 1):
            for j in range(1, len(rhs) + 1):
                options.append(
                    conj(
                        [
                            self.position_definition(predicate, "L", lhs[i - 1]),
                            self.position_definition(predicate, "R", rhs[j - 1]),
                            self.sample_exists(predicate, "L", lhs[i - 1]),
                            self.sample_exists(predicate, "R", rhs[j - 1]),
                            align(predicate, lhs, rhs, i, j),
                            symbol_condition,
                        ]
                    )
                )
        return disj(options)


def _predicate_satisfaction(ctx: _SystemContext, predicate_index: int, predicate) -> Formula:
    """φ^k_Sat: the per-predicate satisfaction condition (§6.5)."""
    if isinstance(predicate, Disequality):
        length_differs = ne(ctx.side_length(predicate.lhs), ctx.side_length(predicate.rhs))
        return disj(
            [
                length_differs,
                ctx.mismatch_disjunct(predicate_index, predicate.lhs, predicate.rhs, False, False),
            ]
        )
    if isinstance(predicate, NotPrefixOf):
        longer = gt(ctx.side_length(predicate.lhs), ctx.side_length(predicate.rhs))
        return disj(
            [
                longer,
                ctx.mismatch_disjunct(predicate_index, predicate.lhs, predicate.rhs, False, False),
            ]
        )
    if isinstance(predicate, NotSuffixOf):
        longer = gt(ctx.side_length(predicate.lhs), ctx.side_length(predicate.rhs))
        return disj(
            [
                longer,
                ctx.mismatch_disjunct(predicate_index, predicate.lhs, predicate.rhs, True, False),
            ]
        )
    if isinstance(predicate, StrAt):
        return _str_at_satisfaction(ctx, predicate_index, predicate)
    raise TypeError(f"unsupported predicate in system encoding: {predicate!r}")


def _str_at_satisfaction(ctx: _SystemContext, predicate_index: int, predicate: StrAt) -> Formula:
    """str.at / ¬str.at within a system (§6.3 adapted to the m_{D,s} variables)."""
    target_length = ctx.length(predicate.target)
    haystack_length = ctx.side_length(predicate.haystack)
    index = predicate.index
    in_bounds = conj([ge(index, 0), lt(index, haystack_length)])
    out_of_bounds = disj([lt(index, 0), ge(index, haystack_length)])

    options: List[Formula] = []
    for j in range(1, len(predicate.haystack) + 1):
        y = predicate.haystack[j - 1]
        options.append(
            conj(
                [
                    ctx.position_definition(predicate_index, "R", y),
                    ctx.sample_exists(predicate_index, "L", predicate.target),
                    ctx.sample_exists(predicate_index, "R", y),
                    eq(index, ctx.occurrence_prefix(predicate.haystack, j) + ctx.mismatch_position(predicate_index, "R")),
                    (
                        ne(ctx.mismatch_symbol(predicate_index, "L"), ctx.mismatch_symbol(predicate_index, "R"))
                        if predicate.negated
                        else eq(ctx.mismatch_symbol(predicate_index, "L"), ctx.mismatch_symbol(predicate_index, "R"))
                    ),
                ]
            )
        )
    sampled = disj(options)

    if predicate.negated:
        return disj(
            [
                conj([gt(target_length, 0), out_of_bounds]),
                gt(target_length, 1),
                conj([eq(target_length, 0), in_bounds]),
                conj([eq(target_length, 1), in_bounds, sampled]),
            ]
        )
    return disj(
        [
            conj([eq(target_length, 0), out_of_bounds]),
            conj([eq(target_length, 1), in_bounds, sampled]),
        ]
    )


def encode_system(
    predicates: Sequence[PositionPredicate],
    automata: Dict[str, Nfa],
    prefix: str = "",
    extra_variables: Sequence[str] = (),
) -> SystemEncoding:
    """Encode a conjunction of position predicates over shared variables.

    ``predicates`` may mix disequalities, ¬prefixof, ¬suffixof, str.at,
    ¬str.at and length equalities; ¬contains is handled separately
    (:mod:`repro.core.notcontains`).  ``extra_variables`` forces additional
    variables into the underlying ε-concatenation (so that their ⟨L, x⟩
    counters exist for surrounding length constraints).
    """
    mismatch_predicates = [p for p in predicates if not isinstance(p, LengthEquality)]
    length_predicates = [p for p in predicates if isinstance(p, LengthEquality)]

    variables: List[str] = []
    for predicate in predicates:
        for name in predicate.string_variables():
            if name not in variables:
                variables.append(name)
    for name in extra_variables:
        if name not in variables:
            variables.append(name)

    num_predicates = len(mismatch_predicates)
    automaton, info = build_system_automaton(automata, variables, num_predicates)
    enc = parikh.encode(automaton, prefix=prefix, connectivity=True)

    alphabet = sorted({symbol for name in variables for symbol in automata[name].alphabet})
    ctx = _SystemContext(enc, info, alphabet, num_predicates, prefix)

    parts: List[Formula] = [enc.formula]
    if num_predicates:
        parts.append(ctx.fairness())
        parts.append(ctx.consistency())
        parts.append(ctx.copy_wellformedness())
    for index, predicate in enumerate(mismatch_predicates, start=1):
        parts.append(_predicate_satisfaction(ctx, index, predicate))
    for predicate in length_predicates:
        parts.append(eq(var(predicate.int_var), LinExpr.sum_of(ctx.length(p) for p in predicate.parts)))

    return SystemEncoding(
        formula=conj(parts),
        parikh=enc,
        automaton=automaton,
        info=info,
        variable_order=info.order,
        num_mismatch_predicates=num_predicates,
        symbol_codes=ctx.symbol_codes,
    )
