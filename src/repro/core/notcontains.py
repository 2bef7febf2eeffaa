"""The ¬contains procedure for flat languages (§6.4).

``¬contains(u, v)`` (the needle ``u`` does not occur in the haystack ``v``)
quantifies universally over all alignments (offsets) of ``u`` inside ``v``:
for *every* offset there must be a mismatch.  The paper reduces the predicate
to the quantified LIA formula φ^NC (eq. 32)

    PF_tag(A^II, #1) ∧ ∀κ ∃#2 ( PF_tag(A^II, #2) ∧ EqualWords(#1, #2)
                                 ∧ φ_mis(κ, #2) ∨ κ < 0 ∨ κ > LenDiff(#1) )

which is well-defined only when the languages of the involved variables are
*flat* (a Parikh image then determines the word).  Like Z3-Noodler, the
implementation solves the formula by model-based quantifier instantiation
(MBQI): the universal quantifier is eliminated lazily by instantiating the
body at concrete offsets κ₀ at which a candidate model fails.

This module provides:

* :class:`NotContainsEncoder` — builds the A^II automaton of the predicate,
  the ``EqualWords`` linking constraints against a *master* encoding (the
  system encoding of the remaining constraints, which contains all the
  variables), the instantiation lemmas, and the fully quantified φ^NC for
  reference,
* :func:`find_failing_offset` — the model-based counterexample search used
  by the MBQI loop in :mod:`repro.solver.solver`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..automata.flatness import is_flat
from ..automata.nfa import Nfa
from ..lia import Formula, LinExpr, conj, disj, eq, exists, forall, gt, lt, var
from . import parikh
from .predicates import NotContains
from .single import (
    _alphabet_of,
    _mismatch_count,
    _occurrence_prefix,
    _order_index,
    _side_length,
    _symbols_differ,
    build_mismatch_automaton,
)
from .tag_automaton import ConcatInfo, TagAutomaton
from .tags import length_tag, position_tag

#: LIA variable name used for the universally quantified offset in φ^NC.
OFFSET_VARIABLE = "@kappa"


def base_transition_counts(enc: parikh.ParikhEncoding, info: ConcatInfo) -> Dict[Tuple, LinExpr]:
    """Sum the Parikh counters of every copy of each base NFA transition.

    The keys are ``(variable, src, symbol, dst)`` of the *original* variable
    NFA, so counts of two encodings built over the same automata can be
    equated (the ``EqualWords`` predicate, eq. 30).
    """
    sums: Dict[Tuple, List[str]] = {}
    for index, transition in enumerate(enc.automaton.transitions):
        if transition.base_id is None or transition.symbol() is None:
            continue
        key = info.base_key.get(transition.base_id)
        if key is None:
            continue
        sums.setdefault(key, []).append(enc.transition_vars[index])
    return {key: LinExpr.sum_of(var(name) for name in names) for key, names in sums.items()}


@dataclass
class NotContainsEncoder:
    """Builder of the φ^NC machinery for one ¬contains predicate."""

    predicate: NotContains
    automata: Dict[str, Nfa]
    index: int = 0

    def __post_init__(self) -> None:
        self.variables = self.predicate.string_variables()
        self.automaton, self.info = build_mismatch_automaton(self.automata, self.variables)
        self.alphabet = _alphabet_of(self.automata, self.variables)
        self._lemma_counter = 0

    # ------------------------------------------------------------------
    def languages_are_flat(self) -> bool:
        """The exact procedure requires every involved language to be flat."""
        return all(is_flat(self.automata[name]) for name in self.variables)

    def _fresh_prefix(self) -> str:
        prefix = f"nc{self.index}.{self._lemma_counter}."
        self._lemma_counter += 1
        return prefix

    # ------------------------------------------------------------------
    def length_difference(self, length_of) -> LinExpr:
        """LenDiff (eq. 31): |haystack| − |needle| in terms of a master encoding."""
        haystack = LinExpr.sum_of(length_of(name) for name in self.predicate.haystack)
        needle = LinExpr.sum_of(length_of(name) for name in self.predicate.needle)
        return haystack - needle

    def _mismatch_for_offset(self, enc: parikh.ParikhEncoding, offset) -> Formula:
        """φ_sym ∧ φ_mis(offset) over the inner encoding ``enc``.

        ``offset`` is added to the needle-side global position (the needle is
        shifted to the right by the alignment offset, §6.4).
        """
        needle, haystack = self.predicate.needle, self.predicate.haystack
        options: List[Formula] = []
        for i in range(1, len(needle) + 1):
            for j in range(1, len(haystack) + 1):
                x, y = needle[i - 1], haystack[j - 1]
                lhs_prefix = _occurrence_prefix(enc, needle, i)
                rhs_prefix = _occurrence_prefix(enc, haystack, j)
                p1x = enc.tag_count(position_tag(x, 1))
                p2x = enc.tag_count(position_tag(x, 2))
                p1y = enc.tag_count(position_tag(y, 1))
                p2y = enc.tag_count(position_tag(y, 2))
                if x != y:
                    if _order_index(self.info, x) < _order_index(self.info, y):
                        position = eq(offset + p1x + lhs_prefix, p2y + rhs_prefix)
                    else:
                        position = eq(offset + p2x + lhs_prefix, p1y + rhs_prefix)
                else:
                    position = disj(
                        [
                            eq(offset + p1x + lhs_prefix, p1x + p2x + rhs_prefix),
                            eq(offset + p1x + p2x + lhs_prefix, p1x + rhs_prefix),
                        ]
                    )
                if x == y or _order_index(self.info, x) <= _order_index(self.info, y):
                    first, second = x, y
                else:
                    first, second = y, x
                existence = conj(
                    [
                        gt(_mismatch_count(enc, first, 1, self.alphabet), 0),
                        gt(_mismatch_count(enc, second, 2, self.alphabet), 0),
                    ]
                )
                options.append(conj([position, existence]))
        return conj([_symbols_differ(enc, self.variables, self.alphabet), disj(options)])

    # ------------------------------------------------------------------
    def instantiation_lemma(
        self, offset_value: int, master_counts: Mapping[Tuple, LinExpr], length_of
    ) -> Tuple[Formula, parikh.ParikhEncoding]:
        """The MBQI lemma for a concrete offset κ₀ (an instance of the ∀ body).

        The lemma introduces a fresh copy ``#2'`` of the Parikh variables of
        ``A^II``, links it to the master encoding through ``EqualWords`` (same
        words, possibly a different run) and requires a mismatch at offset
        κ₀ — unless κ₀ exceeds the length difference (the alignment does not
        exist for the candidate words).  Returns the lemma and the copy's
        encoding, which carries no connectivity constraints: the caller
        must cut its models (:func:`parikh.connectivity_cuts`) like those
        of any other encoding.
        """
        prefix = self._fresh_prefix()
        inner = parikh.encode(self.automaton, prefix=prefix)
        inner_counts = base_transition_counts(inner, self.info)
        links = [
            eq(inner_counts[key], master_counts[key])
            for key in inner_counts
            if key in master_counts
        ]
        mismatch = self._mismatch_for_offset(inner, LinExpr.constant(offset_value))
        overflow = gt(LinExpr.constant(offset_value), self.length_difference(length_of))
        return conj([inner.formula, conj(links), disj([mismatch, overflow])]), inner

    def quantified_formula(self, master_counts: Mapping[Tuple, LinExpr], length_of) -> Formula:
        """The full φ^NC (eq. 32) with an explicit ∀κ ∃#2 prefix.

        This formula is provided for reference and for the bounded-expansion
        tests; the production path uses MBQI instead of solving it directly.
        The inner copy carries the SCC entry constraints, which are exact on
        the flat languages this procedure requires.
        """
        kappa = var(OFFSET_VARIABLE)
        inner = parikh.encode(self.automaton, prefix=f"nc{self.index}.q.", connectivity=True)
        inner_counts = base_transition_counts(inner, self.info)
        links = [
            eq(inner_counts[key], master_counts[key])
            for key in inner_counts
            if key in master_counts
        ]
        body = disj(
            [
                conj([inner.formula, conj(links), self._mismatch_for_offset(inner, kappa)]),
                lt(kappa, 0),
                gt(kappa, self.length_difference(length_of)),
            ]
        )
        inner_variables = sorted(set(body.variables()) - {OFFSET_VARIABLE})
        return forall([OFFSET_VARIABLE], exists(inner_variables, body))


def find_failing_offset(predicate: NotContains, strings: Mapping[str, str]) -> Optional[int]:
    """Return an offset at which the needle *does* occur in the haystack.

    This is the model-based counterexample search of the MBQI loop: given the
    candidate words encoded by the current model, either every alignment has
    a mismatch (``None`` — the predicate holds) or some offset κ₀ witnesses
    containment and the caller instantiates the lemma at κ₀.
    """
    needle = "".join(strings[name] for name in predicate.needle)
    haystack = "".join(strings[name] for name in predicate.haystack)
    position = haystack.find(needle)
    return position if position >= 0 else None
