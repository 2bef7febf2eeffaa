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

* :class:`NotContainsEncoder` — builds the A^II automaton of the predicate
  and the instantiation lemmas: instances of φ^NC's body at one offset κ₀,
  with the ``EqualWords`` linking constraints against a *master* encoding
  (the encoding of the remaining constraints, which contains all the
  variables).  The body φ_sym ∧ φ_mis(κ₀) is A^II's own mismatch condition
  (:func:`repro.core.single.mismatch`) with the needle shifted by κ₀,
* :func:`find_failing_offset` — the model-based counterexample search used
  by the MBQI loop in :mod:`repro.solver.solver`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from ..automata.flatness import is_flat
from ..automata.nfa import Nfa
from ..lia import Formula, LinExpr, conj, disj, eq, gt, var
from . import parikh
from .predicates import NotContains
from .single import _alphabet_of, build_mismatch_automaton, mismatch
from .tag_automaton import ConcatInfo


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
        offset = LinExpr.constant(offset_value)
        inner = parikh.encode(self.automaton, prefix=self._fresh_prefix())
        inner_counts = base_transition_counts(inner, self.info)
        links = [
            eq(inner_counts[key], master_counts[key])
            for key in inner_counts
            if key in master_counts
        ]
        shifted = mismatch(
            inner, self.info, self.variables, self.alphabet,
            self.predicate.needle, self.predicate.haystack, shift=offset,
        )
        overflow = gt(offset, self.length_difference(length_of))
        return conj([inner.formula, conj(links), disj([shifted, overflow])]), inner


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
