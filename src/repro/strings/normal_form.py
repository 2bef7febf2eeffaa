"""Normalisation of problems into the form ``E ∧ R ∧ I ∧ P`` (§2).

The transformation follows the paper:

1. string literals inside terms are replaced by fresh variables constrained
   to the singleton language of the literal,
2. *positive* ``prefixof`` / ``suffixof`` / ``contains`` atoms are rewritten
   into word equations with fresh variables (``v = u·z``, ``v = z·u``,
   ``v = z·u·z'``),
3. regular memberships are collected per variable and intersected; negated
   memberships are complemented over the problem alphabet; unconstrained
   variables get the universal language,
4. the remaining negated predicates and disequalities become the position
   constraints ``P`` (as :mod:`repro.core.predicates` objects),
5. integer constraints are collected into one LIA formula ``I`` that refers
   to string lengths through the reserved ``@len.<var>`` variables.

For the incremental :class:`repro.Session` pipeline the normal form keeps
the integer constraints as separate conjuncts (``integer_parts``), which the
branch LIA assertion stacks assert one part each, and :func:`normalize`
accepts a :class:`NormalizationCache` that memoizes regex compilation,
complementation and the per-variable membership intersections.  Besides
saving the automata work on repeated calls, the cache keeps the resulting
:class:`~repro.automata.nfa.Nfa` objects *identity-stable* across calls with
a common assertion prefix, which is what lets the downstream decomposition
and encoding caches key on object identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..automata import (
    compile_regex,
    complement,
    intern_nfa,
    intersection,
    intersection_empty,
    remove_epsilon,
)
from ..automata.nfa import Nfa
from ..budget import checkpoint
from ..core.predicates import (
    Disequality,
    NotContains,
    NotPrefixOf,
    NotSuffixOf,
    PositionPredicate,
    StrAt,
)
from ..lia import Formula as LiaFormula
from ..lia import TRUE, conj
from .ast import (
    Atom,
    Contains,
    LengthConstraint,
    PrefixOf,
    Problem,
    RegexMembership,
    StrAtAtom,
    StringLiteral,
    StringTerm,
    StringVar,
    SuffixOf,
    WordEquation,
)

#: A word equation over variables only (literals already removed).
VarEquation = Tuple[Tuple[str, ...], Tuple[str, ...]]


@dataclass
class NormalForm:
    """The normal form ``E ∧ R ∧ I ∧ P`` of a problem."""

    equations: List[VarEquation] = field(default_factory=list)
    automata: Dict[str, Nfa] = field(default_factory=dict)
    integer_formula: LiaFormula = TRUE
    predicates: List[PositionPredicate] = field(default_factory=list)
    alphabet: Tuple[str, ...] = ()
    #: variables introduced by the normalisation (literals, prefix/suffix/contains witnesses)
    fresh_variables: List[str] = field(default_factory=list)
    #: the integer constraints as separate conjuncts, one per
    #: ``LengthConstraint`` atom, in atom order
    integer_parts: List[LiaFormula] = field(default_factory=list)

    def string_variables(self) -> Tuple[str, ...]:
        return tuple(self.automata)


class NormalizationCache:
    """Memo tables shared by repeated :func:`normalize` calls.

    Caches regex compilation, complementation, literal-word automata, the
    universal automaton and the per-variable membership intersections.  The
    cache is *content-addressed* (patterns, literal values, polarities), so
    two calls sharing an assertion prefix receive the **same** ``Nfa``
    objects back — downstream incremental caches rely on that identity.
    ``Nfa``-valued languages are addressed by object identity and kept alive
    by the cache so their ids stay unambiguous.
    """

    def __init__(self, capacity: int = 2048) -> None:
        #: per-table entry cap: a long-lived session must not grow memory
        #: monotonically, so each memo evicts its oldest entries (FIFO)
        #: beyond this bound — an eviction only costs a later re-compute
        #: (and the downstream identity-keyed cache misses that follow)
        self.capacity = capacity
        self.languages: Dict[Tuple, Nfa] = {}
        self.words: Dict[str, Nfa] = {}
        self.universal: Dict[Tuple[str, ...], Nfa] = {}
        self.intersections: Dict[Tuple, Nfa] = {}
        self._keepalive: List[Nfa] = []
        self._kept_ids: set = set()
        self.hits = 0
        self.misses = 0
        #: hits on entries that predate the current job (see
        #: :meth:`mark_all_warm`) — the serve worker's proof that sharing
        #: one cache across jobs actually pays
        self.warm_hits = 0
        self._warm: set = set()

    def keep(self, nfa: Nfa) -> int:
        """Pin an externally-supplied automaton and return its stable id."""
        if id(nfa) not in self._kept_ids:
            self._kept_ids.add(id(nfa))
            self._keepalive.append(nfa)
        return id(nfa)

    def tables(self) -> Tuple[Dict, ...]:
        """Every memo table, for bulk operations like warm-marking."""
        return (self.languages, self.words, self.universal, self.intersections)

    def record_hit(self, table: Dict, key) -> None:
        """Count a lookup hit; warm entries (pre-job) count twice over."""
        self.hits += 1
        if (id(table), key) in self._warm:
            self.warm_hits += 1

    def mark_all_warm(self) -> None:
        """Stamp every current entry as *warm* (carried over from earlier
        work).  A serve worker calls this before each job, so hits on what
        its ``--warm`` scripts and its earlier jobs cached surface as
        ``normalization_warm_hits``."""
        self._warm = {
            (id(table), key) for table in self.tables() for key in table
        }

    def store(self, table: Dict, key, value) -> None:
        """Insert into one memo table, evicting oldest entries over capacity."""
        table[key] = value
        while len(table) > self.capacity:
            evicted = next(iter(table))
            table.pop(evicted)
            self._warm.discard((id(table), evicted))


#: membership key: content-addressed description of one membership constraint
_MemberKey = Tuple


class _Normalizer:
    def __init__(self, problem: Problem, cache: NormalizationCache) -> None:
        self.problem = problem
        self.cache = cache
        self.alphabet = tuple(problem.alphabet)
        self.fresh_counter = 0
        self.fresh_variables: List[str] = []
        self._used = set(problem.string_variables())
        #: per variable: list of (content key, automaton) membership pairs
        self.memberships: Dict[str, List[Tuple[_MemberKey, Nfa]]] = {}
        self.equations: List[VarEquation] = []
        self.predicates: List[PositionPredicate] = []
        self.integer_parts: List[LiaFormula] = []

    # -- helpers ---------------------------------------------------------
    def fresh_var(self, hint: str = "z") -> str:
        """A fresh string variable (skipping names the problem uses)."""
        while True:
            name = f"_{hint}{self.fresh_counter}"
            self.fresh_counter += 1
            if name not in self._used:
                break
        self.fresh_variables.append(name)
        return name

    def add_membership(self, variable: str, key: _MemberKey, nfa: Nfa) -> None:
        self.memberships.setdefault(variable, []).append((key, nfa))

    def word_nfa(self, value: str) -> Nfa:
        nfa = self.cache.words.get(value)
        if nfa is None:
            self.cache.misses += 1
            nfa = intern_nfa(Nfa.from_word(value))
            self.cache.store(self.cache.words, value, nfa)
        else:
            self.cache.record_hit(self.cache.words, value)
        return nfa

    def literal_var(self, value: str) -> str:
        name = self.fresh_var("lit")
        self.add_membership(name, ("word", value), self.word_nfa(value))
        return name

    def flatten_term(self, string_term: StringTerm) -> Tuple[str, ...]:
        """Replace literals by fresh constrained variables."""
        names: List[str] = []
        for element in string_term:
            if isinstance(element, StringVar):
                names.append(element.name)
            else:
                if element.value == "":
                    continue
                names.append(self.literal_var(element.value))
        return tuple(names)

    def language_to_nfa(self, language, positive: bool) -> Tuple[_MemberKey, Nfa]:
        if isinstance(language, Nfa):
            key: _MemberKey = ("nfa", self.cache.keep(language), positive, self.alphabet)
        else:
            key = ("re", language, positive, self.alphabet)
        cached = self.cache.languages.get(key)
        if cached is not None:
            self.cache.record_hit(self.cache.languages, key)
            return key, cached
        self.cache.misses += 1
        nfa = language if isinstance(language, Nfa) else compile_regex(language, self.alphabet)
        if not positive:
            nfa = complement(nfa, self.alphabet)
        if not (isinstance(language, Nfa) and positive):
            # Hash-cons the automata we build ourselves (compiled regexes,
            # complements); user-supplied Nfa objects keep their identity.
            nfa = intern_nfa(nfa)
        self.cache.store(self.cache.languages, key, nfa)
        return key, nfa

    # -- atom dispatch ----------------------------------------------------
    def visit(self, atom: Atom) -> None:
        if isinstance(atom, RegexMembership):
            key, nfa = self.language_to_nfa(atom.language, atom.positive)
            self.add_membership(atom.var, key, nfa)
            return
        if isinstance(atom, WordEquation):
            lhs, rhs = self.flatten_term(atom.lhs), self.flatten_term(atom.rhs)
            if atom.positive:
                self.equations.append((lhs, rhs))
            else:
                self.predicates.append(Disequality(lhs, rhs))
            return
        if isinstance(atom, PrefixOf):
            lhs, rhs = self.flatten_term(atom.lhs), self.flatten_term(atom.rhs)
            if atom.positive:
                # prefixof(u, v)  ~>  v = u · z
                suffix = self.fresh_var()
                self.equations.append((rhs, lhs + (suffix,)))
            else:
                self.predicates.append(NotPrefixOf(lhs, rhs))
            return
        if isinstance(atom, SuffixOf):
            lhs, rhs = self.flatten_term(atom.lhs), self.flatten_term(atom.rhs)
            if atom.positive:
                prefix = self.fresh_var()
                self.equations.append((rhs, (prefix,) + lhs))
            else:
                self.predicates.append(NotSuffixOf(lhs, rhs))
            return
        if isinstance(atom, Contains):
            needle, haystack = self.flatten_term(atom.needle), self.flatten_term(atom.haystack)
            if atom.positive:
                before, after = self.fresh_var(), self.fresh_var()
                self.equations.append((haystack, (before,) + needle + (after,)))
            else:
                self.predicates.append(NotContains(needle, haystack))
            return
        if isinstance(atom, StrAtAtom):
            haystack = self.flatten_term(atom.haystack)
            if isinstance(atom.target, StringVar):
                target = atom.target.name
            else:
                target = self.literal_var(atom.target.value)
            self.predicates.append(StrAt(target, haystack, atom.index, negated=not atom.positive))
            return
        if isinstance(atom, LengthConstraint):
            self.integer_parts.append(atom.formula)
            return
        raise TypeError(f"unknown atom {atom!r}")

    # -- assembling --------------------------------------------------------
    def result(self) -> NormalForm:
        variables: Dict[str, None] = {}
        for name in self.problem.string_variables():
            variables.setdefault(name, None)
        for name in self.memberships:
            variables.setdefault(name, None)
        for lhs, rhs in self.equations:
            for name in lhs + rhs:
                variables.setdefault(name, None)
        for predicate in self.predicates:
            for name in predicate.string_variables():
                variables.setdefault(name, None)

        automata: Dict[str, Nfa] = {}
        for name in variables:
            constraints = self.memberships.get(name)
            if not constraints:
                universal = self.cache.universal.get(self.alphabet)
                if universal is None:
                    universal = intern_nfa(Nfa.universal(self.alphabet))
                    self.cache.universal[self.alphabet] = universal
                automata[name] = universal
                continue
            automata[name] = self._intersect([key for key, _ in constraints],
                                             [nfa for _, nfa in constraints])

        return NormalForm(
            equations=self.equations,
            automata=automata,
            integer_formula=conj(self.integer_parts) if self.integer_parts else TRUE,
            predicates=self.predicates,
            alphabet=self.alphabet,
            fresh_variables=self.fresh_variables,
            integer_parts=self.integer_parts,
        )

    def _intersect(self, keys: List[_MemberKey], nfas: List[Nfa]) -> Nfa:
        """Intersect one variable's memberships (cached by content keys).

        The key is order-insensitive (intersection is commutative) so a
        variable reaches the same automaton object no matter in which order
        its memberships were asserted.
        """
        cache_key = (self.alphabet,) + tuple(sorted(map(repr, keys)))
        cached = self.cache.intersections.get(cache_key)
        if cached is not None:
            self.cache.record_hit(self.cache.intersections, cache_key)
            return cached
        self.cache.misses += 1
        combined = nfas[0]
        for extra in nfas[1:]:
            # Guard pruning: decide emptiness lazily (first-accepting-pair
            # walk) before materialising the product — an empty chain never
            # allocates a single product state.
            if intersection_empty(combined, extra):
                combined = None
                break
            combined = intersection(combined, extra)
        if combined is None:
            combined = Nfa.empty_language()
        else:
            combined = (
                remove_epsilon(combined).trim() if combined.has_epsilon() else combined.trim()
            )
            if not combined.states:
                combined = Nfa.empty_language()
        combined = intern_nfa(combined)
        self.cache.store(self.cache.intersections, cache_key, combined)
        return combined


def normalize(problem: Problem, cache: Optional[NormalizationCache] = None) -> NormalForm:
    """Normalise a problem into ``E ∧ R ∧ I ∧ P``.

    ``cache`` (a :class:`NormalizationCache`) makes repeated calls cheap and
    keeps the produced automata identity-stable across calls — the contract
    the incremental :class:`repro.Session` pipeline builds on.  Without one,
    the call memoises into a fresh cache of its own.
    """
    normalizer = _Normalizer(problem, cache if cache is not None else NormalizationCache())
    for atom in problem.atoms:
        # Per-atom checkpoint; the heavy per-atom work (complementation,
        # membership intersections) checkpoints inside the automata layer.
        checkpoint("normalize")
        normalizer.visit(atom)
    return normalizer.result()
