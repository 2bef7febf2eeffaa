"""Incremental CNF conversion of NNF formulae for the DPLL(T) loop.

Atoms are numbered ``1..n``; auxiliary Tseitin variables continue the
numbering.  Because the input is in negation normal form (atoms occur only
positively), the Plaisted–Greenbaum polarity optimisation applies: only the
"definition implies content" direction of each auxiliary variable is needed,
halving the number of clauses while preserving equisatisfiability.

The conversion is *incremental* and *caching*: a :class:`CnfBuilder` keeps
the atom ↔ boolean-variable map, a structural cache of already-encoded
``And``/``Or`` sub-formulae and a clause-deduplication set alive across
:meth:`CnfBuilder.add_formula` calls.  Parikh encodings reuse the same atoms
and sub-formulae across prefixes and MBQI rounds, so later additions (e.g.
instantiation lemmas) only emit the genuinely new clauses.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple, Union

from .terms import And, BoolConst, Eq, Formula, Le, Or

Atom = Union[Le, Eq]
Clause = Tuple[int, ...]


def _atom_key(atom: Atom) -> Tuple:
    kind = "le" if isinstance(atom, Le) else "eq"
    return (kind, atom.expr.key())


class CnfBuilder:
    """Incremental Tseitin/Plaisted-Greenbaum clause builder.

    ``clauses`` is append-only; callers that feed a SAT solver incrementally
    remember a watermark into it and hand over only the suffix after each
    :meth:`add_formula`.
    """

    def __init__(self) -> None:
        self.num_vars = 0
        self.clauses: List[Clause] = []
        self.atom_of_var: Dict[int, Atom] = {}
        self.var_of_atom: Dict[Tuple, int] = {}
        #: structural cache: already-encoded sub-formula -> auxiliary variable
        self._aux_of_node: Dict[Formula, int] = {}
        self._clause_keys: Set[Clause] = set()
        #: statistics: structural/atom cache hits and dropped duplicate clauses
        self.cache_hits = 0
        self.duplicate_clauses = 0

    # ------------------------------------------------------------------
    def fresh_var(self) -> int:
        self.num_vars += 1
        return self.num_vars

    def atom_var(self, atom: Atom) -> int:
        """Return the boolean variable of ``atom`` (allocating it once)."""
        key = _atom_key(atom)
        existing = self.var_of_atom.get(key)
        if existing is not None:
            self.cache_hits += 1
            return existing
        index = self.fresh_var()
        self.var_of_atom[key] = index
        self.atom_of_var[index] = atom
        return index

    def _emit(self, clause: Clause) -> None:
        key = tuple(sorted(set(clause)))
        if key in self._clause_keys:
            self.duplicate_clauses += 1
            return
        self._clause_keys.add(key)
        self.clauses.append(clause)

    # ------------------------------------------------------------------
    def add_formula(self, formula: Formula) -> Optional[int]:
        """Encode an NNF formula; returns its root literal.

        Returns ``None`` for ``BoolConst(True)`` (nothing to assert) and
        raises :class:`ValueError` for ``BoolConst(False)`` — callers decide
        how a trivially false assertion interacts with their assertion stack.
        The caller must add the returned root literal as a unit clause to
        actually assert the formula; the emitted clauses by themselves are
        only the (one-sided) Tseitin definitions.
        """
        if isinstance(formula, BoolConst):
            if formula.value:
                return None
            raise ValueError("cannot encode BoolConst(False); handle it upstream")
        return self._encode(formula)

    def _encode(self, node: Formula) -> int:
        """Return a literal representing ``node`` (positive polarity only)."""
        if isinstance(node, (Le, Eq)):
            return self.atom_var(node)
        cached = self._aux_of_node.get(node)
        if cached is not None:
            self.cache_hits += 1
            return cached
        if isinstance(node, BoolConst):
            aux = self.fresh_var()
            self._emit((aux,) if node.value else (-aux,))
            return aux
        if isinstance(node, And):
            aux = self.fresh_var()
            for arg in node.args:
                literal = self._encode(arg)
                self._emit((-aux, literal))
            self._aux_of_node[node] = aux
            return aux
        if isinstance(node, Or):
            aux = self.fresh_var()
            literals = [self._encode(arg) for arg in node.args]
            self._emit(tuple([-aux] + literals))
            self._aux_of_node[node] = aux
            return aux
        raise TypeError(f"CnfBuilder expects NNF input, got {node!r}")
