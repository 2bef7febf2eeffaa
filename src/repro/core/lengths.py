"""Length sets of regular languages, as LIA formulae and as words.

A string variable that no position predicate mentions needs only its
*length* from the Parikh image of its automaton.  The lengths of a regular
language form an ultimately periodic set (Chrobak, TCS 1986): project every
symbol onto one letter and run the subset construction from the initial
states.  The masks ``M_0, M_1, …`` (``M_{i+1}`` = the successors of
``M_i`` on any symbol) repeat after a *tail* of ``T`` masks with a *cycle*
of ``C``, and length ``n`` is accepted iff ``M_n`` meets the final states.
So the length set is

    { i | i < T, M_i accepting }  ∪  { T + r + C·k | r < C, M_{T+r} accepting, k ≥ 0 },

which :meth:`Lasso.formula` writes as one disjunction.  Masks are cut to the
co-reachable states, so a finite language ends in the empty mask (cycle 1,
not accepting) and the walk is as short as the useful part allows.

The walk can take exponentially many masks (a union of cycles of coprime
lengths).  :func:`length_lasso` stops once it has seen ``states +
transitions + 1`` masks and returns ``None``; the caller then keeps the
tag-automaton Parikh encoding, whose formula has at least that many
constraints, so this formula never outgrows the one it replaces.

:meth:`Lasso.word` turns an accepted length back into a word: the masks are
the forward layers of the automaton's runs, so picking a final state in
``M_n`` and then, layer by layer backwards, a predecessor and its symbol
spells an accepted word of length ``n``.  No Euler walk is needed, and
there is no run graph to connect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..automata.dense import DenseNfa, Mask, iter_bits
from ..automata.nfa import Nfa
from ..budget import checkpoint
from ..lia import Formula, LinExpr, conj, disj, eq, ge, var


@dataclass(frozen=True)
class Lasso:
    """The one-letter subset walk of an ε-free automaton."""

    automaton: DenseNfa
    #: M_0 … M_{T+C-1}, each cut to the co-reachable states
    masks: Tuple[Mask, ...]
    #: T: the index the walk returns to
    tail: int

    @property
    def cycle(self) -> int:
        return len(self.masks) - self.tail

    def layer(self, length: int) -> Mask:
        """``M_length``: the states some word of that length reaches."""
        if length < len(self.masks):
            return self.masks[length]
        return self.masks[self.tail + (length - self.tail) % self.cycle]

    def formula(self, length: LinExpr, multiplier: str) -> Formula:
        """``length`` lies in the length set; ``multiplier`` names ``k``."""
        final = self.automaton.final
        tail, cycle = self.tail, self.cycle
        options: List[Formula] = [
            eq(length, i) for i in range(tail) if self.masks[i] & final
        ]
        residues = [r for r in range(cycle) if self.masks[tail + r] & final]
        if residues and (cycle == 1 or len(residues) == cycle):
            options.append(ge(length, tail))
        elif residues:
            k = var(multiplier)
            loop = disj([eq(length, k * cycle + (tail + r)) for r in residues])
            options.append(conj([ge(k, 0), loop]))
        return disj(options)

    def single_length(self) -> Optional[int]:
        """The only length of the set, or ``None`` if it has none or several."""
        final = self.automaton.final
        accepted = [i for i, mask in enumerate(self.masks) if mask & final]
        if len(accepted) == 1 and accepted[0] < self.tail:
            return accepted[0]
        return None

    def word(self, length: int) -> Optional[str]:
        """An accepted word of ``length`` symbols, or ``None`` if there is none."""
        dense = self.automaton
        cost = 1 + dense.n // 64
        target = self.layer(length) & dense.final if length >= 0 else 0
        if not target:
            return None
        target = (target & -target).bit_length() - 1
        # predecessors[k][t]: the states that step to t on symbols[k]
        predecessors = [[0] * dense.n for _ in dense.rows]
        for before, row in zip(predecessors, dense.rows):
            for s, successors in enumerate(row):
                for t in iter_bits(successors):
                    before[t] |= 1 << s
        chars: List[str] = []
        for position in range(length - 1, -1, -1):
            checkpoint("lengths.word", cost)
            source = self.layer(position)
            for k, before in enumerate(predecessors):
                found = before[target] & source
                if found:
                    chars.append(dense.symbols[k])
                    target = (found & -found).bit_length() - 1
                    break
        chars.reverse()
        return "".join(chars)


def length_lasso(nfa: Nfa) -> Optional[Lasso]:
    """The lasso of ``nfa``'s length set, or ``None`` past the size bound."""
    dense = nfa.dense().eps_free()
    useful = dense.coreachable_mask()
    union = [0] * dense.n
    transitions = 0
    for row in dense.rows:
        for s, successors in enumerate(row):
            union[s] |= successors
            transitions += successors.bit_count()
    limit = dense.n + transitions + 1
    cost = 1 + dense.n // 64
    seen: Dict[Mask, int] = {}
    masks: List[Mask] = []
    mask = dense.initial & useful
    while mask not in seen:
        if len(masks) == limit:
            return None
        checkpoint("lengths.lasso", cost)
        seen[mask] = len(masks)
        masks.append(mask)
        successors = 0
        for s in iter_bits(mask):
            successors |= union[s]
        mask = successors & useful
    return Lasso(dense, tuple(masks), seen[mask])


@dataclass
class LengthEncoding:
    """The length set of one variable's language, in place of a Parikh system."""

    variable: str
    lasso: Lasso
    #: LIA variable holding the length
    length: str
    formula: Formula

    def length_of(self, variable: str) -> LinExpr:
        """LIA expression for ``len(variable)`` (0 for any other variable)."""
        return var(self.length) if variable == self.variable else LinExpr.constant(0)

    def assignment(self, model) -> Optional[Dict[str, str]]:
        """The variable's word of the model's length."""
        word = self.lasso.word(model.get(self.length, 0))
        return None if word is None else {self.variable: word}


def encode_length(variable: str, nfa: Nfa, prefix: str = "") -> Optional[LengthEncoding]:
    """Encode ``len(variable) ∈ lengths(L(nfa))``, or ``None`` past the bound."""
    lasso = length_lasso(nfa)
    if lasso is None:
        return None
    length = f"{prefix}#len"
    return LengthEncoding(variable, lasso, length, lasso.formula(var(length), f"{prefix}#k"))
