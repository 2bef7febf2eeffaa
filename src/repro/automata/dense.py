"""Integer-dense automata core: bitset state sets and hash-consed interning.

This module is the data-layout rewrite behind the :class:`~repro.automata.nfa.Nfa`
facade.  A :class:`DenseNfa` is a *frozen* compilation of an ``Nfa``:

* states are contiguous integers ``0 .. n-1`` (``state_ids`` maps them back
  to the facade's identifiers),
* state sets are Python-int **bitsets** — CPython's arbitrary-precision
  integers make every union/intersection/step a word-parallel bitwise op,
  one machine word for blocks of ≤64 states and chunked 30-bit limbs above
  that, with no numpy dependency,
* transitions are stored once, as per-symbol successor-mask rows plus an
  ε row; subset construction, products and reachability all read them, and :meth:`~repro.automata.nfa.Nfa.from_rows` turns them
  back into an ``Nfa``.

On top of the layout the module provides the **hash-consed interning**
table: structurally identical automata (modulo state renaming) are
collapsed onto one canonical ``Nfa``/``DenseNfa`` pair, which is what lets
:class:`~repro.strings.normal_form.NormalizationCache` share automata
across atoms *and across sessions*.  The lazy emptiness and inclusion
walks over these rows are :func:`repro.automata.operations.intersection_empty`
and :func:`repro.automata.operations.is_subset`.

Budget accounting: every loop whose trip count depends on the input charges
:func:`repro.budget.checkpoint` with a cost scaled by the number of 64-bit
words per bitset (``(n + 63) // 64``), so the step-limit determinism
contract of the budget layer (same step cap ⇒ same verdict) holds on the
dense paths — costs are a pure function of the automaton's structure.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from ..budget import checkpoint
from .nfa import EPSILON, Nfa, State

Mask = int

#: module-wide counters surfaced through ``SolveResult.stats`` /
#: ``Session.statistics()`` (the solver snapshots deltas around each check)
GLOBAL_STATS: Dict[str, int] = {
    "automata_dense_compilations": 0,
    "automata_interning_hits": 0,
    "automata_interning_misses": 0,
}


def stats_snapshot() -> Dict[str, int]:
    """A copy of the module counters (for before/after deltas)."""
    return dict(GLOBAL_STATS)


def iter_bits(mask: Mask) -> Iterator[int]:
    """Iterate over the set bit positions of ``mask`` (ascending)."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class DenseNfa:
    """A frozen, integer-dense compilation of an :class:`Nfa`.

    Instances are immutable once built; every mutating method and managed
    attribute assignment on the source ``Nfa`` drops its cached ``DenseNfa``.
    """

    __slots__ = (
        "n",
        "alphabet",
        "symbols",
        "symbol_index",
        "rows",
        "eps",
        "initial",
        "final",
        "state_ids",
        "index",
        "_words",
        "_closures",
        "_out_masks",
        "_in_masks",
        "_reachable",
        "_coreachable",
        "_eps_free",
        "_key",
    )

    def __init__(
        self,
        n: int,
        alphabet: Tuple[str, ...],
        symbols: Tuple[str, ...],
        rows: Tuple[Tuple[Mask, ...], ...],
        eps: Optional[Tuple[Mask, ...]],
        initial: Mask,
        final: Mask,
        state_ids: Tuple[State, ...],
    ) -> None:
        self.n = n
        #: the declared alphabet (complementation depends on it, so it is
        #: part of the canonical key even when some symbols are unused)
        self.alphabet = alphabet
        #: sorted symbols that actually label a transition
        self.symbols = symbols
        self.symbol_index = {symbol: k for k, symbol in enumerate(symbols)}
        #: rows[k][s] = bitset of successors of state s on symbols[k]
        self.rows = rows
        #: eps[s] = bitset of ε-successors (``None`` when ε-free)
        self.eps = eps
        self.initial = initial
        self.final = final
        #: dense index -> original Nfa state id (sorted order)
        self.state_ids = state_ids
        self.index = {state: i for i, state in enumerate(state_ids)}
        #: 64-bit words per bitset: the unit of budget-cost accounting
        self._words = max(1, (n + 63) >> 6)
        self._closures: Optional[List[Mask]] = None
        self._out_masks: Optional[List[Mask]] = None
        self._in_masks: Optional[List[Mask]] = None
        self._reachable: Optional[Mask] = None
        self._coreachable: Optional[Mask] = None
        self._eps_free: Optional["DenseNfa"] = None
        self._key: Optional[Tuple] = None
        # Charge the matrix scan at the door so every construction site —
        # not just from_nfa — pays for the build.
        checkpoint("automata.dense", (len(symbols) + 1) * self._words)

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    @classmethod
    def from_nfa(cls, nfa: Nfa) -> "DenseNfa":
        """Compile ``nfa`` into the dense form (states in sorted-id order)."""
        order = tuple(sorted(nfa.states))
        index = {state: i for i, state in enumerate(order)}
        n = len(order)
        # One pass over the transition table: a successor-mask row per label.
        by_label: Dict[Optional[str], List[Mask]] = {}
        for src, by_state in nfa.transition_table().items():
            s = index[src]
            for symbol, dsts in by_state.items():
                row = by_label.get(symbol)
                if row is None:
                    row = by_label[symbol] = [0] * n
                mask = 0
                for dst in dsts:
                    mask |= 1 << index[dst]
                row[s] = mask
        eps_row = by_label.pop(EPSILON, None)
        used_symbols = tuple(sorted(by_label))
        initial = 0
        for state in nfa.initial:
            initial |= 1 << index[state]
        final = 0
        for state in nfa.final:
            final |= 1 << index[state]
        GLOBAL_STATS["automata_dense_compilations"] += 1
        # One charge per compilation, scaled by the edge count: compiling is
        # a single pass over the transition structure.
        checkpoint("automata.dense", 1 + len(used_symbols) * n // 64)
        return cls(
            n,
            tuple(sorted(nfa.alphabet)),
            used_symbols,
            tuple(tuple(by_label[symbol]) for symbol in used_symbols),
            tuple(eps_row) if eps_row is not None else None,
            initial,
            final,
            order,
        )

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def to_nfa(self) -> Nfa:
        """Materialise a facade :class:`Nfa` with contiguous states 0..n-1
        (it carries its dense form, so consumers pay no second compilation)."""
        return Nfa.from_rows(
            self.alphabet,
            self.symbols,
            self.rows,
            self.eps,
            self.initial,
            self.final,
            (1 << self.n) - 1,
            range(self.n),
        )

    # ------------------------------------------------------------------
    # Canonical key (hash-consing)
    # ------------------------------------------------------------------
    def canonical_key(self) -> Tuple:
        """A structural key: equal iff the automata are identical modulo
        state renaming (compilation sorts states, so two renamings of the
        same structure compile to equal rows)."""
        key = self._key
        if key is None:
            key = self._key = (
                self.n,
                self.alphabet,
                self.symbols,
                self.initial,
                self.final,
                self.rows,
                self.eps,
            )
        return key

    # ------------------------------------------------------------------
    # Bitset primitives
    # ------------------------------------------------------------------
    def closures(self) -> List[Mask]:
        """Per-state ε-closure masks (identity rows when ε-free)."""
        closures = self._closures
        if closures is None:
            n = self.n
            if self.eps is None:
                closures = [1 << s for s in range(n)]
            else:
                eps = self.eps
                closures = [(1 << s) | eps[s] for s in range(n)]
                # Iterate to fixpoint: each round ORs successors' closures in.
                # Rounds are bounded by the ε-graph's longest simple path.
                changed = True
                while changed:
                    changed = False
                    checkpoint("automata.dense", self._words)
                    for s in range(n):
                        mask = closures[s]
                        merged = mask
                        rest = mask & ~(1 << s)
                        while rest:
                            low = rest & -rest
                            merged |= closures[low.bit_length() - 1]
                            rest ^= low
                        if merged != mask:
                            closures[s] = merged
                            changed = True
            self._closures = closures
        return closures

    def closure_of(self, mask: Mask) -> Mask:
        """The ε-closure of a state-set mask."""
        if self.eps is None:
            return mask
        closures = self.closures()
        result = mask
        for s in iter_bits(mask):
            result |= closures[s]
        return result

    def step(self, mask: Mask, k: int) -> Mask:
        """One symbol step: the union of ``rows[k][s]`` over set states."""
        row = self.rows[k]
        result = 0
        while mask:
            low = mask & -mask
            result |= row[low.bit_length() - 1]
            mask ^= low
        return result

    def out_masks(self) -> List[Mask]:
        """Per-state union of all successor masks (every symbol + ε)."""
        masks = self._out_masks
        if masks is None:
            checkpoint("automata.dense", (len(self.rows) + 1) * self._words)
            masks = [0] * self.n
            for row in self.rows:
                for s in range(self.n):
                    if row[s]:
                        masks[s] |= row[s]
            if self.eps is not None:
                for s in range(self.n):
                    if self.eps[s]:
                        masks[s] |= self.eps[s]
            self._out_masks = masks
        return masks

    def in_masks(self) -> List[Mask]:
        """Per-state union of all predecessor masks (transposed adjacency)."""
        masks = self._in_masks
        if masks is None:
            checkpoint("automata.dense", (len(self.rows) + 1) * self._words)
            masks = [0] * self.n
            for row in self.rows:
                for s in range(self.n):
                    mask = row[s]
                    bit = 1 << s
                    while mask:
                        low = mask & -mask
                        masks[low.bit_length() - 1] |= bit
                        mask ^= low
            if self.eps is not None:
                for s in range(self.n):
                    mask = self.eps[s]
                    bit = 1 << s
                    while mask:
                        low = mask & -mask
                        masks[low.bit_length() - 1] |= bit
                        mask ^= low
            self._in_masks = masks
        return masks

    # ------------------------------------------------------------------
    # Reachability / emptiness
    # ------------------------------------------------------------------
    def reachable_mask(self) -> Mask:
        """Bitset of states reachable from the initial set."""
        reach = self._reachable
        if reach is None:
            out = self.out_masks()
            reach = self.initial
            frontier = self.initial
            while frontier:
                checkpoint("automata.reachable", self._words)
                step = 0
                while frontier:
                    low = frontier & -frontier
                    step |= out[low.bit_length() - 1]
                    frontier ^= low
                frontier = step & ~reach
                reach |= frontier
            self._reachable = reach
        return reach

    def coreachable_mask(self) -> Mask:
        """Bitset of states from which a final state is reachable."""
        reach = self._coreachable
        if reach is None:
            incoming = self.in_masks()
            reach = self.final
            frontier = self.final
            while frontier:
                checkpoint("automata.coreachable", self._words)
                step = 0
                while frontier:
                    low = frontier & -frontier
                    step |= incoming[low.bit_length() - 1]
                    frontier ^= low
                frontier = step & ~reach
                reach |= frontier
            self._coreachable = reach
        return reach

    def is_empty(self) -> bool:
        return not (self.reachable_mask() & self.final)

    def accepts(self, word: str) -> bool:
        current = self.closure_of(self.initial)
        for ch in word:
            k = self.symbol_index.get(ch)
            if k is None:
                return False
            nxt = self.step(current, k)
            if not nxt:
                return False
            current = self.closure_of(nxt)
        return bool(current & self.final)

    # ------------------------------------------------------------------
    # Derived automata (cheap views)
    # ------------------------------------------------------------------
    def with_endpoints(self, initial: Mask, final: Mask) -> "DenseNfa":
        """A view with different initial/final masks sharing the rows.

        This is what noodlification's per-boundary segments use instead of
        copying the whole target automaton per split point.
        """
        view = DenseNfa.__new__(DenseNfa)
        view.n = self.n
        view.alphabet = self.alphabet
        view.symbols = self.symbols
        view.symbol_index = self.symbol_index
        view.rows = self.rows
        view.eps = self.eps
        view.initial = initial
        view.final = final
        view.state_ids = self.state_ids
        view.index = self.index
        view._words = self._words
        view._closures = self._closures
        view._out_masks = self._out_masks
        view._in_masks = self._in_masks
        view._reachable = None
        view._coreachable = None
        view._eps_free = None
        view._key = None
        return view

    def eps_free(self) -> "DenseNfa":
        """An equivalent ε-free dense automaton (self when already ε-free).

        Same construction as :func:`repro.automata.operations.remove_epsilon`:
        ``s --a--> t`` iff some member of ``closure(s)`` steps to ``t`` on
        ``a``, and ``s`` is final iff its closure meets the final set.
        """
        if self.eps is None:
            return self
        cached = self._eps_free
        if cached is None:
            closures = self.closures()
            n = self.n
            new_rows: List[Tuple[Mask, ...]] = []
            for k in range(len(self.symbols)):
                row = self.rows[k]
                new_row = [0] * n
                for s in range(n):
                    mask = closures[s]
                    merged = 0
                    while mask:
                        low = mask & -mask
                        merged |= row[low.bit_length() - 1]
                        mask ^= low
                    new_row[s] = merged
                checkpoint("automata.remove_epsilon", self._words)
                new_rows.append(tuple(new_row))
            final = 0
            for s in range(n):
                if closures[s] & self.final:
                    final |= 1 << s
            cached = DenseNfa(
                n,
                self.alphabet,
                self.symbols,
                tuple(new_rows),
                None,
                self.initial,
                final,
                self.state_ids,
            )
            self._eps_free = cached
        return cached


# ----------------------------------------------------------------------
# Form adapters: every rewired consumer accepts either representation
# ----------------------------------------------------------------------
def as_dense(automaton) -> DenseNfa:
    """Coerce an :class:`Nfa` or :class:`DenseNfa` to the dense form."""
    if isinstance(automaton, DenseNfa):
        return automaton
    return automaton.dense()


def as_nfa(automaton) -> Nfa:
    """Coerce an :class:`Nfa` or :class:`DenseNfa` to the facade form."""
    if isinstance(automaton, DenseNfa):
        return automaton.to_nfa()
    return automaton


# ----------------------------------------------------------------------
# Hash-consed interning
# ----------------------------------------------------------------------
#: canonical automata the intern table keeps before evicting the oldest
_INTERN_CAPACITY = 4096


class InternTable:
    """Canonical-automaton table keyed by the dense structural key.

    ``intern`` maps every automaton with the same structure (modulo state
    renaming) to one canonical ``Nfa`` whose dense form is pre-compiled.
    The canonical object must never be mutated — the normalisation layer
    treats all produced automata as immutable, which is the same contract
    the identity-keyed downstream caches already rely on.  FIFO eviction
    bounds the table like the NormalizationCache memos.
    """

    def __init__(self) -> None:
        self._table: Dict[Tuple, Nfa] = {}

    def __len__(self) -> int:
        return len(self._table)

    def intern(self, automaton) -> Nfa:
        dense = as_dense(automaton)
        key = dense.canonical_key()
        hit = self._table.get(key)
        if hit is not None:
            GLOBAL_STATS["automata_interning_hits"] += 1
            return hit
        GLOBAL_STATS["automata_interning_misses"] += 1
        if isinstance(automaton, Nfa) and dense.state_ids == tuple(range(dense.n)):
            # Already contiguous: adopt the object itself as canonical
            # (callers hand over freshly-built automata they no longer
            # mutate; adopting keeps existing identities stable).
            canonical = automaton
        else:
            canonical = dense.to_nfa()
        self._table[key] = canonical
        while len(self._table) > _INTERN_CAPACITY:
            self._table.pop(next(iter(self._table)))
        return canonical


#: the process-wide intern table (shared across sessions by design: the
#: whole point is that two sessions solving related problems reuse one
#: compiled automaton)
_GLOBAL_INTERN = InternTable()


def intern_nfa(automaton) -> Nfa:
    """Intern ``automaton`` in the process-wide table (see :class:`InternTable`)."""
    return _GLOBAL_INTERN.intern(automaton)
