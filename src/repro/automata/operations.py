"""Classical operations on NFAs: boolean algebra, concatenation, iteration.

These operations back both the regex compiler and the string solver: regular
membership constraints are intersected per variable, complements are needed
for negated regular memberships, and concatenation/star implement regex
operators.

The hot operations (subset construction, products, ε-elimination and the
emptiness/inclusion decisions) run on the integer-dense form of
:mod:`repro.automata.dense` — bitset state sets and per-symbol successor-mask
rows — and accept either an :class:`Nfa` or a :class:`DenseNfa`.  Results
are materialised back into facade :class:`Nfa` objects (with the dense form
cached on them whenever it is already known), so the public contracts are
unchanged.  The pre-rewrite set-based implementations live on in
:mod:`repro.automata.legacy` as differential-test oracles and as the bench
baseline.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..budget import checkpoint
from .dense import Mask, as_dense, iter_bits
from .nfa import EPSILON, Nfa, State


def union(left: Nfa, right: Nfa) -> Nfa:
    """Return an NFA for ``L(left) ∪ L(right)``."""
    result = Nfa(left.alphabet | right.alphabet)
    left_part = left.copy_into(result, 0)
    right_part = right.copy_into(result)
    result.initial = left_part.initial | right_part.initial
    result.final = left_part.final | right_part.final
    return result


def concat(left: Nfa, right: Nfa) -> Nfa:
    """Return an NFA for the concatenation ``L(left) · L(right)``.

    The construction links final states of ``left`` to initial states of
    ``right`` with epsilon transitions (the ε-concatenation of the paper).
    """
    result = Nfa(left.alphabet | right.alphabet)
    left_part = left.copy_into(result, 0)
    right_part = right.copy_into(result)
    # repro: allow(checkpoint-coverage): adds |F|·|I| ε-edges, linear in the automaton it returns; regex.parse charges a step per pattern character and the ¬contains vacuity pre-pass caps its sides at 64 states
    for final_state in left_part.final:
        for initial_state in right_part.initial:
            result.add_transition(final_state, EPSILON, initial_state)
    result.initial = set(left_part.initial)
    result.final = set(right_part.final)
    return result


def star(nfa: Nfa) -> Nfa:
    """Return an NFA for the Kleene star ``L(nfa)*``."""
    result = Nfa(nfa.alphabet)
    part = nfa.copy_into(result, 0)
    fresh = result.add_state()
    for initial_state in part.initial:
        result.add_transition(fresh, EPSILON, initial_state)
    for final_state in part.final:
        result.add_transition(final_state, EPSILON, fresh)
    result.initial = {fresh}
    result.final = part.final | {fresh}
    return result


def optional(nfa: Nfa) -> Nfa:
    """Return an NFA for ``L(nfa) ∪ {ε}``."""
    result = Nfa(nfa.alphabet)
    part = nfa.copy_into(result, 0)
    fresh = result.add_state()
    for initial_state in part.initial:
        result.add_transition(fresh, EPSILON, initial_state)
    result.initial = {fresh}
    result.final = part.final | {fresh}
    return result


def repeat(nfa: Nfa, low: int, high: Optional[int]) -> Nfa:
    """Return an NFA for ``L(nfa){low,high}`` (``high=None`` means unbounded)."""
    if low < 0:
        raise ValueError("lower repetition bound must be non-negative")
    pieces = [nfa] * low
    if high is None:
        pieces.append(star(nfa))
    else:
        if high < low:
            raise ValueError("upper repetition bound must be at least the lower bound")
        pieces.extend([optional(nfa)] * (high - low))
    if not pieces:
        return Nfa.epsilon_language()
    result = pieces[0]
    for piece in pieces[1:]:
        result = concat(result, piece)
    return result


def remove_epsilon(nfa) -> Nfa:
    """Return an equivalent NFA without epsilon transitions.

    Accepts either form; the closure saturation runs on ε-closure bitsets
    (:meth:`DenseNfa.eps_free`) and the facade result keeps the input's
    state identifiers with the ε-free dense form attached.
    """
    if isinstance(nfa, Nfa) and not nfa.has_epsilon():
        return nfa.copy()
    compiled = as_dense(nfa)
    eps_free = compiled.eps_free()
    return Nfa.from_rows(
        compiled.alphabet,
        eps_free.symbols,
        eps_free.rows,
        None,
        eps_free.initial,
        eps_free.final,
        (1 << eps_free.n) - 1,
        compiled.state_ids,
    )


class StateBudgetExceeded(Exception):
    """Raised by :func:`determinize` when ``max_states`` would be exceeded."""


def determinize(
    nfa,
    alphabet: Optional[Iterable[str]] = None,
    max_states: Optional[int] = None,
    want_subsets: bool = True,
) -> Tuple[Nfa, Dict[FrozenSet[State], State]]:
    """Subset construction (bitset-based).

    Returns a complete DFA (represented as an :class:`Nfa` whose transition
    relation is deterministic and total over ``alphabet``) together with the
    mapping from subsets of states to DFA states.  The empty subset acts as
    the sink state.  ``max_states`` caps the construction (the subset space
    is worst-case exponential); exceeding it raises
    :class:`StateBudgetExceeded`.

    Subsets are single Python-int bitsets: the per-symbol move of a subset
    is a word-parallel OR of precomputed closed successor masks, and subset
    identity is integer hashing instead of frozenset hashing.  Materialising
    the subset map costs a frozenset per DFA state; callers that only need
    the automaton pass ``want_subsets=False`` and get an empty map.
    """
    compiled = as_dense(nfa)
    sigma = set(alphabet) if alphabet is not None else set(compiled.alphabet)
    sigma_sorted = sorted(sigma)
    n = compiled.n
    closures = compiled.closures() if compiled.eps is not None else None
    # Per sigma symbol: successor rows with the ε-closure already applied,
    # so each subset move is one OR per member state.  ``None`` marks
    # symbols with no transitions anywhere (they always move to the sink).
    closed_rows: List[Optional[List[int]]] = []
    for symbol in sigma_sorted:
        k = compiled.symbol_index.get(symbol)
        if k is None:
            closed_rows.append(None)
            continue
        row = compiled.rows[k]
        if closures is None:
            closed_rows.append(list(row))
        else:
            closed: List[int] = []
            for s in range(n):
                mask = row[s]
                merged = 0
                while mask:
                    low = mask & -mask
                    merged |= closures[low.bit_length() - 1]
                    mask ^= low
                closed.append(merged)
            closed_rows.append(closed)

    final_mask = compiled.final
    mask_to_state: Dict[int, State] = {}
    dfa_final = 0
    #: dfa_rows[position][state] = successor bitset on sigma_sorted[position];
    #: subsets are popped in state order, so each row grows by appending
    dfa_rows: List[List[int]] = [[] for _ in sigma_sorted]

    def state_for(mask: int) -> State:
        nonlocal dfa_final
        state = mask_to_state.get(mask)
        if state is None:
            if max_states is not None and len(mask_to_state) >= max_states:
                raise StateBudgetExceeded(f"more than {max_states} DFA states")
            state = len(mask_to_state)
            mask_to_state[mask] = state
            if mask & final_mask:
                dfa_final |= 1 << state
        return state

    start = compiled.closure_of(compiled.initial)
    start_state = state_for(start)
    work = deque([start])
    words = compiled._words
    while work:
        # One budget step per explored subset (scaled by the bitset width)
        # — the unit the worst-case exponential blowup is measured in.
        checkpoint("automata.determinize", words)
        subset = work.popleft()
        for position, row in enumerate(closed_rows):
            target = 0
            if row is not None:
                rest = subset
                while rest:
                    low = rest & -rest
                    target |= row[low.bit_length() - 1]
                    rest ^= low
            dst = mask_to_state.get(target)
            if dst is None:
                dst = state_for(target)
                work.append(target)
            dfa_rows[position].append(1 << dst)
    count = len(mask_to_state)
    dfa = Nfa.from_rows(
        sigma,
        sigma_sorted,
        dfa_rows,
        None,
        1 << start_state,
        dfa_final,
        (1 << count) - 1,
        range(count),
    )
    if not want_subsets:
        return dfa, {}
    ids = compiled.state_ids
    subset_to_state = {
        frozenset(ids[i] for i in iter_bits(mask)): state
        for mask, state in mask_to_state.items()
    }
    return dfa, subset_to_state


def complement(nfa, alphabet: Iterable[str]) -> Nfa:
    """Return an NFA for ``alphabet* \\ L(nfa)``."""
    sigma = set(alphabet)
    dfa, _ = determinize(nfa, sigma, want_subsets=False)
    # ``determinize`` builds a fresh complete DFA, so flipping its finals in
    # place is safe (nothing else holds a reference).
    dfa.final = set(dfa.states) - set(dfa.final)
    return dfa


class ProductWalk:
    """The pair walk of ``L(left) ∩ L(right)`` from the initial pairs.

    Every product state is reachable by construction, and the walk does not
    depend on either final set: :meth:`final_mask` derives the final states
    of any choice of finals from the per-component masks, :meth:`coreachable`
    trims to what reaches them and :meth:`to_nfa` materialises the result.
    Noodlification finishes many segments from one walk; :func:`intersection`
    is one walk and one finish.
    """

    __slots__ = (
        "alphabet",
        "symbols",
        "rows",
        "predecessors",
        "by_left",
        "by_right",
        "initial",
        "count",
    )

    def __init__(self, left, right) -> None:
        """Walk the pairs of the ε-free dense forms of ``left`` and ``right``.

        The common-symbol lists are intersected once up front and successor
        pairs come from bitset rows instead of per-state dict probes.
        """
        left_dense = as_dense(left).eps_free()
        right_dense = as_dense(right).eps_free()
        common = [
            (
                symbol,
                left_dense.rows[left_dense.symbol_index[symbol]],
                right_dense.rows[right_dense.symbol_index[symbol]],
            )
            for symbol in left_dense.symbols
            if symbol in right_dense.symbol_index
        ]
        self.alphabet = set(left_dense.alphabet) & set(right_dense.alphabet)
        #: the common symbols, ascending
        self.symbols = [symbol for symbol, _, _ in common]
        #: pairs[s] = the (left, right) state pair of product state s
        pairs: List[Tuple[int, int]] = []
        pair_to_state: Dict[Tuple[int, int], State] = {}
        #: rows[k][s] = successor bitset of product state s on symbols[k];
        #: states are expanded in the order they are found, so each row
        #: grows by appending
        rows: List[List[int]] = [[] for _ in common]
        #: predecessors[s] = bitset of product states with an edge into s
        predecessors: List[int] = []
        #: by_left[p] / by_right[q] = bitset of the product states on left
        #: state p / right state q
        by_left = [0] * left_dense.n
        by_right = [0] * right_dense.n

        def state_for(p: int, q: int) -> State:
            state = pair_to_state.get((p, q))
            if state is None:
                state = len(pairs)
                pair_to_state[(p, q)] = state
                pairs.append((p, q))
                predecessors.append(0)
                by_left[p] |= 1 << state
                by_right[q] |= 1 << state
            return state

        initial = 0
        for p in iter_bits(left_dense.initial):
            for q in iter_bits(right_dense.initial):
                initial |= 1 << state_for(p, q)
        src = 0
        while src < len(pairs):
            checkpoint("automata.intersection")
            p, q = pairs[src]
            src_bit = 1 << src
            for row, (_, left_row, right_row) in zip(rows, common):
                successors = 0
                left_mask = left_row[p]
                right_mask = right_row[q]
                if left_mask and right_mask:
                    rest_left = left_mask
                    while rest_left:
                        low_left = rest_left & -rest_left
                        p_dst = low_left.bit_length() - 1
                        rest_left ^= low_left
                        rest_right = right_mask
                        while rest_right:
                            low_right = rest_right & -rest_right
                            rest_right ^= low_right
                            dst = state_for(p_dst, low_right.bit_length() - 1)
                            successors |= 1 << dst
                            predecessors[dst] |= src_bit
                row.append(successors)
            src += 1
        self.rows = rows
        self.predecessors = predecessors
        self.by_left = by_left
        self.by_right = by_right
        self.initial = initial
        self.count = len(pairs)

    def final_mask(self, left_final: int, right_final: int) -> int:
        """The product states whose left and right states are both final.

        One budget step per finish: a walk serves many of them.
        """
        checkpoint("automata.intersection")
        on_left = 0
        for p in iter_bits(left_final):
            on_left |= self.by_left[p]
        on_right = 0
        for q in iter_bits(right_final):
            on_right |= self.by_right[q]
        return on_left & on_right

    def coreachable(self, final: int) -> int:
        """The product states that reach ``final``: a backward walk over the
        predecessor masks (0 exactly when ``final`` is)."""
        words = max(1, (self.count + 63) >> 6)
        keep = final
        frontier = final
        while frontier:
            checkpoint("automata.coreachable", words)
            step = 0
            while frontier:
                low = frontier & -frontier
                step |= self.predecessors[low.bit_length() - 1]
                frontier ^= low
            frontier = step & ~keep
            keep |= frontier
        return keep

    def has_edge(self, keep: int) -> bool:
        """Does some transition run between two of the ``keep`` states?"""
        return any(self.predecessors[s] & keep for s in iter_bits(keep))

    def to_nfa(self, final: int, keep: int) -> Nfa:
        """The product on the ``keep`` states with final set ``final``."""
        return Nfa.from_rows(
            self.alphabet,
            self.symbols,
            self.rows,
            None,
            self.initial,
            final,
            keep,
            range(self.count),
        )


def intersection(left, right, trim: bool = False) -> Nfa:
    """Return the product automaton for ``L(left) ∩ L(right)``.

    Accepts either form on both sides: one :class:`ProductWalk` over the
    ε-free dense rows, finished with both automata's final sets and handed
    to :meth:`Nfa.from_rows` once.

    With ``trim=True`` the result equals ``intersection(left, right).trim()``
    (same states, initial and final sets, and transition order): every
    product state is reachable by construction, so only co-reachability is
    left, decided backwards over the predecessor masks the walk records.
    """
    left_dense = as_dense(left).eps_free()
    right_dense = as_dense(right).eps_free()
    walk = ProductWalk(left_dense, right_dense)
    final = walk.final_mask(left_dense.final, right_dense.final)
    keep = walk.coreachable(final) if trim else (1 << walk.count) - 1
    return walk.to_nfa(final, keep)


def intersection_empty(left, right) -> bool:
    """Decide ``L(left) ∩ L(right) = ∅`` without materialising the product.

    Walks the reachable pairs of the (ε-eliminated) product, keeping for
    every left state the bitset of right states it is paired with — the
    right side advances word-parallel — and stops at the first accepting
    pair.  Sound and complete; cost is bounded by the materialised product
    but typically far below it (satisfiable products exit at the first
    witness, refuted ones never allocate result states).  Used by the
    eqsolver consequence pre-pass, the normalisation guard pruning and the
    solver's vacuous-¬contains filter.
    """
    l = as_dense(left).eps_free()
    r = as_dense(right).eps_free()
    if not l.initial or not r.initial or not l.final or not r.final:
        return True
    common = [
        (l.rows[l.symbol_index[symbol]], r.rows[r.symbol_index[symbol]])
        for symbol in l.symbols
        if symbol in r.symbol_index
    ]
    # reach[p] = mask of right states paired with left state p
    reach: List[Mask] = [0] * l.n
    work: deque = deque()
    for p in iter_bits(l.initial):
        reach[p] = r.initial
        work.append(p)
        if (1 << p) & l.final and r.initial & r.final:
            return False
    lfinal = l.final
    rfinal = r.final
    in_queue = l.initial
    while work:
        p = work.popleft()
        in_queue &= ~(1 << p)
        mask = reach[p]
        checkpoint("automata.empty", r._words)
        for lrow, rrow in common:
            succ_l = lrow[p]
            if not succ_l:
                continue
            succ_r = 0
            rest = mask
            while rest:
                low = rest & -rest
                succ_r |= rrow[low.bit_length() - 1]
                rest ^= low
            if not succ_r:
                continue
            targets = succ_l
            while targets:
                low = targets & -targets
                q = low.bit_length() - 1
                targets ^= low
                grown = succ_r & ~reach[q]
                if grown:
                    reach[q] |= grown
                    if (1 << q) & lfinal and reach[q] & rfinal:
                        return False
                    if not ((1 << q) & in_queue):
                        in_queue |= 1 << q
                        work.append(q)
    return True


def is_subset(left, right, alphabet: Optional[Iterable[str]] = None) -> bool:
    """Decide ``L(left) ⊆ L(right)`` lazily over ``alphabet``.

    On-the-fly inclusion: pairs a left state with the determinised subset
    mask of the right automaton and stops at the first counterexample pair
    (left accepting, right subset missing every final state).  Neither the
    complement nor the difference automaton is ever materialised.

    Matching the eager construction's semantics, only symbols of ``left``
    that lie in ``alphabet`` can extend a counterexample word.
    """
    l = as_dense(left).eps_free()
    r = as_dense(right).eps_free()
    if alphabet is None:
        sigma = set(l.alphabet) | set(r.alphabet)
    else:
        sigma = set(alphabet)
    rows = [
        (
            l.rows[l.symbol_index[symbol]],
            r.rows[r.symbol_index[symbol]] if symbol in r.symbol_index else None,
        )
        for symbol in l.symbols
        if symbol in sigma
    ]
    start_r = r.initial
    lfinal = l.final
    rfinal = r.final
    visited: Dict[Tuple[int, Mask], None] = {}
    work: deque = deque()
    for p in iter_bits(l.initial):
        pair = (p, start_r)
        if pair not in visited:
            visited[pair] = None
            work.append(pair)
            if (1 << p) & lfinal and not (start_r & rfinal):
                return False
    while work:
        p, mask = work.popleft()
        checkpoint("automata.inclusion", r._words)
        for lrow, rrow in rows:
            succ_l = lrow[p]
            if not succ_l:
                continue
            if rrow is None:
                succ_r = 0
            else:
                succ_r = 0
                rest = mask
                while rest:
                    low = rest & -rest
                    succ_r |= rrow[low.bit_length() - 1]
                    rest ^= low
            targets = succ_l
            while targets:
                low = targets & -targets
                q = low.bit_length() - 1
                targets ^= low
                pair = (q, succ_r)
                if pair not in visited:
                    if (1 << q) & lfinal and not (succ_r & rfinal):
                        return False
                    visited[pair] = None
                    work.append(pair)
    return True
