"""DFA minimisation (Hopcroft's algorithm).

Hopcroft's partition refinement runs on bitset blocks: a block of DFA states
is a single Python-int mask, splitting a block against a splitter's
predecessor set is two bitwise ANDs, and the worklist holds masks.  The
determinised automaton has contiguous states ``0..n-1`` (the dense subset
construction numbers them in discovery order), so masks index directly.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..budget import checkpoint
from . import operations as ops
from .dense import as_nfa, iter_bits
from .nfa import Nfa, State


def minimize(
    nfa,
    alphabet: Optional[Iterable[str]] = None,
    max_states: Optional[int] = None,
) -> Nfa:
    """Return the minimal complete DFA equivalent to ``nfa``.

    Accepts either automaton form.  The result is represented as an
    :class:`Nfa` whose transition relation is deterministic.  Hopcroft's
    partition-refinement algorithm is used on the determinised, completed
    automaton; unreachable blocks are trimmed at the end but the sink may be
    kept when it is needed for completeness.

    ``max_states`` bounds the subset construction (worst-case exponential):
    when the cap is hit the *input* automaton is returned unchanged —
    minimisation is best-effort, the language never changes.
    """
    source = as_nfa(nfa)
    sigma = sorted(set(alphabet) if alphabet is not None else source.alphabet)
    if not sigma:
        # Language is either {} or {ε}; both are already minimal as 1-state DFAs.
        if source.accepts(""):
            return Nfa.epsilon_language()
        return Nfa.empty_language()
    try:
        dfa, _ = ops.determinize(source, sigma, max_states=max_states, want_subsets=False)
    except ops.StateBudgetExceeded:
        return source

    dense = dfa.dense()
    n = dense.n
    all_mask = (1 << n) - 1
    final_mask = dense.final

    # Per-symbol predecessor masks: preds[k][dst] = mask of DFA states with
    # a k-transition into dst.  The DFA is complete, so every (state, symbol)
    # contributes exactly one entry.
    preds: List[List[int]] = []
    for k in range(len(dense.symbols)):
        row = dense.rows[k]
        pred = [0] * n
        for src in range(n):
            mask = row[src]
            bit = 1 << src
            while mask:
                low = mask & -mask
                pred[low.bit_length() - 1] |= bit
                mask ^= low
        preds.append(pred)
    words = dense._words

    # Hopcroft partition refinement on block masks.
    partition: List[int] = [
        block for block in (final_mask, all_mask & ~final_mask) if block
    ]
    if len(partition) == 2:
        worklist = [min(partition, key=int.bit_count)]
    else:
        worklist = list(partition)
    while worklist:
        checkpoint("automata.minimize", words)
        splitter = worklist.pop()
        for pred in preds:
            incoming = 0
            rest = splitter
            while rest:
                low = rest & -rest
                incoming |= pred[low.bit_length() - 1]
                rest ^= low
            if not incoming:
                continue
            new_partition: List[int] = []
            for block in partition:
                inside = block & incoming
                if inside and inside != block:
                    outside = block & ~incoming
                    new_partition.append(inside)
                    new_partition.append(outside)
                    try:
                        position = worklist.index(block)
                    except ValueError:
                        if inside.bit_count() <= outside.bit_count():
                            worklist.append(inside)
                        else:
                            worklist.append(outside)
                    else:
                        worklist[position] = inside
                        worklist.append(outside)
                else:
                    new_partition.append(block)
            partition = new_partition

    block_of: Dict[State, int] = {}
    for index, block in enumerate(partition):
        for state in iter_bits(block):
            block_of[state] = index

    result = Nfa(sigma)
    for index in range(len(partition)):
        result.add_state(index)
    initial_mask = dense.initial
    for index, block in enumerate(partition):
        representative = (block & -block).bit_length() - 1
        if (final_mask >> representative) & 1:
            result.make_final(index)
        if block & initial_mask:
            result.make_initial(index)
        for k, symbol in enumerate(dense.symbols):
            successors = dense.rows[k][representative]
            if successors:
                dst = (successors & -successors).bit_length() - 1
                result.add_transition(index, symbol, block_of[dst])
    trimmed = result.trim()
    if not trimmed.states:
        return Nfa.empty_language()
    return trimmed
