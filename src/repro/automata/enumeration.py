"""Language enumeration utilities.

These functions back the brute-force oracle solver and the test suite:
bounded enumeration of a regular language, shortest accepted word, the
length bound of a language, counting words per length, and random sampling
of accepted words.

All entry points accept either automaton form (:class:`Nfa` or
:class:`DenseNfa`).  The breadth-first walks run on dense bitset subsets —
one int per frontier entry, ε-closures from the precomputed closure masks —
while preserving the sorted-symbol enumeration order the oracle tests rely
on (``DenseNfa.symbols`` is sorted by construction).
"""

from __future__ import annotations

import random
from collections import deque
from typing import Dict, Iterator, List, Optional, Tuple

from . import operations as ops
from .dense import as_dense, as_nfa
from .nfa import State


def shortest_word(nfa) -> Optional[str]:
    """Return a shortest accepted word, or ``None`` when the language is empty."""
    dense = as_dense(nfa)
    start = dense.closure_of(dense.initial)
    final = dense.final
    if start & final:
        return ""
    queue: deque = deque([(start, "")])
    seen = {start}
    symbol_range = range(len(dense.symbols))
    symbols = dense.symbols
    while queue:
        mask, word = queue.popleft()
        for k in symbol_range:
            targets = dense.step(mask, k)
            if not targets:
                continue
            closure = dense.closure_of(targets)
            if closure & final:
                return word + symbols[k]
            if closure not in seen:
                seen.add(closure)
                queue.append((closure, word + symbols[k]))
    return None


def words_up_to(nfa, max_length: int) -> Iterator[str]:
    """Yield every accepted word of length at most ``max_length`` (sorted by length)."""
    dense = as_dense(nfa)
    start = dense.closure_of(dense.initial)
    final = dense.final
    layer: List[Tuple[int, str]] = [(start, "")]
    if start & final:
        yield ""
    symbol_range = range(len(dense.symbols))
    symbols = dense.symbols
    for _ in range(max_length):
        next_layer: List[Tuple[int, str]] = []
        for mask, word in layer:
            for k in symbol_range:
                targets = dense.step(mask, k)
                if not targets:
                    continue
                closure = dense.closure_of(targets)
                new_word = word + symbols[k]
                if closure & final:
                    yield new_word
                next_layer.append((closure, new_word))
        layer = next_layer
        if not layer:
            return


def has_word_longer_than(nfa, length: int) -> bool:
    """Decide whether some accepted word is longer than ``length``.

    Always true of an infinite language and never of an empty one: the
    language is finite and fully enumerated by ``words_up_to(nfa, length)``
    exactly when this is false.
    """
    dense = as_dense(nfa)
    useful = dense.coreachable_mask()
    mask = dense.closure_of(dense.initial) & useful
    symbol_range = range(len(dense.symbols))
    for _ in range(length + 1):
        targets = 0
        for k in symbol_range:
            targets |= dense.step(mask, k)
        mask = dense.closure_of(targets) & useful
        if not mask:
            return False
    return True


def count_words_of_length(nfa, length: int) -> int:
    """Return the number of distinct accepted words of exactly ``length``."""
    # Determinise so that distinct paths correspond to distinct words.
    source = as_nfa(nfa)
    sigma = source.alphabet
    if not sigma:
        return 1 if length == 0 and source.accepts("") else 0
    dfa, _ = ops.determinize(source, sigma, want_subsets=False)
    counts: Dict[State, int] = {state: 1 for state in dfa.initial}
    for _ in range(length):
        new_counts: Dict[State, int] = {}
        for state, count in counts.items():
            for symbol, dst in dfa.transitions_from(state):
                new_counts[dst] = new_counts.get(dst, 0) + count
        counts = new_counts
    return sum(count for state, count in counts.items() if state in dfa.final)


def is_finite(nfa) -> bool:
    """Decide whether the language of ``nfa`` is finite."""
    trimmed = as_nfa(nfa).trim()
    # A trimmed automaton has an infinite language iff it contains a cycle.
    from .flatness import strongly_connected_components

    for component in strongly_connected_components(trimmed):
        internal = any(
            src in component and dst in component for src, _, dst in trimmed.iter_transitions()
        )
        if internal:
            return False
    return True


def sample_word(nfa, max_length: int, rng: Optional[random.Random] = None) -> Optional[str]:
    """Sample a random accepted word of length at most ``max_length``.

    Returns ``None`` when no accepted word of that length exists.  The
    distribution is not uniform; the function simply performs a random walk
    biased towards states that can still reach a final state.
    """
    # A fixed default seed keeps sampling reproducible run-to-run; callers
    # wanting variety pass their own Random.
    rng = rng or random.Random(0)
    words = list(words_up_to(nfa, max_length))
    if not words:
        return None
    return rng.choice(words)
