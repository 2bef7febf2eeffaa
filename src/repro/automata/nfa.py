"""Nondeterministic finite automata (NFA) over character alphabets.

This module provides the central :class:`Nfa` data structure used throughout
the reproduction.  It plays the role of the Mata library used by Z3-Noodler:
variable languages in regular membership constraints are represented by NFAs,
and the tag-automaton construction of the paper consumes them directly.

States are plain integers, symbols are single-character strings, and
``None`` is used as the epsilon (empty-word) label.  The class is mutable
while being built and is typically treated as immutable afterwards.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..budget import checkpoint

#: Epsilon label used on transitions that do not consume a symbol.
EPSILON: Optional[str] = None

Symbol = Optional[str]
State = int
Transition = Tuple[State, Symbol, State]


class CopiedPart(NamedTuple):
    """What :meth:`Nfa.copy_into` spliced in: the renumbered initial/final
    sets."""

    initial: Set[State]
    final: Set[State]


class Nfa:
    """A nondeterministic finite automaton with optional epsilon transitions.

    The automaton is a tuple ``(Q, delta, I, F)`` as in Section 2 of the
    paper.  Transitions are stored as one nested mapping
    ``state -> symbol -> set of successor states``; the automata algorithms
    read the per-symbol bitset rows of the cached dense form instead.  An
    automaton built by :meth:`from_rows` carries only its dense form: the
    table is built from it on the first set-based read
    (:meth:`transition_table`), and before any mutation drops the dense
    form, so at least one of the two is always present.
    """

    __slots__ = (
        "_states",
        "_initial",
        "_final",
        "_delta",
        "_alphabet",
        "_next_state",
        "_dense",
    )

    def __init__(self, alphabet: Optional[Iterable[str]] = None) -> None:
        self._dense = None
        self._states: Set[State] = set()
        self._initial: Set[State] = set()
        self._final: Set[State] = set()
        self._delta: Optional[Dict[State, Dict[Symbol, Set[State]]]] = {}
        self._alphabet: Set[str] = set(alphabet) if alphabet else set()
        #: next fresh state id; kept ahead of every state the mutating
        #: methods have seen so ``add_state()`` is O(1) instead of an O(n)
        #: ``max`` scan (which made loops adding many states quadratic)
        self._next_state: State = 0

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    # ``states``/``initial``/``final`` are managed attributes: assigning a
    # new set (the idiom every construction in this codebase uses, e.g.
    # ``product.initial = {...}``) must drop the cached dense compilation,
    # which may be shared with the ``copy()`` source.  In-place mutation of
    # the returned sets is reserved to this class's own methods, which
    # invalidate explicitly.
    @property
    def states(self) -> Set[State]:
        return self._states

    @states.setter
    def states(self, value: Set[State]) -> None:
        self._invalidate()
        self._states = value

    @property
    def initial(self) -> Set[State]:
        return self._initial

    @initial.setter
    def initial(self, value: Set[State]) -> None:
        self._invalidate()
        self._initial = value

    @property
    def final(self) -> Set[State]:
        return self._final

    @final.setter
    def final(self, value: Set[State]) -> None:
        self._invalidate()
        self._final = value

    def _note_state(self, state: State) -> None:
        if state >= self._next_state:
            self._next_state = state + 1

    def _sync_state_counter(self) -> None:
        """Re-derive the fresh-id counter after a bulk ``states`` assignment."""
        self._next_state = max(self.states, default=-1) + 1
        self._invalidate()

    def _invalidate(self) -> None:
        """Drop the dense form, building the transition table from it first."""
        self.transition_table()
        self._dense = None

    def transition_table(self) -> Dict[State, Dict[Symbol, Set[State]]]:
        """The ``state -> symbol -> successors`` table (read-only).

        An automaton built from rows builds it from its dense form on the
        first read, as :meth:`from_rows` once wrote it: symbol-major (ε
        last), then sources and destinations ascending.
        """
        if self._delta is not None:
            return self._delta
        dense = self._dense
        ids = dense.state_ids
        delta: Dict[State, Dict[Symbol, Set[State]]] = {}
        labelled = list(zip(dense.symbols, dense.rows))
        if dense.eps is not None:
            labelled.append((EPSILON, dense.eps))
        for symbol, row in labelled:
            for i, mask in enumerate(row):
                if not mask:
                    continue
                targets = set()
                while mask:
                    low = mask & -mask
                    targets.add(ids[low.bit_length() - 1])
                    mask ^= low
                by_state = delta.get(ids[i])
                if by_state is None:
                    by_state = delta[ids[i]] = {}
                by_state[symbol] = targets
        self._delta = delta
        return delta

    def dense(self):
        """The cached integer-dense compilation of this automaton.

        Compiled on demand (one pass over the transition structure) and
        reused until the next mutation; see :class:`repro.automata.dense.DenseNfa`.
        Automata built by the operations layer and the normalisation cache
        arrive with the dense form pre-attached.
        """
        compiled = self._dense
        if compiled is None:
            from .dense import DenseNfa

            compiled = self._dense = DenseNfa.from_nfa(self)
        return compiled

    def add_state(self, state: Optional[State] = None) -> State:
        """Add a state (allocating a fresh identifier when none is given)."""
        if state is None:
            state = self._next_state
        self._invalidate()
        self._note_state(state)
        self.states.add(state)
        return state

    def make_initial(self, state: State) -> None:
        self._invalidate()
        self._note_state(state)
        self.states.add(state)
        self.initial.add(state)

    def make_final(self, state: State) -> None:
        self._invalidate()
        self._note_state(state)
        self.states.add(state)
        self.final.add(state)

    def add_transition(self, src: State, symbol: Symbol, dst: State) -> None:
        """Add the transition ``src --symbol--> dst``.

        ``symbol`` may be :data:`EPSILON` for an epsilon transition or a
        single-character string.
        """
        if symbol is not None:
            if not isinstance(symbol, str) or len(symbol) != 1:
                raise ValueError(f"symbols must be single characters, got {symbol!r}")
            self._alphabet.add(symbol)
        self._invalidate()
        self._note_state(src)
        self._note_state(dst)
        self._states.add(src)
        self._states.add(dst)
        self._delta.setdefault(src, {}).setdefault(symbol, set()).add(dst)

    def add_word_path(self, src: State, word: str, dst: State) -> None:
        """Add a chain of transitions spelling ``word`` from ``src`` to ``dst``."""
        if not word:
            self.add_transition(src, EPSILON, dst)
            return
        current = src
        for ch in word[:-1]:
            nxt = self.add_state()
            self.add_transition(current, ch, nxt)
            current = nxt
        self.add_transition(current, word[-1], dst)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def alphabet(self) -> Set[str]:
        """The set of symbols appearing on (non-epsilon) transitions."""
        return set(self._alphabet)

    def successors(self, state: State, symbol: Symbol) -> Set[State]:
        """Return the states reachable from ``state`` via ``symbol``."""
        return set(self.transition_table().get(state, {}).get(symbol, set()))

    def transitions_on(self, symbol: Symbol) -> Dict[State, Set[State]]:
        """The ``src -> dsts`` map of every transition labelled ``symbol``.

        A view computed from the transition table in one pass; treat the
        result as read-only — its successor sets alias the table.
        """
        return {
            src: by_state[symbol]
            for src, by_state in self.transition_table().items()
            if symbol in by_state
        }

    def transitions_map(self, state: State) -> Dict[Symbol, Set[State]]:
        """The ``symbol -> dsts`` map of transitions leaving ``state``.

        The per-state counterpart of :meth:`transitions_on`.  Treat the
        result as read-only — it aliases the internal delta.
        """
        return self.transition_table().get(state, {})

    def transitions_from(self, state: State) -> Iterator[Tuple[Symbol, State]]:
        """Iterate over ``(symbol, dst)`` pairs leaving ``state``."""
        for symbol, dsts in self.transition_table().get(state, {}).items():
            for dst in dsts:
                yield symbol, dst

    def iter_transitions(self) -> Iterator[Transition]:
        """Iterate over all transitions as ``(src, symbol, dst)`` triples."""
        for src, by_symbol in self.transition_table().items():
            for symbol, dsts in by_symbol.items():
                for dst in dsts:
                    yield src, symbol, dst

    def num_transitions(self) -> int:
        return sum(1 for _ in self.iter_transitions())

    def size(self) -> int:
        """Return ``|Q| + |delta|`` — the size measure used by the paper."""
        return len(self.states) + self.num_transitions()

    def has_epsilon(self) -> bool:
        """Return ``True`` when the automaton contains an epsilon transition."""
        if self._delta is None:
            return self._dense.eps is not None
        return any(symbol is None for _, symbol, _ in self.iter_transitions())

    # ------------------------------------------------------------------
    # Epsilon closure and membership
    # ------------------------------------------------------------------
    def epsilon_closure(self, states: Iterable[State]) -> FrozenSet[State]:
        """Return the epsilon closure of the given set of states."""
        closure = set(states)
        work = deque(closure)
        delta = self.transition_table()
        # repro: allow(checkpoint-coverage): only the budget-free legacy oracles call this; solver paths use the dense form's precomputed closures
        while work:
            state = work.popleft()
            for dst in delta.get(state, {}).get(EPSILON, set()):
                if dst not in closure:
                    closure.add(dst)
                    work.append(dst)
        return frozenset(closure)

    def accepts(self, word: str) -> bool:
        """Decide whether ``word`` belongs to the language of the automaton.

        Runs on the dense form: one bitset per step instead of a set of
        states (the ε-closure masks are precomputed once per compilation).
        """
        return self.dense().accepts(word)

    # ------------------------------------------------------------------
    # Reachability / emptiness
    # ------------------------------------------------------------------
    def is_empty(self) -> bool:
        """Decide whether the language of the automaton is empty."""
        compiled = self.dense()
        return not (compiled.reachable_mask() & compiled.final)

    def trim(self) -> "Nfa":
        """Return a copy restricted to useful (reachable and co-reachable) states."""
        compiled = self.dense()
        return Nfa.from_rows(
            self._alphabet,
            compiled.symbols,
            compiled.rows,
            compiled.eps,
            compiled.initial,
            compiled.final,
            compiled.reachable_mask() & compiled.coreachable_mask(),
            compiled.state_ids,
        )

    # ------------------------------------------------------------------
    # Copying / renaming
    # ------------------------------------------------------------------
    def copy(self) -> "Nfa":
        """Return a structural copy of the automaton."""
        result = Nfa(self._alphabet)
        result._states = set(self._states)
        result._initial = set(self._initial)
        result._final = set(self._final)
        result._next_state = max(self._states, default=-1) + 1
        if self._delta is None:
            result._delta = None  # built from the shared dense form on demand
        else:
            result._delta = {
                src: {symbol: set(dsts) for symbol, dsts in by_state.items()}
                for src, by_state in self._delta.items()
            }
        # Same states, same transitions: the dense compilation (immutable)
        # is shared until either side mutates.
        result._dense = self._dense
        return result

    def copy_into(self, result: "Nfa", offset: Optional[int] = None) -> CopiedPart:
        """Splice a renumbered copy of this automaton into ``result``.

        States are renamed to ``offset, offset+1, ...`` (``offset`` defaults
        to ``result``'s next fresh id) and added to ``result`` together with
        all transitions, in one bulk pass over the internal tables — the
        shared helper behind ``union``/``concat``/``star``.  The caller
        decides what to do with the returned initial/final sets; nothing is
        marked initial or final in ``result``.
        """
        result._invalidate()
        if offset is None:
            offset = result._next_state
        count = len(self.states)
        mapping: Optional[Dict[State, State]] = None
        if count != self._next_state:
            # Non-contiguous state ids: rename in sorted order.
            mapping = {
                state: offset + index
                for index, state in enumerate(sorted(self.states))
            }
            rename = mapping.__getitem__
            result.states.update(mapping.values())
        else:
            # Contiguous ids 0..n-1: renaming is a plain shift.
            rename = offset.__add__
            result.states.update(range(offset, offset + count))
        for src, by_state in self.transition_table().items():
            new_src = rename(src)
            dest_by_state = result._delta.setdefault(new_src, {})
            for symbol, dsts in by_state.items():
                if mapping is not None:
                    new_dsts = {mapping[dst] for dst in dsts}
                else:
                    new_dsts = {dst + offset for dst in dsts}
                targets = dest_by_state.get(symbol)
                if targets is None:
                    dest_by_state[symbol] = new_dsts
                else:
                    targets |= new_dsts
        result._alphabet |= self._alphabet
        if result._next_state < offset + count:
            result._next_state = offset + count
        return CopiedPart(
            initial={rename(s) for s in self.initial},
            final={rename(s) for s in self.final},
        )

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @staticmethod
    def from_rows(
        alphabet: Iterable[str],
        symbols: Sequence[str],
        rows: Sequence[Sequence[int]],
        eps: Optional[Sequence[int]],
        initial: int,
        final: int,
        keep: int,
        state_ids: Sequence[State],
    ) -> "Nfa":
        """The automaton on the ``keep`` states of per-symbol bitset rows.

        Indices are dense: ``rows[k][s]`` is the bitset of successors of
        state ``s`` on ``symbols[k]`` (ascending), ``eps[s]`` its
        ε-successors (``eps`` may be ``None``), ``initial``/``final``/
        ``keep`` are bitsets, and the ascending ``state_ids[s]`` names state
        ``s`` in the result.  Every automaton the operations layer builds
        from rows goes through here.  The result carries only its dense
        form, compacted to the kept states, so it is never compiled again;
        its transition table is built on the first set-based read
        (symbol-major, ε last; sources, then destinations ascending).
        """
        from .dense import DenseNfa, iter_bits

        # One step for the build; the DenseNfa constructor charges the scan
        # of the rows, which is the work of the compaction below.
        checkpoint("automata.dense")
        if keep == (1 << len(state_ids)) - 1:
            kept: Sequence[int] = range(len(state_ids))
            slot = None  # every state kept: indices stay as they are
        else:
            kept = list(iter_bits(keep))
            slot = {s: i for i, s in enumerate(kept)}  # old index -> compacted index
        ids = tuple(state_ids[s] for s in kept)

        def compact(mask: int) -> int:
            mask &= keep
            if slot is None:
                return mask
            packed = 0
            for t in iter_bits(mask):
                packed |= 1 << slot[t]
            return packed

        labelled = list(zip(symbols, rows))
        if eps is not None:
            labelled.append((EPSILON, eps))
        used: List[str] = []
        dense_rows: List[Tuple[int, ...]] = []
        dense_eps: Optional[Tuple[int, ...]] = None
        for symbol, row in labelled:
            dense_row = tuple(row) if slot is None else tuple(compact(row[s]) for s in kept)
            if not any(dense_row):
                continue
            if symbol is EPSILON:
                dense_eps = dense_row
            else:
                used.append(symbol)
                dense_rows.append(dense_row)
        initial = compact(initial)
        final = compact(final)
        result = Nfa(alphabet)
        result._delta = None  # built from the dense form on the first read
        result._states = set(ids)
        result._initial = {ids[i] for i in iter_bits(initial)}
        result._final = {ids[i] for i in iter_bits(final)}
        result._next_state = ids[-1] + 1 if ids else 0
        result._dense = DenseNfa(
            len(ids),
            tuple(sorted(result._alphabet)),
            tuple(used),
            tuple(dense_rows),
            dense_eps,
            initial,
            final,
            ids,
        )
        return result

    @staticmethod
    def from_word(word: str) -> "Nfa":
        """Return an NFA accepting exactly ``{word}``."""
        nfa = Nfa()
        start = nfa.add_state()
        nfa.make_initial(start)
        end = nfa.add_state()
        nfa.make_final(end)
        nfa.add_word_path(start, word, end)
        return nfa

    @staticmethod
    def from_words(words: Iterable[str]) -> "Nfa":
        """Return an NFA accepting exactly the given finite set of words."""
        nfa = Nfa()
        start = nfa.add_state()
        nfa.make_initial(start)
        end = nfa.add_state()
        nfa.make_final(end)
        for word in words:
            nfa.add_word_path(start, word, end)
        return nfa

    @staticmethod
    def universal(alphabet: Iterable[str]) -> "Nfa":
        """Return an NFA accepting every word over ``alphabet`` (i.e. ``Γ*``)."""
        nfa = Nfa(alphabet)
        state = nfa.add_state()
        nfa.make_initial(state)
        nfa.make_final(state)
        for symbol in alphabet:
            nfa.add_transition(state, symbol, state)
        return nfa

    @staticmethod
    def empty_language() -> "Nfa":
        """Return an NFA with the empty language."""
        nfa = Nfa()
        state = nfa.add_state()
        nfa.make_initial(state)
        return nfa

    @staticmethod
    def epsilon_language() -> "Nfa":
        """Return an NFA accepting only the empty word."""
        nfa = Nfa()
        state = nfa.add_state()
        nfa.make_initial(state)
        nfa.make_final(state)
        return nfa

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Nfa(states={len(self.states)}, transitions={self.num_transitions()}, "
            f"initial={sorted(self.initial)}, final={sorted(self.final)})"
        )
