"""Tag automata (§4) and the basic constructions on them.

A tag automaton (TA) is an NFA whose transitions carry *sets of tags* instead
of symbols.  Tags do not influence which runs exist; they are only counted.
The two constructions defined here follow §4:

* :func:`len_tag` — ``LenTag_x(A)``: lift an NFA for the language of variable
  ``x`` to a TA whose transitions carry ⟨S, a⟩ and ⟨L, x⟩ tags,
* :func:`eps_concat` — ε-concatenation of TAs (used to build the automaton
  ``A◦`` encoding an assignment of all variables).

Every transition also records the *base transition identifier* it originates
from; the identifier survives the copy-based constructions of §5–§6 and is
what the ``EqualWords`` predicate of §6.4 and the witness reconstruction use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..automata.dense import as_nfa
from ..automata.nfa import EPSILON, Nfa
from .tags import Tag, length_tag, symbol_tag

State = int


@dataclass(frozen=True)
class TagTransition:
    """A transition ``src --{tags}--> dst`` of a tag automaton.

    ``base_id`` identifies the transition of the underlying ε-concatenation
    ``A◦`` this transition is a copy of (``None`` for structural transitions
    such as copy-tag self-loops), and ``variable`` names the string variable
    whose automaton the transition belongs to (``None`` for ε-connectors).
    """

    src: State
    tags: FrozenSet[Tag]
    dst: State
    base_id: Optional[int] = None
    variable: Optional[str] = None

    def symbol(self) -> Optional[str]:
        for tag in self.tags:
            if tag.kind == "S":
                return tag.args[0]
        return None


class TagAutomaton:
    """A tag automaton ``(Q, Δ, I, F)`` over a set of tags."""

    def __init__(self) -> None:
        self.states: Set[State] = set()
        self.initial: Set[State] = set()
        self.final: Set[State] = set()
        self.transitions: List[TagTransition] = []

    # ------------------------------------------------------------------
    def add_state(self, state: Optional[State] = None) -> State:
        if state is None:
            state = max(self.states, default=-1) + 1
        self.states.add(state)
        return state

    def add_transition(
        self,
        src: State,
        tags: Iterable[Tag],
        dst: State,
        base_id: Optional[int] = None,
        variable: Optional[str] = None,
    ) -> TagTransition:
        transition = TagTransition(src, frozenset(tags), dst, base_id, variable)
        self.states.add(src)
        self.states.add(dst)
        self.transitions.append(transition)
        return transition

    def tags(self) -> Set[Tag]:
        """Return the set of all tags appearing on some transition."""
        result: Set[Tag] = set()
        for transition in self.transitions:
            result |= transition.tags
        return result

    def size(self) -> int:
        return len(self.states) + len(self.transitions)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TagAutomaton(states={len(self.states)}, transitions={len(self.transitions)}, "
            f"initial={sorted(self.initial)}, final={sorted(self.final)})"
        )


def len_tag(nfa, variable: str) -> TagAutomaton:
    """``LenTag_x(A)`` (§4): tag every transition with ⟨S, a⟩ and ⟨L, x⟩.

    Accepts either automaton form.  Epsilon transitions of the input are not
    supported (variable automata are ε-free after regex compilation); they
    would break length counting.
    """
    nfa = as_nfa(nfa)
    ta = TagAutomaton()
    for state in nfa.states:
        ta.add_state(state)
    ta.initial = set(nfa.initial)
    ta.final = set(nfa.final)
    for src, symbol, dst in nfa.iter_transitions():
        if symbol is EPSILON:
            raise ValueError("len_tag expects an epsilon-free NFA; remove epsilons first")
        ta.add_transition(src, {symbol_tag(symbol), length_tag(variable)}, dst, variable=variable)
    return ta


@dataclass
class ConcatInfo:
    """Book-keeping produced by :func:`eps_concat`.

    ``order`` is the variable order ≼ used for the concatenation, ``state_var``
    maps every state of ``A◦`` to the variable whose automaton it belongs to,
    and ``base_ids`` gives each non-ε transition of ``A◦`` a stable identifier.
    """

    order: Tuple[str, ...]
    state_var: Dict[State, str] = field(default_factory=dict)
    #: base transition id -> (variable, original src, symbol, original dst);
    #: identifies the NFA transition each A◦ transition copies, which lets two
    #: encodings built over the same variable NFAs be linked (EqualWords, §6.4)
    base_key: Dict[int, Tuple[str, State, Optional[str], State]] = field(default_factory=dict)


def eps_concat(parts: Sequence[Tuple[str, TagAutomaton]]) -> Tuple[TagAutomaton, ConcatInfo]:
    """ε-concatenate the given (variable, TA) pairs in order (§4).

    States are renumbered to be disjoint.  The returned :class:`ConcatInfo`
    records which variable every state belongs to; ε-connector transitions
    have an empty tag set, ``base_id=None`` and ``variable=None``.
    """
    result = TagAutomaton()
    info = ConcatInfo(order=tuple(name for name, _ in parts))
    offset = 0
    previous_finals: List[State] = []
    base_counter = 0
    # repro: allow(checkpoint-coverage): adds |F|·|I| ε-connectors, each a transition of the automaton that parikh.encode then walks under its per-state checkpoint
    for index, (name, part) in enumerate(parts):
        mapping = {state: offset + position for position, state in enumerate(sorted(part.states))}
        offset += len(part.states)
        for state in part.states:
            new_state = mapping[state]
            result.add_state(new_state)
            info.state_var[new_state] = name
        if index == 0:
            result.initial = {mapping[s] for s in part.initial}
        for transition in part.transitions:
            result.add_transition(
                mapping[transition.src],
                transition.tags,
                mapping[transition.dst],
                base_id=base_counter,
                variable=name,
            )
            info.base_key[base_counter] = (name, transition.src, transition.symbol(), transition.dst)
            base_counter += 1
        if previous_finals:
            for final_state in previous_finals:
                for initial_state in (mapping[s] for s in part.initial):
                    result.add_transition(final_state, frozenset(), initial_state)
        previous_finals = [mapping[s] for s in part.final]
        if index == len(parts) - 1:
            result.final = set(previous_finals)
    if not parts:
        # Degenerate case: no variables at all; single accepting state.
        state = result.add_state()
        result.initial = {state}
        result.final = {state}
    return result, info


def concat_for_variables(
    automata: Dict[str, Nfa], variables: Sequence[str]
) -> Tuple[TagAutomaton, ConcatInfo]:
    """Build ``A◦`` for the given variables: ε-concatenation of their LenTag TAs.

    ``variables`` fixes the linear order ≼; duplicates are ignored (every
    variable contributes exactly one copy of its automaton).
    """
    seen: List[str] = []
    for name in variables:
        if name not in seen:
            seen.append(name)
    parts = [(name, len_tag(automata[name], name)) for name in seen]
    return eps_concat(parts)
