"""Parikh formulae of tag automata (§4, eq. (1)–(2), Appendix A).

Given a tag automaton ``T``, :class:`ParikhEncoding` builds the LIA formula
``PF(T)`` over the Parikh images of its runs, and the *Parikh tag formula*
``PF_tag(T)`` which additionally exposes one counter per tag (the
``#⟨tag⟩`` variables used by the constraint encodings).

The eager part follows Appendix A:

* per state ``q``: variables ``γI_q`` and ``γF_q`` marking the first/last
  state of the run,
* per transition ``t``: a counter ``#t``,
* Kirchhoff flow-conservation constraints.

Appendix A's spanning-tree part φ_Span (eq. 37–39), which rules out
disconnected cycles, is replaced by *entry constraints*: for a state set
``S``,

    Σ_{t inside S} #t ≥ 1  →  Σ_{t entering S} #t + Σ_{q ∈ S∩I} γI_q ≥ 1.

Every real run satisfies each of them, for any ``S``: a run that uses a
transition inside ``S`` either starts in ``S`` or enters it.  A *master*
encoding (``connectivity=True``) carries one per cyclic SCC, which is exact
when every SCC is a single state or a simple cycle (flat languages).  It
also carries a support literal ``#t ≤ 0 ∨ #t ≥ 1`` per transition that is
not a self-loop, so every complete assignment of the SAT search fixes
which transitions the run uses (the split the σ depths used to provide).
Without them, the linear relaxation of a complete assignment may route the
run's one unit of flow fractionally through parallel transitions, and the
final integer check then meets LP-feasible, mod-k-infeasible polyhedra
that branch-and-bound cannot settle.

A model may still use a cycle not connected to the run (inside a
non-flat SCC, or in an encoding without these constraints).
:func:`connectivity_cuts` finds each such weak component ``C`` of the used
transitions and returns the entry constraint of ``C``'s state set, which
the current model violates.  The solver adds these cuts on demand until a
model is connected; as each cut rules out its state set as a disconnected
component for good, finitely many suffice.

Every encoding instance has a ``prefix`` so that several Parikh formulae over
the same automaton can coexist in one LIA formula (needed for the two runs
``#1`` / ``#2`` of the ¬contains reduction, §6.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Dict, List, Optional, Sequence, Tuple

from ..automata.flatness import graph_sccs
from ..budget import checkpoint
from ..lia import Formula, LinExpr, conj, disj, eq, ge, implies, le, var
from .tag_automaton import TagAutomaton, TagTransition
from .tags import Tag


@dataclass
class ParikhEncoding:
    """The Parikh (tag) formula of a tag automaton plus its variable map."""

    automaton: TagAutomaton
    prefix: str = ""

    #: formula PF_tag(T); populated by :func:`encode`
    formula: Formula = None
    #: LIA variable name of each transition counter (parallel to automaton.transitions)
    transition_vars: List[str] = field(default_factory=list)
    #: LIA variable name of each tag counter
    tag_vars: Dict[Tag, str] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Variable names
    # ------------------------------------------------------------------
    def transition_var(self, index: int) -> str:
        return f"{self.prefix}#t{index}"

    def gamma_initial(self, state: int) -> str:
        return f"{self.prefix}@gi{state}"

    def gamma_final(self, state: int) -> str:
        return f"{self.prefix}@gf{state}"

    def tag_var(self, tag: Tag) -> str:
        return tag.var_name(self.prefix)

    def tag_count(self, tag: Tag) -> LinExpr:
        """Return the LIA expression counting occurrences of ``tag``.

        Tags that never occur on any transition count as the constant 0, so
        formulae may freely reference tags that a particular automaton does
        not use.
        """
        name = self.tag_vars.get(tag)
        if name is None:
            return LinExpr.constant(0)
        return LinExpr.var(name)


def encode(automaton: TagAutomaton, prefix: str = "", connectivity: bool = False) -> ParikhEncoding:
    """Build ``PF_tag(automaton)`` and return the resulting encoding object.

    ``connectivity`` adds the SCC entry constraints and support literals
    of a master encoding (see the module docstring).
    """
    enc = ParikhEncoding(automaton=automaton, prefix=prefix)
    transitions = automaton.transitions
    enc.transition_vars = [enc.transition_var(i) for i in range(len(transitions))]

    parts: List[Formula] = []

    # (34) φ_Init: exactly one first state, and only initial states qualify.
    initial_terms: List[LinExpr] = []
    for state in sorted(automaton.states):
        gi = var(enc.gamma_initial(state))
        if state in automaton.initial:
            parts.append(ge(gi, 0))
            parts.append(le(gi, 1))
            initial_terms.append(gi)
        else:
            parts.append(eq(gi, 0))
    if initial_terms:
        parts.append(eq(LinExpr.sum_of(initial_terms), 1))
    else:
        # No initial state at all: the automaton has no accepting run.
        parts.append(eq(LinExpr.constant(0), 1))

    # (35) φ_Fin: only final states may be last.
    for state in sorted(automaton.states):
        gf = var(enc.gamma_final(state))
        if state in automaton.final:
            parts.append(ge(gf, 0))
            parts.append(le(gf, 1))
        else:
            parts.append(eq(gf, 0))

    # Transition counters are non-negative.
    incoming: Dict[int, List[int]] = {state: [] for state in automaton.states}
    outgoing: Dict[int, List[int]] = {state: [] for state in automaton.states}
    for index, transition in enumerate(transitions):
        parts.append(ge(var(enc.transition_vars[index]), 0))
        incoming[transition.dst].append(index)
        outgoing[transition.src].append(index)

    # (36) φ_Kirch: flow conservation at every state.
    for state in sorted(automaton.states):
        checkpoint("parikh.encode")
        inflow = LinExpr.sum_of([var(enc.gamma_initial(state))] + [var(enc.transition_vars[i]) for i in incoming[state]])
        outflow = LinExpr.sum_of([var(enc.gamma_final(state))] + [var(enc.transition_vars[i]) for i in outgoing[state]])
        parts.append(eq(inflow, outflow))

    if connectivity:
        parts.extend(_connectivity_constraints(enc, outgoing))

    # (2) tag counters: #tag = Σ { #t | tag ∈ tags(t) }.
    tag_to_transitions: Dict[Tag, List[int]] = {}
    for index, transition in enumerate(transitions):
        for tag in transition.tags:
            tag_to_transitions.setdefault(tag, []).append(index)
    for tag, indices in sorted(tag_to_transitions.items(), key=lambda item: repr(item[0])):
        name = enc.tag_var(tag)
        enc.tag_vars[tag] = name
        total = LinExpr.sum_of(var(enc.transition_vars[i]) for i in indices)
        parts.append(eq(var(name), total))

    enc.formula = conj(parts)
    return enc


def _connectivity_constraints(enc: ParikhEncoding, outgoing: Dict[int, List[int]]) -> List[Formula]:
    """The entry constraint of every cyclic SCC and the support literals."""
    transitions = enc.automaton.transitions
    graph = {
        state: [transitions[i].dst for i in outgoing[state]]
        for state in sorted(enc.automaton.states)
    }
    sccs = sorted((sorted(scc) for scc in graph_sccs(graph)), key=lambda scc: scc[0])
    parts = _entry_constraints(enc, sccs)
    for index, transition in enumerate(transitions):
        if transition.src != transition.dst:
            count = var(enc.transition_vars[index])
            parts.append(disj([le(count, 0), ge(count, 1)]))
    return parts


def _entry_constraints(enc: ParikhEncoding, blocks: Sequence[Collection[int]]) -> List[Formula]:
    """The entry constraint of every block (a state set) with an inside transition.

    ``Σ_{t inside S} #t ≥ 1 → Σ_{t entering S} #t + Σ_{q ∈ S∩I} γI_q ≥ 1``
    holds on every real run; the blocks must be pairwise disjoint.
    """
    block_of = {state: position for position, block in enumerate(blocks) for state in block}
    inside: List[List[LinExpr]] = [[] for _ in blocks]
    entering: List[List[LinExpr]] = [[] for _ in blocks]
    for index, transition in enumerate(enc.automaton.transitions):
        position = block_of.get(transition.dst)
        if position is None:
            continue
        side = inside if block_of.get(transition.src) == position else entering
        side[position].append(var(enc.transition_vars[index]))
    constraints: List[Formula] = []
    for position, block in enumerate(blocks):
        if not inside[position]:
            continue
        starts = [var(enc.gamma_initial(q)) for q in sorted(block) if q in enc.automaton.initial]
        constraints.append(
            implies(
                ge(LinExpr.sum_of(inside[position]), 1),
                ge(LinExpr.sum_of(entering[position] + starts), 1),
            )
        )
    return constraints


# ----------------------------------------------------------------------
# Reading a model: the used transitions, their components and Euler trails
# ----------------------------------------------------------------------
class _Support:
    """The transitions a model uses, read once for both model consumers."""

    def __init__(self, enc: ParikhEncoding, model) -> None:
        self.transitions = enc.automaton.transitions
        #: used transition -> count not yet walked
        self.remaining: Dict[int, int] = {}
        self.valid = True
        for index, name in enumerate(enc.transition_vars):
            value = model.get(name, 0)
            if value < 0:
                self.valid = False
            elif value:
                self.remaining[index] = value
        self.start: Optional[int] = None
        for state in sorted(enc.automaton.initial):
            if model.get(enc.gamma_initial(state), 0) == 1:
                self.start = state
                break
        #: state -> used transitions leaving it
        self.outgoing: Dict[int, List[int]] = {}
        #: state -> states it shares a used transition with
        self.neighbours: Dict[int, List[int]] = {}
        for index in self.remaining:
            transition = self.transitions[index]
            self.outgoing.setdefault(transition.src, []).append(index)
            self.neighbours.setdefault(transition.src, []).append(transition.dst)
            self.neighbours.setdefault(transition.dst, []).append(transition.src)

    def components(self) -> List[List[int]]:
        """The state sets of the weak components of the used transitions.

        Counts play no part: a component is found in time linear in its
        transitions, however often the model claims to use them.
        """
        seen = set()
        components: List[List[int]] = []
        for root in sorted(self.neighbours):
            if root in seen:
                continue
            seen.add(root)
            stack, members = [root], []
            while stack:
                state = stack.pop()
                members.append(state)
                for other in self.neighbours[state]:
                    if other not in seen:
                        seen.add(other)
                        stack.append(other)
            components.append(sorted(members))
        return components

    def walk(self, start: int) -> List[int]:
        """Hierholzer's algorithm: consume an Euler trail from ``start``.

        Returns the trail's transitions in order; ``remaining`` keeps what
        the trail could not reach.
        """
        stack: List[Tuple[int, Optional[int]]] = [(start, None)]
        trail: List[int] = []
        while stack:
            state, _ = stack[-1]
            chosen = None
            for index in self.outgoing.get(state, ()):
                if self.remaining[index] > 0:
                    chosen = index
                    break
            if chosen is None:
                _, via = stack.pop()
                if via is not None:
                    trail.append(via)
            else:
                self.remaining[chosen] -= 1
                stack.append((self.transitions[chosen].dst, chosen))
        trail.reverse()
        return trail


def run_from_model(enc: ParikhEncoding, model) -> Optional[List[TagTransition]]:
    """Reconstruct an accepting run from a model of ``PF_tag`` (Euler path).

    The Kirchhoff constraints make the used transitions a multigraph with
    an Euler trail from the unique first state to the unique last state,
    provided it is connected; Hierholzer's algorithm recovers one such
    trail.  Returns ``None`` when the model does not encode a run: a
    negative counter, no first state, or a used cycle disconnected from the
    run (which :func:`connectivity_cuts` turns into a lemma instead).
    """
    support = _Support(enc, model)
    if not support.valid or support.start is None:
        return None
    trail = support.walk(support.start)
    if any(count > 0 for count in support.remaining.values()):
        return None
    return [enc.automaton.transitions[i] for i in trail]


def connectivity_cuts(enc: ParikhEncoding, model) -> List[Formula]:
    """Entry constraints violated by ``model``, one per disconnected component.

    Each weak component of the used transitions that misses the first
    state yields the entry constraint of its state set: false in ``model``
    (nothing used enters the component and the run does not start in it),
    yet true on every real run.  Returns an empty list when the used
    transitions are connected to the first state.
    """
    support = _Support(enc, model)
    if not support.valid or support.start is None:
        return []
    blocks = [states for states in support.components() if support.start not in states]
    return _entry_constraints(enc, blocks)
