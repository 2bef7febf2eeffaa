"""Flatness of NFAs.

Section 2 of the paper defines an NFA to be *flat* when any two runs with the
same Parikh image (counting transitions) are equal.  Structurally, a trimmed
automaton is flat iff every cycle is a simple loop and no state lies on two
distinct cycles — i.e. every strongly connected component is either a single
state without a self-structure or one simple cycle whose states have exactly
one successor inside the component.

Flatness matters for the ¬contains procedure (§6.4): only for flat automata
does a model of the Parikh formula determine the accepted word uniquely.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Mapping, Sequence, Set

from ..budget import checkpoint
from .dense import as_nfa
from .nfa import Nfa, State


def strongly_connected_components(nfa) -> List[Set[State]]:
    """Return the SCCs of the transition graph (Tarjan's algorithm, iterative)."""
    nfa = as_nfa(nfa)
    graph: Dict[State, List[State]] = {state: [] for state in nfa.states}
    for src, _, dst in nfa.iter_transitions():
        graph.setdefault(src, []).append(dst)
        graph.setdefault(dst, [])
    return graph_sccs(graph)


def graph_sccs(graph: Mapping[Hashable, Sequence[Hashable]]) -> List[Set]:
    """The SCCs of a successor map, by iterative Tarjan (no recursion).

    Every node of the graph must be a key of ``graph``.  Components come
    out in reverse topological order (a component before any component
    that reaches it); each step of the search is one budget step.
    """
    index_counter = 0
    indices: Dict[Hashable, int] = {}
    lowlinks: Dict[Hashable, int] = {}
    on_stack: Set[Hashable] = set()
    stack: List[Hashable] = []
    components: List[Set] = []

    for root in graph:
        if root in indices:
            continue
        work: List[tuple] = [(root, iter(graph[root]))]
        indices[root] = lowlinks[root] = index_counter
        index_counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            checkpoint("automata.scc")
            node, successors = work[-1]
            advanced = False
            for succ in successors:
                if succ not in indices:
                    indices[succ] = lowlinks[succ] = index_counter
                    index_counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(graph[succ])))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlinks[node] = min(lowlinks[node], indices[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlinks[parent] = min(lowlinks[parent], lowlinks[node])
            if lowlinks[node] == indices[node]:
                component: Set = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                components.append(component)
    return components


def is_flat(nfa: Nfa) -> bool:
    """Decide whether the (trimmed) automaton is flat.

    The check is structural: inside every non-trivial SCC each state must
    have exactly one outgoing transition that stays inside the SCC, and the
    SCC must form a single simple cycle.  Single states with several parallel
    self-loop symbols are *not* flat (two runs ``ab`` and ``ba`` share a
    Parikh image), so parallel intra-SCC transitions also violate flatness.
    Accepts either automaton form.
    """
    trimmed = as_nfa(nfa).trim()
    components = strongly_connected_components(trimmed)
    for component in components:
        internal_out: Dict[State, int] = {state: 0 for state in component}
        has_internal_edge = False
        for src, _, dst in trimmed.iter_transitions():
            if src in component and dst in component:
                internal_out[src] += 1
                has_internal_edge = True
        if not has_internal_edge:
            continue
        # Every state of a cyclic SCC must have exactly one internal successor
        # transition — this forces the SCC to be one simple (non-nested) loop
        # without parallel edges.
        if any(count != 1 for count in internal_out.values()):
            return False
    return True


def flat_witness(nfa) -> str:
    """Return a human-readable explanation of why ``nfa`` is or is not flat."""
    trimmed = as_nfa(nfa).trim()
    for component in strongly_connected_components(trimmed):
        internal = [
            (src, symbol, dst)
            for src, symbol, dst in trimmed.iter_transitions()
            if src in component and dst in component
        ]
        if not internal:
            continue
        out_degree: Dict[State, int] = {state: 0 for state in component}
        for src, _, _ in internal:
            out_degree[src] += 1
        offenders = [state for state, degree in out_degree.items() if degree != 1]
        if offenders:
            return (
                f"not flat: component {sorted(component)} has states {sorted(offenders)} "
                f"with internal out-degree != 1"
            )
    return "flat"
