"""Pre-dense set-based automata algorithms, kept as differential oracles.

These are the straightforward dict-of-dict-of-set implementations that
:mod:`repro.automata.operations` and :class:`repro.automata.nfa.Nfa` used
before the integer-dense rewrite.  They are no longer on any solver path;
they exist so that

* ``tests/test_automata_dense.py`` can differential-test the dense
  implementations against an independent oracle on randomized inputs, and
* the ``automata`` workload in ``benchmarks/perf/bench_lia.py`` can measure
  the dense speedup as an in-process legacy/dense wall-time ratio.

They deliberately do not call :func:`repro.budget.checkpoint` — as oracles
they must be pure functions of their inputs, independent of any active
budget.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Iterable, Optional, Set, Tuple

from .nfa import EPSILON, Nfa, State


def legacy_accepts(nfa: Nfa, word: str) -> bool:
    """Membership by explicit ε-closure subset simulation."""
    current = nfa.epsilon_closure(nfa.initial)
    delta = nfa.transition_table()
    # repro: allow(checkpoint-coverage): legacy differential oracle, budget-free by design (see the module docstring)
    for ch in word:
        nxt: Set[State] = set()
        for state in current:
            nxt |= delta.get(state, {}).get(ch, set())
        if not nxt:
            return False
        current = nfa.epsilon_closure(nxt)
    return any(state in nfa.final for state in current)


def legacy_reachable_states(nfa: Nfa) -> Set[State]:
    """Forward reachability with an explicit set-based worklist."""
    seen: Set[State] = set(nfa.initial)
    work = deque(nfa.initial)
    # repro: allow(checkpoint-coverage): legacy differential oracle, budget-free by design (see the module docstring)
    while work:
        state = work.popleft()
        for _, dst in nfa.transitions_from(state):
            if dst not in seen:
                seen.add(dst)
                work.append(dst)
    return seen


def legacy_coreachable_states(nfa: Nfa) -> Set[State]:
    """Backward reachability from the final states."""
    predecessors: Dict[State, Set[State]] = {}
    for src, _, dst in nfa.iter_transitions():
        predecessors.setdefault(dst, set()).add(src)
    seen: Set[State] = set(nfa.final)
    work = deque(nfa.final)
    # repro: allow(checkpoint-coverage): legacy differential oracle, budget-free by design (see the module docstring)
    while work:
        state = work.popleft()
        for src in predecessors.get(state, set()):
            if src not in seen:
                seen.add(src)
                work.append(src)
    return seen


def legacy_is_empty(nfa: Nfa) -> bool:
    """Emptiness via materialised forward reachability."""
    return not (legacy_reachable_states(nfa) & nfa.final)


def legacy_trim(nfa: Nfa) -> Nfa:
    """Restriction to useful states, re-adding transitions one by one."""
    useful = legacy_reachable_states(nfa) & legacy_coreachable_states(nfa)
    result = Nfa(nfa.alphabet)
    result.states = set(useful)
    result.initial = nfa.initial & useful
    result.final = nfa.final & useful
    for src, symbol, dst in nfa.iter_transitions():
        if src in useful and dst in useful:
            result.add_transition(src, symbol, dst)
    result.states &= useful | result.initial | result.final
    if not result.states and nfa.initial & nfa.final:
        state = next(iter(nfa.initial & nfa.final))
        result.states = {state}
        result.initial = {state}
        result.final = {state}
    result._sync_state_counter()
    return result


def legacy_remove_epsilon(nfa: Nfa) -> Nfa:
    """ε-elimination by per-state frozenset closures."""
    result = Nfa(nfa.alphabet)
    result.states = set(nfa.states)
    result.initial = set(nfa.initial)
    result._sync_state_counter()
    closures: Dict[State, FrozenSet[State]] = {
        state: nfa.epsilon_closure([state]) for state in nfa.states
    }
    for state in nfa.states:
        closure = closures[state]
        if closure & nfa.final:
            result.make_final(state)
        for member in closure:
            for symbol, dst in nfa.transitions_from(member):
                if symbol is EPSILON:
                    continue
                result.add_transition(state, symbol, dst)
    return result


def legacy_determinize(
    nfa: Nfa, alphabet: Optional[Iterable[str]] = None
) -> Tuple[Nfa, Dict[FrozenSet[State], State]]:
    """Subset construction on frozensets of states."""
    sigma = set(alphabet) if alphabet is not None else set(nfa.alphabet)
    dfa = Nfa(sigma)
    subset_to_state: Dict[FrozenSet[State], State] = {}

    def state_for(subset: FrozenSet[State]) -> State:
        if subset not in subset_to_state:
            subset_to_state[subset] = dfa.add_state()
            if subset & nfa.final:
                dfa.make_final(subset_to_state[subset])
        return subset_to_state[subset]

    start = nfa.epsilon_closure(nfa.initial)
    start_state = state_for(start)
    dfa.make_initial(start_state)
    work = deque([start])
    processed: Set[FrozenSet[State]] = {start}
    by_symbol = {symbol: nfa.transitions_on(symbol) for symbol in sigma}
    # repro: allow(checkpoint-coverage): legacy differential oracle, budget-free by design (see the module docstring)
    while work:
        subset = work.popleft()
        src = state_for(subset)
        for symbol in sigma:
            on_symbol = by_symbol[symbol]
            targets: Set[State] = set()
            if on_symbol:
                for state in subset:
                    dsts = on_symbol.get(state)
                    if dsts:
                        targets |= dsts
            closure = nfa.epsilon_closure(targets)
            dst = state_for(closure)
            dfa.add_transition(src, symbol, dst)
            if closure not in processed:
                processed.add(closure)
                work.append(closure)
    return dfa, subset_to_state


def legacy_complement(nfa: Nfa, alphabet: Iterable[str]) -> Nfa:
    """Complement through the frozenset subset construction."""
    sigma = set(alphabet)
    dfa, _ = legacy_determinize(nfa, sigma)
    result = dfa.copy()
    result.final = set(dfa.states) - set(dfa.final)
    return result


def legacy_intersection(left: Nfa, right: Nfa) -> Nfa:
    """Fully materialised pair-product construction."""
    left_nf = legacy_remove_epsilon(left) if left.has_epsilon() else left
    right_nf = legacy_remove_epsilon(right) if right.has_epsilon() else right
    result = Nfa(left_nf.alphabet & right_nf.alphabet)
    pair_to_state: Dict[Tuple[State, State], State] = {}

    def state_for(pair: Tuple[State, State]) -> State:
        if pair not in pair_to_state:
            pair_to_state[pair] = result.add_state()
            if pair[0] in left_nf.final and pair[1] in right_nf.final:
                result.make_final(pair_to_state[pair])
        return pair_to_state[pair]

    work: deque = deque()
    # repro: allow(checkpoint-coverage): legacy differential oracle, budget-free by design (see the module docstring)
    for p in left_nf.initial:
        for q in right_nf.initial:
            state = state_for((p, q))
            result.make_initial(state)
            work.append((p, q))
    seen: Set[Tuple[State, State]] = set(
        (p, q) for p in left_nf.initial for q in right_nf.initial
    )
    # repro: allow(checkpoint-coverage): legacy differential oracle, budget-free by design (see the module docstring)
    while work:
        p, q = work.popleft()
        src = state_for((p, q))
        left_on = left_nf.transitions_map(p)
        right_on = right_nf.transitions_map(q)
        if len(right_on) < len(left_on):
            common = right_on.keys() & left_on.keys()
        else:
            common = left_on.keys() & right_on.keys()
        for symbol in common:
            for p_dst in left_on[symbol]:
                for q_dst in right_on[symbol]:
                    dst_pair = (p_dst, q_dst)
                    dst = state_for(dst_pair)
                    result.add_transition(src, symbol, dst)
                    if dst_pair not in seen:
                        seen.add(dst_pair)
                        work.append(dst_pair)
    return result


def legacy_intersection_empty(left: Nfa, right: Nfa) -> bool:
    """Product emptiness by building and trimming the whole product."""
    return legacy_is_empty(legacy_intersection(left, right))


def legacy_difference(left: Nfa, right: Nfa, alphabet: Iterable[str]) -> Nfa:
    """Difference via complementation of the right operand."""
    return legacy_intersection(left, legacy_complement(right, alphabet))


def legacy_is_subset(
    left: Nfa, right: Nfa, alphabet: Optional[Iterable[str]] = None
) -> bool:
    """Inclusion by materialising the difference automaton."""
    sigma = set(alphabet) if alphabet is not None else left.alphabet | right.alphabet
    return legacy_is_empty(legacy_trim(legacy_difference(left, right, sigma)))
