"""A stabilization-style solver for word equations with regular constraints.

Z3-Noodler handles ``E ∧ R`` by the stabilization procedure of [24]: word
equations are eliminated by *noodlification* — aligning the automata of one
side with the concatenation of automata of the other side and splitting the
alignment at the variable boundaries — producing a disjunction of refined
regular constraints (a monadic decomposition) plus a substitution map.

This module runs that elimination on every equation shape the normal form
produces:

* trivial equations (``x = y``, ``ε = v₁ · … · v_n``, ground equations);
* ``x₁ … x_m = y₁ … y_n`` after cancelling common head and tail variables
  (``u · x = v · x ⇔ u = v``).  The shorter side is cut at a chosen state at
  every boundary of either side; the other side only where a boundary of
  the shorter one falls inside it.  Each stretch where one variable of each
  side overlaps is one segment, refined to the product of the two automata
  between the chosen states.  A variable is substituted by the segments it
  spans (a segment that is a whole variable keeps that variable's name, the
  others get fresh ``%seg`` variables), so later equations are aligned
  against the refined segments — the work list of [24].  On the
  assignment shape ``x = y₁ · … · y_k`` this is the classic split of
  ``x``'s automaton into ``k`` parts.

A variable still repeated after cancellation (``x · y = y · x``) is aligned
as one copy per occurrence, and the equations that make the copies equal
go back on the work list: the stabilization loop of [24].  That loop need
not converge, so a branch runs it at most once per equation of the system.
A branch past that bound, an equation whose alignment yields more than
``max_noodles`` noodles and a system whose branches exceed ``max_branches``
are not decided: the result names the first limit that dropped a branch,
and the string solver answers ``UNKNOWN`` — as Z3-Noodler runs out of
resources on non-chain-free inputs (§8.2 of the paper).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import count
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..automata import ProductWalk, intersection, intersection_empty, remove_epsilon
from ..automata.dense import iter_bits
from ..automata.minimization import minimize
from ..automata.nfa import Nfa
from ..budget import checkpoint

VarEquation = Tuple[Tuple[str, ...], Tuple[str, ...]]

#: monadic-decomposition branches explored per equation system: reduced
#: (extended-function) cases align structural splits of one haystack against
#: each other and need the room (in ``pipelines.generate(36, seed=12)``,
#: ``pipe-2`` needs 155 branches and ``pipe-32`` 166; at 128 both end
#: undecided), while unreduced systems stay far below it
_MAX_BRANCHES = 512
#: noodles per equation split
_MAX_NOODLES = 256


class EquationTooHard(Exception):
    """Raised when an equation falls outside the supported fragment."""


@dataclass
class Branch:
    """One disjunct of the monadic decomposition.

    ``automata`` constrains the remaining variables; ``substitution`` maps
    every eliminated variable to the concatenation of remaining variables it
    was replaced by (used to reconstruct its value from a model).
    """

    automata: Dict[str, Nfa]
    substitution: Dict[str, Tuple[str, ...]] = field(default_factory=dict)

    def expand(self, variable: str, seen: Optional[Set[str]] = None) -> Tuple[str, ...]:
        """Fully expand a variable through the substitution map."""
        seen = seen or set()
        if variable in seen:
            raise ValueError(f"cyclic substitution through {variable}")
        if variable not in self.substitution:
            return (variable,)
        result: List[str] = []
        for part in self.substitution[variable]:
            result.extend(self.expand(part, seen | {variable}))
        return tuple(result)

    def expand_term(self, term: Sequence[str]) -> Tuple[str, ...]:
        result: List[str] = []
        for variable in term:
            result.extend(self.expand(variable))
        return tuple(result)


@dataclass
class DecompositionResult:
    """Outcome of the equation-elimination phase."""

    branches: List[Branch]
    #: the first limit that dropped a branch (the noodle cap, the branch cap
    #: or a repeated variable); ``None`` when no branch was dropped
    gave_up: Optional[str] = None

    @property
    def complete(self) -> bool:
        return self.gave_up is None


#: one alignment: ``(i, j, refined)`` for each segment where target ``i``
#: overlaps part ``j``, in word order
Noodle = List[Tuple[int, int, Nfa]]

#: a segment's endpoints: ``(i, start, end, j, part_start, part_end)`` for
#: target ``i`` between state indices ``start`` and ``end`` and part ``j``
#: between the state masks ``part_start`` and ``part_end``
SegmentKey = Tuple[int, int, int, int, int, int]


# ----------------------------------------------------------------------
# Noodlification of t1 ... tm = p1 ... pn
# ----------------------------------------------------------------------
def noodlify(
    targets: Sequence[Nfa], parts: Sequence[Nfa], max_noodles: int = _MAX_NOODLES
) -> List[Noodle]:
    """Solve ``t₁ … t_m = p₁ … p_n`` by aligning the two sides.

    Returns the noodles: any choice of one word per segment of a noodle
    solves the equation (each segment's language lies in its target's and
    its part's between the chosen cut states), and together the noodles
    cover every solution.  Targets are cut at a chosen state at every
    boundary, a part only where a target ends inside it.  Raises
    :class:`EquationTooHard` as soon as more than ``max_noodles`` noodles
    are found.

    Each segment is the product of its part and its target between the
    chosen states.  The pair walk of a product depends only on where it
    starts, so one :class:`ProductWalk` per ``(target, start state, part,
    part start)`` serves every segment from there: a segment is its final
    mask and the states that reach it, empty exactly when that mask is 0.
    Only the segments of the returned noodles are materialised, each once.
    """
    targets = [_cut_ready(nfa, len(parts) - 1, max_noodles).dense() for nfa in targets]
    parts = [remove_epsilon(nfa) if nfa.has_epsilon() else nfa for nfa in parts]
    dense = [nfa.dense() for nfa in parts]
    last_target, last_part = len(targets) - 1, len(parts) - 1

    # Target endpoints are state indices; part endpoints are masks, the
    # part's initial or final set where the segment starts or ends with it.
    # Endpoint views share the rows of the whole automaton.
    walks: Dict[Tuple[int, int, int, int], ProductWalk] = {}
    #: each segment's walk, final mask and co-reachable states (``None``
    #: marks an empty one), computed once per call
    segments: Dict[SegmentKey, Optional[Tuple[ProductWalk, int, int]]] = {}

    def refine(key: SegmentKey) -> Optional[Tuple[ProductWalk, int, int]]:
        if key not in segments:
            i, start, end, j, part_start, part_end = key
            walk = walks.get((i, start, j, part_start))
            if walk is None:
                # The walk reads only the initial states of its operands.
                part = parts[j]
                if part_start != dense[j].initial:
                    part = dense[j].with_endpoints(part_start, dense[j].final)
                target = targets[i].with_endpoints(1 << start, targets[i].final)
                walk = walks[i, start, j, part_start] = ProductWalk(part, target)
            # Every product state is reachable and the finals survive
            # trimming, so a segment is empty exactly when no pair is final.
            final = walk.final_mask(part_end, 1 << end)
            segments[key] = (walk, final, walk.coreachable(final)) if final else None
        return segments[key]

    # Depth first over the cut points, each one's choices in ascending
    # order: an empty segment prunes every alignment that extends it.
    #: the alignments found, each a noodle with segment keys for automata
    found: List[List[Tuple[int, int, SegmentKey]]] = []

    def extend(
        i: int, start: int, j: int, part_start: int, chosen: List[Tuple[int, int, SegmentKey]]
    ) -> None:
        # One budget step per alignment prefix; each walk, finish and
        # co-reachability computed below charges its own.
        checkpoint("eqsolver.noodlify")
        if j < last_part or i == last_target:
            # Part j ends inside target i (the last part with the last target).
            ends = range(targets[i].n) if j < last_part else iter_bits(targets[i].final)
            for end in ends:
                key = (i, start, end, j, part_start, dense[j].final)
                segment = refine(key)
                if segment is None:
                    continue
                walk, _, keep = segment
                was_cut = bool(chosen) and chosen[-1][1] == j
                if was_cut and j < last_part and not walk.has_edge(keep):
                    # The rest of a cut part is empty: it ends where the
                    # target that cut it ended, an alignment also found by
                    # ending the part first and cutting the next one.
                    continue
                noodle = chosen + [(i, j, key)]
                if j < last_part:
                    extend(i, end, j + 1, dense[j + 1].initial, noodle)
                    continue
                found.append(noodle)
                if len(found) > max_noodles:
                    raise EquationTooHard(f"noodle cap ({max_noodles})")
        if i < last_target:
            # Target i ends inside part j, which is cut at a chosen state.
            for end in iter_bits(targets[i].final):
                for cut in range(dense[j].n):
                    key = (i, start, end, j, part_start, 1 << cut)
                    if refine(key) is None:
                        continue
                    for following in iter_bits(targets[i + 1].initial):
                        extend(i + 1, following, j, 1 << cut, chosen + [(i, j, key)])

    for start in iter_bits(targets[0].initial):
        extend(0, start, 0, dense[0].initial, [])

    # A segment's Nfa is shared by every returned noodle through it.
    built: Dict[SegmentKey, Nfa] = {}

    def build(key: SegmentKey) -> Nfa:
        if key not in built:
            walk, final, keep = segments[key]
            built[key] = walk.to_nfa(final, keep)
        return built[key]

    return [[(i, j, build(key)) for i, j, key in noodle] for noodle in found]


def _cut_ready(target: Nfa, cuts: int, max_noodles: int) -> Nfa:
    """``target`` without ε-moves, minimized when that shrinks its cut choices.

    The choices grow exponentially with the boundaries that may fall inside
    a target; a minimized target often collapses them (a Thompson-compiled
    ``(a|b)+`` has 6 states where 2 suffice).  The subset construction is
    capped, so an adversarial target whose DFA explodes costs no more than
    the walk up to its noodle cap.
    """
    # One budget step per target prepared; the minimization charges its own.
    checkpoint("eqsolver.noodlify")
    target = remove_epsilon(target) if target.has_epsilon() else target

    def choices(nfa: Nfa) -> int:
        return len(nfa.initial) * len(nfa.states) ** cuts * len(nfa.final)

    if choices(target) > max_noodles:
        reduced = minimize(target, max_states=4 * len(target.states) + 16)
        if choices(reduced) < choices(target):
            return reduced
    return target


# ----------------------------------------------------------------------
# The decomposition driver
# ----------------------------------------------------------------------
def _cancel(lhs: Tuple[str, ...], rhs: Tuple[str, ...]) -> VarEquation:
    """Cancel the variables both sides start or end with (``u·x = v·x ⇔ u = v``)."""
    while lhs and rhs and lhs[0] == rhs[0]:
        lhs, rhs = lhs[1:], rhs[1:]
    while lhs and rhs and lhs[-1] == rhs[-1]:
        lhs, rhs = lhs[:-1], rhs[:-1]
    return lhs, rhs


def _substitute(
    branch: Branch, lhs: Sequence[str], rhs: Sequence[str], noodle: Noodle, fresh: Iterator[str]
) -> Tuple[Branch, List[VarEquation]]:
    """``branch`` with each variable of ``lhs = rhs`` replaced by the
    segments of ``noodle`` it spans, and the equations that make every
    further occurrence of a repeated variable span what its first one does.

    A segment that is a whole variable occurring once keeps that variable's
    name (the part's first), every other segment gets a fresh one.
    """
    sides = list(lhs) + list(rhs)
    once = {name for name, count in Counter(sides).items() if count == 1}
    spans = Counter(i for i, _, _ in noodle) + Counter(len(lhs) + j for _, j, _ in noodle)
    spanned: List[List[str]] = [[] for _ in sides]
    automata = dict(branch.automata)
    for i, j, refined in noodle:
        whole = [k for k in (len(lhs) + j, i) if spans[k] == 1 and sides[k] in once]
        name = sides[whole[0]] if whole else next(fresh)
        automata[name] = refined
        spanned[i].append(name)
        spanned[len(lhs) + j].append(name)
    substitution = dict(branch.substitution)
    equated: List[VarEquation] = []
    for variable, names in zip(sides, spanned):
        if variable in substitution:
            equated.append((substitution[variable], tuple(names)))
        elif names != [variable]:
            substitution[variable] = tuple(names)
    return Branch(automata, substitution), equated


def _refuted_by_consequences(
    equations: Sequence[VarEquation], automata: Dict[str, Nfa]
) -> bool:
    """Cheap sound refutation: same-variable structural consequences.

    Two equations ``x = T₁`` and ``x = T₂`` imply ``T₁ = T₂``; after
    cancelling the common prefix and suffix *variables*, a remainder of the
    shape ``u = v`` with ``L(u) ∩ L(v) = ∅`` — or ``u = ε`` with
    ``ε ∉ L(u)`` — is unsatisfiable.  This catches the fixed-point patterns
    the extended-function reductions produce (``s = x·"a"·y ∧ s = x·"b"·y``
    from ``str.replace(s, "a", "b") = s``) without exploring the
    exponential alignment space of the splits.
    """
    by_var: Dict[str, List[Tuple[str, ...]]] = {}
    for lhs, rhs in equations:
        if len(lhs) == 1 and lhs[0] not in rhs:
            by_var.setdefault(lhs[0], []).append(rhs)
        if len(rhs) == 1 and rhs[0] not in lhs:
            by_var.setdefault(rhs[0], []).append(lhs)
    for sides in by_var.values():
        for i in range(len(sides)):
            for j in range(i + 1, len(sides)):
                left, right = _cancel(sides[i], sides[j])
                if not left and not right:
                    continue
                if not left or not right:
                    remainder = right or left
                    if any(
                        name in automata and not automata[name].accepts("")
                        for name in remainder
                    ):
                        return True
                    continue
                if len(left) == 1 and len(right) == 1:
                    one, other = automata.get(left[0]), automata.get(right[0])
                    if one is None or other is None:
                        continue
                    # Lazy consequence check: emptiness of the product is
                    # decided on the fly (first accepting pair), without
                    # materialising the intersection.
                    if intersection_empty(one, other):
                        return True
    return False


def decompose(
    equations: Sequence[VarEquation],
    automata: Dict[str, Nfa],
    max_branches: int = _MAX_BRANCHES,
    max_noodles: int = _MAX_NOODLES,
) -> DecompositionResult:
    """Eliminate the given equations, producing a monadic decomposition.

    The result is a list of branches (disjuncts); no branch and no
    ``gave_up`` reason means the equations (with the regular constraints)
    are unsatisfiable.
    """
    if _refuted_by_consequences(equations, automata):
        return DecompositionResult(branches=[])

    #: pending equations, the branch, and the rounds of the stabilization
    #: loop on its path
    work: List[Tuple[List[VarEquation], Branch, int]] = [
        (list(equations), Branch(dict(automata)), 0)
    ]
    finished: List[Branch] = []
    gave_up: Optional[str] = None
    fresh = (f"%seg{n}" for n in count())

    while work:
        checkpoint("eqsolver.decompose")
        pending, branch, rounds = work.pop()
        if not pending:
            finished.append(branch)
            continue
        equation = pending[0]
        rest = pending[1:]
        lhs, rhs = _cancel(branch.expand_term(equation[0]), branch.expand_term(equation[1]))

        # Trivial simplifications.
        if lhs == rhs:
            work.append((rest, branch, rounds))
            continue
        if not lhs or not rhs:
            # ε = v₁ … v_n: every variable of the other side is ε.
            side = lhs or rhs
            if all(branch.automata[name].accepts("") for name in side):
                new_automata = dict(branch.automata)
                substitution = dict(branch.substitution)
                for name in side:
                    new_automata[name] = Nfa.epsilon_language()
                    substitution[name] = ()
                work.append((rest, Branch(new_automata, substitution), rounds))
            continue
        if len(lhs) == 1 and len(rhs) == 1:
            x, y = lhs[0], rhs[0]
            refined = intersection(branch.automata[x], branch.automata[y], trim=True)
            if not refined.states:
                # ε in both languages would have kept the initial-and-final
                # pair: the languages share no word.
                continue  # this branch is unsatisfiable
            new_automata = dict(branch.automata)
            new_automata[x] = refined
            new_automata[y] = refined
            substitution = dict(branch.substitution)
            substitution[x] = (y,)
            work.append((rest, Branch(new_automata, substitution), rounds))
            continue

        if len(set(lhs + rhs)) < len(lhs) + len(rhs):
            # The occurrences of a repeated variable are aligned as copies
            # and equated again afterwards: the loop of [24].  It need not
            # converge (x·ab·y = y·ba·x comes back in its own shape, and
            # each round multiplies the length of the other equations), so
            # a path runs it at most once per equation of the system.
            if rounds == len(equations):
                gave_up = gave_up or "repeated variable"
                continue
            rounds += 1
        if len(rhs) < len(lhs):
            lhs, rhs = rhs, lhs  # the shorter side is cut at every boundary
        try:
            noodles = noodlify(
                [branch.automata[name] for name in lhs],
                [branch.automata[name] for name in rhs],
                max_noodles,
            )
        except EquationTooHard as error:
            gave_up = gave_up or str(error)
            continue
        if len(finished) + len(work) + len(noodles) > max_branches:
            gave_up = gave_up or f"branch cap ({max_branches})"
            continue
        for noodle in noodles:
            substituted, equated = _substitute(branch, lhs, rhs, noodle, fresh)
            work.append((equated + rest, substituted, rounds))

    return DecompositionResult(branches=finished, gave_up=gave_up)
