"""The main string solver (the reproduction's analogue of Z3-Noodler-pos).

A problem (a conjunction of string atoms) is decided as one disjunction,
walked by one fold (:meth:`IncrementalPipeline._decide`):

0. **Reduction** (:mod:`repro.strings.reductions`): the extended atoms
   (``str.substr`` / ``str.indexof`` / ``str.replace``) are compiled into
   core-only case conjunctions.  Each case is one more disjunct: its
   branches join the same fold as the branches of an unreduced problem.
1. **Normalisation** (:mod:`repro.strings.normal_form`) into
   ``E ∧ R ∧ I ∧ P``.
2. **Length check** (:meth:`IncrementalPipeline._lengths_refute`): a case
   with word equations is refuted without decomposing it when its integer
   parts, the length sums of ``E`` and the length sets of its equation
   variables' languages have no common integer solution.
3. **Stabilization** (:mod:`repro.eqsolver.noodler`): the word equations
   ``E`` are eliminated, producing a disjunction of monadic decompositions
   (refined regular constraints plus a substitution map).
4. **Position procedure** (:mod:`repro.core`): for every branch the
   remaining position constraints are partitioned into components of
   predicates sharing variables; each component is encoded into one LIA
   formula over the Parikh image of a tag automaton — the single-predicate
   construction ``A^II`` (§5.2) when the component has one predicate, the
   system construction ``A^III`` (§5.3/§6.5) otherwise.  A component with
   no predicate at all (a variable only the integer part mentions) is
   encoded as the length set of its automaton
   (:mod:`repro.core.lengths`).  ¬contains
   predicates over flat languages are handled by model-based quantifier
   instantiation (§6.4).  Parikh connectivity is enforced on demand: each
   sat LIA model is cut until every encoding's run is connected
   (:func:`repro.core.parikh.connectivity_cuts`).
5. **LIA solving** (:mod:`repro.lia`) and **model reconstruction**
   (:mod:`repro.core.witness`): a sat branch yields a concrete string
   model.  :meth:`IncrementalPipeline.check` verifies it once, against
   the caller's problem, with the reduction's fresh variables stripped.

The first sat branch of any case wins.  ``UNSAT`` is only reported when
every case was refuted by its lengths or had every branch refuted
exactly; an undecided branch or an
incomplete decomposition turns it into ``UNKNOWN``, and so does a branch
refuted only under the length approximation of a non-flat ¬contains
(``incomplete@mbqi``) — mirroring the OOR/unknown accounting of the
paper's Table 1.

Each stage owns its caps: the reduction's case cap and the decomposition's
branch and noodle caps are the defaults of ``reduce_problem`` and
``decompose``; the constants below size only this module's own work.

Each concern has one path: ``_decide`` is the only verdict fold and
:class:`SolveResult` the only outcome type, of a branch as of a check;
``check`` holds the only model verification and the only internal-error
handler (whose reason names the innermost stage the error escaped from);
``_distinct_witness`` holds the only distinct-group search.

Incremental architecture
------------------------

The pipeline is built to be driven repeatedly with *closely related*
problems — the access pattern of :class:`repro.Session`, whose clients
(symbolic executors, the SMT-LIB frontend) issue long chains of checks over
a growing/shrinking assertion stack.  Every stage is cached, keyed by the
content of the assertion prefix it depends on:

* **normalisation** — each check re-normalises its cases over the shared
  :class:`~repro.strings.normal_form.NormalizationCache`, which returns
  the same compiled automata for the same content, so they stay
  identity-stable across calls (a serve worker pre-fills it from its
  ``--warm`` scripts);
* **decomposition** — :func:`repro.eqsolver.decompose` memoized on the
  equations plus the (identity-stable) automata of the equation variables,
  so the produced :class:`Branch` objects are reused verbatim;
* **component encodings** — the tag-automaton encodings are memoized by the
  component's predicate set and automata; a new atom only re-encodes the
  component whose variables it touches (prefixes are content-derived, so an
  untouched component keeps its LIA variable names);
* **branch LIA solvers** — one incremental :class:`~repro.lia.LiaSolver`
  assertion stack is pinned per live branch.  Each check computes the set
  of LIA *parts* the branch needs, pops solver levels whose parts are no
  longer wanted, and pushes one level with the delta.  The solver's CNF
  cache, learned theory clauses and simplex rows survive across checks —
  extending PR 1's within-check MBQI reuse to whole sessions.  MBQI
  instantiation lemmas ride along in the level that derived them and are
  retracted exactly when a dependency of that level disappears.

An ``UNSAT`` verdict carries no core: :meth:`repro.Session.unsat_core`
shrinks the assertion set by deletion, re-checking subsets through this
same warm pipeline.

:class:`PositionSolver` keeps the historical one-shot interface as a thin
wrapper over a throwaway :class:`repro.Session`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field, replace
from itertools import islice
from typing import Dict, List, Optional, Set, Tuple, Union

from ..automata.dense import stats_snapshot as dense_stats_snapshot
from ..automata.enumeration import is_finite, shortest_word, words_up_to
from ..automata.nfa import Nfa
from ..core.lengths import LengthEncoding, encode_length, length_lasso
from ..core.notcontains import NotContainsEncoder, base_transition_counts, find_failing_offset
from ..core.parikh import ParikhEncoding, connectivity_cuts
from ..core.predicates import (
    Disequality,
    NotContains,
    NotPrefixOf,
    NotSuffixOf,
    PositionPredicate,
    StrAt,
)
from ..core.single import TagEncoding, encode_single
from ..core.system import encode_system
from ..core.witness import extract_assignment
from ..eqsolver import Branch, DecompositionResult, decompose
from ..lia import LiaSolver, LiaStatus, conj, eq, ge, gt, var
from ..lia import And as LiaAnd
from ..lia import Eq as LiaEq
from ..lia import Formula as LiaFormula
from ..lia import Le as LiaLe
from ..lia import LinExpr
from ..budget import Budget, BudgetExceeded, UnknownKind, UnknownReason
from ..strings.ast import Problem, length_referenced, length_variable, string_of_length_variable
from ..strings.normal_form import NormalForm, NormalizationCache, normalize
from ..strings.reductions import ReductionError, needs_reduction, reduce_problem
from ..strings.semantics import eval_problem
from .config import SolverConfig
from .result import SolveResult, Status, StringModel

Encoding = Union[TagEncoding, LengthEncoding]

#: hashable key of one LIA part of a branch conjunction
PartKey = Tuple

#: in-window words per variable above which a finite or windowed language
#: no longer counts as completely enumerated (keeps the group search tiny)
_GROUP_WORD_CAP = 16
#: node budget of the distinct-group search
_GROUP_SEARCH_NODES = 50000
#: capacity of the decomposition memo (one entry per case equation system;
#: a session's checks revisit the cases of its recent assertion prefixes)
_DECOMPOSITION_CACHE = 32
#: capacity of the component-encoding memo (tag-automaton encodings keyed
#: by predicate set and automata)
_ENCODING_CACHE = 256
#: pinned per-branch incremental LIA solvers kept warm (least-recently-used
#: branches beyond this are rebuilt on demand)
_BRANCH_SOLVERS = 16
#: MBQI rounds for ¬contains (lemma instantiations per check)
_MAX_INSTANTIATION_ROUNDS = 40
#: per-side state cap of the ¬contains vacuity pre-pass; beyond it the
#: concatenations (and the lazy product walk over them) stop being
#: obviously cheaper than just encoding the predicate
_NCONTAINS_VACUITY_LIMIT = 64


class _Lru(OrderedDict):
    """A tiny LRU mapping used for every pipeline cache."""

    def __init__(self, capacity: int) -> None:
        super().__init__()
        self.capacity = capacity

    def lookup(self, key):
        if key in self:
            self.move_to_end(key)
            return self[key]
        return None

    def store(self, key, value) -> None:
        self[key] = value
        self.move_to_end(key)
        while len(self) > self.capacity:
            self.popitem(last=False)


@dataclass(eq=False)
class _Component:
    """A group of position predicates sharing string variables.

    Prepared components (with their encodings, ¬contains encoders and the
    master transition counters of the MBQI loop) are cached across checks
    and reused verbatim while no new atom touches their variables.

    ``eq=False`` keeps the default identity hash: components appear inside
    part keys (``("enc", component)``), which both addresses them and keeps
    them alive for as long as a pinned branch solver asserts them.
    """

    predicates: List[PositionPredicate] = field(default_factory=list)
    contains: List[NotContains] = field(default_factory=list)
    variables: Set[str] = field(default_factory=set)
    encoding: Optional[Encoding] = None
    encoders: List[Tuple[NotContains, Optional[NotContainsEncoder]]] = field(default_factory=list)
    #: lazily computed, shared by every MBQI round of the branch (the base
    #: transition counters of the master encoding never change across rounds)
    master_counts: Optional[Dict[Tuple, LinExpr]] = None


@dataclass
class _BranchSolver:
    """One pinned LIA assertion stack (see the module docstring)."""

    solver: LiaSolver
    #: per pushed level: the part keys asserted at that level
    levels: List[List[PartKey]] = field(default_factory=list)
    #: per pushed level: the Parikh encodings of the MBQI inner copies its
    #: lemmas assert (their models need connectivity cuts too)
    copies: List[List[ParikhEncoding]] = field(default_factory=list)


def _merge_stats(into: Dict[str, int], delta: Dict[str, int]) -> None:
    for key, value in delta.items():
        into[key] = into.get(key, 0) + value


def _unknown(kind: UnknownKind, stage: str, detail: str, **fields) -> SolveResult:
    return SolveResult(
        Status.UNKNOWN, reason=UnknownReason(kind, stage=stage, detail=detail), **fields
    )


class IncrementalPipeline:
    """The cached, incremental solving pipeline behind :class:`repro.Session`.

    One pipeline instance serves one logical assertion stack: its caches are
    keyed by content, so feeding it arbitrary problems is *correct*, but the
    reuse (and the memory held by the caches) is designed for sequences of
    problems sharing long prefixes.
    """

    def __init__(
        self,
        config: Optional[SolverConfig] = None,
        normalization_cache: Optional[NormalizationCache] = None,
    ) -> None:
        self.config = config or SolverConfig()
        # An externally supplied cache outlives this pipeline: the serve
        # workers share one per process so jobs warm each other up.
        self.normalization_cache = normalization_cache or NormalizationCache()
        self._decompositions: _Lru = _Lru(_DECOMPOSITION_CACHE)
        self._components: _Lru = _Lru(_ENCODING_CACHE)
        self._branch_solvers: _Lru = _Lru(_BRANCH_SOLVERS)
        self.counters: Dict[str, int] = {
            "checks": 0,
            "decomposition_hits": 0,
            "decomposition_misses": 0,
            "component_hits": 0,
            "component_misses": 0,
            "branch_solver_reuses": 0,
            "branch_solver_creates": 0,
            "branch_solver_rebuilds": 0,
            "lia_parts_asserted": 0,
            "lia_parts_reused": 0,
            "distinct_shortcuts": 0,
            "reduction_cases": 0,
            "ncontains_vacuous": 0,
            "length_refutations": 0,
        }

    # ------------------------------------------------------------------
    def check(self, problem: Problem, budget: Optional[Budget] = None) -> SolveResult:
        """Decide satisfiability of ``problem`` (reusing every warm cache).

        :meth:`_decide` walks the reduction cases and decomposition
        branches; a sat model it returns is verified here, once, against
        ``problem`` itself (a model failing it answers
        ``unknown(internal_error@verify)``).

        ``budget`` overrides the config-derived per-check budget (a caller
        racing several checks, or retrying after a timeout with more room).
        The budget is *activated* for the duration of the check: every
        engine layer's cooperative checkpoints charge against it, and
        exceeding it unwinds here into a structured ``timeout``/``unknown``
        verdict whose :class:`UnknownReason` names the stage that hit the
        limit.  The check never corrupts the pipeline: caches only commit
        completed values, and a pinned branch LIA solver that was
        mid-mutation when the check unwound is dropped (rebuilt on demand).
        Unexpected engine exceptions likewise become
        ``unknown(internal_error)`` verdicts naming the innermost stage they
        escaped from — counted in ``counters`` and
        ``stats``, never silently discarded; only ``KeyboardInterrupt``
        propagates (with the same no-corruption guarantee).
        """
        self.counters["checks"] += 1
        watch = budget if budget is not None else Budget(
            self.config.timeout, max_steps=self.config.max_steps
        )
        # The automata-layer counters are process-wide: report this check's
        # deltas (dense compilations, interning, normalisation-cache traffic).
        before = self._automata_counters()
        try:
            with watch.activate():
                result = self._decide(problem, watch)
                if result.status is Status.SAT and not eval_problem(
                    problem, result.model.strings, result.model.integers
                ):
                    result = replace(
                        result,
                        status=Status.UNKNOWN,
                        model=None,
                        reason=UnknownReason(
                            UnknownKind.INTERNAL_ERROR, stage="verify",
                            detail="model verification failed",
                        ),
                    )
        except BudgetExceeded as limit:
            status = (
                Status.TIMEOUT
                if limit.reason.kind is UnknownKind.TIMEOUT
                else Status.UNKNOWN
            )
            result = SolveResult(status, reason=limit.reason)
        except Exception as failure:
            self.counters["internal_errors"] = (
                self.counters.get("internal_errors", 0) + 1
            )
            reason = UnknownReason(
                UnknownKind.INTERNAL_ERROR,
                stage=watch.current_stage,
                detail=f"{type(failure).__name__}: {failure}",
                steps=watch.steps,
                elapsed=watch.elapsed(),
            )
            result = SolveResult(
                Status.UNKNOWN, reason=reason, stats={"internal_errors": 1}
            )
        finally:
            # An escaping error leaves the stage it escaped from in place
            # (for the reason above); a shared budget's next check starts
            # at the top level.
            watch.current_stage = ""
        result.elapsed = watch.elapsed()
        _merge_stats(result.stats, watch.stats_snapshot())
        for key, value in self._automata_counters().items():
            result.stats[key] = result.stats.get(key, 0) + value - before[key]
        return result

    def _automata_counters(self) -> Dict[str, int]:
        counters = dense_stats_snapshot()
        cache = self.normalization_cache
        counters["automata_cache_hits"] = cache.hits
        counters["automata_cache_misses"] = cache.misses
        counters["normalization_warm_hits"] = cache.warm_hits
        return counters

    def _decide(self, problem: Problem, watch: Budget) -> SolveResult:
        """Fold over (reduction case × decomposition branch): the verdict.

        Each case is reduced, normalised, checked by its lengths
        (:meth:`_lengths_refute`, a case with word equations only; a
        refuted case is skipped undecomposed), decomposed, and its branches
        solved.  The first sat branch wins, its model stripped of the
        case's fresh variables.  Unsat needs every remaining branch refuted
        and every decomposition complete; otherwise the answer is unknown,
        with the last branch's reason or, failing one, the limit that
        stopped the first incomplete decomposition.
        """
        cases = [(problem, frozenset())]
        reduced = needs_reduction(problem)
        if reduced:
            try:
                with watch.stage("reduce"):
                    reduction = reduce_problem(problem)
            except ReductionError as error:
                return _unknown(UnknownKind.INCOMPLETE, "reduce", str(error))
            self.counters["reduction_cases"] += len(reduction)
            cases = [(case.problem, case.fresh_variables) for case in reduction]

        explored = queries = 0
        stats: Dict[str, int] = {}
        reason: Optional[UnknownReason] = None
        gave_up: Optional[str] = None
        for case, fresh in cases:
            if reduced:
                watch.check_now("reduce.case")
            with watch.stage("normalize"):
                normal_form = normalize(case, cache=self.normalization_cache)

            with watch.stage("decompose"):
                if normal_form.equations and self._lengths_refute(normal_form, watch):
                    self.counters["length_refutations"] += 1
                    continue  # then every branch of the case is unsat too
                decomposition, branch_fp_base = self._decompose(normal_form)
            gave_up = gave_up or decomposition.gave_up
            for index, branch in enumerate(decomposition.branches):
                watch.check_now("solve.branch")
                with watch.stage("solve"):
                    outcome = self._solve_branch(
                        case, normal_form, branch, index, (branch_fp_base, index), watch
                    )
                explored += 1
                queries += outcome.lia_queries
                _merge_stats(stats, outcome.stats)
                if outcome.status is Status.SAT:
                    model = StringModel(
                        strings={
                            name: word
                            for name, word in outcome.model.strings.items()
                            if name not in fresh
                        },
                        integers=outcome.model.integers,
                    )
                    return SolveResult(Status.SAT, model=model, branches_explored=explored,
                                       lia_queries=queries, stats=stats)
                if outcome.status is not Status.UNSAT:
                    reason = outcome.reason

        if reason is None and gave_up is None:
            return SolveResult(Status.UNSAT, branches_explored=explored,
                               lia_queries=queries, stats=stats)
        return SolveResult(
            Status.UNKNOWN,
            reason=reason or UnknownReason(
                UnknownKind.INCOMPLETE,
                stage="decompose",
                detail=f"decomposition incomplete: {gave_up}",
            ),
            branches_explored=explored,
            lia_queries=queries,
            stats=stats,
        )

    # ------------------------------------------------------------------
    # Decomposition (cached)
    # ------------------------------------------------------------------
    def _decompose(self, normal_form: NormalForm) -> Tuple[DecompositionResult, Tuple]:
        """Run (or reuse) the equation elimination for this normal form."""
        if not normal_form.equations:
            branch = Branch(dict(normal_form.automata))
            return DecompositionResult([branch]), ("noeq", normal_form.alphabet)

        eq_vars: Dict[str, None] = {}
        for lhs, rhs in normal_form.equations:
            for name in lhs + rhs:
                eq_vars.setdefault(name, None)
        eq_automata = {name: normal_form.automata[name] for name in eq_vars}
        # The automata objects go into the key directly (identity hash +
        # keepalive): an id()-based key could silently collide after the
        # object was collected and its address recycled.
        key = (tuple(normal_form.equations), tuple(eq_automata.items()))
        decomposition: Optional[DecompositionResult] = self._decompositions.lookup(key)
        if decomposition is None:
            self.counters["decomposition_misses"] += 1
            decomposition = decompose(normal_form.equations, eq_automata)
            self._decompositions.store(key, decomposition)
        else:
            self.counters["decomposition_hits"] += 1
        return decomposition, ("eq", key)

    def _lengths_refute(self, normal_form: NormalForm, watch: Budget) -> bool:
        """Whether lengths alone refute a case (checked before it is decomposed).

        The case's integer parts, ``Σ|lhs| = Σ|rhs|`` per equation and the
        length set of each equation variable's language are implied by the
        case, so an unsat conjunction refutes the case exactly.  A variable
        whose language has one length (a literal) enters the sums as that
        constant; its own constraint is kept only when the integer parts
        read its length.
        """
        parts = list(normal_form.integer_parts)
        read = {name for formula in parts for name in formula.variables()}
        lengths: Dict[str, LinExpr] = {}
        for lhs, rhs in normal_form.equations:
            lengths.update(dict.fromkeys(lhs + rhs))
        for name in lengths:
            length = lengths[name] = var(length_variable(name))
            lasso = length_lasso(normal_form.automata[name])
            if lasso is None:
                parts.append(ge(length, 0))
                continue
            single = lasso.single_length()
            if single is not None:
                lengths[name] = LinExpr.constant(single)
                if length_variable(name) not in read:
                    continue
            parts.append(lasso.formula(length, f"@lenk.{name}"))
        for lhs, rhs in normal_form.equations:
            parts.append(eq(LinExpr.sum_of(map(lengths.__getitem__, lhs)),
                            LinExpr.sum_of(map(lengths.__getitem__, rhs))))
        solver = LiaSolver()
        solver.add_assertion(conj(parts))
        return solver.check(budget=watch).status is LiaStatus.UNSAT

    # ------------------------------------------------------------------
    # Branch preparation
    # ------------------------------------------------------------------
    def _expand_predicates(
        self, normal_form: NormalForm, branch: Branch
    ) -> Tuple[Optional[List[PositionPredicate]], Optional[List[NotContains]], Dict[str, Nfa], str]:
        """Apply the branch substitution to the position predicates."""
        automata = dict(normal_form.automata)
        automata.update(branch.automata)
        regular: List[PositionPredicate] = []
        contains: List[NotContains] = []
        for predicate in normal_form.predicates:
            if isinstance(predicate, (Disequality, NotPrefixOf, NotSuffixOf)):
                regular.append(
                    type(predicate)(branch.expand_term(predicate.lhs), branch.expand_term(predicate.rhs))
                )
            elif isinstance(predicate, StrAt):
                target = branch.expand(predicate.target)
                if len(target) == 0:
                    count = len(automata)
                    while f"_eps{count}" in automata:
                        count += 1
                    fresh = f"_eps{count}"
                    automata[fresh] = Nfa.epsilon_language()
                    target = (fresh,)
                if len(target) != 1:
                    return None, None, automata, "str.at target expands to a concatenation"
                regular.append(
                    StrAt(target[0], branch.expand_term(predicate.haystack), predicate.index, predicate.negated)
                )
            elif isinstance(predicate, NotContains):
                expanded = NotContains(
                    branch.expand_term(predicate.needle), branch.expand_term(predicate.haystack)
                )
                if self._ncontains_vacuous(expanded, automata, normal_form.alphabet):
                    self.counters["ncontains_vacuous"] += 1
                    continue
                contains.append(expanded)
            else:  # pragma: no cover - defensive
                return None, None, automata, f"unsupported predicate {predicate!r}"
        return regular, contains, automata, ""

    def _ncontains_vacuous(
        self,
        predicate: NotContains,
        automata: Dict[str, Nfa],
        alphabet: Tuple[str, ...],
    ) -> bool:
        """Sound vacuity pre-pass for one ``¬contains`` predicate.

        Over-approximate the reachable violations: if even
        ``L(h₁)⋯L(h_m)  ∩  Σ*·L(n₁)⋯L(n_k)·Σ*`` is empty — ignoring that
        shared variables correlate the two sides, which only shrinks the
        real solution set — then no assignment makes the haystack contain
        the needle, so the predicate holds vacuously and need not be
        encoded.  Decided by the lazy first-accepting-pair product walk;
        nothing is materialised beyond the two concatenations.
        """
        if not alphabet:
            return False
        from ..automata import concat, intersection_empty

        total = 0
        for name in predicate.needle + predicate.haystack:
            nfa = automata.get(name)
            if nfa is None:
                return False
            total += len(nfa.states)
            if total > _NCONTAINS_VACUITY_LIMIT:
                return False
        haystack = Nfa.epsilon_language()
        for name in predicate.haystack:
            haystack = concat(haystack, automata[name])
        pattern = Nfa.universal(alphabet)
        for name in predicate.needle:
            pattern = concat(pattern, automata[name])
        pattern = concat(pattern, Nfa.universal(alphabet))
        return intersection_empty(haystack, pattern)

    def _prepare_component(
        self,
        index: int,
        position: int,
        predicates: List[PositionPredicate],
        contains: List[NotContains],
        variables: Set[str],
        automata: Dict[str, Nfa],
    ) -> _Component:
        """Build (or reuse) the encoding of one predicate component.

        The LIA-variable prefix is positional (``b0.c1.`` — the historical
        naming, which keeps the LIA search behaviour of the one-shot path
        bit-identical to earlier releases), while the cache key is pure
        content (prefix + predicates + automata).  Component groups are
        created in predicate order, so under the grow-only session access
        pattern positions — and therefore prefixes and cache keys — stay
        stable; a component *merge* shifts the positions after it, which
        costs a re-encode of those components on the next check.
        """
        names = sorted(variables)
        prefix = f"b{index}.c{position}."
        key = (
            prefix,
            tuple(predicates),
            tuple(contains),
            tuple((name, automata[name]) for name in names),
        )
        component = self._components.lookup(key)
        if component is not None:
            self.counters["component_hits"] += 1
            return component
        self.counters["component_misses"] += 1
        component = _Component(
            predicates=list(predicates), contains=list(contains), variables=set(variables)
        )
        if not component.predicates and not component.contains:
            # One length-referenced variable: its length set is all the
            # integer part can see (None past the lasso's size bound).
            (name,) = names
            component.encoding = encode_length(name, automata[name], prefix=prefix)
        if component.encoding is None:
            if len(component.predicates) == 1 and not component.contains:
                component.encoding = encode_single(
                    component.predicates[0], automata, prefix=prefix,
                    extra_variables=[v for v in names if v not in component.predicates[0].string_variables()],
                )
            else:
                component.encoding = encode_system(
                    component.predicates, automata, prefix=prefix, extra_variables=names
                )
        for nc_index, predicate in enumerate(component.contains):
            encoder = NotContainsEncoder(predicate, automata, index=nc_index)
            component.encoders.append((predicate, encoder if encoder.languages_are_flat() else None))
        self._components.store(key, component)
        return component

    def _build_components(
        self,
        regular: List[PositionPredicate],
        contains: List[NotContains],
        normal_form: NormalForm,
        branch: Branch,
        automata: Dict[str, Nfa],
        index: int,
    ) -> List[_Component]:
        """Group predicates into components of shared variables and encode each."""
        groups: List[Tuple[List[PositionPredicate], List[NotContains], Set[str]]] = []

        def group_for(names: Set[str]):
            hit = None
            # Iterate over a snapshot: merging removes entries from
            # ``groups``, and removing during iteration would skip the
            # element after each merged group (leaving a variable split
            # across two components when a predicate bridges 3+ groups).
            for group in list(groups):
                if group[2] & names:
                    if hit is None:
                        hit = group
                    else:  # merge
                        hit[0].extend(group[0])
                        hit[1].extend(group[1])
                        hit[2].update(group[2])
                        groups.remove(group)
            if hit is None:
                hit = ([], [], set())
                groups.append(hit)
            hit[2].update(names)
            return hit

        for predicate in regular:
            group_for(set(predicate.string_variables()))[0].append(predicate)
        for predicate in contains:
            group_for(set(predicate.string_variables()))[1].append(predicate)

        # Variables whose length is referenced by the integer constraints but
        # that belong to no predicate need a (predicate-free) encoding so that
        # their ⟨L, x⟩ counters exist.
        referenced = set()
        for name in length_referenced(normal_form.integer_formula):
            referenced.update(branch.expand(name))
        # One singleton group per uncovered variable (sorted for stable
        # positional prefixes): lumping them into one component would fuse
        # unrelated variables into a single system encoding.
        for name in sorted(referenced):
            if name in automata and not any(name in g[2] for g in groups):
                groups.append(([], [], {name}))

        return [
            self._prepare_component(index, position, predicates, nc, variables, automata)
            for position, (predicates, nc, variables) in enumerate(groups)
        ]

    def _length_links(
        self, normal_form: NormalForm, branch: Branch, components: List[_Component]
    ) -> List[LiaFormula]:
        """Tie the reserved ``@len.x`` variables to tag counters of the encodings."""

        def length_of(name: str) -> Optional[LinExpr]:
            for component in components:
                if name in component.variables:
                    return component.encoding.length_of(name)
            return None

        links: List[LiaFormula] = []
        for name in length_referenced(normal_form.integer_formula):
            total = LinExpr.constant(0)
            covered = True
            for part in branch.expand(name):
                expr = length_of(part)
                if expr is None:
                    covered = False
                    break
                total = total + expr
            if covered:
                links.append(eq(var(length_variable(name)), total))
        return links

    # ------------------------------------------------------------------
    # Branch LIA solver management
    # ------------------------------------------------------------------
    def _branch_solver(self, fingerprint: Tuple, parts: List[Tuple[PartKey, LiaFormula]]) -> _BranchSolver:
        """Pin (or reuse) the incremental LIA solver of one branch.

        Pops the deepest suffix of levels holding a part that is no longer
        wanted, then pushes one level asserting the parts not yet on the
        stack.  MBQI lemmas asserted later during the check live in that
        new level (untracked), so they persist exactly as long as every
        tracked part beneath them does.
        """
        state: Optional[_BranchSolver] = self._branch_solvers.lookup(fingerprint)
        if state is None:
            self.counters["branch_solver_creates"] += 1
            state = _BranchSolver(solver=LiaSolver())
            self._branch_solvers.store(fingerprint, state)
        else:
            self.counters["branch_solver_reuses"] += 1

        wanted = {key for key, _ in parts}
        keep = 0
        for level_keys in state.levels:
            if all(key in wanted for key in level_keys):
                keep += 1
            else:
                break
        if keep < len(state.levels):
            # Retracting a *component encoding* would leave its (large)
            # Tseitin clause set and theory atoms behind as dead weight the
            # SAT search still has to assign — reuse would then cost more
            # than it saves.  Rebuild the solver instead; retracted small
            # parts (integer conjuncts, length links) pop cheaply.
            dropped_encoding = any(
                key[0] == "enc"
                for level_keys in state.levels[keep:]
                for key in level_keys
            )
            if dropped_encoding:
                self.counters["branch_solver_rebuilds"] += 1
                state.solver = LiaSolver()
                state.levels = []
                state.copies = []
        while len(state.levels) > keep:
            state.solver.pop()
            state.levels.pop()
            state.copies.pop()

        asserted: Set[PartKey] = set()
        for level_keys in state.levels:
            asserted.update(level_keys)
        delta = [(key, formula) for key, formula in parts if key not in asserted]
        self.counters["lia_parts_reused"] += len(parts) - len(delta)
        self.counters["lia_parts_asserted"] += len(delta)
        if delta or not state.levels:
            # Re-checking an unchanged stack must not grow it: with an
            # empty delta the existing top level is reused, and any MBQI
            # lemmas of this check join it — sound, because that level is
            # popped together with (or before) every part it depends on.
            state.solver.push()
            for _key, formula in delta:
                state.solver.add_assertion(formula)
            state.levels.append([key for key, _ in delta])
            state.copies.append([])
        return state

    # ------------------------------------------------------------------
    # Easy-case pairwise-distinct path
    # ------------------------------------------------------------------
    def _distinct_witness(
        self,
        problem: Problem,
        normal_form: NormalForm,
        branch: Branch,
        regular: List[PositionPredicate],
        automata: Dict[str, Nfa],
        remaining: List[str],
    ) -> Optional[SolveResult]:
        """Decide a branch of single-variable disequalities by word picking.

        ``(distinct x y z)`` over unconstrained (or weakly constrained)
        variables expands into a clique of pairwise disequalities whose
        3-predicate ``A^III`` system encoding is enormous compared to the
        problem's difficulty: any three distinct short words witness it.
        When every position predicate of the branch is a ``Disequality``
        between two *single* variables, each variable gets a candidate list
        of words of its automaton, restricted to any simple per-variable
        length window the integer constraints impose:

        * *complete* — every in-window word, when the language is finite or
          windowed and has at most ``_GROUP_WORD_CAP`` of them;
        * otherwise the first ``deg+1`` short words, which always leave one
          word free of the variable's neighbours.

        A backtracking search (smallest lists first) picks pairwise distinct
        words.  Exhausting it refutes the branch only when every list is
        complete: the memberships, windows and disequalities alone — a
        subset of the branch constraints — are then infeasible (the
        pigeonhole shapes, e.g. ``(distinct x y z)`` over a two-word
        language, that overwhelm the tag-automaton encoding).  A found
        assignment is checked against ``problem`` with the semantics oracle
        (the windows ignore every other integer constraint).  Any shortfall
        (a side that is a concatenation, an inconclusive search, a failed
        trial) returns ``None`` and the branch flows through the ordinary
        encoding, so this path only answers verified sat or exact unsat.
        """
        edges: Dict[str, Set[str]] = {}
        for predicate in regular:
            if not isinstance(predicate, Disequality):
                return None
            if len(predicate.lhs) != 1 or len(predicate.rhs) != 1:
                return None
            left, right = predicate.lhs[0], predicate.rhs[0]
            if left == right:
                return None  # x ≠ x is false: let the encoding refute it
            edges.setdefault(left, set()).add(right)
            edges.setdefault(right, set()).add(left)

        if any(name not in automata for name in edges):
            return None
        windows = self._length_windows(normal_form, branch)
        if windows is None:
            return None  # a window is already contradictory

        def in_window(name: str, words):
            low, high = windows.get(name, (0, None))
            return (w for w in words if len(w) >= low and (high is None or len(w) <= high))

        def short_words(name: str, degree: int) -> List[str]:
            low, high = windows.get(name, (0, None))
            horizon = low + 3 * degree + 4
            if high is not None:
                horizon = min(horizon, high)
            words = in_window(name, words_up_to(automata[name], horizon))
            return list(islice(words, degree + 1))

        candidates: Dict[str, List[str]] = {}
        complete = True
        for name in edges:
            nfa = automata[name]
            high = windows.get(name, (0, None))[1]
            if high is not None or is_finite(nfa):
                horizon = len(nfa.states) if high is None else high  # longest loop-free word
                # Filter by the window *before* capping: capping the raw
                # enumeration would let a truncated list pass as a complete
                # one (an unsound unsat on wide languages with a narrow window).
                words = list(islice(
                    in_window(name, words_up_to(nfa, horizon)), _GROUP_WORD_CAP + 1
                ))
                if len(words) <= _GROUP_WORD_CAP:
                    candidates[name] = words
                    continue
            complete = False
            candidates[name] = short_words(name, len(edges[name]))

        order = sorted(candidates, key=lambda n: (len(candidates[n]), n))
        strings: Dict[str, str] = {}
        nodes = [_GROUP_SEARCH_NODES]

        def search(position: int) -> Optional[bool]:
            if position == len(order):
                return True
            name = order[position]
            taken = {strings[other] for other in edges[name] if other in strings}
            for word in candidates[name]:
                if word in taken:
                    continue
                nodes[0] -= 1
                if nodes[0] <= 0:
                    return None  # inconclusive: give the encoding a shot
                strings[name] = word
                found = search(position + 1)
                if found:
                    return True
                del strings[name]
                if found is None:
                    return None
            return False

        found = search(0)
        if not found:
            return SolveResult(Status.UNSAT) if found is False and complete else None
        for name in remaining:
            if name not in strings:
                words = short_words(name, 0) if name in windows else []
                strings[name] = words[0] if words else (shortest_word(automata[name]) or "")

        model = self._build_model(problem, branch, strings, {})
        if not eval_problem(problem, model.strings, model.integers):
            return None
        self.counters["distinct_shortcuts"] += 1
        return SolveResult(Status.SAT, model=model)

    def _length_windows(
        self, normal_form: NormalForm, branch: Branch
    ) -> Optional[Dict[str, Tuple[int, Optional[int]]]]:
        """Per-variable length windows from the simple integer conjuncts.

        Walks the top-level conjunction of the integer constraints and turns
        every bound or equality over a *single* ``@len`` variable (whose
        branch expansion is still a single variable) into a
        ``(low, high)`` window.  Everything else is ignored — the final
        model verification of the witness path is the safety net.  Returns
        ``None`` when two windows already contradict each other.
        """
        windows: Dict[str, Tuple[int, Optional[int]]] = {}

        def narrow(name: str, low: Optional[int], high: Optional[int]) -> bool:
            old_low, old_high = windows.get(name, (0, None))
            new_low = max(old_low, low if low is not None else 0)
            new_high = old_high if high is None else (
                high if old_high is None else min(old_high, high)
            )
            windows[name] = (new_low, new_high)
            return new_high is None or new_low <= new_high

        def visit(formula: LiaFormula) -> bool:
            if isinstance(formula, LiaAnd):
                return all(visit(arg) for arg in formula.args)
            if isinstance(formula, (LiaLe, LiaEq)):
                coeffs = formula.expr.coeffs
                if len(coeffs) != 1:
                    return True
                (raw_name, coeff), = coeffs.items()
                string = string_of_length_variable(raw_name)
                if string is None or coeff == 0:
                    return True
                expansion = branch.expand(string)
                if len(expansion) != 1:
                    return True
                name = expansion[0]
                constant = formula.expr.const
                if isinstance(formula, LiaEq):
                    if constant % coeff:
                        return False  # c·L + k = 0 with no integer L
                    value = -constant // coeff
                    return value >= 0 and narrow(name, value, value)
                if coeff > 0:  # c·L + k <= 0  →  L <= floor(-k / c)
                    return narrow(name, None, -constant // coeff)
                #  c < 0:  L >= ceil(k / -c)
                return narrow(name, -(constant // coeff), None)
            return True  # disjunctive / non-length structure: no window

        for formula in normal_form.integer_parts:
            if not visit(formula):
                return None
        return windows

    # ------------------------------------------------------------------
    def _solve_branch(
        self,
        problem: Problem,
        normal_form: NormalForm,
        branch: Branch,
        index: int,
        fingerprint: Tuple,
        watch: Budget,
    ) -> SolveResult:
        """Decide one decomposition branch (the model is verified by :meth:`check`)."""
        regular, contains, automata, error = self._expand_predicates(normal_form, branch)
        if regular is None:
            return _unknown(UnknownKind.FRAGMENT, "expand", error)

        remaining = [name for name in automata if name not in branch.substitution]

        # Variables not constrained by any predicate still need a non-empty
        # language; they receive their shortest word in the final model.
        for name in remaining:
            # Emptiness straight off the dense reachability mask — no trimmed
            # copy is materialised (and ε-acceptance is part of emptiness:
            # an initial-and-final state is always useful).
            if automata[name].is_empty():
                return SolveResult(Status.UNSAT)

        # A single disequality encodes cheaply (the A^II construction); the
        # witness path targets the multi-predicate groups whose A^III
        # system encoding dwarfs the problem.
        if self.config.distinct_shortcut and len(regular) >= 2 and not contains:
            shortcut = self._distinct_witness(
                problem, normal_form, branch, regular, automata, remaining
            )
            if shortcut is not None:
                return shortcut

        with watch.stage("encode"):
            components = self._build_components(
                regular, contains, normal_form, branch, automata, index
            )

        # Assemble the branch conjunction as keyed parts (see the module
        # docstring): integer conjuncts and length links are keyed by their
        # formula, encodings by their component cache identity — the keys
        # drive the incremental assertion stack.
        parts: List[Tuple[PartKey, LiaFormula]] = [
            (("int", formula), formula) for formula in normal_form.integer_parts
        ]
        for formula in self._length_links(normal_form, branch, components):
            parts.append((("link", formula), formula))
        approximated = False
        for component in components:
            parts.append((("enc", component), component.encoding.formula))
            for predicate, encoder in component.encoders:
                if encoder is None:
                    approximated = True
                    needle = LinExpr.sum_of(component.encoding.length_of(n) for n in predicate.needle)
                    haystack = LinExpr.sum_of(component.encoding.length_of(n) for n in predicate.haystack)
                    formula = gt(needle, haystack)
                    parts.append((("approx", formula), formula))

        # The MBQI refinement loop re-checks the same large conjunction with
        # one small lemma added per round.  The base parts live on the
        # branch's pinned assertion stack and every round only encodes its
        # new lemma (atom maps, Tseitin clauses, learned theory clauses and
        # the simplex tableau survive across rounds *and* across checks).
        # Within a round, every sat model is first cut until each Parikh
        # encoding's run is connected (see repro.core.parikh); those
        # connectivity checks do not count as instantiation rounds.
        queries = 0
        stats: Dict[str, int] = {"connectivity_lemmas": 0}

        def check_connected():
            nonlocal queries
            while True:
                queries += 1
                result = state.solver.check(budget=watch)
                _merge_stats(stats, result.stats)
                if result.status is not LiaStatus.SAT:
                    return result
                # Length-only components have no run graph to connect.
                encodings = [
                    component.encoding.parikh for component in components
                    if not isinstance(component.encoding, LengthEncoding)
                ]
                encodings += [enc for level in state.copies for enc in level]
                cuts = [cut for enc in encodings for cut in connectivity_cuts(enc, result.model)]
                if not cuts:
                    return result
                watch.check_now("parikh.connect")
                stats["connectivity_lemmas"] += len(cuts)
                for cut in cuts:
                    state.solver.add_assertion(cut)

        try:
            state = self._branch_solver(fingerprint, parts)
            for _round in range(_MAX_INSTANTIATION_ROUNDS):
                watch.check_now("mbqi.round")
                result = check_connected()
                if result.status is LiaStatus.UNSAT:
                    if approximated:
                        return _unknown(
                            UnknownKind.INCOMPLETE, "mbqi",
                            "refuted under the length approximation of a non-flat ¬contains",
                            lia_queries=queries, stats=stats)
                    return SolveResult(Status.UNSAT, lia_queries=queries, stats=stats)
                if result.status is LiaStatus.UNKNOWN:
                    watch.check_now("lia")
                    return _unknown(UnknownKind.INCOMPLETE, "lia", str(result.reason),
                                    lia_queries=queries, stats=stats)

                strings: Dict[str, str] = {}
                for component in components:
                    if isinstance(component.encoding, LengthEncoding):
                        extracted = component.encoding.assignment(result.model)
                    else:
                        names = sorted(component.variables)
                        extracted = extract_assignment(component.encoding.parikh, result.model, names)
                    if extracted is None:
                        return _unknown(UnknownKind.INCOMPLETE, "witness",
                                        "witness reconstruction failed",
                                        lia_queries=queries, stats=stats)
                    strings.update(extracted)
                for name in remaining:
                    if name not in strings:
                        strings[name] = shortest_word(automata[name]) or ""

                # MBQI refinement for ¬contains: evaluate on the candidate words.
                refinement_added = False
                for component in components:
                    for predicate, encoder in component.encoders:
                        predicate_strings = {name: strings.get(name, "") for name in predicate.string_variables()}
                        offset = find_failing_offset(predicate, predicate_strings)
                        if offset is None:
                            continue
                        if encoder is None:
                            return _unknown(UnknownKind.FRAGMENT, "mbqi",
                                            "non-flat ¬contains counterexample",
                                            lia_queries=queries, stats=stats)
                        if component.master_counts is None:
                            component.master_counts = base_transition_counts(
                                component.encoding.parikh, component.encoding.info
                            )
                        lemma, inner = encoder.instantiation_lemma(
                            offset, component.master_counts, component.encoding.length_of
                        )
                        state.solver.add_assertion(lemma)
                        state.copies[-1].append(inner)
                        refinement_added = True
                        break
                    if refinement_added:
                        break
                if refinement_added:
                    continue

                model = self._build_model(problem, branch, strings, result.model)
                return SolveResult(Status.SAT, model=model, lia_queries=queries, stats=stats)
        except BaseException:
            # The unwind (budget exhaustion, fault injection, Ctrl-C, an
            # engine bug) may have interrupted the pinned stack mid-mutation
            # (a replay push, an MBQI lemma assert, an in-flight CDCL
            # search).  Its level bookkeeping can no longer be trusted, so
            # drop the pin — the next check rebuilds it from the parts.
            self._branch_solvers.pop(fingerprint, None)
            raise

        return _unknown(UnknownKind.INCOMPLETE, "mbqi", "instantiation budget exhausted",
                        lia_queries=queries, stats=stats)

    # ------------------------------------------------------------------
    def _build_model(
        self,
        problem: Problem,
        branch: Branch,
        strings: Dict[str, str],
        lia_model,
    ) -> StringModel:
        """Assemble a model of ``problem``'s variables from branch-level data
        (the variables normalisation introduced are left out)."""
        full_strings = {
            name: "".join(strings.get(part, "") for part in branch.expand(name))
            for name in problem.string_variables()
        }
        integers = {name: lia_model.get(name, 0) for name in problem.integer_variables()}
        return StringModel(strings=full_strings, integers=integers)


class PositionSolver:
    """String solver with the paper's position-constraint decision procedure.

    This is the classic one-shot interface: every :meth:`check` call builds
    a throwaway :class:`repro.Session`, asserts the problem's atoms and
    checks once — cold caches, exactly the historical semantics.  Clients
    issuing chains of related checks should hold a :class:`repro.Session`
    instead and let the incremental pipeline reuse its work.
    """

    def __init__(self, config: Optional[SolverConfig] = None) -> None:
        self.config = config or SolverConfig()

    # ------------------------------------------------------------------
    def check(self, problem: Problem) -> SolveResult:
        """Decide satisfiability of ``problem``."""
        from .session import Session

        session = Session(config=self.config, alphabet=problem.alphabet, name=problem.name)
        for atom in problem.atoms:
            session.add(atom)
        return session.check()
