"""The main string solver (the reproduction's analogue of Z3-Noodler-pos).

Pipeline for an input problem (a conjunction of string atoms):

0. **Reduction** (:mod:`repro.strings.reductions`): the extended atoms
   (``str.substr`` / ``str.indexof`` / ``str.replace``) are compiled into
   core-only case conjunctions; each case runs through the stages below
   and the verdicts are merged (first sat case wins; the problem is unsat
   when every case is).
1. **Normalisation** (:mod:`repro.strings.normal_form`) into
   ``E ∧ R ∧ I ∧ P``.
2. **Stabilization** (:mod:`repro.eqsolver.noodler`): the word equations
   ``E`` are eliminated, producing a disjunction of monadic decompositions
   (refined regular constraints plus a substitution map).
3. **Position procedure** (:mod:`repro.core`): for every branch the
   remaining position constraints are partitioned into components of
   predicates sharing variables; each component is encoded into one LIA
   formula over the Parikh image of a tag automaton — the single-predicate
   construction ``A^II`` (§5.2) when the component has one predicate, the
   system construction ``A^III`` (§5.3/§6.5) otherwise.  ¬contains
   predicates over flat languages are handled by model-based quantifier
   instantiation (§6.4).  Parikh connectivity is enforced on demand: each
   sat LIA model is cut until every encoding's run is connected
   (:func:`repro.core.parikh.connectivity_cuts`).
4. **LIA solving** (:mod:`repro.lia`) and **model reconstruction**
   (:mod:`repro.core.witness`): every SAT verdict comes with a concrete
   string model which is verified against the original problem.

``UNSAT`` is only reported when every branch was refuted exactly (no budget
was exceeded, no approximation was used); otherwise the solver answers
``UNKNOWN`` — mirroring the OOR/unknown accounting of the paper's Table 1.

Incremental architecture
------------------------

The pipeline is built to be driven repeatedly with *closely related*
problems — the access pattern of :class:`repro.Session`, whose clients
(symbolic executors, the SMT-LIB frontend) issue long chains of checks over
a growing/shrinking assertion stack.  Every stage is cached, keyed by the
content of the assertion prefix it depends on:

* **normalisation** — :class:`NormalForm` per atom-tuple, with a shared
  :class:`~repro.strings.normal_form.NormalizationCache` keeping the
  per-variable automata identity-stable across calls;
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
from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, List, Optional, Set, Tuple, Union

from ..automata.dense import stats_snapshot as dense_stats_snapshot
from ..automata.enumeration import is_finite, shortest_word, words_up_to
from ..automata.nfa import Nfa
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
from ..core.single import SingleEncoding, encode_single
from ..core.system import SystemEncoding, encode_system
from ..core.witness import extract_assignment
from ..eqsolver import Branch, DecompositionResult, decompose
from ..lia import LiaSolver, LiaStatus, eq, gt, var
from ..lia import And as LiaAnd
from ..lia import Eq as LiaEq
from ..lia import Formula as LiaFormula
from ..lia import Le as LiaLe
from ..lia import LinExpr
from ..budget import Budget, BudgetExceeded, UnknownKind, UnknownReason
from ..strings.ast import Problem, RegexMembership, length_variable
from ..strings.normal_form import NormalForm, NormalizationCache, normalize
from ..strings.reductions import ReductionError, needs_reduction, reduce_problem
from ..strings.semantics import eval_problem
from .config import SolverConfig
from .result import SolveResult, Status, StringModel

Encoding = Union[SingleEncoding, SystemEncoding]

#: hashable key of one LIA part of a branch conjunction
PartKey = Tuple

#: sentinel: an exactly-enumerated disequality group has no solution
_GROUP_UNSAT = object()
#: candidate words per variable above which a finite-group enumeration is
#: no longer considered complete (keeps the exact search tiny)
_GROUP_WORD_CAP = 16
#: node budget of the exact group search
_GROUP_SEARCH_NODES = 50000
#: capacity of the component-encoding memo (tag-automaton encodings keyed
#: by predicate set and automata)
_ENCODING_CACHE = 256
#: pinned per-branch incremental LIA solvers kept warm (least-recently-used
#: branches beyond this are rebuilt on demand)
_BRANCH_SOLVERS = 16
#: monadic-decomposition branches explored per equation system
_MAX_BRANCHES = 128
#: decomposition branch budget for reduced (extended-function) case
#: problems: several structural splits of one haystack overlap through Levi
#: alignment, which needs more room than ``_MAX_BRANCHES``
_REDUCTION_MAX_BRANCHES = 512
#: noodles per equation split
_MAX_NOODLES = 256
#: MBQI rounds for ¬contains (lemma instantiations per check)
_MAX_INSTANTIATION_ROUNDS = 40
#: cap on the case product of the extended-function reduction
#: (``str.substr`` expands into 1 case, ``str.indexof`` into 4,
#: ``str.replace`` into 3 — see :mod:`repro.strings.reductions`); a problem
#: whose product exceeds the cap answers ``unknown``
_MAX_REDUCTION_CASES = 64


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


@dataclass
class _BranchOutcome:
    status: Status
    model: Optional[StringModel] = None
    reason: Union[str, UnknownReason] = ""
    lia_queries: int = 0
    exact: bool = True
    stats: Dict[str, int] = field(default_factory=dict)


def _atom_key(atom) -> Tuple:
    """A hashable content key for one input atom.

    Atoms are frozen dataclasses and hash by value, except that
    ``RegexMembership`` may carry an ``Nfa``; the automaton itself goes
    into the key (identity hash — ``Nfa`` defines no ``__eq__``), which
    also keeps it alive for as long as any cache entry is keyed by it, so
    the identity can never be recycled while the key is live.
    """
    if isinstance(atom, RegexMembership) and isinstance(atom.language, Nfa):
        return ("re-nfa", atom.var, atom.language, atom.positive)
    return ("atom", atom)


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
        self._normal_forms: _Lru = _Lru(64)
        self._decompositions: _Lru = _Lru(32)
        self._components: _Lru = _Lru(_ENCODING_CACHE)
        self._branch_solvers: _Lru = _Lru(_BRANCH_SOLVERS)
        self.counters: Dict[str, int] = {
            "checks": 0,
            "normal_form_hits": 0,
            "normal_form_misses": 0,
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
        }

    # ------------------------------------------------------------------
    def check(self, problem: Problem, budget: Optional[Budget] = None) -> SolveResult:
        """Decide satisfiability of ``problem`` (reusing every warm cache).

        Problems containing the extended string functions (``str.substr``,
        ``str.indexof``, ``str.replace``) are first compiled into core-only
        case conjunctions by :mod:`repro.strings.reductions`; each case
        runs through the cached conjunctive pipeline and the verdicts are
        merged (sat: first satisfiable case, with the reduction's fresh
        variables stripped from the model; unsat: all cases refuted).

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
        ``unknown(internal_error)`` verdicts — counted in ``counters`` and
        ``stats``, never silently discarded; only ``KeyboardInterrupt``
        propagates (with the same no-corruption guarantee).
        """
        self.counters["checks"] += 1
        watch = budget if budget is not None else Budget(
            self.config.timeout, max_steps=self.config.max_steps
        )
        # Snapshot the automata-layer counters so the per-check deltas
        # (dense compilations, interning and normalisation-cache traffic)
        # can be reported through ``SolveResult.stats``.
        dense_before = dense_stats_snapshot()
        cache_hits_before = self.normalization_cache.hits
        cache_misses_before = self.normalization_cache.misses
        cache_warm_before = self.normalization_cache.warm_hits
        try:
            with watch.activate():
                if needs_reduction(problem):
                    result = self._check_extended(problem, watch)
                else:
                    result = self._check_core(problem, watch)
        except BudgetExceeded as limit:
            status = (
                Status.TIMEOUT
                if limit.reason.kind is UnknownKind.TIMEOUT
                else Status.UNKNOWN
            )
            result = SolveResult(status, elapsed=watch.elapsed(), reason=limit.reason)
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
                Status.UNKNOWN,
                elapsed=watch.elapsed(),
                reason=reason,
                stats={"internal_errors": 1},
            )
        for key, value in watch.stats_snapshot().items():
            result.stats[key] = result.stats.get(key, 0) + value
        for key, value in dense_stats_snapshot().items():
            result.stats[key] = result.stats.get(key, 0) + value - dense_before[key]
        result.stats["automata_cache_hits"] = (
            result.stats.get("automata_cache_hits", 0)
            + self.normalization_cache.hits
            - cache_hits_before
        )
        result.stats["automata_cache_misses"] = (
            result.stats.get("automata_cache_misses", 0)
            + self.normalization_cache.misses
            - cache_misses_before
        )
        result.stats["normalization_warm_hits"] = (
            result.stats.get("normalization_warm_hits", 0)
            + self.normalization_cache.warm_hits
            - cache_warm_before
        )
        return result

    def _check_extended(self, problem: Problem, watch: Budget) -> SolveResult:
        """Case-expand the extended atoms, decide each case, merge verdicts."""
        try:
            with watch.stage("reduce"):
                cases = reduce_problem(problem, max_cases=_MAX_REDUCTION_CASES)
        except ReductionError as error:
            return SolveResult(
                Status.UNKNOWN,
                elapsed=watch.elapsed(),
                reason=UnknownReason(
                    UnknownKind.INCOMPLETE, stage="reduce", detail=str(error)
                ),
            )
        self.counters["reduction_cases"] = (
            self.counters.get("reduction_cases", 0) + len(cases)
        )

        branches = 0
        lia_queries = 0
        stats: Dict[str, int] = {}
        saw_unknown = False
        unknown_reason: Optional[UnknownReason] = None
        for case in cases:
            watch.check_now("reduce.case")
            result = self._check_core(
                case.problem, watch, branch_budget=_REDUCTION_MAX_BRANCHES
            )
            branches += result.branches_explored
            lia_queries += result.lia_queries
            for key, value in result.stats.items():
                stats[key] = stats.get(key, 0) + value
            if result.status is Status.SAT:
                model = StringModel(
                    strings={
                        name: word
                        for name, word in result.model.strings.items()
                        if name not in case.fresh_variables
                    },
                    integers=dict(result.model.integers),
                )
                if not eval_problem(problem, model.strings, model.integers):
                    # The case model must satisfy the original extended
                    # atoms by construction; a failure here means the
                    # reduction (not the encoder) is wrong — stay sound.
                    saw_unknown = True
                    unknown_reason = UnknownReason(
                        UnknownKind.INTERNAL_ERROR,
                        stage="reduce.verify",
                        detail="reduction case model failed verification",
                    )
                    continue
                return SolveResult(Status.SAT, model=model, elapsed=watch.elapsed(),
                                   branches_explored=branches, lia_queries=lia_queries, stats=stats)
            if result.status is Status.TIMEOUT:
                return SolveResult(Status.TIMEOUT, elapsed=watch.elapsed(), reason=result.reason,
                                   branches_explored=branches, lia_queries=lia_queries, stats=stats)
            if result.status is Status.UNKNOWN:
                saw_unknown = True
                if isinstance(result.reason, UnknownReason):
                    unknown_reason = result.reason
        if saw_unknown:
            return SolveResult(
                Status.UNKNOWN,
                elapsed=watch.elapsed(),
                reason=unknown_reason
                or UnknownReason(
                    UnknownKind.INCOMPLETE,
                    stage="reduce",
                    detail="some reduction case could not be decided exactly",
                ),
                branches_explored=branches, lia_queries=lia_queries, stats=stats)
        return SolveResult(
            Status.UNSAT,
            elapsed=watch.elapsed(),
            branches_explored=branches,
            lia_queries=lia_queries,
            stats=stats,
        )

    def _check_core(
        self, problem: Problem, watch: Budget, branch_budget: Optional[int] = None
    ) -> SolveResult:
        """The conjunctive-core pipeline (no extended atoms)."""
        atoms_key = (problem.alphabet,) + tuple(_atom_key(atom) for atom in problem.atoms)
        normal_form = self._normal_forms.lookup(atoms_key)
        if normal_form is None:
            self.counters["normal_form_misses"] += 1
            with watch.stage("normalize"):
                normal_form = normalize(problem, cache=self.normalization_cache)
            self._normal_forms.store(atoms_key, normal_form)
        else:
            self.counters["normal_form_hits"] += 1

        with watch.stage("decompose"):
            branches, branch_fp_base, all_exact = self._decompose(
                normal_form, branch_budget
            )

        lia_queries = 0
        saw_unknown = False
        unknown_reason: Optional[UnknownReason] = None
        stats: Dict[str, int] = {}

        def merge_stats(delta: Dict[str, int]) -> None:
            for key, value in delta.items():
                stats[key] = stats.get(key, 0) + value

        for index, branch in enumerate(branches):
            watch.check_now("solve.branch")
            with watch.stage("solve"):
                outcome = self._solve_branch(
                    problem, normal_form, branch, index, (branch_fp_base, index), watch
                )
            lia_queries += outcome.lia_queries
            merge_stats(outcome.stats)
            if outcome.status is Status.SAT:
                return SolveResult(
                    Status.SAT,
                    model=outcome.model,
                    elapsed=watch.elapsed(),
                    branches_explored=index + 1,
                    lia_queries=lia_queries,
                    stats=stats,
                )
            if outcome.status is Status.TIMEOUT:
                return SolveResult(Status.TIMEOUT, elapsed=watch.elapsed(), reason=outcome.reason,
                                   branches_explored=index + 1, lia_queries=lia_queries, stats=stats)
            if outcome.status is Status.UNKNOWN:
                saw_unknown = True
                if isinstance(outcome.reason, UnknownReason):
                    unknown_reason = outcome.reason
            if not outcome.exact:
                all_exact = False

        if saw_unknown or not all_exact:
            return SolveResult(
                Status.UNKNOWN,
                elapsed=watch.elapsed(),
                reason=unknown_reason
                or UnknownReason(
                    UnknownKind.INCOMPLETE,
                    stage="decompose",
                    detail="decomposition incomplete (branch/noodle budget or fragment)",
                ),
                branches_explored=len(branches),
                lia_queries=lia_queries,
                stats=stats,
            )

        return SolveResult(
            Status.UNSAT,
            elapsed=watch.elapsed(),
            branches_explored=len(branches),
            lia_queries=lia_queries,
            stats=stats,
        )

    # ------------------------------------------------------------------
    # Decomposition (cached)
    # ------------------------------------------------------------------
    def _decompose(
        self, normal_form: NormalForm, branch_budget: Optional[int] = None
    ) -> Tuple[List[Branch], Tuple, bool]:
        """Run (or reuse) the equation elimination for this normal form."""
        max_branches = branch_budget or _MAX_BRANCHES
        if not normal_form.equations:
            branch = Branch(dict(normal_form.automata))
            return [branch], ("noeq", normal_form.alphabet), True

        eq_vars: Dict[str, None] = {}
        for lhs, rhs in normal_form.equations:
            for name in lhs + rhs:
                eq_vars.setdefault(name, None)
        eq_automata = {name: normal_form.automata[name] for name in eq_vars}
        # The automata objects go into the key directly (identity hash +
        # keepalive): an id()-based key could silently collide after the
        # object was collected and its address recycled.
        key = (
            tuple(normal_form.equations),
            tuple(eq_automata.items()),
            max_branches,
        )
        decomposition: Optional[DecompositionResult] = self._decompositions.lookup(key)
        if decomposition is None:
            self.counters["decomposition_misses"] += 1
            decomposition = decompose(
                normal_form.equations,
                eq_automata,
                max_branches=max_branches,
                max_noodles=_MAX_NOODLES,
                alphabet=normal_form.alphabet,
                max_levi_splits=2 * max_branches,
            )
            self._decompositions.store(key, decomposition)
        else:
            self.counters["decomposition_hits"] += 1
        return decomposition.branches, ("eq", key), decomposition.complete

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
            if isinstance(predicate, Disequality):
                regular.append(Disequality(branch.expand_term(predicate.lhs), branch.expand_term(predicate.rhs)))
            elif isinstance(predicate, NotPrefixOf):
                regular.append(NotPrefixOf(branch.expand_term(predicate.lhs), branch.expand_term(predicate.rhs)))
            elif isinstance(predicate, NotSuffixOf):
                regular.append(NotSuffixOf(branch.expand_term(predicate.lhs), branch.expand_term(predicate.rhs)))
            elif isinstance(predicate, StrAt):
                target = branch.expand(predicate.target)
                if len(target) == 0:
                    fresh = f"_eps{len(automata)}"
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

    #: per-side state cap for the vacuity pre-pass below; beyond it the
    #: concatenations (and the lazy product walk over them) stop being
    #: obviously cheaper than just encoding the predicate
    _NCONTAINS_VACUITY_LIMIT = 64

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
            if total > self._NCONTAINS_VACUITY_LIMIT:
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
        for name in normal_form.integer_formula.variables():
            if name.startswith("@len."):
                referenced.update(branch.expand(name[len("@len.") :]))
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

        referenced = [
            name[len("@len.") :]
            for name in normal_form.integer_formula.variables()
            if name.startswith("@len.")
        ]
        links: List[LiaFormula] = []
        for name in referenced:
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
            # than it saves.  Rebuild the context instead; retracted small
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
    ) -> Optional[_BranchOutcome]:
        """Model a branch of single-variable disequalities by word picking.

        ``(distinct x y z)`` over unconstrained (or weakly constrained)
        variables expands into a clique of pairwise disequalities whose
        3-predicate ``A^III`` system encoding is enormous compared to the
        problem's difficulty: any three distinct short words witness it.
        When every position predicate of the branch is a ``Disequality``
        between two *single* variables, greedily assign each variable the
        first word of its automaton (shortest first, restricted to any
        simple per-variable length window the integer constraints impose)
        not already taken by a neighbour in the disequality graph —
        ``deg+1`` candidate words always suffice — and verify the assembled
        model against the *original* problem with the semantics oracle.
        Any shortfall (not enough short words, a side that is a
        concatenation, verification failure — e.g. an integer constraint
        beyond the window fragment) returns ``None`` and the branch flows
        through the ordinary encoding, so this path can only ever produce
        verified SAT answers.
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

        def in_window(name: str, word: str) -> bool:
            low, high = windows.get(name, (0, None))
            return len(word) >= low and (high is None or len(word) <= high)

        def pick(name: str, taken: Set[str], degree: int) -> Optional[str]:
            low, high = windows.get(name, (0, None))
            horizon = low + 3 * degree + 4
            if high is not None:
                horizon = min(horizon, high)
            candidates = (
                word for word in words_up_to(automata[name], horizon)
                if in_window(name, word)
            )
            for candidate in islice(candidates, degree + 1):
                if candidate not in taken:
                    return candidate
            return None

        strings = self._exact_group_search(edges, automata, windows, in_window)
        if strings is _GROUP_UNSAT:
            # Every variable's candidate set was enumerated *completely*
            # (finite language, window applied) and no assignment satisfies
            # the disequalities: the memberships + windows + disequalities
            # alone — a subset of the branch constraints — are infeasible.
            return _BranchOutcome(Status.UNSAT)
        if strings is None:
            strings = {}
            for name in sorted(edges, key=lambda n: (-len(edges[n]), n)):
                taken = {strings[other] for other in edges[name] if other in strings}
                word = pick(name, taken, len(edges[name]))
                if word is None:
                    return None  # not enough short witnesses: full encoding
                strings[name] = word
        for name in remaining:
            if name not in strings:
                word = pick(name, set(), 0) if name in windows else None
                strings[name] = (
                    word if word is not None else (shortest_word(automata[name]) or "")
                )

        model = self._build_model(problem, normal_form, branch, strings, {})
        if not eval_problem(problem, model.strings, model.integers):
            return None
        self.counters["distinct_shortcuts"] += 1
        return _BranchOutcome(Status.SAT, model=model, lia_queries=0, exact=True)

    def _exact_group_search(
        self,
        edges: Dict[str, Set[str]],
        automata: Dict[str, Nfa],
        windows: Dict[str, Tuple[int, Optional[int]]],
        in_window,
    ):
        """Exact decision of a small finite disequality group.

        When every group variable has a *finite* language whose words (after
        window filtering) can be enumerated completely and compactly, the
        group is decided exactly by backtracking: a found assignment is a
        model candidate, exhaustion is a sound UNSAT verdict for the whole
        branch — the pigeonhole shapes (``(distinct x y z)`` over a two-word
        language) that overwhelm the tag-automaton encoding entirely.
        Returns an assignment dict, ``_GROUP_UNSAT``, or ``None`` when the
        group is not exactly enumerable (caller falls back to greedy).
        """
        candidates: Dict[str, List[str]] = {}
        for name in edges:
            nfa = automata[name]
            low, high = windows.get(name, (0, None))
            if high is None:
                if not is_finite(nfa):
                    return None
                horizon = len(nfa.states)  # longest loop-free word
            else:
                horizon = high
            # Filter by the window *before* capping: capping the raw
            # enumeration would let a truncated candidate set pass as a
            # complete one (an unsound UNSAT on wide languages with a
            # narrow window).
            in_range = (w for w in words_up_to(nfa, horizon) if in_window(name, w))
            words = list(islice(in_range, _GROUP_WORD_CAP + 1))
            if len(words) > _GROUP_WORD_CAP:
                return None  # too wide to call the enumeration complete
            candidates[name] = words
        order = sorted(candidates, key=lambda n: (len(candidates[n]), n))
        assignment: Dict[str, str] = {}
        budget = [_GROUP_SEARCH_NODES]

        def search(position: int) -> Optional[bool]:
            if position == len(order):
                return True
            name = order[position]
            taken = {assignment[o] for o in edges[name] if o in assignment}
            for word in candidates[name]:
                if word in taken:
                    continue
                budget[0] -= 1
                if budget[0] <= 0:
                    return None  # inconclusive: give the encoding a shot
                assignment[name] = word
                result = search(position + 1)
                if result:
                    return True
                del assignment[name]
                if result is None:
                    return None
            return False

        result = search(0)
        if result is None:
            return None
        return dict(assignment) if result else _GROUP_UNSAT

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
                if not raw_name.startswith("@len.") or coeff == 0:
                    return True
                expansion = branch.expand(raw_name[len("@len.") :])
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
    ) -> _BranchOutcome:
        regular, contains, automata, error = self._expand_predicates(normal_form, branch)
        if regular is None:
            return _BranchOutcome(
                Status.UNKNOWN,
                reason=UnknownReason(
                    UnknownKind.FRAGMENT, stage="expand", detail=error
                ),
                exact=False,
            )

        remaining = [name for name in automata if name not in branch.substitution]

        # Variables not constrained by any predicate still need a non-empty
        # language; they receive their shortest word in the final model.
        for name in remaining:
            # Emptiness straight off the dense reachability mask — no trimmed
            # copy is materialised (and ε-acceptance is part of emptiness:
            # an initial-and-final state is always useful).
            if automata[name].is_empty():
                return _BranchOutcome(Status.UNSAT)

        # A single disequality encodes cheaply (the A^II construction); the
        # witness path targets the multi-predicate groups whose A^III
        # system encoding dwarfs the problem.
        if self.config.distinct_shortcut and len(regular) >= 2 and not contains:
            shortcut = self._distinct_witness(
                problem, normal_form, branch, regular, automata, remaining
            )
            if shortcut is not None:
                return shortcut

        try:
            with watch.stage("encode"):
                components = self._build_components(
                    regular, contains, normal_form, branch, automata, index
                )
        except BudgetExceeded:
            raise
        except Exception as failure:
            # An encoder bug must not silently discard the branch: answer
            # unknown (sound), name the stage, and count the error so it
            # shows up in stats and can gate CI.
            self.counters["internal_errors"] = (
                self.counters.get("internal_errors", 0) + 1
            )
            return _BranchOutcome(
                Status.UNKNOWN,
                reason=UnknownReason(
                    UnknownKind.INTERNAL_ERROR,
                    stage="encode",
                    detail=f"{type(failure).__name__}: {failure}",
                ),
                exact=False,
                stats={"internal_errors": 1},
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
        exact = True
        for component in components:
            parts.append((("enc", component), component.encoding.formula))
            for predicate, encoder in component.encoders:
                if encoder is None:
                    exact = False
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

        def merge_stats(delta: Dict[str, int]) -> None:
            for key, value in delta.items():
                stats[key] = stats.get(key, 0) + value

        def check_connected():
            nonlocal queries
            while True:
                queries += 1
                result = state.solver.check(budget=watch)
                merge_stats(result.stats)
                if result.status is not LiaStatus.SAT:
                    return result
                encodings = [component.encoding.parikh for component in components]
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
                    return _BranchOutcome(Status.UNSAT, lia_queries=queries, exact=exact, stats=stats)
                if result.status is LiaStatus.UNKNOWN:
                    watch.check_now("lia")
                    return _BranchOutcome(
                        Status.UNKNOWN,
                        reason=UnknownReason(
                            UnknownKind.INCOMPLETE, stage="lia", detail=str(result.reason)
                        ),
                        lia_queries=queries, exact=exact, stats=stats)

                strings: Dict[str, str] = {}
                reconstruction_failed = False
                for component in components:
                    names = sorted(component.variables)
                    extracted = extract_assignment(component.encoding.parikh, result.model, names)
                    if extracted is None:
                        reconstruction_failed = True
                        break
                    strings.update(extracted)
                if reconstruction_failed:
                    return _BranchOutcome(
                        Status.UNKNOWN,
                        reason=UnknownReason(
                            UnknownKind.INCOMPLETE, stage="witness",
                            detail="witness reconstruction failed",
                        ),
                        lia_queries=queries, exact=False, stats=stats)
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
                            return _BranchOutcome(
                                Status.UNKNOWN,
                                reason=UnknownReason(
                                    UnknownKind.FRAGMENT, stage="mbqi",
                                    detail="non-flat ¬contains counterexample",
                                ),
                                lia_queries=queries, exact=False, stats=stats)
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

                model = self._build_model(problem, normal_form, branch, strings, result.model)
                if not eval_problem(problem, model.strings, model.integers):
                    return _BranchOutcome(
                        Status.UNKNOWN,
                        reason=UnknownReason(
                            UnknownKind.INTERNAL_ERROR, stage="verify",
                            detail="model verification failed",
                        ),
                        lia_queries=queries, exact=False, stats=stats)
                return _BranchOutcome(Status.SAT, model=model, lia_queries=queries, exact=exact, stats=stats)
        except BaseException:
            # The unwind (budget exhaustion, fault injection, Ctrl-C, an
            # engine bug) may have interrupted the pinned stack mid-mutation
            # (a replay push, an MBQI lemma assert, an in-flight CDCL
            # search).  Its level bookkeeping can no longer be trusted, so
            # drop the pin — the next check rebuilds it from the parts.
            self._branch_solvers.pop(fingerprint, None)
            raise

        return _BranchOutcome(
            Status.UNKNOWN,
            reason=UnknownReason(
                UnknownKind.INCOMPLETE, stage="mbqi",
                detail="instantiation budget exhausted",
            ),
            lia_queries=queries, exact=False, stats=stats)

    # ------------------------------------------------------------------
    def _build_model(
        self,
        problem: Problem,
        normal_form: NormalForm,
        branch: Branch,
        strings: Dict[str, str],
        lia_model,
    ) -> StringModel:
        """Assemble a full model of the original problem from branch-level data."""
        full_strings: Dict[str, str] = {}
        for name in set(normal_form.string_variables()) | set(problem.string_variables()):
            full_strings[name] = "".join(strings.get(part, "") for part in branch.expand(name))
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
