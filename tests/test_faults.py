"""Chaos suite: injected faults never corrupt verdicts or sessions.

Faults ride the budget hook (:mod:`repro.testing.faults`): at deterministic
``(stage, count)`` coordinates a check raises an unexpected exception,
simulates budget exhaustion, or delivers a ``KeyboardInterrupt`` — in the
middle of whatever engine stage happens to be running.  The suite asserts
the two invariants the robustness layer promises:

1. **never a wrong verdict** — a faulted check answers the true status or
   a lawful ``unknown``/``timeout``, never the opposite verdict;
2. **never a corrupted session** — after the fault, the *same* session
   re-checked without faults answers exactly what a fresh solver does.

Schedules are seeded (same seed → same chaos), so a failure here is a
plain reproducible test failure, not a flake.
"""

import pytest

from repro import (
    Budget,
    Contains,
    LengthConstraint,
    RegexMembership,
    Session,
    SolverConfig,
    Status,
    UnknownKind,
    UnknownReason,
    WordEquation,
    lit,
    str_len,
    term,
)
from repro.lia import ge, le
from repro.testing import FaultInjector, FaultSpec, InjectedFault, seeded_faults
from test_lia_incremental import _SyncAudit


def _config():
    return SolverConfig(timeout=30.0)


#: (atoms, expected status) — small instances with known ground truth that
#: still exercise normalization, decomposition, noodling, encoding and LIA
_GROUND_TRUTH = [
    (
        [
            RegexMembership("x", "(ab)*", positive=True),
            LengthConstraint(ge(str_len("x"), 4)),
        ],
        Status.SAT,
    ),
    (
        [
            RegexMembership("x", "(ab)*", positive=True),
            RegexMembership("x", "(a|b)*aa(a|b)*", positive=True),
        ],
        Status.UNSAT,
    ),
    (
        [
            WordEquation(term("x", "y"), term("y", "x")),
            RegexMembership("x", "a(a)*", positive=True),
            RegexMembership("y", "b(b)*", positive=True),
        ],
        Status.UNSAT,
    ),
    (
        [
            WordEquation(term("x", lit("b")), term(lit("a"), "y")),
            LengthConstraint(ge(str_len("x"), 2)),
            LengthConstraint(le(str_len("x"), 4)),
        ],
        Status.SAT,
    ),
    # Its ¬contains lemmas give the LIA search a few dozen partial checks,
    # so the session fault coordinates below reach the theory.
    (
        [
            RegexMembership("x", "(a|b)*", positive=True),
            RegexMembership("y", "ab", positive=True),
            Contains(term("x"), term("y"), positive=False),
            LengthConstraint(ge(str_len("x"), 3)),
        ],
        Status.SAT,
    ),
]


def _fresh_verdict(atoms):
    session = Session(config=_config(), alphabet=("a", "b"))
    for atom in atoms:
        session.add(atom)
    return session.check().status


@pytest.mark.parametrize("seed", range(24))
def test_chaos_never_wrong_verdict_never_corrupted_session(seed):
    atoms, expected = _GROUND_TRUTH[seed % len(_GROUND_TRUTH)]
    session = Session(config=_config(), alphabet=("a", "b"))
    for atom in atoms:
        session.add(atom)

    injector = seeded_faults(seed, count=2)
    try:
        faulted = session.check(budget=Budget(30.0, hook=injector))
    except KeyboardInterrupt:
        faulted = None  # interrupts propagate; the session must survive them
    if faulted is not None and faulted.status in (Status.SAT, Status.UNSAT):
        # invariant 1: a decided verdict under chaos is the true verdict
        assert faulted.status is expected, (
            f"seed {seed}: fault produced wrong verdict "
            f"{faulted.status} (expected {expected})"
        )

    # invariant 2: the session is not corrupted — a clean re-check matches
    # a fresh solver exactly
    recheck = session.check()
    assert recheck.status is expected, (
        f"seed {seed}: post-fault session answers {recheck.status}, "
        f"fresh solver answers {expected} ({recheck.reason})"
    )


def test_injected_exception_surfaces_as_internal_error_with_stage():
    atoms, expected = _GROUND_TRUTH[0]
    session = Session(config=_config(), alphabet=("a", "b"))
    for atom in atoms:
        session.add(atom)
    # at the stage's entry, and deep inside its body (the LIA theory check):
    # either way the reason names the innermost stage the error escaped
    for site in ("enter:solve", "lia.theory"):
        injector = FaultInjector([FaultSpec(site, at=1, action="raise")])
        result = session.check(budget=Budget(30.0, hook=injector))
        assert result.status is Status.UNKNOWN
        assert isinstance(result.reason, UnknownReason)
        assert result.reason.kind is UnknownKind.INTERNAL_ERROR
        assert result.reason.stage == "solve", site
        assert "InjectedFault" in result.reason.detail
        assert session.check().status is expected


def test_injected_exhaustion_reports_timeout_kind():
    atoms, expected = _GROUND_TRUTH[1]
    session = Session(config=_config(), alphabet=("a", "b"))
    for atom in atoms:
        session.add(atom)
    injector = FaultInjector([FaultSpec("*", at=2, action="exhaust")])
    result = session.check(budget=Budget(30.0, hook=injector))
    assert result.status is Status.TIMEOUT
    assert isinstance(result.reason, UnknownReason)
    assert result.reason.kind is UnknownKind.TIMEOUT
    assert "injected" in result.reason.detail
    assert session.check().status is expected


def test_fault_schedule_is_deterministic():
    atoms, _ = _GROUND_TRUTH[0]

    def run(seed):
        session = Session(config=_config(), alphabet=("a", "b"))
        for atom in atoms:
            session.add(atom)
        injector = seeded_faults(seed, count=2)
        try:
            result = session.check(budget=Budget(30.0, hook=injector))
            return (result.status, str(result.reason))
        except KeyboardInterrupt:
            return ("interrupt", "")

    assert run(7) == run(7)
    specs = [(s.stage, s.at, s.action) for s in seeded_faults(7, count=3).specs]
    assert specs == [(s.stage, s.at, s.action) for s in seeded_faults(7, count=3).specs]


def test_injector_trace_records_coordinates():
    atoms, _ = _GROUND_TRUTH[0]
    session = Session(config=_config(), alphabet=("a", "b"))
    for atom in atoms:
        session.add(atom)
    injector = FaultInjector()
    injector.trace_enabled = True
    result = session.check(budget=Budget(30.0, hook=injector))
    assert result.status is Status.SAT
    stages = {stage for stage, _ in injector.trace}
    # the trace must span coarse pipeline stages and deep engine loops
    assert any(stage.startswith("enter:") for stage in stages)
    assert any(not stage.startswith("enter:") for stage in stages)


def test_delay_fault_stretches_stage_past_real_deadline():
    # a delay fault inside a stage makes the *next* checkpoint trip the
    # real deadline: the result is a truthful timeout, not a hang
    atoms, _ = _GROUND_TRUTH[0]
    session = Session(config=_config(), alphabet=("a", "b"))
    for atom in atoms:
        session.add(atom)
    injector = FaultInjector([FaultSpec("*", at=1, action="delay", delay=0.3)])
    result = session.check(budget=Budget(0.05, hook=injector))
    assert result.status in (Status.TIMEOUT, Status.UNKNOWN)
    if result.status is Status.TIMEOUT:
        assert result.reason.kind is UnknownKind.TIMEOUT


# ----------------------------------------------------------------------
# Stage-glob matching semantics (unit level, no solving)
# ----------------------------------------------------------------------


def test_empty_glob_matches_nothing():
    # fnmatchcase("x", "") is only true for the empty string, and no hook
    # event carries an empty stage name — an empty pattern is inert.
    spec = FaultSpec("", at=1)
    injector = FaultInjector([spec])
    injector("automata.dense", 1)
    injector("enter:solve", 1)
    assert spec.fired == 0
    # the empty stage itself would match; the hook never emits one, but
    # the semantics are fnmatch's, not a special case
    with pytest.raises(InjectedFault):
        injector("", 1)


def test_star_matches_dotted_stages_but_prefix_needs_its_own_star():
    # "*" crosses "." boundaries (fnmatch is not a path matcher): a bare
    # star sees every stage, while "automata" without a star matches only
    # the exact name, not "automata.dense".
    with pytest.raises(InjectedFault):
        FaultInjector([FaultSpec("*", at=1)])("automata.dense", 1)
    # exact name without glob: no fire on the dotted sub-stage
    injector = FaultInjector([FaultSpec("automata", at=1)])
    injector("automata.dense", 1)
    assert injector.specs[0].fired == 0
    with pytest.raises(InjectedFault):
        FaultInjector([FaultSpec("automata.*", at=1)])("automata.dense", 1)
    # "automata.*" requires the dot: the bare parent stage does not match
    injector = FaultInjector([FaultSpec("automata.*", at=1)])
    injector("automata", 1)
    assert injector.specs[0].fired == 0


def test_star_pattern_counts_per_stage_not_globally():
    # ``at`` compares against the *per-stage* counter the budget hook
    # passes, so "*" at=2 fires on the second event of any single stage,
    # not the second event overall.
    spec = FaultSpec("*", at=2)
    injector = FaultInjector([spec])
    injector("automata.dense", 1)
    injector("lia.sat", 1)
    assert spec.fired == 0
    with pytest.raises(InjectedFault):
        injector("lia.sat", 2)


def test_overlapping_specs_fire_in_list_order():
    # Two specs matching the same coordinate: the earlier spec in the
    # list wins (its trigger raises before the later one is consulted),
    # and the later spec stays armed for a future event.
    first = FaultSpec("automata.*", at=1, action="raise")
    second = FaultSpec("*", at=1, action="interrupt")
    injector = FaultInjector([first, second])
    with pytest.raises(InjectedFault):
        injector("automata.dense", 1)
    assert first.fired == 1
    assert second.fired == 0
    # the second spec still fires on the next matching coordinate
    with pytest.raises(KeyboardInterrupt):
        injector("lia.sat", 1)
    assert second.fired == 1


def test_repeat_caps_firings_and_reset_rearms():
    spec = FaultSpec("lia.*", at=1, action="delay", delay=0.0, repeat=2)
    injector = FaultInjector([spec])
    injector("lia.sat", 1)
    injector("lia.simplex", 1)
    assert spec.fired == 2
    # exhausted: a third matching coordinate is ignored
    injector("lia.eliminate", 1)
    assert spec.fired == 2
    injector.reset()
    assert spec.fired == 0
    injector("lia.sat", 1)
    assert spec.fired == 1


# ----------------------------------------------------------------------
# An interrupted LIA check leaves the trail-synced theory reusable
# ----------------------------------------------------------------------
def _lia_stack():
    """A small LIA stack: a sat base and an unsat pushed lemma, each with
    over 30 partial checks.

    The ``k`` range reaches below 0, where ``x + y = k`` contradicts the
    bounds: the search still asserts those atoms and refutes them in
    partial checks, which keeps every fault coordinate below live.
    """
    from repro.lia import conj, disj, eq, var

    x, y, z = var("x"), var("y"), var("z")
    base = conj(
        [ge(x, 0), le(x, 9), ge(y, 0), le(y, 9), ge(z, 0), le(z, 9)]
        + [disj([eq(x + y, k), eq(y - z, k - 3), ge(x - z, k)]) for k in range(-8, 10)]
    )
    # Two root atoms: a sync cut off between them leaves one lemma bound.
    lemma = conj(
        [disj([le(x + y + z, 4), ge(x + 2 * y, 20)]), le(2 * x - y, 1), ge(x + y + z, 0)]
    )
    return base, lemma


def _lia_verdicts():
    from repro.lia import LiaSolver, LiaStatus, conj

    base, lemma = _lia_stack()
    pushed, popped = LiaSolver().check(conj([base, lemma])), LiaSolver().check(base)
    assert (pushed.status, popped.status) == (LiaStatus.UNSAT, LiaStatus.SAT)
    return pushed.status, popped.status


def _interrupting_check(real_check, at):
    """``Simplex.check`` raising ``KeyboardInterrupt`` inside its ``at``-th
    call: at its first repair or pivot, or else once its work is done."""
    calls = [0]

    def check(self, *args, **kwargs):
        calls[0] += 1
        if calls[0] != at:
            return real_check(self, *args, **kwargs)

        def interrupted(*_args):
            raise KeyboardInterrupt("injected inside Simplex.check")

        self._update_nonbasic = self._pivot_and_update = interrupted
        try:
            real_check(self, *args, **kwargs)
        finally:
            del self._update_nonbasic, self._pivot_and_update
        raise KeyboardInterrupt("injected at the end of Simplex.check")

    return check


def _faulted_lia_rechecks(run_faulted):
    """Fault one check of a pushed ``LiaSolver`` stack, then re-check the
    same solver after popping and after pushing the lemma again."""
    from repro.lia import LiaSolver

    base, lemma = _lia_stack()
    pushed, popped = _lia_verdicts()
    solver = LiaSolver()
    solver.add_assertion(base)
    solver.push()
    solver.add_assertion(lemma)
    run_faulted(solver)
    # From here on every partial check must see exactly the bounds of the
    # current true atoms (the trail-sync invariant).
    audit = _SyncAudit(solver)
    solver.pop()
    assert solver.check().status is popped
    solver.push()
    solver.add_assertion(lemma)
    assert solver.check().status is pushed
    assert audit.partial_checks > 0


def _checkpoint_counts(site):
    """The ``site`` counts an unfaulted check of the pushed stack reports,
    in order (a count grows by the cost each checkpoint charges)."""
    from repro.lia import LiaSolver

    base, lemma = _lia_stack()
    solver = LiaSolver()
    solver.add_assertion(base)
    solver.push()
    solver.add_assertion(lemma)
    injector = FaultInjector()
    injector.trace_enabled = True
    solver.check(budget=Budget(30.0, hook=injector))
    return [count for stage, count in injector.trace if stage == site]


#: (site, n): exhaust the budget at the n-th checkpoint of the site — a
#: partial or final theory check, or a simplex pivot (of the theory's
#: tableau or of the integer check's)
_THEORY_FAULTS = [pytest.param("lia.theory", n, id=str(n)) for n in (1, 2, 5, 12, 30)] + [
    pytest.param("lia.simplex", n, id=f"lia.simplex-{n}") for n in (1, 2, 5, 9)
]


@pytest.mark.parametrize("site,n", _THEORY_FAULTS)
def test_budget_fault_at_theory_checkpoint_leaves_lia_solver_reusable(site, n):
    from repro.budget import BudgetExceeded

    # A pivot charges one step per row it rewrites, so its counts skip.
    spec = FaultSpec(site, at=_checkpoint_counts(site)[n - 1], action="exhaust")

    def run_faulted(solver):
        with pytest.raises(BudgetExceeded):
            solver.check(budget=Budget(30.0, hook=FaultInjector([spec])))

    _faulted_lia_rechecks(run_faulted)
    assert spec.fired == 1


@pytest.mark.parametrize("at", [1, 2, 5, 12, 30])
def test_interrupt_inside_simplex_check_leaves_lia_solver_reusable(at, monkeypatch):
    from repro.lia.simplex import Simplex

    def run_faulted(solver):
        monkeypatch.setattr(Simplex, "check", _interrupting_check(Simplex.check, at))
        try:
            with pytest.raises(KeyboardInterrupt):
                solver.check()
        finally:
            monkeypatch.undo()

    _faulted_lia_rechecks(run_faulted)


@pytest.mark.parametrize("at", [1, 5, 8, 39])
def test_interrupt_mid_bound_sync_leaves_lia_solver_reusable(at, monkeypatch):
    # Cut off while the theory asserts the trail's new atoms: the half-filled
    # scope must not outlive the interrupted check (at 8, the first sync
    # stops between the lemma's two root atoms).  Only the solver's own
    # theory simplex counts; the first check makes 57 bound assertions on
    # it, so 39 cuts one off deep in the search.
    from repro.lia.simplex import Simplex

    real = Simplex.assert_bound
    calls = [0]
    fired = []

    def run_faulted(solver):
        theory = solver.theory

        def assert_bound(self, *args):
            if self is theory:
                calls[0] += 1
                if calls[0] == at:
                    fired.append(at)
                    raise KeyboardInterrupt("injected inside Simplex.assert_bound")
            return real(self, *args)

        monkeypatch.setattr(Simplex, "assert_bound", assert_bound)
        try:
            with pytest.raises(KeyboardInterrupt):
                solver.check()
        finally:
            monkeypatch.undo()

    _faulted_lia_rechecks(run_faulted)
    assert fired == [at]


@pytest.mark.parametrize("at", [0, 1, 3])
def test_interrupt_inside_cnf_encoding_keeps_the_pushed_assertions(at, monkeypatch):
    # Cut off while the pushed lemma is encoded — at entry (0) or at the
    # ``at``-th clause it emits: the flush must leave the level as if it
    # never ran, so a re-check at the same level still sees the lemma.
    from repro.lia import LiaSolver
    from repro.lia.cnf import CnfBuilder

    base, lemma = _lia_stack()
    pushed, popped = _lia_verdicts()
    solver = LiaSolver()
    solver.add_assertion(base)
    assert solver.check().status is popped
    solver.push()
    solver.add_assertion(lemma)

    real_add, real_emit = CnfBuilder.add_formula, CnfBuilder._emit
    emitted = [0]

    def emit(self, clause):
        emitted[0] += 1
        if emitted[0] == at:
            raise KeyboardInterrupt("injected inside CnfBuilder.add_formula")
        return real_emit(self, clause)

    def add_formula(self, formula):
        if at == 0:
            raise KeyboardInterrupt("injected inside CnfBuilder.add_formula")
        monkeypatch.setattr(CnfBuilder, "_emit", emit)
        return real_add(self, formula)

    monkeypatch.setattr(CnfBuilder, "add_formula", add_formula)
    try:
        with pytest.raises(KeyboardInterrupt):
            solver.check()
    finally:
        monkeypatch.undo()
    assert solver.check().status is pushed
    solver.pop()
    assert solver.check().status is popped
    solver.push()
    solver.add_assertion(lemma)
    assert solver.check().status is pushed


@pytest.mark.parametrize("case", range(len(_GROUND_TRUTH)))
@pytest.mark.parametrize("at", [1, 3])
def test_budget_fault_at_theory_checkpoint_leaves_session_reusable(case, at):
    atoms, expected = _GROUND_TRUTH[case]
    session = Session(config=_config(), alphabet=("a", "b"))
    for atom in atoms:
        session.add(atom)
    injector = FaultInjector([FaultSpec("lia.theory", at=at, action="exhaust")])
    faulted = session.check(budget=Budget(30.0, hook=injector))
    if injector.specs[0].fired:
        assert faulted.status is Status.TIMEOUT
    assert session.check().status is expected is _fresh_verdict(atoms)


@pytest.mark.parametrize("case", range(len(_GROUND_TRUTH)))
@pytest.mark.parametrize("at", [1, 3])
def test_interrupt_inside_simplex_check_leaves_session_reusable(case, at, monkeypatch):
    from repro.lia.simplex import Simplex

    atoms, expected = _GROUND_TRUTH[case]
    session = Session(config=_config(), alphabet=("a", "b"))
    for atom in atoms:
        session.add(atom)
    monkeypatch.setattr(Simplex, "check", _interrupting_check(Simplex.check, at))
    try:
        session.check()
    except KeyboardInterrupt:
        pass
    monkeypatch.undo()
    assert session.check().status is expected is _fresh_verdict(atoms)


def test_theory_faults_reach_the_lia_layer():
    # The fault coordinates above are live: the stack makes more partial
    # checks than the largest ``at``, and the session cases reach them.
    from repro.lia import LiaSolver

    base, lemma = _lia_stack()
    solver = LiaSolver()
    solver.add_assertion(base)
    solver.add_assertion(lemma)
    injector = FaultInjector()
    injector.trace_enabled = True
    solver.check(budget=Budget(30.0, hook=injector))
    assert sum(stage == "lia.theory" for stage, _ in injector.trace) > 30
    fired = 0
    for atoms, _ in _GROUND_TRUTH:
        session = Session(config=_config(), alphabet=("a", "b"))
        for atom in atoms:
            session.add(atom)
        injector = FaultInjector([FaultSpec("lia.theory", at=3, action="exhaust")])
        session.check(budget=Budget(30.0, hook=injector))
        fired += injector.specs[0].fired
    assert fired > 0


def _nc_chain_atoms():
    """x2 ∌ x1 ∌ x0 over ``a*`` with |x0| ≥ 2: MBQI lemmas whose inner
    Parikh copies need connectivity cuts (sat: x0 = aa, x1 = x2 = a)."""
    atoms = [RegexMembership(name, "a*", positive=True) for name in ("x0", "x1", "x2")]
    atoms += [
        Contains(term("x1"), term("x0"), positive=False),
        Contains(term("x2"), term("x1"), positive=False),
        LengthConstraint(ge(str_len("x0"), 2)),
    ]
    return atoms


@pytest.mark.parametrize("action", ["raise", "exhaust", "interrupt"])
def test_fault_in_connectivity_round_leaves_session_reusable(action):
    atoms = _nc_chain_atoms()
    session = Session(config=_config(), alphabet=("a", "b"))
    for atom in atoms:
        session.add(atom)
    injector = FaultInjector([FaultSpec("parikh.connect", at=1, action=action)])
    try:
        faulted = session.check(budget=Budget(30.0, hook=injector))
    except KeyboardInterrupt:
        faulted = None
    assert injector.specs[0].fired == 1
    if faulted is not None:
        assert faulted.status in (Status.UNKNOWN, Status.TIMEOUT)
    result = session.check()
    assert result.status is Status.SAT is _fresh_verdict(atoms)
    assert result.stats["connectivity_lemmas"] > 0


#: the ground-truth cases whose checks noodlify a word equation
_NOODLED_CASES = [2, 3]


@pytest.mark.parametrize("case", _NOODLED_CASES)
@pytest.mark.parametrize("site", ["eqsolver.noodlify", "automata.intersection"])
@pytest.mark.parametrize("action", ["exhaust", "interrupt"])
@pytest.mark.parametrize("at", [1, 2])
def test_budget_fault_inside_noodlification_leaves_session_reusable(case, site, action, at):
    # A fault between two memoised segment refinements, or inside the pair
    # walk of one, must leave nothing behind for the next check.
    atoms, expected = _GROUND_TRUTH[case]
    session = Session(config=_config(), alphabet=("a", "b"))
    for atom in atoms:
        session.add(atom)
    injector = FaultInjector([FaultSpec(site, at=at, action=action)])
    try:
        faulted = session.check(budget=Budget(30.0, hook=injector))
    except KeyboardInterrupt:
        faulted = None
    assert injector.specs[0].fired == 1
    if faulted is not None:
        assert faulted.status in (Status.UNKNOWN, Status.TIMEOUT)
    assert session.check().status is expected is _fresh_verdict(atoms)


#: length-only checks: (atoms, expected, the lengths.* sites they reach)
_LENGTH_CASES = [
    # x's length set is its whole encoding; the sat model's word is picked
    # back from the lasso's layers
    (
        [
            RegexMembership("x", "(ab)*a", positive=True),
            LengthConstraint(ge(str_len("x"), 7)),
        ],
        Status.SAT,
        ("lengths.lasso", "lengths.word"),
    ),
    # the decomposition gives up on the repeated variables; the length sets
    # of x, y and "ab" refute the case
    (
        [WordEquation(term("x", "y"), term("y", "x", lit("ab")))],
        Status.UNSAT,
        ("lengths.lasso",),
    ),
]


@pytest.mark.parametrize(
    "case, site",
    [(case, site) for case, (_, _, sites) in enumerate(_LENGTH_CASES) for site in sites],
)
@pytest.mark.parametrize("action", ["exhaust", "interrupt"])
@pytest.mark.parametrize("at", [1, 2])
def test_budget_fault_inside_length_set_loops_leaves_session_reusable(case, site, action, at):
    atoms, expected, _ = _LENGTH_CASES[case]
    session = Session(config=_config(), alphabet=("a", "b"))
    for atom in atoms:
        session.add(atom)
    injector = FaultInjector([FaultSpec(site, at=at, action=action)])
    try:
        faulted = session.check(budget=Budget(30.0, hook=injector))
    except KeyboardInterrupt:
        faulted = None
    assert injector.specs[0].fired == 1
    if faulted is not None:
        assert faulted.status in (Status.UNKNOWN, Status.TIMEOUT)
    assert session.check().status is expected is _fresh_verdict(atoms)
