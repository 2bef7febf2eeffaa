"""Tests for the incremental session API (`repro.Session`).

The load-bearing properties:

* **differential** — a session driven through an interleaved push/pop
  chain gives the same verdict as a fresh one-shot ``PositionSolver`` on
  every prefix, and every ``sat`` model verifies against the problem;
* **incrementality** — repeated checks actually reuse the pipeline caches
  (components, branch solvers, asserted LIA parts);
* **unsat cores** — reported cores are jointly unsatisfiable, minimal
  (deletion drops every droppable assertion), and their re-checks run under
  the budget of the check they explain.
"""

import pytest

from repro import PositionSolver, Session, SolverConfig, Status
from repro.budget import Budget, BudgetExceeded, UnknownKind, UnknownReason
from repro.lia import eq as lia_eq, ge, le
from repro.solver.result import StringModel
from repro.strings.ast import (
    Contains,
    LengthConstraint,
    PrefixOf,
    Problem,
    RegexMembership,
    WordEquation,
    lit,
    str_len,
    term,
)
from repro.strings.semantics import eval_problem


def _config():
    return SolverConfig(timeout=30.0)


def _check_against_oneshot(session, atoms, alphabet):
    """One differential step: session verdict == fresh one-shot verdict."""
    result = session.check()
    problem = Problem(atoms=list(atoms), alphabet=alphabet)
    oneshot = PositionSolver(_config()).check(problem)
    assert result.status == oneshot.status, (
        f"session={result.status} one-shot={oneshot.status} on {problem}"
    )
    if result.status is Status.SAT:
        model = session.model()
        assert model is not None
        assert eval_problem(problem, model.strings, model.integers)
    return result


# ----------------------------------------------------------------------
# Differential: interleaved push/pop chain vs one-shot on each prefix
# ----------------------------------------------------------------------
def test_session_differential_with_interleaved_push_pop():
    alphabet = tuple("ab")
    session = Session(config=_config(), alphabet=alphabet)
    active = []

    def add(atom):
        session.add(atom)
        active.append(atom)
        _check_against_oneshot(session, active, alphabet)

    add(RegexMembership("x", "(ab)*"))
    add(RegexMembership("y", "(a|b)*b"))
    session.push()
    frame_mark = len(active)
    add(WordEquation(term("x"), term("y"), positive=False))
    add(LengthConstraint(ge(str_len("x"), 2)))
    session.pop()
    del active[frame_mark:]
    _check_against_oneshot(session, active, alphabet)
    session.push()
    frame_mark = len(active)
    add(RegexMembership("z", "a*"))
    add(Contains(term("z"), term("x"), positive=False))
    add(LengthConstraint(ge(str_len("x"), 4)))
    session.pop()
    del active[frame_mark:]
    # An unsatisfiable tail: x and y over the same primitive word commute.
    session.push()
    frame_mark = len(active)
    add(RegexMembership("w", "(ab)*"))
    result = session.check()
    assert result.status is Status.SAT
    add(WordEquation(term("x", "w"), term("w", "x"), positive=False))
    assert session.check().status is Status.UNSAT
    session.pop()
    del active[frame_mark:]
    _check_against_oneshot(session, active, alphabet)


def test_session_chain_matches_oneshot_on_symbolic_execution_prefixes():
    alphabet = tuple("ab/")
    atoms = [
        RegexMembership("path", "(a|b|/)*"),
        RegexMembership("user", "(a|b)(a|b)*"),
        PrefixOf(term(lit("a/")), term("path"), positive=False),
        LengthConstraint(ge(str_len("path"), 3)),
        RegexMembership("doc", "(a|b)*"),
        WordEquation(term("user"), term("doc"), positive=False),
        LengthConstraint(lia_eq(str_len("user"), str_len("doc"))),
        LengthConstraint(le(str_len("user"), 6)),
        RegexMembership("seg", "(ab)*"),
        Contains(term(lit("bb")), term("seg"), positive=False),
        LengthConstraint(ge(str_len("seg"), 4)),
        LengthConstraint(ge(str_len("doc"), 2)),
    ]
    # The session checks after every added atom (the symbolic-execution
    # access pattern); the expensive one-shot cross-check runs at three
    # checkpoints — the full every-prefix comparison lives in the perf
    # harness (`session` workload of benchmarks/perf/bench_lia.py).
    checkpoints = {2, 5, len(atoms) - 1}
    session = Session(config=_config(), alphabet=alphabet)
    for index, atom in enumerate(atoms):
        session.add(atom)
        if index in checkpoints:
            _check_against_oneshot(session, atoms[: index + 1], alphabet)
        else:
            result = session.check()
            assert result.status is Status.SAT
            model = session.model()
            problem = Problem(atoms=atoms[: index + 1], alphabet=alphabet)
            assert eval_problem(problem, model.strings, model.integers)


# ----------------------------------------------------------------------
# Incremental reuse
# ----------------------------------------------------------------------
def test_session_actually_reuses_pipeline_state():
    session = Session(config=_config(), alphabet=tuple("ab"))
    session.add(RegexMembership("x", "(ab)*"))
    session.add(RegexMembership("y", "(a|b)*b"))
    session.add(WordEquation(term("x"), term("y"), positive=False))
    assert session.check().status is Status.SAT
    session.add(LengthConstraint(ge(str_len("x"), 2)))
    assert session.check().status is Status.SAT
    session.add(LengthConstraint(ge(str_len("y"), 3)))
    assert session.check().status is Status.SAT

    stats = session.statistics()
    assert stats["checks"] == 3
    assert stats["component_hits"] > 0, "component encodings were re-built"
    assert stats["branch_solver_reuses"] > 0, "branch LIA solvers were not pinned"
    assert stats["lia_parts_reused"] > 0, "LIA parts were re-asserted from scratch"
    assert stats["automata_cache_hits"] > 0


def test_component_grouping_is_a_partition_when_a_predicate_bridges_groups():
    # A predicate spanning three existing variable groups must merge them
    # into ONE component; the historical remove-during-iteration bug left
    # a variable split across two components (yielding inconsistent
    # witnesses).
    from repro.eqsolver import Branch
    from repro.solver.solver import IncrementalPipeline
    from repro.strings.normal_form import normalize

    problem = Problem(alphabet=tuple("ab"))
    for name, language in (("u", "a"), ("v", "aa"), ("w", "aaa")):
        problem.add(RegexMembership(name, language))
    problem.add(WordEquation(term("u"), term("v"), positive=False))  # group {u,v}
    problem.add(RegexMembership("s", "b*"))
    problem.add(WordEquation(term("w"), term("s"), positive=False))  # group {w,s}
    problem.add(RegexMembership("t", "b"))
    problem.add(WordEquation(term("t"), term("s"), positive=False))  # group {t,s} merges into {w,s,t}
    # the bridge: touches all remaining groups at once
    problem.add(WordEquation(term("u", "w"), term("t", "v"), positive=False))

    normal_form = normalize(problem)
    pipeline = IncrementalPipeline(SolverConfig())
    branch = Branch(dict(normal_form.automata))
    regular, contains, automata, error = pipeline._expand_predicates(normal_form, branch)
    assert not error
    components = pipeline._build_components(regular, contains, normal_form, branch, automata, 0)
    for index, first in enumerate(components):
        for second in components[index + 1 :]:
            assert not (first.variables & second.variables), (
                "variable split across components",
                [sorted(c.variables) for c in components],
            )
    assert any({"u", "v", "w", "s", "t"} <= c.variables for c in components)


def test_repeated_identical_checks_do_not_grow_solver_stacks():
    session = Session(config=_config(), alphabet=tuple("ab"))
    session.add(RegexMembership("x", "(ab)*"))
    session.add(LengthConstraint(ge(str_len("x"), 2)))
    for _ in range(20):
        assert session.check().status is Status.SAT
    depths = [
        len(state.levels)
        for state in session._pipeline._branch_solvers.values()
    ]
    assert depths and all(depth <= 2 for depth in depths), depths


def test_assumptions_do_not_persist():
    session = Session(config=_config(), alphabet=tuple("ab"))
    session.add(RegexMembership("x", "(ab)*"))
    contradiction = LengthConstraint(le(str_len("x"), -1))
    assert session.check(assumptions=[contradiction]).status is Status.UNSAT
    assert session.check().status is Status.SAT
    assert len(session) == 1


# ----------------------------------------------------------------------
# Assertion-stack bookkeeping
# ----------------------------------------------------------------------
def test_named_assertions_and_stack_errors():
    session = Session(alphabet=tuple("ab"))
    name = session.add(RegexMembership("x", "a*"), name="mx")
    assert name == "mx"
    with pytest.raises(ValueError):
        session.add(RegexMembership("x", "a+"), name="mx")
    auto = session.add(RegexMembership("y", "b*"))
    assert auto != "mx" and auto.startswith("a")
    assert [n for n, _ in session.assertions()] == ["mx", auto]
    with pytest.raises(IndexError):
        session.pop()
    session.push()
    assert session.depth == 1
    session.pop()
    assert session.depth == 0


# ----------------------------------------------------------------------
# Unsat cores
# ----------------------------------------------------------------------
def test_unsat_core_excludes_bystanders():
    session = Session(config=_config(), alphabet=tuple("ab"))
    session.add(RegexMembership("p", "a*"), name="bystander-p")
    session.add(RegexMembership("q", "(ab)*"), name="bystander-q")
    session.add(LengthConstraint(ge(str_len("p"), 1)), name="bystander-len")
    session.add(RegexMembership("x", "(ab)*"), name="mx")
    session.add(RegexMembership("y", "(ab)*"), name="my")
    session.add(WordEquation(term("x", "y"), term("y", "x"), positive=False), name="comm")
    result = session.check()
    assert result.status is Status.UNSAT
    core = session.unsat_core()
    assert set(core) == {"mx", "my", "comm"}
    for bystander in ("bystander-p", "bystander-q", "bystander-len"):
        assert bystander not in core


def test_unsat_core_over_length_constraints():
    session = Session(config=_config(), alphabet=tuple("ab"))
    session.add(RegexMembership("noise", "(a|b)*"), name="noise")
    session.add(WordEquation(term("noise"), term(lit("ab"))), name="noise-eq")
    session.add(RegexMembership("x", "(ab)*"), name="mx")
    session.add(LengthConstraint(ge(str_len("x"), 3)), name="lo")
    session.add(LengthConstraint(le(str_len("x"), 3)), name="hi")
    result = session.check()
    # (ab)* has even lengths only: |x| = 3 is impossible.
    assert result.status is Status.UNSAT
    core = session.unsat_core()
    assert "noise" not in core and "noise-eq" not in core
    assert set(core) == {"mx", "lo", "hi"}


def test_unsat_core_drops_every_droppable_assertion():
    session = Session(config=_config(), alphabet=tuple("ab"))
    session.add(RegexMembership("x", "a*"), name="mx")
    session.add(WordEquation(term("y"), term("x", lit("b"))), name="y-def")
    session.add(RegexMembership("y", "a*"), name="my")
    session.add(LengthConstraint(ge(str_len("x"), 1)), name="xlen")
    session.add(RegexMembership("w", "b*"), name="mw")
    assert session.check().status is Status.UNSAT
    core = session.unsat_core()
    # y ends with "b" whatever x is, so y ∈ a* fails on its own.
    assert set(core) == {"y-def", "my"}
    atoms = dict(session.assertions())
    for dropped in core:
        rest = Session(config=_config(), alphabet=tuple("ab"))
        for name in core:
            if name != dropped:
                rest.add(atoms[name], name=name)
        assert rest.check().status is Status.SAT, dropped


def test_unsat_core_rechecks_run_under_the_check_budget():
    session = Session(config=_config(), alphabet=tuple("ab"))
    session.add(RegexMembership("x", "(ab)*"), name="mx")
    session.add(RegexMembership("pad", "b*"), name="pad")
    session.add(LengthConstraint(lia_eq(str_len("x"), 3)), name="odd")
    cancelled = []

    def hook(stage, _count):
        if cancelled:
            cancelled.append(stage)
            raise BudgetExceeded(UnknownReason(UnknownKind.TIMEOUT, stage=stage))

    budget = Budget(30.0, hook=hook)
    assert session.check(budget=budget).status is Status.UNSAT
    # Cancel the job: every core re-check now stops at its first
    # checkpoint, and an undecided re-check keeps its assertion.
    cancelled.append("armed")
    assert session.unsat_core() == ("mx", "pad", "odd")
    assert len(cancelled) > 1, "the core re-checks never reached the budget hook"


def test_unsat_core_requires_unsat():
    session = Session(config=_config(), alphabet=tuple("ab"))
    session.add(RegexMembership("x", "a*"))
    assert session.check().status is Status.SAT
    with pytest.raises(RuntimeError):
        session.unsat_core()


def test_unsat_core_includes_assumptions():
    session = Session(config=_config(), alphabet=tuple("ab"))
    session.add(RegexMembership("x", "(ab)*"), name="mx")
    session.add(RegexMembership("pad", "b*"), name="pad")
    result = session.check(
        assumptions=[("odd", LengthConstraint(lia_eq(str_len("x"), 3)))]
    )
    assert result.status is Status.UNSAT
    core = session.unsat_core()
    assert "odd" in core and "pad" not in core


# ----------------------------------------------------------------------
# StringModel polish
# ----------------------------------------------------------------------
def test_string_model_mapping_interface():
    model = StringModel(strings={"x": "ab"}, integers={"n": -3})
    assert model["x"] == "ab"
    assert model["n"] == -3
    assert "x" in model and "n" in model and "z" not in model
    assert sorted(model) == ["n", "x"]
    assert len(model) == 2
    assert model.get("x") == "ab"
    assert model.get("n") == -3
    assert model.get("missing", "?") == "?"
    rendered = model.to_smtlib()
    assert '(define-fun x () String "ab")' in rendered
    assert "(define-fun n () Int (- 3))" in rendered


def test_string_model_quote_escaping():
    model = StringModel(strings={"s": 'a"b'})
    assert '"a""b"' in model.to_smtlib()
