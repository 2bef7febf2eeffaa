"""Regression suite for the n-ary ``distinct`` family.

The ROADMAP's known wrong-behaviour class: ``(distinct x y z)`` over
unconstrained variables expands into ≥ 3 pairwise disequalities whose
3-predicate ``A^III`` system encoding used to overwhelm the SAT search and
time out.  The easy-case witness path (greedy word picking with length
windows, exact enumeration of small finite groups) must now answer the
whole family — universal and constrained automata, 3/4/5 variables,
pigeonhole-unsatisfiable variants, length-bound mixes — with *verified*
models or sound UNSAT verdicts, while the hard commuting shapes keep
flowing through the (CDCL-backed) encoding
(:mod:`tests.test_position_hard_regression`).
"""

import pytest

from repro import Session
from repro.lia import eq as lia_eq, ge, le
from repro.smtlib import run_script
from repro.smtlib.lexer import SmtLibError
from repro.solver import SolverConfig, Status
from repro.strings.ast import (
    LengthConstraint,
    Problem,
    RegexMembership,
    WordEquation,
    str_len,
    term,
)
from repro.strings.semantics import eval_problem


def _distinct(names):
    return [
        WordEquation(term(a), term(b), positive=False)
        for i, a in enumerate(names)
        for b in names[i + 1 :]
    ]


def _config(**overrides):
    options = {"timeout": 20.0}
    options.update(overrides)
    return SolverConfig(**options)


def _check_sat_verified(session, atoms, alphabet=("a", "b")):
    result = session.check()
    assert result.status is Status.SAT, result.reason
    model = session.model()
    problem = Problem(atoms=list(atoms), alphabet=tuple(alphabet))
    assert eval_problem(problem, model.strings, model.integers)
    return result


# ----------------------------------------------------------------------
# Satisfiable distinct groups answer through the witness path
# ----------------------------------------------------------------------
@pytest.mark.parametrize("count", [3, 4, 5])
def test_distinct_unconstrained_answers_sat_without_lia(count):
    names = [f"v{i}" for i in range(count)]
    atoms = _distinct(names)
    session = Session(config=_config(), alphabet=("a", "b"))
    for atom in atoms:
        session.add(atom)
    result = _check_sat_verified(session, atoms)
    # The witness path answers without a single LIA query — the old
    # behaviour was a timeout inside the A^III encoding's SAT search.
    assert result.lia_queries == 0
    assert session.statistics()["distinct_shortcuts"] >= 1


def test_distinct_over_constrained_automata():
    atoms = [RegexMembership(v, "(ab)*") for v in ("x", "y", "z")]
    atoms += _distinct(["x", "y", "z"])
    session = Session(config=_config(), alphabet=("a", "b"))
    for atom in atoms:
        session.add(atom)
    result = _check_sat_verified(session, atoms)
    assert result.lia_queries == 0


def test_distinct_mixed_with_length_bounds():
    atoms = _distinct(["x", "y", "z"])
    atoms.append(LengthConstraint(ge(str_len("x"), 2)))
    atoms.append(LengthConstraint(le(str_len("y"), 1)))
    atoms.append(LengthConstraint(lia_eq(str_len("z"), 3)))
    session = Session(config=_config(), alphabet=("a", "b"))
    for atom in atoms:
        session.add(atom)
    result = _check_sat_verified(session, atoms)
    assert result.lia_queries == 0
    model = session.model()
    assert len(model["x"]) >= 2 and len(model["y"]) <= 1 and len(model["z"]) == 3


def test_distinct_mixed_memberships_and_bounds():
    atoms = [
        RegexMembership("x", "a*"),
        RegexMembership("y", "(a|b)*"),
        RegexMembership("z", "b*"),
        LengthConstraint(ge(str_len("y"), 1)),
    ]
    atoms += _distinct(["x", "y", "z"])
    session = Session(config=_config(), alphabet=("a", "b"))
    for atom in atoms:
        session.add(atom)
    _check_sat_verified(session, atoms)


def test_distinct_incremental_push_pop():
    session = Session(config=_config(), alphabet=("a", "b"))
    base = _distinct(["x", "y", "z"])
    for atom in base:
        session.add(atom)
    _check_sat_verified(session, base)
    session.push()
    bound = LengthConstraint(le(str_len("x"), 0))
    session.add(bound)
    _check_sat_verified(session, base + [bound])
    session.pop()
    _check_sat_verified(session, base)


# ----------------------------------------------------------------------
# Pigeonhole variants are refuted exactly
# ----------------------------------------------------------------------
def test_distinct_three_variables_over_two_words_is_unsat():
    atoms = [RegexMembership(v, "a|b") for v in ("x", "y", "z")]
    atoms += _distinct(["x", "y", "z"])
    session = Session(config=_config(), alphabet=("a", "b"))
    for atom in atoms:
        session.add(atom)
    assert session.check().status is Status.UNSAT


def test_distinct_four_variables_over_three_words_is_unsat():
    names = ["x", "y", "z", "w"]
    atoms = [RegexMembership(v, "a|b|ab") for v in names]
    atoms += _distinct(names)
    session = Session(config=_config(), alphabet=("a", "b"))
    for atom in atoms:
        session.add(atom)
    assert session.check().status is Status.UNSAT


def test_distinct_search_backtracks_over_a_singleton_language():
    # l1 can only be ε, so c must avoid ε.  One search over every
    # variable's candidate list finds that; picking c's shortest word
    # first would decline and leave it to the A^III encoding (seconds).
    atoms = [RegexMembership("l1", "()")]
    atoms += [WordEquation(term("c"), term(v), positive=False) for v in ("l1", "l2", "l3")]
    session = Session(config=_config(), alphabet=("a", "b"))
    for atom in atoms:
        session.add(atom)
    result = _check_sat_verified(session, atoms)
    assert result.lia_queries == 0
    assert session.statistics()["distinct_shortcuts"] == 1


def test_distinct_forced_empty_words_is_unsat():
    atoms = _distinct(["x", "y", "z"])
    atoms += [LengthConstraint(le(str_len(v), 0)) for v in ("x", "y", "z")]
    session = Session(config=_config(), alphabet=("a", "b"))
    for atom in atoms:
        session.add(atom)
    assert session.check().status is Status.UNSAT


def test_exact_search_never_truncates_the_candidate_window():
    # A wide language with a narrow length window: only 4 of the 27
    # length-3 words over "abc" fit an early enumeration cap, but the
    # instance is trivially satisfiable — a candidate set capped *before*
    # the window filter once certified itself complete and answered a
    # wrong unsat here.
    names = [f"v{i}" for i in range(5)]
    atoms = _distinct(names)
    atoms += [LengthConstraint(lia_eq(str_len(v), 3)) for v in names]
    session = Session(config=_config(), alphabet=("a", "b", "c"))
    for atom in atoms:
        session.add(atom)
    result = session.check()
    assert result.status is Status.SAT, result.reason
    model = session.model()
    problem = Problem(atoms=list(atoms), alphabet=("a", "b", "c"))
    assert eval_problem(problem, model.strings, model.integers)
    assert all(len(model[v]) == 3 for v in names)


def test_unsat_core_excludes_predicate_free_bystanders():
    # A length bound on a predicate-free variable outside the refutation
    # (|y| >= 1) is droppable, whatever encoding component y lands in.
    session = Session(config=_config(), alphabet=("a", "b"))
    session.add(RegexMembership("x", "(ab)*"), name="mem")
    session.add(LengthConstraint(ge(str_len("y"), 1)), name="bystander")
    session.add(LengthConstraint(lia_eq(str_len("x"), 3)), name="odd")
    assert session.check().status is Status.UNSAT
    assert session.unsat_core() == ("mem", "odd")


def test_unsat_core_keeps_asserted_integer_equalities():
    # A defining equality over pure-Int variables is eliminated by the LIA
    # presolve; the refutation still needs it, so it stays in the core,
    # and the string bystander does not.
    from repro.lia import eq as int_eq, var as int_var
    from repro.strings.ast import WordEquation, lit

    session = Session(config=_config(), alphabet=("a", "b"))
    session.add(WordEquation(term("x"), term(lit("ab"))), name="bystander")
    session.add(
        LengthConstraint(int_eq(int_var("i"), int_var("j") + 1)), name="link"
    )
    session.add(LengthConstraint(le(int_var("i"), 0)), name="cap")
    session.add(LengthConstraint(ge(int_var("j"), 5)), name="floor")
    assert session.check().status is Status.UNSAT
    core = session.unsat_core()
    assert "bystander" not in core
    assert set(core) == {"link", "cap", "floor"}


def test_distinct_unsat_core_is_deterministic_and_verified():
    def build():
        session = Session(config=_config(), alphabet=("a", "b"))
        session.add(RegexMembership("noise", "(a|b)*"), name="noise")
        for v in ("x", "y", "z"):
            session.add(RegexMembership(v, "a|b"), name=f"m{v}")
        for index, atom in enumerate(_distinct(["x", "y", "z"])):
            session.add(atom, name=f"d{index}")
        return session

    first = build()
    assert first.check().status is Status.UNSAT
    core_one = first.unsat_core()
    second = build()
    assert second.check().status is Status.UNSAT
    assert second.unsat_core() == core_one, "cores differ across runs"
    assert "noise" not in core_one
    # Core order follows assertion order, not set iteration.
    positions = {name: i for i, (name, _) in enumerate(first.assertions())}
    assert list(core_one) == sorted(core_one, key=positions.__getitem__)


# ----------------------------------------------------------------------
# SMT-LIB frontend: distinct and its negation
# ----------------------------------------------------------------------
def test_smtlib_distinct_three_strings_is_sat_with_model():
    script = """
    (set-logic QF_S)
    (set-info :alphabet "ab")
    (declare-const x String)
    (declare-const y String)
    (declare-const z String)
    (assert (distinct x y z))
    (check-sat)
    (get-model)
    """
    output = run_script(script)
    assert output[0] == "sat"
    assert "define-fun" in output[1]


def test_smtlib_negated_int_distinct_is_a_disjunction():
    script = """
    (set-logic QF_SLIA)
    (declare-const i Int)
    (declare-const j Int)
    (declare-const k Int)
    (assert (not (distinct i j k)))
    (assert (distinct i j))
    (assert (distinct i k))
    (check-sat)
    """
    assert run_script(script) == ["sat"]  # forces j = k
    unsat_script = script.replace("(check-sat)", "(assert (distinct j k))\n(check-sat)")
    assert run_script(unsat_script) == ["unsat"]


def test_smtlib_negated_string_distinct_stays_a_clean_error():
    script = """
    (declare-const x String)
    (declare-const y String)
    (declare-const z String)
    (assert (not (distinct x y z)))
    (check-sat)
    """
    with pytest.raises(SmtLibError, match="disjunction"):
        run_script(script)


def test_smtlib_distinct_with_length_bounds():
    script = """
    (set-logic QF_SLIA)
    (set-info :alphabet "ab")
    (declare-const x String)
    (declare-const y String)
    (declare-const z String)
    (assert (distinct x y z))
    (assert (>= (str.len x) 2))
    (assert (<= (str.len z) 1))
    (check-sat)
    """
    assert run_script(script) == ["sat"]


# ----------------------------------------------------------------------
# The encoding still owns what the witness path declines
# ----------------------------------------------------------------------
def test_witness_path_declines_concatenation_sides():
    # The hard commuting shapes (x·y ≠ y·x — see
    # tests/test_position_hard_regression.py for the end-to-end verdicts)
    # must flow through the A^III encoding: the witness path only handles
    # single-variable sides.
    from repro.eqsolver import Branch
    from repro.solver.solver import IncrementalPipeline
    from repro.strings.normal_form import normalize

    problem = Problem(alphabet=tuple("ab"))
    problem.add(RegexMembership("x", "(ab)*"))
    problem.add(RegexMembership("y", "(ab)*"))
    problem.add(WordEquation(term("x", "y"), term("y", "x"), positive=False))
    problem.add(WordEquation(term("x"), term("y"), positive=False))
    normal_form = normalize(problem)
    pipeline = IncrementalPipeline(_config())
    branch = Branch(dict(normal_form.automata))
    regular, contains, automata, error = pipeline._expand_predicates(normal_form, branch)
    assert not error and len(regular) == 2
    remaining = [name for name in automata if name not in branch.substitution]
    declined = pipeline._distinct_witness(
        problem, normal_form, branch, regular, automata, remaining
    )
    assert declined is None
    assert pipeline.counters["distinct_shortcuts"] == 0


def test_witness_path_never_claims_an_unverified_model():
    # A disequality of two copies of the same variable is always false;
    # the witness path must decline (x ≠ x) rather than answer.
    atoms = [WordEquation(term("x"), term("x"), positive=False)]
    atoms += _distinct(["x", "y"])
    session = Session(config=_config(), alphabet=("a", "b"))
    for atom in atoms:
        session.add(atom)
    assert session.check().status is not Status.SAT


# ----------------------------------------------------------------------
# The shortcut against the encoding it bypasses
# ----------------------------------------------------------------------
def _bench_distinct_problems():
    """``benchmarks/perf/bench_lia.py``'s distinct instances, by name."""
    import importlib.util
    import os

    path = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "benchmarks",
        "perf",
        "bench_lia.py",
    )
    spec = importlib.util.spec_from_file_location("_bench_lia_distinct", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {name: (problem, expected) for name, problem, expected in module._distinct_problems()}


@pytest.mark.parametrize("name", ["distinct-3", "distinct-3-bounded"])
def test_distinct_shortcut_agrees_with_the_encoding(name, monkeypatch):
    # A step budget and no clock, so the verdicts do not depend on the
    # machine; the encoding needs about 19000 steps on these.
    from repro import PositionSolver
    from repro.solver.solver import IncrementalPipeline

    problem, expected = _bench_distinct_problems()[name]
    answered = []
    witness = IncrementalPipeline._distinct_witness

    def recording_witness(self, *args):
        result = witness(self, *args)
        answered.append(result is not None)
        return result

    monkeypatch.setattr(IncrementalPipeline, "_distinct_witness", recording_witness)
    verdicts = {}
    for shortcut in (True, False):
        answered.clear()
        config = SolverConfig(timeout=None, max_steps=200_000, distinct_shortcut=shortcut)
        result = PositionSolver(config).check(problem)
        assert result.status.value == expected, result.reason
        assert eval_problem(problem, result.model.strings, result.model.integers)
        verdicts[shortcut] = (result.status, result.lia_queries, any(answered))
    assert verdicts[True][0] is verdicts[False][0]
    # The default answers through the shortcut, without a LIA query; the
    # encoding configuration never calls it and decides through the LIA.
    assert verdicts[True][1:] == (0, True)
    assert verdicts[False][1] >= 1 and not verdicts[False][2]
