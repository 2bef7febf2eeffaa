"""The pipeline workload generator: concrete/symbolic agreement, curated
decidability, and the shrink lattice (see ``src/repro/benchgen/pipelines.py``)."""

import pytest

from repro import Session
from repro.benchgen import pipelines as P
from repro.smtlib import parse_problem
from repro.smtlib.printer import problem_to_smtlib
from repro.solver import PositionSolver, SolverConfig
from repro.solver.bruteforce import brute_force_check
from repro.solver.result import Status
from repro.strings.semantics import eval_problem

SUITE_SEED = 11  # what benchmark_sets(scale=1, seed=7) passes to generate()


def _solver(timeout=30.0):
    return PositionSolver(SolverConfig(timeout=timeout))


def _session(problem, timeout=30.0):
    """A session holding ``problem``'s atoms (its counters outlive the check)."""
    session = Session(config=SolverConfig(timeout=timeout), alphabet=problem.alphabet)
    for atom in problem.atoms:
        session.add(atom)
    return session


# ----------------------------------------------------------------------
# Stage semantics: concrete execution vs symbolic compilation
# ----------------------------------------------------------------------
def test_concat_substr_replace_stages_concrete():
    pipe = P.Pipeline(
        "(a|b)*",
        3,
        (
            P.ConcatLit("ab", prepend=True),
            P.SubstrWindow(1, 3),
            P.ReplaceOnce("ba", "b"),
        ),
    )
    # "ba" -> "abba" -> substr(1,3)="bba" -> replace once -> "bb"
    assert pipe.run("ba") == "bb"
    assert pipe.run("") == "b"  # "ab" -> "b" -> "b"


def test_regex_filter_drops_rejected_words():
    pipe = P.Pipeline("(a|b)*", 2, (P.RegexFilter("a(a|b)*"),))
    assert pipe.run("ab") == "ab"
    assert pipe.run("ba") is None


def test_splitjoin_bound_excludes_overflowing_inputs():
    pipe = P.Pipeline("(a|b)*", 4, (P.SplitJoin("b", "a", bound=2),))
    assert pipe.run("ab") == "aa"
    assert pipe.run("bb") == "aa"
    assert pipe.run("bbb") is None  # three separators > bound 2


def test_translate_is_a_bounded_homomorphism():
    pipe = P.Pipeline("(a|b)*", 4, (P.Translate((("b", "a"),), bound=2),))
    assert pipe.run("ba") == "aa"
    assert pipe.run("bbb") is None


def test_replace_var_enumerates_needle_language():
    stage = P.ReplaceVar("a(a|b)", needle_bound=2, replacement="")
    pipe = P.Pipeline("(a|b)*", 3, (stage,))
    assert stage.needle_words(("a", "b")) == ["aa", "ab"]
    # needle "ab" deletes the first "ab"
    assert pipe.run("aab", ["ab"]) == "a"


def test_every_execution_satisfies_the_compiled_problem():
    """The bridge invariant: each concrete execution extends to a model of
    the symbolic compilation (checked via the semantics oracle)."""
    pipe = P.Pipeline(
        "(a|b)*b",
        3,
        (P.ConcatLit("a", prepend=False), P.ReplaceOnce("ab", "b"), P.SubstrWindow(0, 2)),
    )
    scenario = P.PipelineScenario("bridge", "reachability", pipe, payload="b")
    problem = scenario.problem()
    checked = 0
    for word, _needles, output in pipe.executions():
        if "b" not in output:
            continue
        strings = {"l0": word}
        value = word
        for index, stage in enumerate(pipe.stages, start=1):
            value = stage.apply(value, [])
            strings[f"l{index}"] = value
        assert eval_problem(problem, strings), (word, strings)
        checked += 1
    assert checked > 0


# ----------------------------------------------------------------------
# Ground truth vs solver and brute force
# ----------------------------------------------------------------------
def test_suite_instances_decide_and_match_ground_truth():
    """The curated suite seed: every instance decided, verdicts match the
    enumerated ground truth, every sat model verified (this is exactly
    what the committed corpus and the perf bench gate on)."""
    refuted_by_lengths = 0
    for name, problem, expected in P.generate(12, seed=SUITE_SEED):
        session = _session(problem)
        result = session.check()
        assert result.status in (Status.SAT, Status.UNSAT), (
            name,
            result.status,
            result.reason,
        )
        assert result.status.value == expected, (name, result.status, expected)
        if result.status is Status.SAT:
            model = result.model
            assert model is not None, name
            assert eval_problem(problem, model.strings, model.integers), name
        refuted_by_lengths += session.statistics()["length_refutations"] > 0
    # Some case of the suite is refuted by its lengths before decomposition.
    assert refuted_by_lengths >= 1


PIPE_25 = """
(set-logic QF_SLIA)
(set-info :alphabet "ab")
(declare-const l0 String)
(declare-const l1 String)
(declare-const l2 String)
(assert (str.in_re l0 (re.* (re.union (re.++ (str.to_re "a") (str.to_re "a")) (str.to_re "b")))))
(assert (<= (+ (str.len l0) (- 4)) 0))
(assert (= l1 (str.replace l0 "a" "aa")))
(assert (= l2 (str.substr l1 1 1)))
(assert (= l2 "bba"))
(check-sat)
"""


def test_length_check_refutes_each_case_before_decomposing_it():
    """``pipe-25-inversion`` asks a one-character window to equal ``bba``:
    the lengths of every reduction case with equations contradict, so no
    case is decomposed."""
    session = _session(parse_problem(PIPE_25))
    assert session.check().status is Status.UNSAT
    statistics = session.statistics()
    assert statistics["decomposition_misses"] == 0
    assert statistics["length_refutations"] == 2


def test_literal_target_split_decides_by_the_noodles_found():
    """``pipe-22`` of seed 12 inverts one ``str.replace`` into the literal
    ``baaaabb``: its 5-part split has 4096 boundary choices but almost all
    are empty, so the walk finds few noodles and the instance decides."""
    problem, expected = {n: (p, e) for n, p, e in P.generate(36, seed=12)}["pipe-22-inversion"]
    assert expected == "sat"
    result = _solver().check(problem)
    assert result.status is Status.SAT, result.reason
    assert eval_problem(problem, result.model.strings, result.model.integers)


def test_ground_truth_agrees_with_brute_force_on_small_instances():
    confirmed = 0
    for seed in range(8):
        scenario = P.scenario_from_seed(seed, include_gaps=False)
        expected = scenario.ground_truth()
        brute = brute_force_check(scenario.problem(), max_length=3, timeout=0.5)
        if brute.status in (Status.SAT, Status.UNSAT):
            assert brute.status.value == expected, scenario.name
            confirmed += 1
    assert confirmed > 0  # the oracle must actually decide something


def test_equivalence_shares_the_input_variable():
    scenario = P.scenario_from_seed(2, include_gaps=False)
    assert scenario.kind == "equivalence"
    problem = scenario.problem()
    variables = set(problem.string_variables())
    assert "l0" in variables and "r0" not in variables


# ----------------------------------------------------------------------
# Shrinking
# ----------------------------------------------------------------------
def test_shrink_candidates_are_strictly_smaller():
    for seed in (0, 1, 2, 5):
        scenario = P.scenario_from_seed(seed)
        for candidate in scenario.shrink_candidates():
            assert candidate.size() < scenario.size(), (scenario.name, candidate)


def test_shrink_reaches_a_fixpoint():
    scenario = P.scenario_from_seed(4)
    current = scenario
    for _ in range(100):
        candidates = [c for c in current.shrink_candidates() if c.size() < current.size()]
        if not candidates:
            break
        current = candidates[0]
    else:
        pytest.fail("shrinking did not converge in 100 steps")
    assert current.size() <= scenario.size()


# ----------------------------------------------------------------------
# Pinned gaps
# ----------------------------------------------------------------------
def test_gap_problems_carry_ground_truth():
    names = [name for name, _, _ in P.gap_problems()]
    assert names == [
        "gap-levi-3split",
        "gap-var-needle-absent",
        "gap-var-needle-fixpoint",
    ]
    for _, problem, expected in P.gap_problems():
        assert expected in ("sat", "unsat")
        assert problem.atoms
