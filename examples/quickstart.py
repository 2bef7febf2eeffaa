"""Quickstart: the incremental session API (and the one-shot variant).

Run with::

    PYTHONPATH=src python examples/quickstart.py
"""

from repro import (
    Contains,
    LengthConstraint,
    PrefixOf,
    Problem,
    PositionSolver,
    RegexMembership,
    Session,
    SolverConfig,
    WordEquation,
    str_len,
    term,
    lit,
)
from repro.lia import eq as lia_eq, ge


def show(title, result, model=None):
    rendered = model.strings if model else ""
    print(f"{title:52} -> {result.status.value:7} {rendered}")


def main():
    # ------------------------------------------------------------------
    # The session API: one assertion stack, many related checks.  The
    # pipeline caches normalisation, decomposition, the tag-automaton
    # encodings and the per-branch LIA solvers across the whole chain.
    # ------------------------------------------------------------------
    session = Session(config=SolverConfig(timeout=30.0), alphabet=tuple("ab"))

    # 1. A disequality between two regular variables (§5.1).
    session.add(RegexMembership("x", "(ab)*"), name="mx")
    session.add(RegexMembership("y", "(a|b)*b"), name="my")
    session.add(WordEquation(term("x"), term("y"), positive=False), name="diseq")
    show("x in (ab)*, y in (a|b)*b, x != y", session.check(), session.model())

    # 2. Narrow the same query: a push/pop excursion adding a length bound.
    session.push()
    session.add(LengthConstraint(ge(str_len("x"), 4)), name="len4")
    show("  ... and |x| >= 4 (pushed)", session.check(), session.model())
    session.pop()  # the bound is gone, the cached pipeline state is not

    # 3. An unsatisfiable excursion: two fresh variables over the same
    #    primitive word always commute (§5.2) — and the unsat core names
    #    exactly the participating assertions (mx/my/diseq stay out).
    session.push()
    session.add(RegexMembership("v", "(ab)*"), name="mv")
    session.add(RegexMembership("w", "(ab)*"), name="mw")
    session.add(WordEquation(term("v", "w"), term("w", "v"), positive=False), name="comm")
    result = session.check()
    show("  ... and vw != wv with v,w in (ab)* (pushed)", result)
    if result.is_unsat:
        print(f"{'':52}    unsat core: {', '.join(session.unsat_core())}")
    session.pop()

    # 4. Checks under assumptions: one-call atoms that do not persist.
    assumption = LengthConstraint(ge(str_len("y"), 3))
    show("  ... assuming |y| >= 3 (not asserted)", session.check([assumption]),
         session.model())

    # 5. An impossible assumption: ``check(assumptions=…)`` cores name it.
    #    The core is found by deletion: each assertion whose removal keeps
    #    the rest unsat is dropped, one re-check each on the warm pipeline.
    #    |x| = 3 cannot hold for x in (ab)*, so the core is the assumption
    #    and the membership of x.
    result = session.check([("odd-length", LengthConstraint(lia_eq(str_len("x"), 3)))])
    show("  ... assuming |x| = 3 (impossible over (ab)*)", result)
    if result.is_unsat:
        print(f"{'':52}    unsat core: {', '.join(session.unsat_core())}")
    stats = session.statistics()
    print(f"{'':52}    {stats['checks']} checks, "
          f"{stats['component_hits']} encoding reuses, "
          f"{stats['branch_solver_reuses']} LIA-stack reuses")

    # ------------------------------------------------------------------
    # The classic one-shot variant: build a Problem, check it once.
    # ------------------------------------------------------------------
    solver = PositionSolver(SolverConfig(timeout=30.0))

    problem = Problem(alphabet=tuple("ab"), name="prefix")
    problem.add(RegexMembership("greeting", "(a|b)*"))
    problem.add(WordEquation(term("greeting"), term(lit("ab"), "rest")))
    problem.add(PrefixOf(term(lit("b")), term("greeting"), positive=False))
    result = solver.check(problem)
    show('greeting = "ab" . rest, not prefixof("b", greeting)', result, result.model)

    problem = Problem(alphabet=tuple("ab"), name="notcontains")
    problem.add(RegexMembership("x", "a*"))
    problem.add(RegexMembership("y", "(ab)*"))
    problem.add(Contains(term("x"), term("y"), positive=False))
    problem.add(LengthConstraint(ge(str_len("y"), 4)))
    result = solver.check(problem)
    show("x in a*, y in (ab)*, |y| >= 4, not contains(x, y)", result, result.model)


if __name__ == "__main__":
    main()
