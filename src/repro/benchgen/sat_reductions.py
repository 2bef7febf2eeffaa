"""NP-hardness reductions from the paper, as executable generators.

* :func:`three_sat_to_disequalities` — Lemma 7.2: a 3-SAT formula becomes a
  system of disequalities over {0,1}-valued string variables,
* :func:`three_sat_to_not_contains` — Theorem 7.5 / Appendix D: a 3-SAT
  formula becomes a *single* ¬contains constraint.

Both reductions are equisatisfiable with the input propositional formula,
which the tests exploit (comparing against a tiny DPLL for 3-SAT).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from ..strings.ast import Contains, Problem, RegexMembership, WordEquation, lit, term

#: A clause is a triple of signed variable indices (1-based, negative = negated).
Clause = Tuple[int, int, int]


def sat_brute_force(num_vars: int, clauses: Sequence[Clause]) -> Optional[Dict[int, bool]]:
    """Tiny exhaustive SAT check used as ground truth in tests."""
    for mask in range(1 << num_vars):
        assignment = {v: bool(mask >> (v - 1) & 1) for v in range(1, num_vars + 1)}
        if all(
            any(assignment[abs(l)] == (l > 0) for l in clause)
            for clause in clauses
        ):
            return assignment
    return None


def three_sat_to_disequalities(num_vars: int, clauses: Sequence[Clause], name: str = "3sat-diseq") -> Problem:
    """Lemma 7.2: one disequality per clause.

    Variable ``x_i`` becomes a string variable ``v_i`` over the language
    ``{0,1}``; a clause like ``(x1 ∨ ¬x2 ∨ x3)`` becomes the disequality
    ``v1·v2·v3 ≠ "010"`` (the only forbidden assignment of the clause).
    """
    problem = Problem(alphabet=("0", "1"), name=name)
    for index in range(1, num_vars + 1):
        problem.add(RegexMembership(f"v{index}", "0|1"))
    for clause in clauses:
        forbidden = "".join("0" if literal > 0 else "1" for literal in clause)
        variables = term(*[f"v{abs(literal)}" for literal in clause])
        problem.add(WordEquation(variables, term(lit(forbidden)), positive=False))
    return problem


def three_sat_to_not_contains(num_vars: int, clauses: Sequence[Clause], name: str = "3sat-notcontains") -> Problem:
    """Appendix D: a single ¬contains equisatisfiable with the 3-SAT input.

    The haystack is built from one block per clause (forcing every clause to
    have a satisfied literal) followed by one block per variable (forcing
    ``s_x`` and ``s_x̄`` to take complementary values); the needle is the
    fixed word ``0000011``.
    """
    problem = Problem(alphabet=("0", "1", "#"), name=name)
    for index in range(1, num_vars + 1):
        problem.add(RegexMembership(f"p{index}", "0|1"))  # s_x
        problem.add(RegexMembership(f"n{index}", "0|1"))  # s_¬x
    needle = term(lit("0000011"))

    haystack_elements = []
    for clause in clauses:
        literal_vars = [
            (f"p{abs(literal)}" if literal > 0 else f"n{abs(literal)}") for literal in clause
        ]
        haystack_elements.extend([*term(*literal_vars), lit("0011"), lit("#")])
    for index in range(1, num_vars + 1):
        haystack_elements.extend(
            [lit("00000"), *term(f"p{index}", f"n{index}"), lit("#"), lit("000"),
             *term(f"p{index}", f"n{index}"), lit("11")]
        )
        if index != num_vars:
            haystack_elements.append(lit("#"))
    problem.add(Contains(needle, tuple(haystack_elements), positive=False))
    return problem
