"""The position-hard workload (footnote 10 of the paper).

Hand-crafted formulae "inspired by the problem of testing primitiveness of a
word": a single disequality or ¬contains over concatenations of variables
(with repetitions) whose languages are simple flat expressions such as ``a*``
or ``(abc)*``.  Satisfying assignments cannot be found by naive guessing, and
unsatisfiable instances require genuine position reasoning — which is why
every solver except the position-aware one fails on this set in Table 1.
"""

from __future__ import annotations

import random
from typing import Iterator, Optional, Tuple

from ..strings.ast import Contains, Problem, RegexMembership, WordEquation, term

Instance = Tuple[str, Problem, Optional[str]]

#: simple flat languages used for the variables
_FLAT_LANGUAGES = ["a*", "b*", "(ab)*", "(ba)*", "(abc)*", "(ab)*a", "c*"]


def commuting_disequalities(count: int, seed: int = 11) -> Iterator[Instance]:
    """Disequalities between permuted concatenations, e.g. ``x·y ≠ y·x``.

    When both variables range over powers of the same primitive word the two
    sides always commute and the instance is unsatisfiable; with different
    primitive words it is satisfiable (but the witness needs both variables
    non-empty, which guessing-based solvers rarely find).
    """
    rng = random.Random(seed)
    for index in range(count):
        same = rng.random() < 0.5
        base = rng.choice(["a*", "(ab)*", "(abc)*"])
        other = base if same else rng.choice([l for l in ["a*", "b*", "(ab)*"] if l != base])
        problem = Problem(alphabet=tuple("abc"), name=f"position-hard-comm-{index}")
        problem.add(RegexMembership("x", base))
        problem.add(RegexMembership("y", other))
        problem.add(WordEquation(term("x", "y"), term("y", "x"), positive=False))
        expected = "unsat" if same else "sat"
        yield problem.name, problem, expected


def repetition_disequalities(count: int, seed: int = 12) -> Iterator[Instance]:
    """Disequalities with repeated variables such as ``x·y·z ≠ x·x·y``."""
    rng = random.Random(seed)
    shapes = [
        (("x", "y", "z"), ("x", "x", "y")),
        (("x", "y", "x"), ("y", "x", "y")),
        (("x", "x"), ("y", "y")),
        (("x", "y"), ("y", "y")),
    ]
    for index in range(count):
        lhs, rhs = rng.choice(shapes)
        problem = Problem(alphabet=tuple("abc"), name=f"position-hard-rep-{index}")
        languages = {}
        for name in sorted(set(lhs + rhs)):
            languages[name] = rng.choice(_FLAT_LANGUAGES[:5])
            problem.add(RegexMembership(name, languages[name]))
        problem.add(WordEquation(term(*lhs), term(*rhs), positive=False))
        yield problem.name, problem, None


def primitive_not_contains(count: int, seed: int = 13) -> Iterator[Instance]:
    """¬contains instances testing primitiveness-like properties.

    ``¬contains(x, y·y)`` with ``x`` and ``y`` over the same flat language is
    satisfiable only through careful alignment reasoning (e.g. choosing ``x``
    longer than ``y·y``); ``¬contains(x, x·x)`` with a forced non-empty ``x``
    is unsatisfiable.
    """
    rng = random.Random(seed)
    for index in range(count):
        problem = Problem(alphabet=tuple("abc"), name=f"position-hard-nc-{index}")
        language = rng.choice(["a*", "(ab)*", "(abc)*"])
        kind = rng.choice(["self", "cross"])
        if kind == "self":
            # x occurs in x·x at offset 0: unsatisfiable no matter the value.
            problem.add(RegexMembership("x", language))
            problem.add(Contains(term("x"), term("x", "x"), positive=False))
            expected = "unsat"
        else:
            problem.add(RegexMembership("x", language))
            problem.add(RegexMembership("y", rng.choice(["b*", "(ba)*"])))
            problem.add(Contains(term("x", "x"), term("y"), positive=False))
            expected = "sat"
        yield problem.name, problem, expected


def generate(count: int, seed: int = 10) -> Iterator[Instance]:
    """The combined position-hard set (a mix of the three families)."""
    per_family = max(1, count // 3)
    yield from commuting_disequalities(per_family, seed)
    yield from repetition_disequalities(per_family, seed + 1)
    yield from primitive_not_contains(count - 2 * per_family, seed + 2)
