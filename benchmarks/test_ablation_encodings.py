"""Ablation benchmarks for the design choices called out in DESIGN.md.

* single-predicate construction (A^II, §5.2) vs. the general system
  construction (A^III, §5.3) on the same disequality — the dedicated
  construction is markedly cheaper, which is why the solver special-cases it;
* cost of the Parikh/LIA pipeline on a representative tag automaton;
* growth of the generated formula with the number of variable occurrences
  (the paper's polynomiality claim, Theorem 5.2).
"""

import pytest

from repro.automata import compile_regex
from repro.core.predicates import Disequality
from repro.core.single import encode_single
from repro.core.system import encode_system
from repro.lia import LiaSolver, formula_size


def _automata():
    return {
        "x": compile_regex("(ab)*", alphabet="ab"),
        "y": compile_regex("(a|b)*b", alphabet="ab"),
    }


PREDICATE = Disequality(("x",), ("y",))


def test_single_construction_solving(benchmark):
    automata = _automata()

    def solve():
        encoding = encode_single(PREDICATE, automata)
        return LiaSolver(timeout=60).check(encoding.formula).status.value

    result = benchmark(solve)
    assert result == "sat"


def test_system_construction_encoding_only(benchmark):
    """The A^III construction on the same predicate (encoding cost only)."""
    automata = _automata()

    def encode():
        return formula_size(encode_system([PREDICATE], automata).formula)

    size = benchmark(encode)
    single_size = formula_size(encode_single(PREDICATE, automata).formula)
    # The general construction is strictly larger — the reason the solver
    # special-cases single predicates.
    assert size > single_size


def test_formula_size_grows_polynomially(benchmark):
    """Theorem 5.2: |φ^II| is polynomial in n·m·|R|."""
    automata = {
        "x": compile_regex("(ab)*", alphabet="ab"),
        "y": compile_regex("(ba)*", alphabet="ab"),
        "z": compile_regex("a*", alphabet="ab"),
    }

    def sizes():
        results = []
        for occurrences in (1, 2, 3):
            predicate = Disequality(("x", "y") * occurrences, ("z",) * occurrences)
            results.append(formula_size(encode_single(predicate, automata).formula))
        return results

    values = benchmark(sizes)
    assert values[0] < values[1] < values[2]
    # Roughly quadratic growth in the number of occurrence pairs — far below
    # the exponential blow-up of the naive ordering enumeration (§5.3 intro).
    assert values[2] < 25 * values[0]


def test_parikh_lia_pipeline(benchmark):
    """End-to-end LIA solving cost of a representative Parikh tag formula."""
    automata = {
        "x": compile_regex("(abc)*", alphabet="abc"),
        "y": compile_regex("(a|b|c)*", alphabet="abc"),
    }
    encoding = encode_single(Disequality(("x",), ("y",)), automata)

    def solve():
        return LiaSolver(timeout=60).check(encoding.formula).status.value

    assert benchmark(solve) == "sat"
