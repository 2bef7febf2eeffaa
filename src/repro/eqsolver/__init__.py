"""Word-equation substrate (stabilization / noodlification fragment).

See :mod:`repro.eqsolver.noodler` for the supported fragment and its
limitations; the string solver reports ``UNKNOWN`` when an input leaves it.
"""

from .noodler import Branch, DecompositionResult, EquationTooHard, decompose

__all__ = [
    "Branch",
    "DecompositionResult",
    "EquationTooHard",
    "decompose",
]
