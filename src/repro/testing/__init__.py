"""Test support: deterministic fault injection and the differential fuzzer.

The fuzzer's names are resolved on first access, not at import: importing
the package must not import :mod:`repro.testing.fuzz`, or
``python -m repro.testing.fuzz`` would find the module already loaded and
run the sweep from a second copy of it (with a ``RuntimeWarning``).
"""

from importlib import import_module

from .faults import FaultInjector, FaultSpec, InjectedFault, seeded_faults

_FUZZ_NAMES = ("DifferentialFuzzer", "FuzzFailure", "FuzzReport")

__all__ = [
    "FaultInjector",
    "FaultSpec",
    "InjectedFault",
    "seeded_faults",
    *_FUZZ_NAMES,
]


def __getattr__(name):
    if name in _FUZZ_NAMES:
        return getattr(import_module(".fuzz", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
