"""Every name a package lists in ``__all__`` resolves.

A deleted function whose name stays in ``__all__`` breaks only
``from package import *`` and attribute lookups, which nothing else in the
suite exercises; this check catches such a stale export.
"""

import importlib

import pytest

PACKAGES = (
    "repro",
    "repro.automata",
    "repro.lia",
    "repro.core",
    "repro.solver",
    "repro.strings",
    "repro.smtlib",
)


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    exported = module.__all__
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ lists names it does not define: {missing}"
