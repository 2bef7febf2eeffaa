"""Every name a package lists in ``__all__`` resolves, and every reserved
name format is spelled only by the module that produces it.

A deleted function whose name stays in ``__all__`` breaks only
``from package import *`` and attribute lookups, which nothing else in the
suite exercises; this check catches such a stale export.  A module that
slices a reserved name by hand (``@len.<x>`` length variables, ``__s<k>``
simplex slacks) breaks silently when the format changes; the ownership
check sends every such parse through the producing module.
"""

import ast
import importlib
import pathlib

import pytest

from repro.strings import length_variable, string_of_length_variable

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


# ----------------------------------------------------------------------
# Reserved name formats: only the producing module spells them
# ----------------------------------------------------------------------
SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

#: a reserved name format, the module that produces it (the only one that
#: may spell it in a string literal) and the producing function
OWNERS = (
    ("@len.", "strings/ast.py"),  # length_variable / string_of_length_variable
    ("__s", "lia/simplex.py"),  # Simplex._fresh_slack
)


def _code_strings(path):
    """The string literals of one module, docstrings excluded, with their lines."""
    tree = ast.parse(path.read_text())
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                docstrings.add(id(first.value))
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in docstrings:
                yield node.lineno, node.value


@pytest.mark.parametrize("fragment, owner", OWNERS)
def test_name_format_is_spelled_only_by_its_owner(fragment, owner):
    spelled = sorted(
        f"{path.relative_to(SRC).as_posix()}:{line}"
        for path in SRC.rglob("*.py")
        for line, value in _code_strings(path)
        if fragment in value
    )
    assert spelled, f"{owner} no longer spells {fragment!r}: update this guard"
    strays = [site for site in spelled if not site.startswith(owner + ":")]
    assert not strays, f"parse {fragment!r} names through {owner}, not by hand: {strays}"


@pytest.mark.parametrize("name", ["x", ".r0.u", "%seg3", "_lit0"])
def test_string_of_length_variable_inverts_length_variable(name):
    assert string_of_length_variable(length_variable(name)) == name


@pytest.mark.parametrize("name", ["@lenk.x", "k", "x"])
def test_string_of_length_variable_rejects_other_names(name):
    assert string_of_length_variable(name) is None
