"""Rule ``cache-discipline``: ``Nfa`` internals are written only in nfa.py.

Motivating incident (PR 7): the dense automata compilation is cached on
the ``Nfa`` instance and invalidated by the *managed properties*
(``states``/``initial``/``final`` setters) and the class's own mutators.
A noodler helper that re-pointed segment endpoints through a raw
attribute left a stale dense form attached to a shared copy — the
segment-endpoint aliasing bug the differential suite caught.  Writes that
bypass the managed surface are therefore banned everywhere outside
``automata/nfa.py`` itself: assignment, augmented assignment, deletion,
subscript stores and in-place mutator calls (``.add``/``.update``/...)
on ``_states``/``_initial``/``_final``/``_dense``/``_delta``/
``_next_state`` attributes.  *Reads* stay legal, but the transition
table of an automaton built from rows exists only once it is read, so
the legacy oracles and the dense compiler read it through
``Nfa.transition_table()``.

Tests are in scope: a test mutating automaton internals directly is
exactly how a stale-cache bug sneaks past the suite that exists to catch
it.  Build automata through the public mutators or assign whole sets
through the managed properties instead.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..framework import Context, Finding, Rule, register
from ..loader import ModuleInfo

#: Nfa.__slots__ members that make up the mutable core + dense cache
PROTECTED = frozenset(
    {"_states", "_initial", "_final", "_dense", "_delta", "_next_state"}
)
#: method names that mutate a set/dict in place
MUTATORS = frozenset(
    {
        "add",
        "append",
        "clear",
        "discard",
        "extend",
        "pop",
        "popitem",
        "remove",
        "setdefault",
        "update",
        "difference_update",
        "intersection_update",
        "symmetric_difference_update",
    }
)


def _protected_attr(node: ast.AST) -> Optional[str]:
    """The protected attribute name when ``node`` dereferences one."""
    if isinstance(node, ast.Attribute) and node.attr in PROTECTED:
        return node.attr
    if isinstance(node, ast.Subscript):
        return _protected_attr(node.value)
    return None


@register
class CacheDiscipline(Rule):
    name = "cache-discipline"
    description = (
        "no writes to Nfa._states/_initial/_final/_delta/_dense "
        "outside automata/nfa.py"
    )

    def applies_to(self, module: ModuleInfo) -> bool:
        return module.relpath != "src/repro/automata/nfa.py"

    def check(self, module: ModuleInfo, context: Context) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    elements = (
                        target.elts
                        if isinstance(target, (ast.Tuple, ast.List))
                        else [target]
                    )
                    for element in elements:
                        attr = _protected_attr(element)
                        if attr is not None:
                            yield self._write(module, node.lineno, attr)
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    attr = _protected_attr(target)
                    if attr is not None:
                        yield self._write(module, node.lineno, attr)
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in MUTATORS
                    and _protected_attr(func.value) is not None
                ):
                    yield self._write(
                        module, node.lineno, _protected_attr(func.value), func.attr
                    )

    def _write(
        self, module: ModuleInfo, line: int, attr: str, mutator: str = ""
    ) -> Finding:
        how = f".{mutator}(...)" if mutator else "assignment"
        return self.finding(
            module,
            line,
            f"direct write to Nfa internals ({attr} via {how}) bypasses the "
            "dense-cache invalidation — use the public mutators or the "
            "managed states/initial/final properties",
        )
