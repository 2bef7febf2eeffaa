"""Rule ``async-safety``: no blocking calls inside ``async def`` bodies.

``repro.serve`` runs one asyncio event loop in the parent process; every
coroutine that blocks stalls *all* connections, the job deadlines and
the hung-fleet watchdog at once.  The codebase's idiom for unavoidable
blocking work is ``await asyncio.to_thread(...)`` (reading the warm scripts,
executor shutdown) — this rule catches the direct calls that bypass it:

* ``time.sleep`` (use ``await asyncio.sleep``),
* synchronous file I/O via the ``open`` builtin,
* the ``socket`` module's blocking constructors/calls,
* ``subprocess`` invocations,
* ``<pool>.submit(...).result()`` — the chained form synchronously joins
  a worker future on the loop (``await asyncio.wrap_future`` instead).

Nested synchronous ``def``s are excluded from the scan: a closure defined
inside a coroutine typically runs elsewhere (an executor, a done
callback), so only code the coroutine itself executes is held to the
rule.  The rule scans the whole tree — any module may grow a coroutine —
and reports nothing where no ``async def`` exists.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from ..framework import Context, Finding, Rule, register
from ..loader import ModuleInfo

#: module-level call bases that block by nature
BLOCKING_MODULES = frozenset({"socket", "subprocess"})


def _async_body_nodes(func: ast.AsyncFunctionDef) -> Iterator[ast.AST]:
    """Nodes executed by the coroutine itself (nested sync defs excluded)."""
    stack: List[ast.AST] = list(func.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


@register
class AsyncSafety(Rule):
    name = "async-safety"
    description = (
        "no time.sleep / sync file-socket-subprocess I/O / future.result() "
        "joins inside async def bodies"
    )

    def applies_to(self, module: ModuleInfo) -> bool:
        return not module.is_test

    def check(self, module: ModuleInfo, context: Context) -> Iterator[Finding]:
        for outer in ast.walk(module.tree):
            if not isinstance(outer, ast.AsyncFunctionDef):
                continue
            for node in _async_body_nodes(outer):
                if not isinstance(node, ast.Call):
                    continue
                message = self._blocking_call(node)
                if message:
                    yield self.finding(
                        module,
                        node.lineno,
                        f"blocking call in async def {outer.name}(): {message}",
                    )

    @staticmethod
    def _blocking_call(node: ast.Call) -> str:
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            return "open() — wrap in await asyncio.to_thread(...)"
        if isinstance(func, ast.Attribute):
            if isinstance(func.value, ast.Name):
                base, attr = func.value.id, func.attr
                if base == "time" and attr == "sleep":
                    return "time.sleep() — use await asyncio.sleep()"
                if base in BLOCKING_MODULES:
                    return f"{base}.{attr}() — blocking {base} call on the loop"
            if (
                func.attr == "result"
                and isinstance(func.value, ast.Call)
                and isinstance(func.value.func, ast.Attribute)
                and func.value.func.attr == "submit"
            ):
                return (
                    "submit(...).result() joins a worker future on the loop — "
                    "await asyncio.wrap_future(...) instead"
                )
        return ""
