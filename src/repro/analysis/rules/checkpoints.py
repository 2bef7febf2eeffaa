"""Rule ``checkpoint-coverage``: unbounded engine loops must checkpoint.

Motivating incident (PR 6): the bounded-time layer threaded cooperative
:func:`repro.budget.checkpoint` calls through every known hot loop, yet a
quadratic elimination chain in ``lia/simplify.py`` stalled a 0.05 s budget
for 3.7 s — it was only found by a tiny-timeout *sweep*, because nothing
checked statically that new loops keep the contract.  This rule is that
check.

Scope: the engine packages where a loop can depend on problem size —
``automata/``, ``core/``, ``eqsolver/``, ``lia/``, ``solver/``, ``strings/``.

What counts as *unbounded*:

* a ``while`` statement (worklists, fixpoints, solver main loops), unless
  its body is *trivial* — no nested loops and no calls beyond an O(1)
  allowlist (``append``, ``pop``, ``bit_length``, …).  Trivial whiles are
  the dense core's bit-scan idiom (``while mask: low = mask & -mask; …``)
  and arithmetic counters: each does constant local work per iteration
  and is bounded by a machine word or an input measure.
* a ``for`` statement with *product nesting*: an inner loop whose
  iterable is independent of the enclosing loop's target.  ``for a in xs:
  for b in ys:`` multiplies two input dimensions; by contrast ``for src,
  row in delta.items(): for dst in row:`` merely traverses the leaves of
  a nested structure — flat work in the structure's size — and is exempt,
  as are constant ``range(<literal>)`` inner loops and trivial whiles.
  (``for j in range(i, n)`` counts as a traversal too; triangular loops
  slip through — the lint over-approximates toward silence, never noise.)

Coverage follows the codebase's two budget-charging idioms:

* **per-iteration**: the outermost hot loop checkpoints once per
  iteration with a cost scaled to the inner work (``automata/dense.py``'s
  worklists) — so a loop passes when its own body, or any *enclosing*
  loop's body, reaches a checkpoint directly or through a callee resolved
  by the :mod:`repro.analysis.callgraph` over-approximation;
* **charge-up-front**: a conversion checkpoints once with a cost scaled
  to the whole job before running its (terminating) loops
  (``DenseNfa.from_nfa``) — so a ``for`` loop also passes when the
  enclosing *function* reaches a checkpoint anywhere.  A ``while`` does
  not get this out: its iteration count is not structurally bounded, so
  an up-front charge can never cover it.

Only the outermost uncovered loop of a nest is reported, so one missing
checkpoint yields one finding, not one per nesting level.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from ..callgraph import call_name
from ..framework import Context, Finding, Rule, register
from ..loader import ModuleInfo

#: engine packages under src/repro/ whose loops must checkpoint
ENGINE_PACKAGES = ("automata", "core", "eqsolver", "lia", "solver", "strings")

#: calls considered O(1) when deciding whether a while body is trivial
TRIVIAL_CALLS = frozenset(
    {
        "append",
        "appendleft",
        "pop",
        "popleft",
        "add",
        "discard",
        "remove",
        "bit_length",
        "bit_count",
        "len",
        "abs",
        "min",
        "max",
        "next",
        "isinstance",
        "ord",
        "chr",
        "id",
        "iter",
        # log-bounded / amortised-O(1) container ops
        "heappush",
        "heappop",
        "popitem",
        # short-circuit scans of per-iteration locals
        "all",
        "any",
    }
)

_LOOPS = (ast.While, ast.For, ast.AsyncFor)
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _constant_range(node: ast.AST) -> bool:
    """``for _ in range(<literal>)`` (or two/three literal args)."""
    if not isinstance(node, (ast.For, ast.AsyncFor)):
        return False
    iterable = node.iter
    if not (
        isinstance(iterable, ast.Call)
        and isinstance(iterable.func, ast.Name)
        and iterable.func.id == "range"
        and not iterable.keywords
    ):
        return False
    return all(
        isinstance(arg, ast.Constant) and isinstance(arg.value, int)
        for arg in iterable.args
    )


def _trivial_while(node: ast.AST) -> bool:
    """A while whose body does constant local work per iteration."""
    if not isinstance(node, ast.While):
        return False
    for child in ast.walk(node):
        if child is node:
            continue
        if isinstance(child, _LOOPS):
            return False
        if isinstance(child, ast.Call):
            name = call_name(child)
            if name is None or name not in TRIVIAL_CALLS:
                return False
    return True


def _loop_body(node) -> ast.Module:
    """The loop body+else as one walkable tree (excludes the test/iter)."""
    return ast.Module(body=list(node.body) + list(node.orelse), type_ignores=[])


def _target_names(loop: ast.AST) -> Set[str]:
    names: Set[str] = set()
    target = getattr(loop, "target", None)
    if target is not None:
        for node in ast.walk(target):
            if isinstance(node, ast.Name):
                names.add(node.id)
    return names


def _has_product_nesting(outer: ast.For) -> bool:
    """Does ``outer`` contain an inner loop over an independent iterable?

    ``bound`` accumulates the loop targets *and* locals assigned from them
    (``expr = constraint.expr`` makes ``expr`` derived), so iterating a
    derived value still reads as a traversal of the outer structure.
    """

    def search(node: ast.AST, bound: Set[str]) -> bool:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Assign, ast.AnnAssign)) and getattr(
                child, "value", None
            ) is not None:
                refs = {
                    name.id
                    for name in ast.walk(child.value)
                    if isinstance(name, ast.Name)
                }
                if refs & bound:
                    targets = (
                        child.targets
                        if isinstance(child, ast.Assign)
                        else [child.target]
                    )
                    for target in targets:
                        for name in ast.walk(target):
                            if isinstance(name, ast.Name):
                                bound.add(name.id)
            if isinstance(child, _SCOPES):
                # a nested def's loops run in its caller's context
                continue
            if isinstance(child, ast.While):
                if not _trivial_while(child):
                    return True
                continue  # a trivial while contains no further loops
            if isinstance(child, (ast.For, ast.AsyncFor)):
                if not _constant_range(child):
                    refs = {
                        name.id
                        for name in ast.walk(child.iter)
                        if isinstance(name, ast.Name)
                    }
                    if not refs & bound:
                        return True  # independent dimension: a product
                if search(child, bound | _target_names(child)):
                    return True
                continue
            if search(child, bound):
                return True
        return False

    return search(_loop_body(outer), _target_names(outer))


def _unbounded(node: ast.AST) -> bool:
    if isinstance(node, ast.While):
        return not _trivial_while(node)
    if isinstance(node, (ast.For, ast.AsyncFor)):
        return not _constant_range(node) and _has_product_nesting(node)
    return False


@register
class CheckpointCoverage(Rule):
    name = "checkpoint-coverage"
    description = (
        "while-loops and product-nested for-loops in engine modules reach a "
        "budget checkpoint (per-iteration or charged up front)"
    )

    def applies_to(self, module: ModuleInfo) -> bool:
        return any(module.in_package(package) for package in ENGINE_PACKAGES)

    def check(self, module: ModuleInfo, context: Context) -> Iterator[Finding]:
        findings: List[Finding] = []
        self._visit(module, context, module.tree, False, False, findings)
        return iter(findings)

    def _visit(
        self,
        module: ModuleInfo,
        context: Context,
        node: ast.AST,
        covered: bool,
        func_covered: bool,
        findings: List[Finding],
    ) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _LOOPS):
                reaches = covered or context.callgraph.node_reaches_checkpoint(
                    _loop_body(child)
                )
                # for-loops terminate, so an up-front charge anywhere in
                # the enclosing function covers them; whiles need the
                # per-iteration form.
                excused = reaches or (
                    func_covered and not isinstance(child, ast.While)
                )
                if not excused and _unbounded(child):
                    kind = (
                        "while loop"
                        if isinstance(child, ast.While)
                        else "product-nested for loop"
                    )
                    findings.append(
                        self.finding(
                            module,
                            child.lineno,
                            f"{kind} never reaches a budget checkpoint "
                            "(call repro.budget.checkpoint()/check_now() in "
                            "the body, directly or via a callee)",
                        )
                    )
                    # inner loops of a flagged nest are not re-reported
                    reaches = True
                self._visit(module, context, child, reaches, func_covered, findings)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                body = ast.Module(body=list(child.body), type_ignores=[])
                self._visit(
                    module,
                    context,
                    child,
                    False,
                    context.callgraph.node_reaches_checkpoint(body),
                    findings,
                )
            elif isinstance(child, ast.Lambda):
                self._visit(module, context, child, False, False, findings)
            else:
                self._visit(module, context, child, covered, func_covered, findings)
