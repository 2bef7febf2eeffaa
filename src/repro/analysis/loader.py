"""Parse the repository's Python sources into analyzable modules.

A :class:`ModuleInfo` bundles what every rule needs: the parsed AST, the
raw source lines (for context in reports), the repo-relative path the
scope predicates match on, and the per-line suppression comments.  The
loader is filesystem-only — it never imports the analyzed code, so a
module with an import-time side effect (or an import cycle) is as
analyzable as any other.

Suppressions
------------

A finding is suppressed by a comment on the finding's line or on the line
directly above it::

    while frontier:  # repro: allow(checkpoint-coverage): oracle, budget-free

The grammar is ``# repro: allow(<rule>): <reason>``; the reason is
mandatory.  Comments that *look* like suppressions but are malformed
(missing rule, missing reason) are reported by the ``suppression`` meta
rule rather than silently ignored — a suppression that does not say *why*
is exactly the kind of unaudited escape hatch this analyzer exists to
prevent.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: well-formed suppression: rule name, then a non-empty reason
_ALLOW = re.compile(
    r"#\s*repro:\s*allow\(\s*(?P<rule>[A-Za-z0-9_.-]+)\s*\)\s*:\s*(?P<reason>\S.*)$"
)
#: anything that *tries* to be a suppression (used to flag malformed ones)
_ALLOW_LIKE = re.compile(r"#\s*repro:\s*allow\b(?P<rest>.*)$")


@dataclass(frozen=True)
class Suppression:
    """One parsed ``# repro: allow(rule): reason`` comment."""

    rule: str
    reason: str
    line: int


@dataclass
class ModuleInfo:
    """One parsed source file plus everything rules match on."""

    path: str
    #: repo-relative, '/'-separated (``src/repro/lia/simplify.py``)
    relpath: str
    tree: ast.Module
    lines: List[str]
    #: well-formed suppressions, keyed by the line they appear on
    suppressions: Dict[int, List[Suppression]] = field(default_factory=dict)
    #: ``(line, comment_text)`` of malformed allow-comments
    malformed_allows: List[Tuple[int, str]] = field(default_factory=list)

    @property
    def is_test(self) -> bool:
        return self.relpath.startswith("tests/")

    def in_package(self, *parts: str) -> bool:
        """True when the module lives under ``src/repro/<parts...>/``."""
        prefix = "/".join(("src", "repro") + parts)
        return self.relpath == prefix + ".py" or self.relpath.startswith(prefix + "/")

    def allowed(self, rule: str, line: int) -> Optional[Suppression]:
        """The suppression covering ``rule`` at ``line``, if any.

        A suppression covers the line it sits on and the line below it
        (i.e. it may be written trailing the offending statement or on its
        own line directly above).
        """
        for at in (line, line - 1):
            for spec in self.suppressions.get(at, ()):
                if spec.rule == rule:
                    return spec
        return None


def _collect_comments(source: str) -> List[Tuple[int, str]]:
    """All ``(line, text)`` comments, via tokenize (string-literal safe)."""
    comments: List[Tuple[int, str]] = []
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.COMMENT:
                comments.append((token.start[0], token.string))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # The AST parse below is the authoritative failure point; a file
        # tokenize chokes on simply contributes no suppressions.
        pass
    return comments


def parse_module(path: str, relpath: str, source: Optional[str] = None) -> ModuleInfo:
    """Parse one file into a :class:`ModuleInfo` (raises ``SyntaxError``)."""
    if source is None:
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
    tree = ast.parse(source, filename=relpath)
    module = ModuleInfo(
        path=path, relpath=relpath, tree=tree, lines=source.splitlines()
    )
    for line, text in _collect_comments(source):
        match = _ALLOW.search(text)
        if match:
            spec = Suppression(
                rule=match.group("rule"), reason=match.group("reason").strip(), line=line
            )
            module.suppressions.setdefault(line, []).append(spec)
        elif _ALLOW_LIKE.search(text):
            module.malformed_allows.append((line, text.strip()))
    return module


def repo_root() -> str:
    """Locate the repository root (the directory holding ``src/repro``).

    Walks upward from this package's location, which keeps
    ``python -m repro.analysis`` working from any working directory.
    """
    here = os.path.dirname(os.path.abspath(__file__))
    probe = here
    while True:
        if os.path.isdir(os.path.join(probe, "src", "repro")):
            return probe
        parent = os.path.dirname(probe)
        if parent == probe:
            # Fall back to the package-relative guess: .../src/repro/analysis
            return os.path.dirname(os.path.dirname(os.path.dirname(here)))
        probe = parent


#: directories scanned by default, relative to the repo root
DEFAULT_SCAN = ("src/repro", "tests")


def iter_source_files(root: str, scan: Sequence[str] = DEFAULT_SCAN) -> List[str]:
    """Every ``.py`` file under the scan roots, sorted for determinism."""
    found: List[str] = []
    for rel in scan:
        base = os.path.join(root, rel)
        if os.path.isfile(base) and base.endswith(".py"):
            found.append(base)
            continue
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if name.endswith(".py"):
                    found.append(os.path.join(dirpath, name))
    return sorted(found)


def load_modules(
    root: Optional[str] = None, scan: Sequence[str] = DEFAULT_SCAN
) -> List[ModuleInfo]:
    """Parse every source file under ``root`` into :class:`ModuleInfo`s."""
    base = root or repo_root()
    modules: List[ModuleInfo] = []
    for path in iter_source_files(base, scan):
        relpath = os.path.relpath(path, base).replace(os.sep, "/")
        modules.append(parse_module(path, relpath))
    return modules
