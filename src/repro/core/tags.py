"""Tags attached to tag-automaton transitions (§4 of the paper).

A tag is an immutable, hashable token.  The constructions of §5–§6 use the
following kinds:

==================  =============================================  =========
kind                meaning                                        args
==================  =============================================  =========
``S``               symbol read by the transition                  (symbol,)
``L``               contributes to the length of a variable        (var,)
``P``               position counter of a variable at a level      (var, level)
``M``               single-predicate mismatch sample               (var, order, symbol)
``MD``              system mismatch sample ⟨M_i, x, D, s, a⟩       (level, var, pred, side, symbol)
``CD``              system copy tag ⟨C_i, x, D, s⟩                 (level, var, pred, side)
==================  =============================================  =========

``order`` for the ``M`` kind is 1 or 2 (first/second mismatch of §5.1–5.2);
``level`` for the system tags ranges over the copies of the automaton; sides
are the strings ``"L"`` and ``"R"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class Tag:
    """A single transition tag; ``kind`` plus a tuple of arguments."""

    kind: str
    args: Tuple

    def __repr__(self) -> str:
        return f"<{self.kind}," + ",".join(str(a) for a in self.args) + ">"

    def var_name(self, prefix: str = "") -> str:
        """Return the LIA variable name counting occurrences of this tag."""
        payload = ".".join(str(a) for a in self.args)
        return f"{prefix}#{self.kind}[{payload}]"


# ----------------------------------------------------------------------
# Constructors for the tag kinds used in the paper
# ----------------------------------------------------------------------
def symbol_tag(symbol: str) -> Tag:
    """⟨S, a⟩ — the transition reads symbol ``a``."""
    return Tag("S", (symbol,))


def length_tag(variable: str) -> Tag:
    """⟨L, x⟩ — the transition contributes one position to ``len(x)``."""
    return Tag("L", (variable,))


def position_tag(variable: str, level: int) -> Tag:
    """⟨P_level, x⟩ — position counter of ``x`` at the given copy level."""
    return Tag("P", (variable, level))


def mismatch_tag(variable: str, order: int, symbol: str) -> Tag:
    """⟨M_order, a, x⟩ — the ``order``-th mismatch sampled symbol ``a`` in ``x``."""
    return Tag("M", (variable, order, symbol))


def system_mismatch_tag(level: int, variable: str, predicate: int, side: str, symbol: str) -> Tag:
    """⟨M_i, x, D, s, a⟩ — system construction mismatch sample (§5.3)."""
    return Tag("MD", (level, variable, predicate, side, symbol))


def system_copy_tag(level: int, variable: str, predicate: int, side: str) -> Tag:
    """⟨C_i, x, D, s⟩ — system construction copy tag (§5.3)."""
    return Tag("CD", (level, variable, predicate, side))


def symbol_of(tags) -> str:
    """Extract the symbol read by a transition from its tag set (or ``None``)."""
    for tag in tags:
        if tag.kind == "S":
            return tag.args[0]
    return None


def variable_of(tags) -> str:
    """Extract the variable a transition belongs to from its ⟨L, x⟩ tag."""
    for tag in tags:
        if tag.kind == "L":
            return tag.args[0]
    return None
