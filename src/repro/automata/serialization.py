"""Serialisation of NFAs to and from simple dictionary / DOT formats.

The JSON-friendly dictionary format is used by the benchmark generators to
store workloads on disk, and the DOT output is a debugging convenience.

Two dictionary formats round-trip:

* the original transition-list format of :func:`to_dict` (states, initial,
  final, alphabet, explicit transition triples), and
* the integer-dense format of :func:`dense_to_dict` — bitset masks and
  per-symbol successor rows straight out of
  :class:`repro.automata.dense.DenseNfa`.  Python's arbitrary-precision ints
  are JSON numbers, so masks serialise directly.  Deserialising a dense
  payload goes through the global intern table: loading the same automaton
  twice (even across sessions of the same process) yields the *same*
  canonical ``Nfa`` object, which is what lets worker processes share
  normalised automata cheaply.
"""

from __future__ import annotations

from typing import Any, Dict, List

from .dense import (
    DenseNfa,
    as_dense,
    intern_mark_warm,
    intern_nfa,
    intern_table_entries,
)
from .nfa import EPSILON, Nfa


def to_dict(nfa: Nfa) -> Dict[str, Any]:
    """Return a JSON-serialisable description of ``nfa``."""
    return {
        "states": sorted(nfa.states),
        "initial": sorted(nfa.initial),
        "final": sorted(nfa.final),
        "alphabet": sorted(nfa.alphabet),
        "transitions": sorted(
            [src, symbol if symbol is not None else "", dst]
            for src, symbol, dst in nfa.iter_transitions()
        ),
    }


def from_dict(data: Dict[str, Any]) -> Nfa:
    """Reconstruct an :class:`Nfa` from :func:`to_dict` or
    :func:`dense_to_dict` output (the payload self-describes its format)."""
    if data.get("format") == "dense":
        return dense_from_dict(data)
    nfa = Nfa(data.get("alphabet", []))
    for state in data["states"]:
        nfa.add_state(state)
    for state in data["initial"]:
        nfa.make_initial(state)
    for state in data["final"]:
        nfa.make_final(state)
    for src, symbol, dst in data["transitions"]:
        nfa.add_transition(src, symbol if symbol != "" else EPSILON, dst)
    return nfa


def dense_to_dict(automaton) -> Dict[str, Any]:
    """Serialise either automaton form as its integer-dense structure.

    The payload is the canonical-key content of the dense form: state count,
    declared alphabet, used symbols, initial/final bitset masks and the
    per-symbol successor-mask rows (plus the ε rows when present).  State
    identity is positional — original facade state ids are deliberately not
    recorded, so structurally identical automata serialise identically.
    """
    dense = as_dense(automaton)
    payload: Dict[str, Any] = {
        "format": "dense",
        "n": dense.n,
        "alphabet": sorted(dense.alphabet),
        "symbols": list(dense.symbols),
        "initial": dense.initial,
        "final": dense.final,
        "rows": [list(row) for row in dense.rows],
    }
    if dense.eps is not None:
        payload["eps"] = list(dense.eps)
    return payload


def dense_from_dict(data: Dict[str, Any]) -> Nfa:
    """Reconstruct the canonical interned :class:`Nfa` from
    :func:`dense_to_dict` output.

    The result is hash-consed: two loads of the same structure return the
    same object (``is``-identical), matching what :func:`intern_nfa` returns
    for a live automaton with that structure.
    """
    eps = data.get("eps")
    dense = DenseNfa(
        data["n"],
        tuple(data["alphabet"]),
        tuple(data["symbols"]),
        tuple(tuple(row) for row in data["rows"]),
        tuple(eps) if eps is not None else None,
        data["initial"],
        data["final"],
        tuple(range(data["n"])),
    )
    return intern_nfa(dense)


def intern_snapshot(limit: int = 1024) -> List[Dict[str, Any]]:
    """Serialise the process-wide intern table as a warm-start payload.

    The payload is a list of :func:`dense_to_dict` dictionaries — pure
    JSON/pickle-friendly data, the wire format the solver server ships to
    its worker fleet.  ``limit`` caps the payload (oldest entries first:
    the table is insertion-ordered and the base alphabet/word automata are
    interned before the derived products built on top of them).
    """
    return [dense_to_dict(nfa) for nfa in intern_table_entries()[:limit]]


def intern_restore(payload: List[Dict[str, Any]]) -> int:
    """Re-intern a warm-start payload and flag the entries as warm-seeded.

    Returns the number of automata restored.  Subsequent interning hits on
    the restored entries count into the ``automata_interning_warm_hits``
    statistic (reported through ``SolveResult.stats`` and accumulated by
    ``Session.statistics()``), which is how a worker proves it is reusing
    the shared automata instead of rebuilding them.
    """
    restored = 0
    for data in payload:
        dense_from_dict(data)
        restored += 1
    intern_mark_warm()
    return restored
