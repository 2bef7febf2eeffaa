"""Witness (string-model) reconstruction from Parikh models.

The equisatisfiability theorems of the paper are constructive: from a model
of the generated LIA formula one can read off an accepting run of the tag
automaton (the Parikh image determines a run up to reordering that does not
affect lengths, mismatch positions or sampled symbols), and the run encodes
an assignment of every string variable to a word of its language.  The
model must be *connected* first: the Parikh formula enforces connectivity
lazily, so the solver cuts models with unreachable cycles
(:func:`repro.core.parikh.connectivity_cuts`) before reconstructing.

This module performs that reconstruction.  It is used for two purposes:

* the public solver returns concrete string models for satisfiable inputs,
* the test-suite validates every SAT answer by re-evaluating the original
  constraint on the reconstructed assignment.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .parikh import ParikhEncoding, run_from_model
from .tag_automaton import TagTransition
from .tags import symbol_of, variable_of


def assignment_from_run(run: List[TagTransition]) -> Dict[str, str]:
    """Extract the word assigned to every variable from an accepting run.

    A transition contributes the symbol of its ⟨S, a⟩ tag to the variable of
    its ⟨L, x⟩ tag; structural transitions (ε-connectors, copy tags) carry
    neither and are skipped.
    """
    words: Dict[str, List[str]] = {}
    for transition in run:
        symbol = symbol_of(transition.tags)
        variable = variable_of(transition.tags)
        if symbol is None or variable is None:
            continue
        words.setdefault(variable, []).append(symbol)
    return {variable: "".join(chars) for variable, chars in words.items()}


def extract_assignment(enc: ParikhEncoding, model, variables: Optional[List[str]] = None) -> Optional[Dict[str, str]]:
    """Reconstruct the string assignment encoded by a Parikh model.

    ``variables`` lists the string variables that must appear in the result;
    variables whose automaton contributed no transition to the run (i.e. were
    assigned the empty word) are filled in with ``""``.  Returns ``None``
    when the model encodes no run (see :func:`run_from_model`).
    """
    run = run_from_model(enc, model)
    if run is None:
        return None
    assignment = assignment_from_run(run)
    for name in variables or []:
        assignment.setdefault(name, "")
    return assignment
