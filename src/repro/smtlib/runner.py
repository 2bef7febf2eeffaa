"""Drive a :class:`repro.Session` from a parsed SMT-LIB script.

The runner is the engine of ``python -m repro.smtlib``: commands stream
into one session (``assert`` → :meth:`~repro.Session.add`, ``push``/``pop``
→ the assertion stack, ``check-sat`` → :meth:`~repro.Session.check`) and
the answers stream out through a callback, exactly one output line per
answering command.

Named assertions (``(! … :named n)``) map onto the session's named
assertions; an assert whose term splits into several AST atoms registers
them as ``n!0 n!1 …`` internally, and ``get-unsat-core`` folds them back to
the user-visible label.  Per the SMT-LIB convention only *named* assertions
appear in printed cores.

A ``check-sat`` that cannot be decided answers ``unknown`` followed by an
SMT-LIB comment naming the structured reason (``; unknown: timeout@lia.sat
after 131072 steps (1.00s)``), so batch drivers can tell a clean budget
exhaustion from an internal error without parsing solver-specific output;
:attr:`ScriptRunner.internal_errors` counts the latter for the CLI's exit
status.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..budget import Budget
from ..solver import Session, SolverConfig, Status, StringModel

from .lexer import SmtLibError
from .parser import (
    AssertCommand,
    CheckSat,
    DeclareConst,
    EchoCommand,
    ExitCommand,
    GetModel,
    GetUnsatCore,
    PopCommand,
    PushCommand,
    SmtScript,
    parse_script,
)


class ScriptRunner:
    """Execute SMT-LIB scripts on a fresh session per script."""

    def __init__(
        self,
        config: Optional["SolverConfig"] = None,
        out: Optional[Callable[[str], None]] = None,
        normalization_cache=None,
    ) -> None:
        self.config = config
        self.out = out
        #: optional caller-owned NormalizationCache shared by every session
        #: this runner creates (the serve workers pass one per process)
        self.normalization_cache = normalization_cache
        self.session: Optional["Session"] = None
        #: every check-sat answer of the last run, in order
        self.verdicts: List[str] = []
        #: per check-sat: the displayable unknown reason ("" when decided)
        self.reasons: List[str] = []
        #: unexpected engine exceptions converted into unknown verdicts
        #: (cumulative across runs; the CLI exits non-zero when > 0)
        self.internal_errors: int = 0

    # ------------------------------------------------------------------
    def run(
        self, text: str, name: str = "", budget: Optional[Budget] = None
    ) -> List[str]:
        """Run one script; returns the output lines (also sent to ``out``)."""
        script = parse_script(text)
        return self.run_script(script, name=name, budget=budget)

    def run_script(
        self, script: SmtScript, name: str = "", budget: Optional[Budget] = None
    ) -> List[str]:
        """Execute ``script``; one output line per answering command.

        ``budget`` is an optional caller-owned :class:`~repro.budget.Budget`
        **shared by every ``check-sat`` of the script** — the server layer
        passes one budget covering a whole job, so a script that exhausts it
        mid-run answers its remaining checks immediately with structured
        ``unknown`` verdicts instead of burning the deadline once per check.
        The budget's ``hook`` is also where the server stops a job: a hook
        that raises :class:`~repro.budget.BudgetExceeded` (the serve
        workers' does when the server shuts down) aborts the in-flight
        check with an ``interrupted`` reason.  Without a budget each check
        runs under the session config's own timeout.
        """
        declarations = {
            command.name: command.sort
            for command in script.commands
            if isinstance(command, DeclareConst)
        }
        session = Session(
            config=self.config,
            alphabet=script.alphabet,
            name=name,
            normalization_cache=self.normalization_cache,
        )
        self.session = session
        self.verdicts = []
        self.reasons = []
        outputs: List[str] = []
        #: internal assertion name -> user-visible label (named asserts only)
        labels: Dict[str, str] = {}

        def emit(line: str) -> None:
            outputs.append(line)
            if self.out is not None:
                self.out(line)

        for command in script.commands:
            if isinstance(command, AssertCommand):
                atoms = command.atoms
                if command.name is not None and len(atoms) > 1:
                    internal_names = [f"{command.name}!{i}" for i in range(len(atoms))]
                elif command.name is not None:
                    internal_names = [command.name]
                else:
                    internal_names = [None] * len(atoms)
                for atom, internal in zip(atoms, internal_names):
                    try:
                        added = session.add(atom, name=internal)
                    except ValueError as error:
                        raise SmtLibError(str(error))
                    if command.name is not None:
                        labels[added] = command.name
            elif isinstance(command, PushCommand):
                for _ in range(command.levels):
                    session.push()
            elif isinstance(command, PopCommand):
                try:
                    session.pop(command.levels)
                except (IndexError, ValueError) as error:
                    raise SmtLibError(str(error))
            elif isinstance(command, CheckSat):
                result = session.check(budget=budget)
                verdict = result.status.value
                if result.status is Status.TIMEOUT:
                    verdict = "unknown"
                self.verdicts.append(verdict)
                reason = str(result.reason) if verdict == "unknown" else ""
                self.reasons.append(reason)
                self.internal_errors += result.stats.get("internal_errors", 0)
                emit(verdict)
                if reason:
                    emit(f"; unknown: {reason}")
            elif isinstance(command, GetModel):
                model = session.model()
                if model is None or not self.verdicts or self.verdicts[-1] != "sat":
                    emit('(error "no model available")')
                else:
                    # Project onto the script's declared constants: internal
                    # normalisation variables are not part of the model the
                    # client asked about, and every declared constant gets a
                    # value (unconstrained ones default to ""/0).
                    declared = StringModel(
                        strings={
                            name: str(model.strings.get(name, ""))
                            for name, sort in declarations.items()
                            if sort == "String"
                        },
                        integers={
                            name: int(model.integers.get(name, 0))
                            for name, sort in declarations.items()
                            if sort == "Int"
                        },
                    )
                    emit(declared.to_smtlib())
            elif isinstance(command, GetUnsatCore):
                if not self.verdicts or self.verdicts[-1] != "unsat":
                    emit('(error "no unsat core available")')
                else:
                    core = session.unsat_core()
                    seen: Dict[str, None] = {}
                    for internal in core:
                        label = labels.get(internal)
                        if label is not None:
                            seen.setdefault(label, None)
                    emit("(" + " ".join(seen) + ")")
            elif isinstance(command, EchoCommand):
                emit(command.message)
            elif isinstance(command, ExitCommand):
                break
            # SetLogic / SetInfo / SetOption / DeclareConst need no action
            # here: declarations were resolved during parsing.
        return outputs


def run_script(text: str, config: Optional["SolverConfig"] = None, name: str = "") -> List[str]:
    """Convenience one-call runner: script text in, output lines out."""
    return ScriptRunner(config=config).run(text, name=name)
