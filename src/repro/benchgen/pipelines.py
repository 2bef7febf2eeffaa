"""String-pipeline workload: a symbolic pipe-DSL compiled to solver problems.

Real pipe scripting languages (rezbot-style ``{word} > letterize > translate``
chains) take one input word through a sequence of string transformations.
This module models such pipelines *symbolically*: every stage becomes a
definitional constraint over a fresh intermediate variable, so a whole
pipeline compiles to exactly the deep substr/replace/concat chains with
shared intermediates that stress the extended-function reductions, the
session caches and the budgeted Levi splits far beyond the hand-written
``symbex-substr__*`` corpus.

The design rule of the module — the reason it doubles as a fuzzing source —
is that **every instance carries its own ground truth**: pipelines are
deterministic functions of their (bounded) input, so exhaustively running
the concrete stages over the enumerated source language decides ``sat`` /
``unsat`` exactly, independent of any solver.  The differential fuzzer
(:mod:`repro.testing.fuzz`) leans on that invariant.

Stages
------

* :class:`ConcatLit` — append/prepend a literal (``format``-style glue);
* :class:`SubstrWindow` — a constant ``str.substr`` window;
* :class:`ReplaceOnce` — first-occurrence ``str.replace`` with literal
  needle and replacement;
* :class:`ReplaceVar` — first-occurrence replace whose needle is an
  *existential variable* over a small regular language (the variable-needle
  shapes the ROADMAP names as a known ``unknown`` gap — only generated with
  ``include_gaps``);
* :class:`RegexFilter` — a membership constraint on the current value
  (the pipe drops non-matching words);
* :class:`SplitJoin` — ``join(split(s, sep), joiner)``: replace *all*
  occurrences of a separator, encoded as a bounded chain of
  first-occurrence replaces plus a final ``¬contains`` side condition
  (inputs with more than ``bound`` occurrences are outside the model —
  concretely *and* symbolically, see :meth:`SplitJoin.apply`);
* :class:`Translate` — a case-translate homomorphism (``letterize``), one
  bounded :class:`SplitJoin`-style chain per translated character.

Query families
--------------

* **reachability** — can the output contain a bad word (``Σ*·bad·Σ*``)?
* **inversion** — which input produces this exact output?
* **equivalence** — do two structurally related pipelines disagree on some
  input?  (The problem asserts ``out_l ≠ out_r``; ``unsat`` means the
  pipelines agree on every modelled input.)

Every generator is deterministic for a given seed — ``random.Random(seed)``
only, enumeration in sorted order — so the same seed yields byte-identical
instances and corpus files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace as dc_replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..automata.enumeration import words_up_to
from ..automata.regex import compile_regex
from ..lia import le as lia_le
from ..strings.ast import (
    Contains,
    LengthConstraint,
    Problem,
    RegexMembership,
    ReplaceAtom,
    SubstrAtom,
    WordEquation,
    lit,
    str_len,
    term,
)
from ..strings.semantics import str_replace, str_substr
from ..lia import LinExpr

Instance = Tuple[str, Problem, Optional[str]]

#: compiled source/filter automata, keyed by (pattern, alphabet) — regex
#: compilation is deterministic, so sharing across scenarios is safe
_NFA_MEMO: Dict[Tuple[str, Tuple[str, ...]], object] = {}


def _compiled(pattern: str, alphabet: Tuple[str, ...]):
    key = (pattern, alphabet)
    nfa = _NFA_MEMO.get(key)
    if nfa is None:
        nfa = compile_regex(pattern, alphabet)
        _NFA_MEMO[key] = nfa
    return nfa


def _accepts(pattern: str, alphabet: Tuple[str, ...], word: str) -> bool:
    return _compiled(pattern, alphabet).accepts(word)


def _language(pattern: str, alphabet: Tuple[str, ...], max_length: int) -> List[str]:
    """All words of the pattern's language up to ``max_length``, sorted."""
    return sorted(words_up_to(_compiled(pattern, alphabet), max_length))


# ----------------------------------------------------------------------
# Stages
# ----------------------------------------------------------------------
class _Compiler:
    """Accumulates the atoms of one pipeline; hands out intermediate vars."""

    def __init__(self, problem: Problem, prefix: str, current: str) -> None:
        self.problem = problem
        self.prefix = prefix
        self.current = current
        self._counter = 0

    def fresh(self) -> str:
        self._counter += 1
        return f"{self.prefix}{self._counter}"

    def add(self, atom) -> None:
        self.problem.add(atom)


@dataclass(frozen=True)
class ConcatLit:
    """Append (or prepend) a literal — the pipe's ``format`` glue."""

    text: str
    prepend: bool = False

    def apply(self, word: str, needles: List[str]) -> Optional[str]:
        return self.text + word if self.prepend else word + self.text

    def compile(self, comp: _Compiler) -> None:
        out = comp.fresh()
        pieces = (lit(self.text), comp.current) if self.prepend else (comp.current, lit(self.text))
        comp.add(WordEquation(term(out), term(*pieces)))
        comp.current = out

    def narrowed(self) -> Optional["ConcatLit"]:
        return ConcatLit(self.text[:-1], self.prepend) if len(self.text) > 1 else None


@dataclass(frozen=True)
class SubstrWindow:
    """A constant ``str.substr`` window (SMT-LIB 2.6 semantics)."""

    offset: int
    length: int

    def apply(self, word: str, needles: List[str]) -> Optional[str]:
        return str_substr(word, self.offset, self.length)

    def compile(self, comp: _Compiler) -> None:
        out = comp.fresh()
        comp.add(
            SubstrAtom(
                term(out),
                term(comp.current),
                LinExpr.constant(self.offset),
                LinExpr.constant(self.length),
            )
        )
        comp.current = out

    def narrowed(self) -> Optional["SubstrWindow"]:
        if self.length > 1:
            return SubstrWindow(self.offset, self.length - 1)
        if self.offset > 0:
            return SubstrWindow(self.offset - 1, self.length)
        return None


@dataclass(frozen=True)
class ReplaceOnce:
    """First-occurrence ``str.replace`` with literal needle/replacement."""

    needle: str
    replacement: str

    def apply(self, word: str, needles: List[str]) -> Optional[str]:
        return str_replace(word, self.needle, self.replacement)

    def compile(self, comp: _Compiler) -> None:
        out = comp.fresh()
        comp.add(
            ReplaceAtom(term(out), term(comp.current), term(lit(self.needle)), term(lit(self.replacement)))
        )
        comp.current = out

    def narrowed(self) -> Optional["ReplaceOnce"]:
        if len(self.replacement) > 0:
            return ReplaceOnce(self.needle, self.replacement[:-1])
        if len(self.needle) > 1:
            return ReplaceOnce(self.needle[:-1], self.replacement)
        return None


@dataclass(frozen=True)
class ReplaceVar:
    """First-occurrence replace with an *existential* variable needle.

    The needle ranges over ``needle_pattern`` (length-bounded by
    ``needle_bound``); concretely the pipeline is run once per candidate
    needle word.  This is the ROADMAP's variable-needle gap family:
    non-flat haystack languages push the reduction onto the MBQI flatness
    limit, so instances may answer a *structured* unknown — never a wrong
    verdict.  Only generated with ``include_gaps``.
    """

    needle_pattern: str
    needle_bound: int
    replacement: str

    def apply(self, word: str, needles: List[str]) -> Optional[str]:
        return str_replace(word, needles.pop(0), self.replacement)

    def compile(self, comp: _Compiler) -> None:
        needle = comp.fresh()
        out = comp.fresh()
        comp.add(RegexMembership(needle, self.needle_pattern))
        comp.add(LengthConstraint(lia_le(str_len(needle), self.needle_bound)))
        comp.add(
            ReplaceAtom(term(out), term(comp.current), term(needle), term(lit(self.replacement)))
        )
        comp.current = out

    def needle_words(self, alphabet: Tuple[str, ...]) -> List[str]:
        return _language(self.needle_pattern, alphabet, self.needle_bound)

    def narrowed(self) -> Optional["ReplaceVar"]:
        if len(self.replacement) > 0:
            return ReplaceVar(self.needle_pattern, self.needle_bound, self.replacement[:-1])
        if self.needle_bound > 1:
            return ReplaceVar(self.needle_pattern, self.needle_bound - 1, self.replacement)
        return None


@dataclass(frozen=True)
class RegexFilter:
    """The pipe drops values outside the language (a membership constraint)."""

    pattern: str

    def apply(self, word: str, needles: List[str]) -> Optional[str]:
        return None  # patched in Pipeline.run, which knows the alphabet

    def compile(self, comp: _Compiler) -> None:
        comp.add(RegexMembership(comp.current, self.pattern))

    def narrowed(self) -> Optional["RegexFilter"]:
        return None


@dataclass(frozen=True)
class SplitJoin:
    """``joiner.join(word.split(sep))`` — replace *all* separators.

    Encoded as ``bound`` chained first-occurrence replaces followed by a
    ``¬contains(sep, result)`` side condition: inputs still carrying a
    separator after ``bound`` rounds are outside the model.  The concrete
    semantics mirrors that exactly (``None`` = excluded), so ground truth
    and encoding agree by construction.
    """

    sep: str
    joiner: str
    bound: int = 2

    def apply(self, word: str, needles: List[str]) -> Optional[str]:
        for _ in range(self.bound):
            word = str_replace(word, self.sep, self.joiner)
        return None if self.sep in word else word

    def compile(self, comp: _Compiler) -> None:
        for _ in range(self.bound):
            out = comp.fresh()
            comp.add(
                ReplaceAtom(term(out), term(comp.current), term(lit(self.sep)), term(lit(self.joiner)))
            )
            comp.current = out
        comp.add(Contains(term(lit(self.sep)), term(comp.current), positive=False))

    def narrowed(self) -> Optional["SplitJoin"]:
        return SplitJoin(self.sep, self.joiner, self.bound - 1) if self.bound > 1 else None


@dataclass(frozen=True)
class Translate:
    """Letterize/case-translate: a bounded replace-all chain per character."""

    table: Tuple[Tuple[str, str], ...]
    bound: int = 2

    def apply(self, word: str, needles: List[str]) -> Optional[str]:
        for src, dst in self.table:
            for _ in range(self.bound):
                word = str_replace(word, src, dst)
            if src in word:
                return None
        return word

    def compile(self, comp: _Compiler) -> None:
        for src, dst in self.table:
            for _ in range(self.bound):
                out = comp.fresh()
                comp.add(ReplaceAtom(term(out), term(comp.current), term(lit(src)), term(lit(dst))))
                comp.current = out
            comp.add(Contains(term(lit(src)), term(comp.current), positive=False))

    def narrowed(self) -> Optional["Translate"]:
        if len(self.table) > 1:
            return Translate(self.table[:-1], self.bound)
        if self.bound > 1:
            return Translate(self.table, self.bound - 1)
        return None


Stage = object  # the stage protocol: apply / compile / narrowed

#: replace atoms one stage contributes to the case product of the reduction
def _replace_weight(stage) -> int:
    if isinstance(stage, (ReplaceOnce, ReplaceVar)):
        return 1
    if isinstance(stage, SplitJoin):
        return stage.bound
    if isinstance(stage, Translate):
        return stage.bound * len(stage.table)
    return 0


# ----------------------------------------------------------------------
# Pipelines
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Pipeline:
    """One pipe program: a bounded regular source piped through stages."""

    source_pattern: str
    max_input_length: int
    stages: Tuple[Stage, ...] = ()
    alphabet: Tuple[str, ...] = tuple("ab")

    # -- concrete execution -------------------------------------------
    def run(self, word: str, needles: Sequence[str] = ()) -> Optional[str]:
        """Run the pipeline on one input; ``None`` when the execution is
        outside the model (a filter rejects, a split/join bound overflows).

        ``needles`` supplies one word per :class:`ReplaceVar` stage, in
        stage order (the existential choices of this execution).
        """
        pending = list(needles)
        for stage in self.stages:
            if isinstance(stage, RegexFilter):
                if not _accepts(stage.pattern, self.alphabet, word):
                    return None
                continue
            word = stage.apply(word, pending)
            if word is None:
                return None
        return word

    def inputs(self) -> List[str]:
        """The modelled source words (sorted, exhaustive within the bound)."""
        return _language(self.source_pattern, self.alphabet, self.max_input_length)

    def needle_choices(self) -> List[List[str]]:
        """Candidate words per :class:`ReplaceVar` stage, in stage order."""
        return [
            stage.needle_words(self.alphabet)
            for stage in self.stages
            if isinstance(stage, ReplaceVar)
        ]

    def executions(self) -> Iterator[Tuple[str, Tuple[str, ...], str]]:
        """Every modelled ``(input, needles, output)`` execution."""
        choice_lists = self.needle_choices()
        choices: List[Tuple[str, ...]] = [()]
        for words in choice_lists:
            choices = [prefix + (w,) for prefix in choices for w in words]
        for word in self.inputs():
            for needles in choices:
                output = self.run(word, needles)
                if output is not None:
                    yield word, needles, output

    # -- symbolic compilation -----------------------------------------
    def compile_into(self, problem: Problem, prefix: str, input_var: Optional[str] = None) -> str:
        """Add this pipeline's constraints to ``problem``; returns the
        output variable.  ``input_var`` shares an existing source variable
        (equivalence queries); otherwise the source constraints are added.
        """
        if input_var is None:
            input_var = f"{prefix}0"
            problem.add(RegexMembership(input_var, self.source_pattern))
            problem.add(LengthConstraint(lia_le(str_len(input_var), self.max_input_length)))
        comp = _Compiler(problem, prefix, input_var)
        for stage in self.stages:
            stage.compile(comp)
        return comp.current


# ----------------------------------------------------------------------
# Scenarios (pipeline + query + ground truth)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PipelineScenario:
    """One generated instance: pipelines, a query, and enough structure to
    recompute the problem and its ground truth after shrinking."""

    name: str
    kind: str  # "reachability" | "inversion" | "equivalence"
    left: Pipeline
    right: Optional[Pipeline] = None  # equivalence only; shares left's source
    payload: str = ""  # bad word (reachability) / target output (inversion)

    # -- the solver-facing problem ------------------------------------
    def problem(self) -> Problem:
        problem = Problem(alphabet=self.left.alphabet, name=self.name)
        out_left = self.left.compile_into(problem, "l")
        if self.kind == "reachability":
            problem.add(Contains(term(lit(self.payload)), term(out_left)))
        elif self.kind == "inversion":
            problem.add(WordEquation(term(out_left), term(lit(self.payload))))
        elif self.kind == "equivalence":
            assert self.right is not None
            out_right = self.right.compile_into(problem, "r", input_var="l0")
            problem.add(WordEquation(term(out_left), term(out_right), positive=False))
        else:  # pragma: no cover - guarded by the generator
            raise ValueError(f"unknown query kind {self.kind!r}")
        return problem

    # -- ground truth by exhaustive concrete execution -----------------
    def ground_truth(self) -> str:
        """``"sat"``/``"unsat"``, decided by running the concrete pipeline
        over every modelled execution — never by a solver."""
        if self.kind == "reachability":
            return (
                "sat"
                if any(self.payload in out for _, _, out in self.left.executions())
                else "unsat"
            )
        if self.kind == "inversion":
            return (
                "sat"
                if any(out == self.payload for _, _, out in self.left.executions())
                else "unsat"
            )
        assert self.kind == "equivalence" and self.right is not None
        left_needles = self.left.needle_choices()
        right_needles = self.right.needle_choices()
        right_choices: List[Tuple[str, ...]] = [()]
        for words in right_needles:
            right_choices = [prefix + (w,) for prefix in right_choices for w in words]
        left_choices: List[Tuple[str, ...]] = [()]
        for words in left_needles:
            left_choices = [prefix + (w,) for prefix in left_choices for w in words]
        for word in self.left.inputs():
            for ln in left_choices:
                out_left = self.left.run(word, ln)
                if out_left is None:
                    continue
                for rn in right_choices:
                    out_right = self.right.run(word, rn)
                    if out_right is not None and out_left != out_right:
                        return "sat"
        return "unsat"

    def instance(self) -> Instance:
        return self.name, self.problem(), self.ground_truth()

    # -- shrinking ------------------------------------------------------
    def size(self) -> int:
        """A strictly-decreasing metric for the shrink loop: string fields
        count their length, numeric fields their value, tuples (translate
        tables) their total text — so every ``narrowed()`` step and every
        stage deletion is strictly smaller."""

        def stage_size(stage) -> int:
            total = 2
            for value in stage.__dict__.values():
                if isinstance(value, bool):
                    continue
                if isinstance(value, str):
                    total += len(value)
                elif isinstance(value, int):
                    total += max(value, 0)
                elif isinstance(value, tuple):
                    total += sum(len(src) + len(dst) for src, dst in value)
            return total

        total = len(self.payload) + self.left.max_input_length
        for pipeline in (self.left, self.right):
            if pipeline is None:
                continue
            for stage in pipeline.stages:
                total += stage_size(stage)
        return total

    def shrink_candidates(self) -> Iterator["PipelineScenario"]:
        """Structurally smaller variants, deterministic order: stage
        deletions first (biggest cuts), then constant narrowing."""
        for side in ("left", "right"):
            pipeline = getattr(self, side)
            if pipeline is None:
                continue
            for index in range(len(pipeline.stages)):
                smaller = dc_replace(
                    pipeline, stages=pipeline.stages[:index] + pipeline.stages[index + 1 :]
                )
                yield dc_replace(self, **{side: smaller})
        for side in ("left", "right"):
            pipeline = getattr(self, side)
            if pipeline is None:
                continue
            for index, stage in enumerate(pipeline.stages):
                narrowed = stage.narrowed()
                if narrowed is not None:
                    stages = pipeline.stages[:index] + (narrowed,) + pipeline.stages[index + 1 :]
                    yield dc_replace(self, **{side: dc_replace(pipeline, stages=stages)})
        if len(self.payload) > 1:
            yield dc_replace(self, payload=self.payload[:-1])
        if self.left.max_input_length > 1:
            smaller_left = dc_replace(self.left, max_input_length=self.left.max_input_length - 1)
            yield dc_replace(self, left=smaller_left)


# ----------------------------------------------------------------------
# Random generation
# ----------------------------------------------------------------------
#: (alphabet, source patterns) pools; the separator alphabet feeds the
#: rezbot-ish split/join shapes
_AB = tuple("ab")
_ABSEP = tuple("ab/")
_SOURCES_AB = ("(a|b)*", "(ab)*", "a(a|b)*", "(a|b)*b", "(aa|b)*")
_SOURCES_SEP = ("(a|b|/)*", "(a|b)*(/(a|b)*)*", "a(a|b|/)*")
_FILTERS_AB = ("(a|b)*", "a(a|b)*", "(a|b)*b", "(ab|b)*")
_FILTERS_SEP = ("(a|b|/)*", "(a|b)*", "(a|b|/)*/(a|b|/)*")

#: cap on the replace atoms of one *suite* problem — 2 replace atoms expand
#: into at most 3^2 = 9 reduction cases, well inside the solver's
#: 64-case reduction cap, so curated instances stay decidable
_SUITE_REPLACE_CAP = 2
#: the fuzzer tolerates structured unknowns, so it may go deeper
_FUZZ_REPLACE_CAP = 4


def _random_word(rng: random.Random, alphabet: Sequence[str], low: int, high: int) -> str:
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(low, high)))


def _random_stage(rng: random.Random, alphabet: Tuple[str, ...], include_gaps: bool):
    letters = [c for c in alphabet if c != "/"]
    kinds = ["concat", "substr", "replace", "filter", "splitjoin", "translate"]
    if include_gaps:
        kinds.append("replace-var")
    kind = rng.choice(kinds)
    if kind == "concat":
        return ConcatLit(_random_word(rng, alphabet, 1, 2), prepend=rng.random() < 0.5)
    if kind == "substr":
        return SubstrWindow(offset=rng.randint(0, 2), length=rng.randint(1, 3))
    if kind == "replace":
        needle = _random_word(rng, alphabet, 1, 2)
        replacement = _random_word(rng, alphabet, 0, 2)
        while replacement == needle:
            replacement = _random_word(rng, alphabet, 0, 2)
        return ReplaceOnce(needle, replacement)
    if kind == "filter":
        pool = _FILTERS_SEP if "/" in alphabet else _FILTERS_AB
        return RegexFilter(rng.choice(pool))
    if kind == "splitjoin":
        sep = "/" if "/" in alphabet else rng.choice(letters)
        joiner = rng.choice([c for c in letters if c != sep] + [""])
        # The draw happens either way (keeps the rng stream stable), but
        # curated instances clamp the chain to one round: bound-2 chains
        # composed with concat + an output equation are exactly the
        # incomplete@decompose shapes the fuzzer is allowed to surface.
        bound = rng.randint(1, 2)
        return SplitJoin(sep, joiner, bound=bound if include_gaps else 1)
    if kind == "translate":
        src = rng.choice(letters)
        dst = rng.choice([c for c in letters if c != src])
        bound = rng.randint(1, 2)
        return Translate(((src, dst),), bound=bound if include_gaps else 1)
    # replace-var: the variable-needle gap family (non-flat needles allowed)
    pattern = rng.choice(("(a|b)(a|b)", "a(a|b)", "(ab|ba)", "b(a|b)*"))
    return ReplaceVar(pattern, needle_bound=2, replacement=_random_word(rng, letters, 0, 1))


def _random_pipeline(rng: random.Random, include_gaps: bool, allow_sep: bool = True) -> Pipeline:
    use_sep = rng.random() < 0.3 and allow_sep
    alphabet = _ABSEP if use_sep else _AB
    source = rng.choice(_SOURCES_SEP if use_sep else _SOURCES_AB)
    max_len = rng.randint(3, 4 if use_sep else 5)
    if include_gaps:
        cap = _FUZZ_REPLACE_CAP
    else:
        # Replace chains over the separator alphabet are the expensive
        # shapes (3-letter case splits); curated instances keep just one.
        cap = 1 if use_sep else _SUITE_REPLACE_CAP
    stages: List[Stage] = []
    for _ in range(rng.randint(1, 3)):
        stage = _random_stage(rng, alphabet, include_gaps)
        weight = sum(_replace_weight(s) for s in stages) + _replace_weight(stage)
        if weight > cap:
            continue
        stages.append(stage)
    return Pipeline(source, max_len, tuple(stages), alphabet)


def _mutate_pipeline(rng: random.Random, pipeline: Pipeline, include_gaps: bool) -> Pipeline:
    """A structural variant for equivalence queries (same source/alphabet)."""
    stages = list(pipeline.stages)
    moves = ["tweak", "drop", "add"] if stages else ["add"]
    move = rng.choice(moves)
    if move == "drop":
        del stages[rng.randrange(len(stages))]
    elif move == "add":
        stage = _random_stage(rng, pipeline.alphabet, include_gaps=False)
        stages.insert(rng.randint(0, len(stages)), stage)
    else:
        index = rng.randrange(len(stages))
        replacement = _random_stage(rng, pipeline.alphabet, include_gaps=False)
        stages[index] = replacement
    cap = _FUZZ_REPLACE_CAP if include_gaps else _SUITE_REPLACE_CAP
    while stages and sum(_replace_weight(s) for s in stages) > cap:
        del stages[-1]
    return dc_replace(pipeline, stages=tuple(stages))


def _scenario(rng: random.Random, index: int, include_gaps: bool) -> PipelineScenario:
    kind = ("reachability", "inversion", "equivalence")[index % 3]
    # Curated (suite) equivalence instances stay on the 2-letter alphabet:
    # output disequalities over separator-alphabet replace chains are the
    # shapes that blow past the 30 s corpus budget.  The fuzzer keeps them.
    allow_sep = include_gaps or kind != "equivalence"
    pipeline = _random_pipeline(rng, include_gaps, allow_sep=allow_sep)
    name = f"pipe-{index}-{kind}"
    if kind == "reachability":
        letters = [c for c in pipeline.alphabet if c != "/"]
        payload = _random_word(rng, letters, 1, 2)
        return PipelineScenario(name, kind, pipeline, payload=payload)
    if kind == "inversion":
        outputs = sorted({out for _, _, out in pipeline.executions()})
        if not include_gaps:
            # Curated instances invert a *short* output: long literal
            # outputs fed back through replace chains multiply the Levi
            # noodles past the solver's per-split noodle budget (a decidable
            # but budget-starved shape the fuzzer is welcome to keep).
            short = [out for out in outputs if len(out) <= pipeline.max_input_length]
            outputs = short or outputs
        if outputs and rng.random() < 0.7:
            payload = rng.choice(outputs)  # sat by construction
        else:
            # A word outside the image: mutate until it misses (bounded
            # tries; falls back to a long out-of-range word).
            letters = [c for c in pipeline.alphabet if c != "/"]
            image = set(outputs)
            payload = None
            for _ in range(16):
                candidate = _random_word(rng, letters, 1, 3)
                if candidate not in image:
                    payload = candidate
                    break
            if payload is None:
                payload = letters[0] * (pipeline.max_input_length + 4)
        return PipelineScenario(name, kind, pipeline, payload=payload)
    other = _mutate_pipeline(rng, pipeline, include_gaps)
    return PipelineScenario(name, kind, pipeline, right=other)


def scenario_from_seed(seed: int, include_gaps: bool = True) -> PipelineScenario:
    """The fuzzer's entry point: one scenario per seed, gap shapes included."""
    return _scenario(random.Random(seed), seed, include_gaps)


def generate(count: int, seed: int = 23, include_gaps: bool = False) -> Iterator[Instance]:
    """The suite generator: ``count`` instances, ground truth attached.

    With the default ``include_gaps=False`` every instance stays within the
    decidable fragment budgets (curated for the corpus and the e2e bench);
    the fuzzer asks for the gap shapes explicitly.
    """
    rng = random.Random(seed)
    for index in range(count):
        yield _scenario(rng, index, include_gaps).instance()


# ----------------------------------------------------------------------
# Pinned gap scenarios (the ROADMAP's two known unknown families)
# ----------------------------------------------------------------------
def gap_problems() -> List[Instance]:
    """Hand-pinned instances of the two known ``unknown`` gaps.

    These are the shapes the pipeline workload keeps generating at scale:
    ≥3 structural splits of one haystack with shared variables (Levi
    alignment blow-up), and variable-needle replace/indexof over non-flat
    languages (the MBQI flatness limit).  The regression tests assert the
    verdicts are *structured* unknowns — never wrong — so a future fix
    flips an xfail instead of silently changing behaviour.
    """
    from ..lia import ge as lia_ge
    from ..strings.ast import IndexOfAtom

    instances: List[Instance] = []

    levi = Problem(alphabet=_AB, name="gap-levi-3split")
    levi.add(WordEquation(term("s"), term("x", lit("ab"), "y")))
    levi.add(WordEquation(term("s"), term("y", lit("ba"), "x")))
    levi.add(WordEquation(term("s"), term("z", lit("aa"), "z")))
    levi.add(LengthConstraint(lia_le(str_len("s"), 8)))
    # Exhaustive check over |s| <= 8: no assignment satisfies all three
    # splits, but the alignment space defeats the budgeted Levi pre-pass.
    instances.append(("gap-levi-3split", levi, "unsat"))

    absent = Problem(alphabet=_AB, name="gap-var-needle-absent")
    absent.add(RegexMembership("s", "(ab|ba)*"))
    absent.add(RegexMembership("n", "(a|b)(a|b)"))
    absent.add(IndexOfAtom(LinExpr.constant(-1), term("s"), term("n"), LinExpr.constant(0)))
    absent.add(LengthConstraint(lia_ge(str_len("s"), 2)))
    # sat: e.g. s = "ba", n = "aa" does not occur in "ba".
    instances.append(("gap-var-needle-absent", absent, "sat"))

    fixpoint = Problem(alphabet=_AB, name="gap-var-needle-fixpoint")
    fixpoint.add(RegexMembership("s", "(ab|ba)*"))
    fixpoint.add(RegexMembership("n", "a(a|b)"))
    fixpoint.add(ReplaceAtom(term("t"), term("s"), term("n"), term(lit("bb"))))
    fixpoint.add(WordEquation(term("t"), term("s")))
    fixpoint.add(LengthConstraint(lia_ge(str_len("s"), 2)))
    # sat: s = "ba", n = "aa" absent => replace is the identity.
    instances.append(("gap-var-needle-fixpoint", fixpoint, "sat"))

    return instances
