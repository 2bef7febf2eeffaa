"""Tests for the noodlification-based equation substrate."""

import random

from repro.automata import Nfa, compile_regex, words_up_to
from repro.eqsolver import Branch, decompose, EquationTooHard
from repro.eqsolver.noodler import noodlify
from test_automata_dense import random_nfa

import pytest


def _named_noodles(target, parts):
    """``x = y₁ … y_k`` through :func:`noodlify`: each noodle maps the part
    names to their refinements."""
    noodles = noodlify([target], [nfa for _, nfa in parts])
    return [{parts[j][0]: refined for _, j, refined in noodle} for noodle in noodles]


def test_noodlify_simple_split():
    # x = y z with x in (ab)*, y in a*, z in (a|b)*
    target = compile_regex("(ab)*", alphabet="ab")
    parts = [("y", compile_regex("a*", alphabet="ab")), ("z", compile_regex("(a|b)*", alphabet="ab"))]
    noodles = _named_noodles(target, parts)
    assert noodles
    # Every noodle must refine the parts so the concatenation stays in (ab)*.
    for noodle in noodles:
        for y_word in words_up_to(noodle["y"], 2):
            for z_word in words_up_to(noodle["z"], 2):
                assert target.accepts(y_word + z_word)


def test_noodlify_empty_when_incompatible():
    target = compile_regex("aa", alphabet="ab")
    parts = [("y", compile_regex("b", alphabet="ab")), ("z", compile_regex("a*", alphabet="ab"))]
    noodles = _named_noodles(target, parts)
    assert noodles == []


def test_decompose_assignment_equation():
    automata = {
        "x": compile_regex("ab(a|b)*", alphabet="ab"),
        "y": compile_regex("(a|b)*", alphabet="ab"),
    }
    result = decompose([(("x",), ("y",))], automata)
    assert result.complete
    assert result.branches
    for branch in result.branches:
        assert branch.expand("x") == ("y",)
        # y's language must now be inside ab(a|b)*.
        for word in words_up_to(branch.automata["y"], 3):
            assert automata["x"].accepts(word)


def test_decompose_unsat_equation():
    automata = {
        "x": compile_regex("aa", alphabet="ab"),
        "y": compile_regex("b*", alphabet="ab"),
        "z": compile_regex("b*", alphabet="ab"),
    }
    result = decompose([(("x",), ("y", "z"))], automata)
    assert result.complete
    assert result.branches == []


def test_decompose_var_to_epsilon():
    automata = {"x": compile_regex("a*", alphabet="ab")}
    result = decompose([(("x",), ())], automata)
    assert result.complete
    assert result.branches
    assert result.branches[0].expand("x") == ()


def test_decompose_chained_equations():
    automata = {
        "x": compile_regex("(a|b)*", alphabet="ab"),
        "y": compile_regex("a*", alphabet="ab"),
        "z": compile_regex("(ab)*", alphabet="ab"),
    }
    equations = [(("x",), ("y", "z")), (("y",), ())]
    result = decompose(equations, automata)
    assert result.branches
    for branch in result.branches:
        assert branch.expand("x") == ("y", "z") or branch.expand("x") == ("z",) or True
        # Expanding x never mentions x itself.
        assert "x" not in branch.expand("x")


def _remaining_words(branch, max_length):
    """One word per remaining variable (the longest up to ``max_length``),
    or None when some refinement is empty."""
    words = {}
    for name in branch.automata:
        if name in branch.substitution:
            continue
        choices = list(words_up_to(branch.automata[name], max_length))
        if not choices:
            return None
        words[name] = choices[-1]
    return words


def test_decompose_noodlifies_two_sided_equations():
    automata = {
        "x": compile_regex("(ab)*", alphabet="ab"),
        "y": compile_regex("b*", alphabet="ab"),
        "z": compile_regex("a*", alphabet="ab"),
        "w": compile_regex("(a|b)*", alphabet="ab"),
    }
    # Both sides are proper concatenations: aligned against each other.
    result = decompose([(("x", "y"), ("z", "w"))], automata)
    assert result.complete
    assert result.branches
    # Soundness: in every branch, picking any words for the remaining
    # variables and expanding both sides yields the same concatenation.
    for branch in result.branches:
        words = _remaining_words(branch, 2)
        assert words is not None, "a segment has an empty refinement"
        lhs = "".join(words[p] for p in branch.expand_term(("x", "y")))
        rhs = "".join(words[p] for p in branch.expand_term(("z", "w")))
        assert lhs == rhs
        for name in automata:
            assert automata[name].accepts("".join(words[p] for p in branch.expand(name)))


def test_decompose_noodlification_finds_two_sided_solutions():
    automata = {
        "x": compile_regex("a*", alphabet="ab"),
        "y": compile_regex("b*", alphabet="ab"),
        "z": compile_regex("aab*", alphabet="ab"),
    }
    # x . y = z has the solutions aa b^n; the decomposition must keep one.
    result = decompose([(("x", "y"), ("z",))], automata)
    assert result.complete
    found = False
    for branch in result.branches:
        words = _remaining_words(branch, 3)
        if words is None:
            continue
        lhs = "".join(words[p] for p in branch.expand_term(("x", "y")))
        rhs = "".join(words[p] for p in branch.expand_term(("z",)))
        if lhs == rhs and automata["z"].accepts(rhs):
            found = True
    assert found


def test_decompose_cancels_common_head_and_tail_variables():
    automata = {
        "u": compile_regex("b", alphabet="ab"),
        "v": compile_regex("bb", alphabet="ab"),
        "x": compile_regex("(a|b)*", alphabet="ab"),
    }
    # u·x = v·x ⇔ u = v: refuted without aligning the repeated x.
    result = decompose([(("u", "x"), ("v", "x"))], automata)
    assert result.complete and result.branches == []
    result = decompose([(("x", "u"), ("x", "x"))], automata)
    assert result.complete and len(result.branches) == 1


def test_decompose_names_a_repeated_variable():
    automata = {name: compile_regex("(a|b)*", alphabet="ab") for name in "xy"}
    result = decompose([(("x", "y"), ("y", "x"))], automata)
    assert result.gave_up == "repeated variable" and not result.complete


def test_noodlify_minimization_is_budgeted():
    # The pre-split minimization must not determinize an exponential
    # subset space: this target's DFA has ~2^22 states, and the old
    # behaviour (instant EquationTooHard) must be preserved rather than
    # stalling past any solver deadline.
    import time

    target = compile_regex("(a|b)*a(a|b){21}", alphabet="ab")
    parts = [
        ("y", compile_regex("(a|b)*", alphabet="ab")),
        ("z", compile_regex("(a|b)*", alphabet="ab")),
        ("w", compile_regex("(a|b)*", alphabet="ab")),
    ]
    started = time.monotonic()
    with pytest.raises(EquationTooHard):
        _named_noodles(target, parts)
    assert time.monotonic() - started < 5.0


def test_branch_expand_is_transitive():
    branch = Branch(automata={}, substitution={"x": ("y", "z"), "y": ("w",)})
    assert branch.expand("x") == ("w", "z")
    assert branch.expand_term(("x", "x")) == ("w", "z", "w", "z")


# ----------------------------------------------------------------------
# The depth-first, memoised noodlification against the product loop
# ----------------------------------------------------------------------
def _reference_noodlify(target, parts):
    """The boundary-assignment product loop, one fresh product per segment."""
    from itertools import product

    from repro.automata import intersection, remove_epsilon

    target = remove_epsilon(target) if target.has_epsilon() else target
    part_automata = [remove_epsilon(nfa) if nfa.has_epsilon() else nfa for _, nfa in parts]
    target_dense = target.dense()
    state_bit = {state: 1 << i for state, i in target_dense.index.items()}
    choices = (
        [sorted(target.initial)]
        + [sorted(target.states)] * (len(parts) - 1)
        + [sorted(target.final)]
    )
    noodles = []
    for assignment in product(*choices):
        refinement = {}
        for index, ((name, _), part_nfa) in enumerate(zip(parts, part_automata)):
            start, end = assignment[index], assignment[index + 1]
            segment = target_dense.with_endpoints(state_bit[start], state_bit[end])
            refined = intersection(part_nfa, segment).trim()
            if not refined.states:
                if start == end and part_nfa.accepts(""):
                    refined = Nfa.epsilon_language()
                else:
                    break
            refinement[name] = refined
        else:
            noodles.append(refinement)
    return noodles


def _structure(nfa):
    return nfa.states, nfa.initial, nfa.final, list(nfa.iter_transitions())


def _assert_same_noodles(target, parts):
    from repro.automata import remove_epsilon

    prepared = remove_epsilon(target)
    boundaries = len(prepared.initial) * len(prepared.final)
    boundaries *= len(prepared.states) ** (len(parts) - 1)
    # Below the split cap the target is used as given (no minimisation).
    assert boundaries <= 256
    noodles = _named_noodles(target, parts)
    expected = _reference_noodlify(target, parts)
    assert [list(noodle) for noodle in noodles] == [list(noodle) for noodle in expected]
    for noodle, reference in zip(noodles, expected):
        for name in noodle:
            assert _structure(noodle[name]) == _structure(reference[name])
    return noodles


def _random_split(seed):
    """A random target and 2 (even seeds) or 3 (odd seeds) random parts."""
    rng = random.Random(seed)
    count = 2 + seed % 2
    target = random_nfa(rng, rng.randint(2, 5 if count == 2 else 4))
    parts = [(f"y{i}", random_nfa(rng, rng.randint(1, 4))) for i in range(count)]
    return target, parts


@pytest.mark.parametrize("seed", range(30))
def test_noodlify_matches_the_product_loop(seed):
    _assert_same_noodles(*_random_split(seed))


def test_noodlify_covers_nonempty_random_splits():
    produced = {2: 0, 3: 0}
    for seed in range(30):
        target, parts = _random_split(seed)
        produced[len(parts)] += len(_named_noodles(target, parts))
    assert produced[2] > 0 and produced[3] > 0, produced


def test_noodlify_empty_first_segment_prunes_the_rest(monkeypatch):
    import repro.eqsolver.noodler as noodler
    from repro.automata import remove_epsilon

    target = compile_regex("a(a|b)*", alphabet="ab")
    # ε-free, so the noodler refines this very object
    first = remove_epsilon(compile_regex("b(a|b)*", alphabet="ab"))
    parts = [("y", first), ("z", compile_regex("(a|b)*", alphabet="ab")), ("w", Nfa.universal("ab"))]
    assert _assert_same_noodles(target, parts) == []

    refined_parts = []
    real = noodler.ProductWalk

    def counting(part, segment):
        refined_parts.append(part)
        return real(part, segment)

    monkeypatch.setattr(noodler, "ProductWalk", counting)
    _named_noodles(target, parts)
    # Only first-part segments were refined: every one is empty, so no
    # boundary assignment reaches the second part.
    assert refined_parts and all(part is first for part in refined_parts)


def test_noodlify_epsilon_segment_matches_the_product_loop():
    # y ∈ a* may take the empty word on a segment that starts and ends in
    # the same target state.
    target = compile_regex("(ab)*", alphabet="ab")
    parts = [
        ("y", compile_regex("a*", alphabet="ab")),
        ("z", compile_regex("(ab)*", alphabet="ab")),
        ("w", compile_regex("b*", alphabet="ab")),
    ]
    noodles = _assert_same_noodles(target, parts)
    assert any(noodle["y"].accepts("") for noodle in noodles)
    assert any(noodle["w"].accepts("") for noodle in noodles)


# ----------------------------------------------------------------------
# Shared product walks against one product per segment
# ----------------------------------------------------------------------
def _segmentwise_noodlify(targets, parts, max_noodles=256):
    """The noodlification that built one trimmed product per segment."""
    from repro.automata import intersection, remove_epsilon
    from repro.automata.dense import iter_bits
    from repro.eqsolver.noodler import _cut_ready

    targets = [_cut_ready(nfa, len(parts) - 1, max_noodles).dense() for nfa in targets]
    parts = [remove_epsilon(nfa) if nfa.has_epsilon() else nfa for nfa in parts]
    dense = [nfa.dense() for nfa in parts]
    last_target, last_part = len(targets) - 1, len(parts) - 1
    segments = {}

    def refine(i, start, end, j, part_start, part_end):
        key = (i, start, end, j, part_start, part_end)
        if key not in segments:
            part = parts[j]
            if (part_start, part_end) != (dense[j].initial, dense[j].final):
                part = dense[j].with_endpoints(part_start, part_end)
            refined = intersection(
                part, targets[i].with_endpoints(1 << start, 1 << end), trim=True
            )
            segments[key] = refined if refined.states else None
        return segments[key]

    noodles = []

    def extend(i, start, j, part_start, chosen):
        if j < last_part or i == last_target:
            ends = range(targets[i].n) if j < last_part else iter_bits(targets[i].final)
            for end in ends:
                refined = refine(i, start, end, j, part_start, dense[j].final)
                if refined is None:
                    continue
                was_cut = bool(chosen) and chosen[-1][1] == j
                if was_cut and j < last_part and not refined.num_transitions():
                    continue
                noodle = chosen + [(i, j, refined)]
                if j < last_part:
                    extend(i, end, j + 1, dense[j + 1].initial, noodle)
                    continue
                noodles.append(noodle)
                if len(noodles) > max_noodles:
                    raise EquationTooHard(f"noodle cap ({max_noodles})")
        if i < last_target:
            for end in iter_bits(targets[i].final):
                for cut in range(dense[j].n):
                    refined = refine(i, start, end, j, part_start, 1 << cut)
                    if refined is None:
                        continue
                    for following in iter_bits(targets[i + 1].initial):
                        extend(i + 1, following, j, 1 << cut, chosen + [(i, j, refined)])

    for start in iter_bits(targets[0].initial):
        extend(0, start, 0, dense[0].initial, [])
    return noodles


def _random_sides(seed):
    """``t₁…t_m = p₁…p_n`` with m, n ∈ {2, 3} over random NFAs, about half
    of them carrying ε-moves."""
    rng = random.Random(seed)

    def automaton():
        return random_nfa(rng, rng.randint(1, 4), eps_prob=rng.choice((0.0, 0.3)))

    targets = [automaton() for _ in range(rng.randint(2, 3))]
    parts = [automaton() for _ in range(rng.randint(2, 3))]
    return targets, parts


def _outcome(noodlification, targets, parts, max_noodles):
    try:
        noodles = noodlification(targets, parts, max_noodles)
    except EquationTooHard as error:
        return str(error)
    return [[(i, j, _structure(refined)) for i, j, refined in noodle] for noodle in noodles]


@pytest.mark.parametrize("seed", range(40))
def test_shared_walks_match_one_product_per_segment(seed):
    targets, parts = _random_sides(seed)
    for max_noodles in (2, 256):
        expected = _outcome(_segmentwise_noodlify, targets, parts, max_noodles)
        assert _outcome(noodlify, targets, parts, max_noodles) == expected


def test_shared_walk_differential_is_not_vacuous():
    outcomes = [_outcome(noodlify, *_random_sides(seed), 2) for seed in range(40)]
    assert sum(isinstance(outcome, str) for outcome in outcomes) >= 4
    assert sum(bool(outcome) and not isinstance(outcome, str) for outcome in outcomes) >= 4
    assert sum(outcome == [] for outcome in outcomes) >= 4


@pytest.mark.parametrize("seed", range(10))
def test_noodlify_walks_once_per_segment_start(monkeypatch, seed):
    from collections import Counter

    import repro.eqsolver.noodler as noodler
    from repro.automata import as_dense

    starts = Counter()
    real = noodler.ProductWalk

    def counting(part, segment):
        part_dense, target_dense = as_dense(part), as_dense(segment)
        starts[id(target_dense.rows), target_dense.initial, id(part_dense.rows), part_dense.initial] += 1
        return real(part, segment)

    monkeypatch.setattr(noodler, "ProductWalk", counting)
    targets, parts = _random_sides(seed)
    try:
        noodlify(targets, parts)
    except EquationTooHard:
        pass
    assert starts and max(starts.values()) == 1


def test_decompose_defaults_fit_two_structural_splits_of_one_haystack():
    # Two str.substr reductions of one haystack, as the reduction emits them:
    # l0 = p·r·q twice, each middle part tied to its own result.  Aligning
    # the two splits against each other needs more than 128 branches; the
    # default branch cap is the one the solver relies on, so it decides the
    # system without any cap argument.
    sigma = compile_regex("(a|b)*", alphabet="ab")
    automata = {"l0": compile_regex("(ab)*", alphabet="ab")}
    for name in ("l1", "r1", "p0", "m0", "q0", "p1", "m1", "q1"):
        automata[name] = sigma
    equations = [
        (("l0",), ("p0", "m0", "q0")),
        (("l1",), ("m0",)),
        (("l0",), ("p1", "m1", "q1")),
        (("r1",), ("m1",)),
    ]
    assert not decompose(equations, automata, max_branches=128).complete
    result = decompose(equations, automata)
    assert result.complete
    assert 128 < len(result.branches) <= 512


def test_decompose_variable_equation_keeps_the_shared_empty_word():
    automata = {
        "x": compile_regex("a*", alphabet="ab"),
        "y": compile_regex("b*", alphabet="ab"),
    }
    result = decompose([(("x",), ("y",))], automata)
    assert result.complete and len(result.branches) == 1
    refined = result.branches[0].automata["x"]
    assert refined is result.branches[0].automata["y"]
    assert set(words_up_to(refined, 3)) == {""}
    automata["y"] = compile_regex("b+", alphabet="ab")
    assert decompose([(("x",), ("y",))], automata).branches == []


# ----------------------------------------------------------------------
# Two-sided noodlification against enumeration
# ----------------------------------------------------------------------
def _solutions_by_enumeration(lhs, rhs, automata, bound):
    """Every solution of ``lhs = rhs`` whose values have length ≤ bound."""
    from itertools import product

    def sides(names):
        by_word = {}
        for values in product(*(words_up_to(automata[n], bound) for n in names)):
            by_word.setdefault("".join(values), []).append(values)
        return by_word

    left, right = sides(lhs), sides(rhs)
    return {
        l_values + r_values
        for word in left.keys() & right.keys()
        for l_values in left[word]
        for r_values in right[word]
    }


def _solutions_of_branch(branch, variables, bound):
    """The solutions a branch represents, with values of length ≤ bound: one
    word per remaining variable, expanded into the equation's variables."""
    expansions = {name: branch.expand(name) for name in variables}
    remaining = list(dict.fromkeys(part for name in variables for part in expansions[name]))
    found = set()

    def value(name, chosen):
        return "".join(chosen.get(part, "") for part in expansions[name])

    def walk(k, chosen):
        if k == len(remaining):
            found.add(tuple(value(name, chosen) for name in variables))
            return
        for word in words_up_to(branch.automata[remaining[k]], bound):
            chosen[remaining[k]] = word
            if all(len(value(name, chosen)) <= bound for name in variables):
                walk(k + 1, chosen)
        chosen.pop(remaining[k], None)

    walk(0, {})
    return found


def _random_equation(seed):
    """``x₁…x_m = y₁…y_n`` (m, n ≤ 3, not both 1) over random small NFAs."""
    rng = random.Random(seed)
    lhs = tuple(f"x{i}" for i in range(rng.randint(1, 3)))
    rhs = tuple(f"y{j}" for j in range(rng.randint(2 if len(lhs) == 1 else 1, 3)))
    return lhs, rhs, {name: random_nfa(rng, rng.randint(1, 3)) for name in lhs + rhs}


@pytest.mark.parametrize("seed", range(40))
def test_two_sided_noodles_match_enumeration(seed):
    lhs, rhs, automata = _random_equation(seed)
    result = decompose([(lhs, rhs)], automata, max_branches=10**6, max_noodles=10**6)
    assert result.complete
    represented = set()
    for branch in result.branches:
        represented |= _solutions_of_branch(branch, lhs + rhs, 4)
    assert represented == _solutions_by_enumeration(lhs, rhs, automata, 4)


def test_two_sided_enumeration_sees_solutions():
    # The cross-check is not vacuous: many seeds have solutions on both
    # sides of a proper two-sided equation.
    solved = 0
    for seed in range(40):
        lhs, rhs, automata = _random_equation(seed)
        if min(len(lhs), len(rhs)) >= 2 and _solutions_by_enumeration(lhs, rhs, automata, 4):
            solved += 1
    assert solved >= 8, solved


def test_decompose_refutes_a_repeated_variable_by_aligning_copies():
    automata = {
        "x": compile_regex("a(a)*", alphabet="ab"),
        "y": compile_regex("b(b)*", alphabet="ab"),
    }
    # x·y = y·x: no alignment of the copies x·y = y'·x' exists.
    result = decompose([(("x", "y"), ("y", "x"))], automata)
    assert result.complete and result.branches == []


@pytest.mark.parametrize("seed", range(30))
def test_repeated_variable_branches_are_solutions(seed):
    from itertools import product

    rng = random.Random(seed)
    names = ("x", "y", "z")
    lhs = rhs = ()
    while lhs == rhs or len(set(lhs + rhs)) == len(lhs + rhs):
        lhs = tuple(rng.choice(names) for _ in range(rng.randint(1, 3)))
        rhs = tuple(rng.choice(names) for _ in range(rng.randint(1, 3)))
    variables = sorted(set(lhs + rhs))
    automata = {name: random_nfa(rng, rng.randint(1, 3)) for name in variables}
    result = decompose([(lhs, rhs)], automata, max_branches=10**6, max_noodles=10**6)
    represented = set()
    for branch in result.branches:
        represented |= _solutions_of_branch(branch, variables, 4)
    enumerated = set()
    for values in product(*(words_up_to(automata[name], 4) for name in variables)):
        value = dict(zip(variables, values))
        if "".join(value[n] for n in lhs) == "".join(value[n] for n in rhs):
            enumerated.add(values)
    assert represented <= enumerated
    if result.complete:
        assert represented == enumerated
