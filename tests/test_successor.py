"""Successor arithmetic: atoms, product elimination, witnesses, oracles."""

import itertools
from random import Random

import pytest

from qelim import (
    And,
    ArityError,
    Atom,
    Dnf,
    Exists,
    Falsum,
    Forall,
    Literal,
    Or,
    PivotError,
    Product,
    SNAtom,
    SNTerm,
    STEP,
    Truth,
    UnsatisfiableProductError,
    Yes,
    atom_eval,
    candidates,
    canonicalize,
    check_evidence,
    decide,
    eliminate_dnf,
    eval_qfree,
    interpret_product,
    is_qfree,
    lift_qe,
    mk_not,
    mk_true,
    oracle_decide,
    var_term,
    zero_term,
)
from qelim import engine, parse, successor, to_dnf
from qelim.dnf import simplify_literals
from qelim.formula import Environment, Formula, Implies, subformulas
from qelim.successor import literal_truth
from naive import atom_count, max_shift, naive_decide, quantifier_count
from randgen import random_env, random_formula, random_literal, random_product
from samples import sample0, sample1


def lit_holds(lit: Literal, arity: int, env: tuple[int, ...]) -> bool:
    return eval_qfree(lit.as_formula(arity), env)


# --- terms and atoms ------------------------------------------------------------


def test_term_validation():
    with pytest.raises(ValueError):
        SNTerm(None, -1)
    with pytest.raises(ValueError):
        SNTerm(-1, 0)
    assert var_term(2, 3).is_var
    assert not var_term(2, 3).is_zero
    assert zero_term(5).is_zero


def test_atom_eval_examples():
    assert atom_eval(SNAtom(var_term(0, 3), var_term(1, 1)), (2, 4)) is True
    assert atom_eval(SNAtom(zero_term(0), zero_term(1)), ()) is False
    assert atom_eval(SNAtom(zero_term(8), var_term(0, 4)), (4,)) is True


def test_atom_eval_arity_error():
    with pytest.raises(ArityError):
        atom_eval(SNAtom(var_term(1), zero_term()), (3,))


# --- canonicalization -----------------------------------------------------------


def test_canonicalize_examples():
    assert canonicalize(SNAtom(var_term(0, 3), var_term(1, 1))) == SNAtom(
        var_term(0, 2), var_term(1, 0)
    )
    assert canonicalize(SNAtom(zero_term(5), var_term(0, 1))) == SNAtom(
        var_term(0, 0), zero_term(4)
    )
    assert canonicalize(SNAtom(zero_term(2), zero_term(2))) == SNAtom(
        zero_term(0), zero_term(0)
    )


def _canonicalize_reference(a: SNAtom) -> SNAtom:
    """canonicalize without the per-atom cache: a fresh atom on every call."""
    lhs, rhs = a.lhs, a.rhs
    drop = min(lhs.shift, rhs.shift)
    lhs = SNTerm(lhs.index, lhs.shift - drop)
    rhs = SNTerm(rhs.index, rhs.shift - drop)
    flip = False
    if rhs.is_var and lhs.is_zero:
        flip = True
    elif lhs.is_var and rhs.is_var and rhs.index < lhs.index:
        flip = True
    if flip:
        lhs, rhs = rhs, lhs
    return SNAtom(lhs, rhs)


def test_canonicalize_idempotent_and_meaning_preserving():
    rng = Random(31)
    for _ in range(500):
        arity = rng.randint(0, 3)
        sides = []
        for _ in range(2):
            if arity and rng.random() < 0.7:
                sides.append(var_term(rng.randrange(arity), rng.randint(0, 6)))
            else:
                sides.append(zero_term(rng.randint(0, 6)))
        a = SNAtom(sides[0], sides[1])
        c = canonicalize(a)
        assert canonicalize(c) == c
        assert c == _canonicalize_reference(a)
        # The cache is invisible: a and c still compare, hash and print like
        # fresh atoms that were never canonicalized.
        for cached, fresh in ((a, SNAtom(sides[0], sides[1])), (c, SNAtom(c.lhs, c.rhs))):
            assert cached == fresh and fresh == cached
            assert hash(cached) == hash(fresh)
            assert repr(cached) == repr(fresh)
        for _ in range(4):
            env = random_env(rng, arity)
            assert atom_eval(c, env) == atom_eval(a, env)

    # One atom object at several leaves, at two binder depths, decides like
    # the same formula built from distinct copies (randgen never shares).
    def build(a, b):
        inner = Forall(Or(Atom(b(), 3), mk_not(Atom(a(), 3))))
        body = Or(And(Atom(a(), 2), mk_not(Atom(b(), 2))), And(Atom(b(), 2), inner))
        return Or(Exists(body), Exists(And(Atom(a(), 2), Atom(a(), 2))))

    shared_a = SNAtom(var_term(1, 3), var_term(0, 1))
    shared_b = SNAtom(zero_term(2), var_term(0))
    shared = build(lambda: shared_a, lambda: shared_b)
    copies = build(
        lambda: SNAtom(var_term(1, 3), var_term(0, 1)),
        lambda: SNAtom(zero_term(2), var_term(0)),
    )
    assert shared == copies
    assert lift_qe(STEP, shared) == lift_qe(STEP, copies)
    for y in range(6):
        decision = decide(STEP, shared, (y,))
        assert repr(decision) == repr(decide(STEP, copies, (y,)))
        assert isinstance(decision, Yes) == oracle_decide(copies, (y,))
        assert check_evidence(decision, shared, (y,))


def test_canonical_form_is_computed_once_per_atom():
    a = SNAtom(zero_term(4), var_term(1, 2))
    c = canonicalize(a)
    assert c == SNAtom(var_term(1), zero_term(2))
    assert canonicalize(a) is c
    assert canonicalize(c) is c
    already = SNAtom(var_term(0, 2), var_term(1))
    assert canonicalize(already) is already


# --- literal truth ----------------------------------------------------------------


def test_literal_truth_examples():
    assert literal_truth(Literal.neg(SNAtom(var_term(0, 2), var_term(0, 4)))) is Truth.TRUE
    assert literal_truth(Literal.pos(SNAtom(var_term(0, 3), var_term(0, 3)))) is Truth.TRUE
    assert (
        literal_truth(Literal.pos(SNAtom(var_term(0, 0), var_term(1, 1))))
        is Truth.UNKNOWN
    )


def test_literal_truth_sound():
    rng = Random(32)
    for _ in range(400):
        arity = rng.randint(1, 2)
        p = random_product(rng, arity, max_literals=1)
        if not p.literals:
            continue
        lit = p.literals[0]
        verdict = literal_truth(lit)
        if verdict is Truth.UNKNOWN:
            continue
        expected = verdict is Truth.TRUE
        for env in itertools.product(range(8), repeat=arity):
            assert lit_holds(lit, arity, env) == expected


# --- product elimination ---------------------------------------------------------------

X5_Y3 = Literal.pos(SNAtom(var_term(0, 5), var_term(1, 3)))
X0_Y2 = Literal.pos(SNAtom(var_term(0, 0), var_term(1, 2)))
X1_NE_9 = Literal.neg(SNAtom(var_term(0, 1), zero_term(9)))


def y_ne(k: int, shift: int = 0) -> Formula:
    """``y + shift != k`` one arity down, where y is index 0."""
    return mk_not(Atom(SNAtom(var_term(0, shift), zero_term(k)), 1))


Y_REACHES_2 = And(y_ne(0), y_ne(1))


def assert_eliminates_to(p: Product, expected: Formula) -> None:
    """Both doors give expected, which agrees with ``exists x. p`` pointwise in y."""
    assert eliminate_dnf(STEP, Dnf((p,), p.arity)) == expected
    assert STEP.eliminate_product(p) == expected
    for y in range(16):
        exists_x = any(
            all(lit_holds(l, 2, (x, y)) for l in p.literals) for x in range(41)
        )
        assert eval_qfree(expected, (y,)) == exists_x, f"y={y}"


def test_eliminate_product_empty_product():
    assert STEP.eliminate_product(Product((), 1)) == mk_true(0)
    assert STEP.eliminate_product(Product((), 3)) == mk_true(2)


def test_eliminate_product_worked_example():
    result = STEP.eliminate_product(Product((X5_Y3,), 2))
    assert is_qfree(result)
    assert result.arity == 1
    for y in range(11):
        expected = any(x + 5 == y + 3 for x in range(30))
        assert eval_qfree(result, (y,)) == expected == (y >= 2)


def test_eliminate_product_adds_side_conditions():
    assert_eliminates_to(Product((X5_Y3,), 2), Y_REACHES_2)


def test_eliminate_product_raises_occurrences():
    assert_eliminates_to(Product((X0_Y2, X1_NE_9), 2), y_ne(9, shift=3))


def test_eliminate_product_drops_and_compensates():
    assert_eliminates_to(Product((X5_Y3, X1_NE_9), 2), And(y_ne(11, shift=1), Y_REACHES_2))


def test_step_rejects_pivots_of_unsimplified_products():
    # x = x + 1 is false, and simplification would decide it; solved, it
    # would eliminate to true.
    with pytest.raises(PivotError, match="against itself"):
        STEP.eliminate_product(Product((Literal.pos(SNAtom(var_term(0), var_term(0, 1))),), 1))
    both_sides = Literal.neg(SNAtom(var_term(0), var_term(0, 2)))
    with pytest.raises(PivotError, match="both sides"):
        STEP.eliminate_product(Product((X0_Y2, both_sides), 2))
    # The witness solves the same literals, and rejects them the same way.
    for lit in (both_sides, both_sides.negate()):
        with pytest.raises(PivotError, match="both sides"):
            STEP.prod_witness(Product((lit,), 1), ())


def test_eliminate_product_negatives_only():
    p = Product(
        (
            Literal.neg(SNAtom(var_term(0), zero_term(5))),
            Literal.neg(SNAtom(var_term(0), var_term(1))),
        ),
        2,
    )
    for y in range(11):
        assert any(x != 5 and x != y for x in range(21))
    assert STEP.eliminate_product(p) == mk_true(1)


def test_eliminate_product_impossible_constant():
    assert STEP.eliminate_product(Product((Literal.pos(SNAtom(var_term(0, 2), zero_term(1))),), 1)) == Falsum(0)


def test_eliminate_product_rejects_closed_products():
    with pytest.raises(ArityError):
        STEP.eliminate_product(Product((), 0))
    with pytest.raises(ArityError):
        eliminate_dnf(STEP, Dnf((Product((), 0),), 0))


def test_eliminate_product_matches_oracle():
    rng = Random(33)
    for _ in range(1000):
        arity = rng.randint(1, 3)
        p = random_product(rng, arity)
        result = eliminate_dnf(STEP, Dnf((p,), arity))
        assert is_qfree(result)
        assert result.arity == arity - 1
        env = random_env(rng, arity - 1)
        expected = oracle_decide(Exists(interpret_product(p)), env)
        assert eval_qfree(result, env) == expected, f"{p!r} at {env!r}"


def _mentions0(a: SNAtom) -> bool:
    return (a.lhs.is_var and a.lhs.index == 0) or (a.rhs.is_var and a.rhs.index == 0)


def _strengthen_reference(lit: Literal) -> Literal:
    def term(t: SNTerm) -> SNTerm:
        return SNTerm(t.index - 1, t.shift) if t.is_var else t

    return Literal(lit.positive, SNAtom(term(lit.atom.lhs), term(lit.atom.rhs)))


def _subst_pivot_reference(p: Product, pivot: Literal) -> tuple[Product, tuple[Literal, ...]]:
    """Same-arity pivot substitution: the pivot's solution for index 0 replaces
    it in every literal but the first match, which is consumed; returns the
    rest with the side conditions ``t != 0, ..., t != d-1`` of a solution t - d."""
    canon = canonicalize(pivot.atom)
    a, b, target = canon.lhs.shift, canon.rhs.shift, canon.rhs.index
    lift, drop = max(b - a, 0), max(a - b, 0)

    def sub(lit: Literal) -> Literal:
        lhs, rhs = lit.atom.lhs, lit.atom.rhs
        if lhs.is_var and lhs.index == 0:
            lhs, rhs = SNTerm(target, lhs.shift + lift), SNTerm(rhs.index, rhs.shift + drop)
        elif rhs.is_var and rhs.index == 0:
            lhs, rhs = SNTerm(lhs.index, lhs.shift + drop), SNTerm(target, rhs.shift + lift)
        else:
            return lit
        return Literal(lit.positive, SNAtom(lhs, rhs))

    consumed = False
    remaining: list[Literal] = []
    for lit in p.literals:
        if not consumed and lit.positive and canonicalize(lit.atom) == canon:
            consumed = True
            continue
        remaining.append(sub(lit))
    side = tuple(Literal.neg(SNAtom(SNTerm(target, 0), zero_term(i))) for i in range(drop))
    return Product(tuple(remaining), p.arity), side


def _eliminate_reference(p: Product):
    """Elimination as simplify, substitute, simplify again by recursion, lower."""
    n = p.arity - 1
    lits = simplify_literals(p.literals, literal_truth, canonicalize)
    if lits is None:
        return Falsum(n)
    pivot = next((l for l in lits if l.positive and _mentions0(l.atom)), None)
    if pivot is not None:
        canon = canonicalize(pivot.atom)
        if canon.rhs.is_zero and canon.lhs.shift > canon.rhs.shift:
            return Falsum(n)
        remaining, side = _subst_pivot_reference(Product(lits, p.arity), pivot)
        return _eliminate_reference(Product(remaining.literals + side, p.arity))
    kept = tuple(l for l in lits if not _mentions0(l.atom))
    return interpret_product(Product(tuple(_strengthen_reference(l) for l in kept), n))


def _product_with_every_kind(rng: Random, arity: int) -> Product:
    """A random product, plus duplicates, decided literals and steep pivots."""
    lits = list(random_product(rng, arity, max_shift=4, max_literals=5).literals)
    y = rng.randrange(1, arity) if arity > 1 else None
    extras = [
        Literal.pos(SNAtom(var_term(0, 1), var_term(0, 1))),  # x + 1 = x + 1
        Literal.pos(SNAtom(zero_term(0), zero_term(1))),  # 0 = 1
        Literal.neg(SNAtom(var_term(0, 2), var_term(0))),  # x + 2 != x
        Literal.pos(SNAtom(var_term(0, rng.randint(1, 3)), zero_term(0))),  # no solution
        random_literal(rng, arity, 4),
    ]
    if y is not None:  # a > b: side conditions
        extras.append(Literal.pos(SNAtom(var_term(0, rng.randint(2, 4)), var_term(y, 1))))
    for _ in range(rng.randint(0, 3)):
        lits.insert(rng.randint(0, len(lits)), rng.choice(extras))
    if lits and rng.random() < 0.5:  # a duplicate, maybe shifted by one on both sides
        lit = rng.choice(lits)
        k = rng.randint(0, 1)
        lhs, rhs = lit.atom.lhs, lit.atom.rhs
        twin = SNAtom(SNTerm(lhs.index, lhs.shift + k), SNTerm(rhs.index, rhs.shift + k))
        lits.insert(rng.randint(0, len(lits)), Literal(lit.positive, twin))
    return Product(tuple(lits), arity)


def test_eliminate_product_matches_its_reference():
    rng = Random(36)
    kinds = dict.fromkeys(("duplicate", "decided", "false", "side", "steep", "none"), 0)
    for _ in range(3000):
        arity = rng.randint(1, 3)
        p = _product_with_every_kind(rng, arity)
        expected = repr(_eliminate_reference(p))
        assert repr(eliminate_dnf(STEP, Dnf((p,), arity))) == expected, repr(p)
        lits = simplify_literals(p.literals, literal_truth, canonicalize)
        verdicts = [literal_truth(l) for l in p.literals]
        kinds["decided"] += any(v is not Truth.UNKNOWN for v in verdicts)
        if lits is None:
            kinds["false"] += 1
            continue
        kinds["duplicate"] += len(lits) < sum(v is Truth.UNKNOWN for v in verdicts)
        assert repr(STEP.eliminate_product(Product(lits, arity))) == expected, repr(p)
        pivot = next((l for l in lits if l.positive and _mentions0(l.atom)), None)
        if pivot is None:
            kinds["none"] += 1
        elif canonicalize(pivot.atom).lhs.shift > canonicalize(pivot.atom).rhs.shift:
            kinds["steep" if canonicalize(pivot.atom).rhs.is_zero else "side"] += 1
    assert min(kinds.values()) >= 100, kinds


def test_the_step_trusts_simplified_products(monkeypatch):
    calls = []

    def spy(name, fn):
        def counted(*args):
            calls.append(name)
            return fn(*args)

        return counted

    # x != 3 & x != y & y != 4: index 0 only in negative literals.
    x_ne_3, x_ne_y, y_ne_4 = (
        mk_not(Atom(SNAtom(lhs, rhs), 2))
        for lhs, rhs in [(var_term(0), zero_term(3)), (var_term(0), var_term(1)), (var_term(1), zero_term(4))]
    )
    body = And(x_ne_3, And(x_ne_y, y_ne_4))
    (p,) = to_dnf(body, literal_truth=literal_truth, canonical_atom=canonicalize).products
    assert not any(l.positive and _mentions0(l.atom) for l in p.literals)
    monkeypatch.setattr(successor, "literal_truth", spy("literal_truth", literal_truth))
    monkeypatch.setattr(successor, "simplify_literals", spy("simplify", simplify_literals))
    monkeypatch.setattr(engine, "simplify_literals", spy("simplify", simplify_literals))
    assert STEP.eliminate_product(p) == mk_not(Atom(SNAtom(var_term(0), zero_term(4)), 1))
    assert STEP.prod_witness(p, (1,)) == 0
    assert calls == []
    assert eliminate_dnf(STEP, Dnf((p,), 2)) == STEP.eliminate_product(p)
    assert calls.count("simplify") == 1


# --- witnesses -------------------------------------------------------------------------


def test_prod_witness_examples():
    p = Product(
        (
            Literal.pos(SNAtom(var_term(0, 3), var_term(1, 1))),
            Literal.pos(SNAtom(zero_term(8), var_term(1, 4))),
        ),
        2,
    )
    assert STEP.prod_witness(p, (4,)) == 2
    assert STEP.prod_witness(Product((), 1), ()) == 0
    exclusions = Product(
        (
            Literal.neg(SNAtom(var_term(0), zero_term(0))),
            Literal.neg(SNAtom(var_term(0), zero_term(1))),
        ),
        1,
    )
    assert STEP.prod_witness(exclusions, ()) == 2


def test_prod_witness_sound_when_elimination_holds():
    rng = Random(34)
    checked = 0
    for _ in range(1500):
        arity = rng.randint(1, 3)
        p = random_product(rng, arity)
        env = random_env(rng, arity - 1)
        lits = simplify_literals(p.literals, literal_truth, canonicalize)
        if lits is None:
            continue
        simplified = Product(lits, arity)
        if not eval_qfree(STEP.eliminate_product(simplified), env):
            continue
        w = STEP.prod_witness(simplified, env)
        assert eval_qfree(interpret_product(p), (w,) + env)
        checked += 1
    assert checked > 200


def test_prod_witness_unsatisfiable():
    with pytest.raises(UnsatisfiableProductError):
        STEP.prod_witness(Product((Literal.pos(SNAtom(var_term(0, 2), zero_term(1))),), 1), ())
    with pytest.raises(UnsatisfiableProductError):
        STEP.prod_witness(Product((X5_Y3,), 2), (0,))
    # x = x + 1 is false: simplification rejects it, so no witness is asked for.
    false = Product((Literal.pos(SNAtom(var_term(0), var_term(0, 1))),), 1)
    assert simplify_literals(false.literals, literal_truth, canonicalize) is None
    assert eliminate_dnf(STEP, Dnf((false,), 1)) == Falsum(0)


def test_prod_witness_arity_error():
    with pytest.raises(ArityError):
        STEP.prod_witness(Product((), 2), ())


def test_a_negative_environment_value_is_an_input_error():
    with pytest.raises(ValueError, match="negative environment value -1"):
        STEP.prod_witness(Product((X5_Y3,), 2), (-1,))
    with pytest.raises(ValueError, match="negative environment value -3"):
        oracle_decide(Exists(Atom(SNAtom(var_term(0), var_term(1)), 2)), (-3,))
    # Through decide, the witness of exists x. x = y at y = -1 is the one asked for.
    with pytest.raises(ValueError, match="negative environment value -1"):
        decide(STEP, parse("exists x. x = y", ["y"]), (-1,))


# --- candidate sets and oracles -----------------------------------------------------------


def test_candidates_examples():
    assert candidates(Atom(SNAtom(var_term(0), zero_term(5)), 1), ()) == {5, 6}
    assert candidates(Atom(SNAtom(var_term(0, 3), var_term(1, 1)), 2), (4,)) == {2, 5}
    assert candidates(Falsum(1), ()) == {1}


def test_candidates_arity_error():
    with pytest.raises(ArityError):
        candidates(Falsum(1), (3,))


def test_oracle_decide_examples():
    assert oracle_decide(sample0(), ()) is True
    assert oracle_decide(sample1(), ()) is True
    assert oracle_decide(Falsum(0), ()) is False
    with pytest.raises(ArityError):
        oracle_decide(Falsum(1), ())


def x_eq(k: int) -> Atom:
    return Atom(SNAtom(var_term(0), zero_term(k)), 1)


def test_nested_quantifier_regressions():
    succ_link = Atom(SNAtom(var_term(1), var_term(0, 1)), 2)
    some_avoids_all_successors = Exists(Forall(mk_not(succ_link)))
    every_value_is_a_successor = Forall(Exists(succ_link))
    chained = Exists(
        Exists(
            And(
                Atom(SNAtom(var_term(1), var_term(0, 2)), 2),
                Atom(SNAtom(var_term(0), zero_term(3)), 2),
            )
        )
    )
    # Regression: an inner witness can sit a shift above the outer variable,
    # so bounded enumeration must extend past the ambient values.
    two_above = Forall(Exists(Atom(SNAtom(var_term(1, 3), var_term(0, 1)), 2)))
    reach_five = Exists(Atom(SNAtom(var_term(1), var_term(0, 5)), 2))
    small = Or(x_eq(0), Or(x_eq(1), Or(x_eq(2), Or(x_eq(3), x_eq(4)))))
    gapped = Or(x_eq(0), Or(x_eq(1), x_eq(4)))
    cases = [
        (some_avoids_all_successors, True),
        (every_value_is_a_successor, False),
        (chained, True),
        (two_above, True),
        (Forall(Or(reach_five, small)), True),
        (Forall(Or(reach_five, gapped)), False),
    ]
    for phi, expected in cases:
        assert naive_decide(phi) is expected, f"naive on {phi!r}"
        assert oracle_decide(phi, ()) is expected, f"oracle on {phi!r}"


def test_oracle_matches_naive_enumeration():
    from randgen import random_formula

    rng = Random(35)
    for _ in range(300):
        phi = random_formula(rng, 0, rng.randint(1, 4), 2, max_shift=4)
        assert oracle_decide(phi, ()) == naive_decide(phi), repr(phi)


def _candidates_reference(body: Formula, env: Environment) -> set[int]:
    """Candidate values read from body under one environment, in one walk."""
    points: set[int] = set()
    offsets: set[int] = set()
    shifts = {0}
    rounds = 0
    for f, depth in subformulas(body):
        if not isinstance(f, Atom):
            rounds += isinstance(f, (Exists, Forall))
            continue
        a = f.atom
        shifts.add(a.lhs.shift)
        shifts.add(a.rhs.shift)
        sides = []
        for t in (a.lhs, a.rhs):
            if t.is_zero:
                sides.append(("known", t.shift))
            elif t.index > depth:
                sides.append(("known", t.shift + env[t.index - depth - 1]))
            else:
                sides.append(("open", t.shift))
        (lk, lv), (rk, rv) = sides
        if lk == "known" and rk == "known":
            continue
        if lk == "known" or rk == "known":
            known = lv if lk == "known" else rv
            open_shift = rv if lk == "known" else lv
            point = known - open_shift
            if point >= 0:
                points.add(point)
            continue
        lt, rt = a.lhs, a.rhs
        if lt.is_var and rt.is_var and lt.index == rt.index:
            continue
        gap = abs(lv - rv)
        offsets.add(gap)
        points.update(range(gap + 1))
    for _ in range(rounds):
        grown = set(points)
        for point in points:
            for off in offsets:
                grown.add(point + off)
                if point - off >= 0:
                    grown.add(point - off)
        if grown == points:
            break
        points = grown
    fresh = 1 + max(points | set(env) | shifts)
    return points | {fresh}


def _oracle_reference(phi: Formula, env: Environment, visits: list) -> bool:
    """Structural recursion; each binder visit appends (body, env, candidates)."""
    if isinstance(phi, Atom):
        return atom_eval(phi.atom, env)
    if isinstance(phi, Falsum):
        return False
    if isinstance(phi, Or):
        return _oracle_reference(phi.lhs, env, visits) or _oracle_reference(phi.rhs, env, visits)
    if isinstance(phi, And):
        return _oracle_reference(phi.lhs, env, visits) and _oracle_reference(phi.rhs, env, visits)
    if isinstance(phi, Implies):
        return (not _oracle_reference(phi.lhs, env, visits)) or _oracle_reference(
            phi.rhs, env, visits
        )
    values = sorted(_candidates_reference(phi.body, env))
    visits.append((phi.body, env, values))
    quantifier = any if isinstance(phi, Exists) else all
    return quantifier(_oracle_reference(phi.body, (v,) + env, visits) for v in values)


def test_oracle_and_candidates_match_their_references(monkeypatch):
    # The oracle's own candidate sets, in the order it enumerates them.
    enumerated = []

    def recording(marks, base):
        values = analyse(marks, base)

        def record(env):
            found = values(env)
            enumerated.append(sorted(found))
            return found

        return record

    analyse = successor._analyse
    monkeypatch.setattr(successor, "_analyse", recording)
    rng = Random(37)
    nested = 0
    for _ in range(2000):
        arity = rng.randint(0, 2)
        phi = random_formula(rng, arity, rng.randint(2, 6), rng.randint(1, 3), max_shift=5)
        env = random_env(rng, arity)
        visits = []
        expected = _oracle_reference(phi, env, visits)
        for body, at, values in visits:
            assert sorted(candidates(body, at)) == values, repr(body)
        nested += any(len(at) > arity for _, at, _ in visits)
        enumerated.clear()
        assert oracle_decide(phi, env) == expected, repr(phi)
        assert enumerated == [values for _, _, values in visits], repr(phi)
    assert nested >= 200


def test_size_helpers():
    phi = sample0()
    assert quantifier_count(phi) == 2
    assert atom_count(phi) == 2
    assert max_shift(phi) == 8


def test_size_helpers_and_candidates_walk_wide_chains():
    # exists x. x = 0 | ... | x = n-1, left-nested, far past the recursion limit.
    n = 5000
    body = Atom(SNAtom(var_term(0), zero_term(0)), 1)
    for k in range(1, n):
        body = Or(body, Atom(SNAtom(var_term(0), zero_term(k)), 1))
    phi = Exists(body)
    assert quantifier_count(phi) == 1
    assert atom_count(phi) == n
    assert max_shift(phi) == n - 1
    assert is_qfree(body) and not is_qfree(phi)
    assert candidates(body, ()) == set(range(n + 1))
