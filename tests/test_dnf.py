"""DNF conversion: interpretation, the polarity-directed construction, hooks."""

import os
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

from qelim import (
    And,
    Atom,
    Dnf,
    DnfLimitError,
    Exists,
    Falsum,
    Formula,
    Implies,
    Literal,
    NotQuantifierFree,
    Or,
    Product,
    SNAtom,
    eval_qfree,
    interpret_dnf,
    interpret_product,
    is_qfree,
    mk_not,
    mk_true,
    parse,
    to_dnf,
    var_term,
    zero_term,
)
import qelim
from qelim.dnf import disjoin, simplify_literals
from qelim.successor import canonicalize, literal_truth
from randgen import random_env, random_qfree

A = SNAtom(var_term(0), zero_term(0))
B = SNAtom(var_term(0), zero_term(1))
C = SNAtom(var_term(0), zero_term(2))


def connective_count(phi: Formula) -> int:
    if isinstance(phi, (Or, And, Implies)):
        return 1 + connective_count(phi.lhs) + connective_count(phi.rhs)
    return 0


# --- interpretation -----------------------------------------------------------


def test_interpret_product_empty_is_truth():
    assert interpret_product(Product((), 0)) == mk_true(0)
    assert interpret_product(Product((), 2)) == mk_true(2)


def test_interpret_product_singleton():
    assert interpret_product(Product((Literal.pos(A),), 1)) == Atom(A, 1)


def test_interpret_product_fold():
    p = Product((Literal.pos(A), Literal.neg(B)), 1)
    assert interpret_product(p) == And(Atom(A, 1), Implies(Atom(B, 1), Falsum(1)))


def test_interpret_dnf_empty_is_falsity():
    assert interpret_dnf(Dnf((), 0)) == Falsum(0)
    assert interpret_dnf(Dnf((), 3)) == Falsum(3)


def test_interpret_dnf_singleton_and_fold():
    p1 = Product((Literal.pos(A),), 1)
    p2 = Product((Literal.neg(B),), 1)
    assert interpret_dnf(Dnf((p1,), 1)) == interpret_product(p1)
    assert interpret_dnf(Dnf((p1, p2), 1)) == Or(
        interpret_product(p1), interpret_product(p2)
    )


# --- to_dnf structure ----------------------------------------------------------


def test_to_dnf_atom():
    assert to_dnf(Atom(A, 1)) == Dnf((Product((Literal.pos(A),), 1),), 1)


def test_to_dnf_negated_disjunction():
    phi = mk_not(Or(Atom(A, 1), Atom(B, 1)))
    assert to_dnf(phi) == Dnf((Product((Literal.neg(A), Literal.neg(B)), 1),), 1)


def test_to_dnf_distributes_and_over_or():
    phi = And(Or(Atom(A, 1), Atom(B, 1)), Atom(C, 1))
    assert to_dnf(phi) == Dnf(
        (
            Product((Literal.pos(A), Literal.pos(C)), 1),
            Product((Literal.pos(B), Literal.pos(C)), 1),
        ),
        1,
    )


def test_to_dnf_falsum_and_truth():
    assert to_dnf(Falsum(1)) == Dnf((), 1)
    assert to_dnf(mk_true(1)) == Dnf((Product((), 1),), 1)


def test_to_dnf_rejects_quantifiers():
    with pytest.raises(NotQuantifierFree):
        to_dnf(Exists(Atom(SNAtom(var_term(0), zero_term()), 1)))


def test_quantified_input_is_named_not_printed():
    # exists x. x = 0 | ... | x = 399: the error names the binder; printing
    # its subtree would recurse past the limit before the error is raised.
    body = Atom(SNAtom(var_term(0), zero_term(0)), 1)
    for k in range(1, 400):
        body = Or(body, Atom(SNAtom(var_term(0), zero_term(k)), 1))
    phi = Exists(body)
    with pytest.raises(NotQuantifierFree, match="Exists of arity 0"):
        to_dnf(phi)
    with pytest.raises(NotQuantifierFree, match="Exists of arity 0"):
        eval_qfree(phi, ())


def test_to_dnf_deduplicates_repeated_literals():
    phi = And(Atom(A, 1), Atom(A, 1))
    assert to_dnf(phi) == Dnf((Product((Literal.pos(A),), 1),), 1)


# --- semantic equivalence -------------------------------------------------------


def test_to_dnf_preserves_evaluation():
    rng = Random(21)
    for _ in range(1000):
        arity = rng.randint(0, 3)
        phi = random_qfree(rng, arity, 6)
        d = to_dnf(phi)
        back = interpret_dnf(d)
        assert is_qfree(back)
        assert len(d.products) <= 2 ** connective_count(phi)
        for _ in range(3):
            env = random_env(rng, arity)
            assert eval_qfree(back, env) == eval_qfree(phi, env)


def test_to_dnf_with_theory_hooks_preserves_evaluation():
    rng = Random(22)
    for _ in range(300):
        arity = rng.randint(0, 2)
        phi = random_qfree(rng, arity, 5)
        d = to_dnf(phi, literal_truth=literal_truth, canonical_atom=canonicalize)
        back = interpret_dnf(d)
        for _ in range(3):
            env = random_env(rng, arity)
            assert eval_qfree(back, env) == eval_qfree(phi, env)


def naive_products(phi: Formula, positive: bool = True) -> list[tuple[Literal, ...]]:
    """Textbook DNF of phi (or of its negation): full expansion, no hooks."""
    if isinstance(phi, Atom):
        return [(Literal(positive, phi.atom),)]
    if isinstance(phi, Falsum):
        return [] if positive else [()]
    if isinstance(phi, Or):  # ~(a | b) == ~a & ~b
        signs, conjunction = (positive, positive), not positive
    elif isinstance(phi, And):  # ~(a & b) == ~a | ~b
        signs, conjunction = (positive, positive), positive
    else:  # a -> b == ~a | b;  ~(a -> b) == a & ~b
        signs, conjunction = (not positive, positive), not positive
    left = naive_products(phi.lhs, signs[0])
    right = naive_products(phi.rhs, signs[1])
    if conjunction:
        return [xs + ys for xs in left for ys in right]
    return left + right


@pytest.mark.parametrize(
    "hooks",
    [{}, {"literal_truth": literal_truth, "canonical_atom": canonicalize}],
    ids=["plain", "theory-hooks"],
)
def test_to_dnf_matches_naive_expansion_then_simplify(hooks):
    # Exact products, order included: simplifying once at the leaves and
    # merging keyed products must equal simplifying each expanded product.
    rng = Random(23)
    for _ in range(500):
        arity = rng.randint(0, 3)
        phi = random_qfree(rng, arity, 5)
        expected = []
        for lits in naive_products(phi):
            kept = simplify_literals(
                lits, hooks.get("literal_truth"), hooks.get("canonical_atom")
            )
            if kept is not None:
                expected.append(kept)
        assert [p.literals for p in to_dnf(phi, **hooks).products] == expected


# --- simplification hooks --------------------------------------------------------


def test_literal_truth_hook_drops_trivially_true_literals():
    reflexive = SNAtom(var_term(0), var_term(0))
    phi = And(Atom(reflexive, 1), Atom(A, 1))
    d = to_dnf(phi, literal_truth=literal_truth)
    assert d == Dnf((Product((Literal.pos(A),), 1),), 1)


def test_literal_truth_hook_collapses_false_products():
    impossible = SNAtom(var_term(0), var_term(0, 1))
    d = to_dnf(Atom(impossible, 1), literal_truth=literal_truth)
    assert d == Dnf((), 1)
    d = to_dnf(mk_not(Atom(impossible, 1)), literal_truth=literal_truth)
    assert d == Dnf((Product((), 1),), 1)


def test_canonical_atom_hook_merges_shifted_duplicates():
    # x+1 = 1 and x+3 = 3 both canonicalize to x = 0; one literal survives.
    first = SNAtom(var_term(0, 1), zero_term(1))
    second = SNAtom(var_term(0, 3), zero_term(3))
    phi = And(Atom(first, 1), Atom(second, 1))
    d = to_dnf(phi, canonical_atom=canonicalize)
    assert d == Dnf((Product((Literal.pos(first),), 1),), 1)


# --- size ceiling ------------------------------------------------------------------


def chain_of_ors(width: int) -> Formula:
    atoms = [Atom(SNAtom(var_term(0), zero_term(k)), 1) for k in range(2 * width)]
    pairs = [Or(atoms[2 * i], atoms[2 * i + 1]) for i in range(width)]
    phi = pairs[0]
    for p in pairs[1:]:
        phi = And(phi, p)
    return phi


def test_max_products_limit_enforced():
    phi = chain_of_ors(4)  # 16 products
    assert len(to_dnf(phi).products) == 16
    assert len(to_dnf(phi, max_products=16).products) == 16
    with pytest.raises(DnfLimitError):
        to_dnf(phi, max_products=15)


def test_max_products_bounds_only_the_polarity_built():
    # 14 disjuncts of two atoms: 14 products, while the negation has 2^14.
    atoms = [Atom(SNAtom(var_term(0), zero_term(k)), 1) for k in range(28)]
    phi = And(atoms[0], atoms[1])
    for i in range(1, 14):
        phi = Or(phi, And(atoms[2 * i], atoms[2 * i + 1]))
    assert len(to_dnf(phi, max_products=14).products) == 14
    with pytest.raises(DnfLimitError):
        to_dnf(phi, max_products=13)


@pytest.mark.parametrize("negated", [False, True], ids=["union", "cross"])
def test_long_right_nested_chain_converts(negated):
    # An elimination's disjunction nests to the right; its right spine
    # combines alike, so converting it takes no frame per connective.
    n = 1200
    chain = disjoin([Atom(SNAtom(var_term(0), zero_term(k)), 1) for k in range(n)], 1)
    d = to_dnf(mk_not(chain) if negated else chain)
    if negated:
        assert [len(p.literals) for p in d.products] == [n]
        assert d.products[0].literals[-1] == Literal.neg(SNAtom(var_term(0), zero_term(n - 1)))
    else:
        assert [p.literals[0].atom.rhs.shift for p in d.products] == list(range(n))


@pytest.mark.parametrize("negated", [False, True], ids=["union", "cross"])
def test_long_left_nested_chain_converts(negated):
    # The parser nests a chain to the left; its left spine combines alike
    # too, so converting it takes no frame per connective either.
    n = 3000
    chain = parse("exists x. " + " | ".join(f"x = {k}" for k in range(n))).body
    d = to_dnf(mk_not(chain) if negated else chain)
    if negated:
        assert [len(p.literals) for p in d.products] == [n]
        assert d.products[0].literals[-1] == Literal.neg(SNAtom(var_term(0), zero_term(n - 1)))
    else:
        assert [p.literals[0].atom.rhs.shift for p in d.products] == list(range(n))


def test_crossing_with_no_products_builds_nothing_more():
    big = chain_of_ors(3)  # 8 products
    assert len(to_dnf(big).products) == 8
    assert to_dnf(And(Falsum(1), big), max_products=4) == Dnf((), 1)
    assert to_dnf(And(And(Falsum(1), big), big), max_products=4) == Dnf((), 1)


# --- literal helpers ----------------------------------------------------------------


def test_literal_negate_and_as_formula():
    lit = Literal.pos(A)
    assert lit.negate() == Literal.neg(A)
    assert lit.negate().negate() == lit
    assert lit.as_formula(1) == Atom(A, 1)
    assert Literal.neg(A).as_formula(1) == mk_not(Atom(A, 1))


def test_wide_dnf_interpretation_evaluates():
    # One product per constant: the interpretation chains 3000 connectives.
    products = tuple(
        Product((Literal.pos(SNAtom(var_term(0), zero_term(k))),), 1)
        for k in range(3000)
    )
    phi = interpret_dnf(Dnf(products, 1))
    assert is_qfree(phi)
    assert eval_qfree(phi, (2999,)) is True
    assert eval_qfree(phi, (3000,)) is False


def test_product_and_dnf_coerce_sequences():
    p = Product([Literal.pos(A)], 1)  # type: ignore[arg-type]
    assert p.literals == (Literal.pos(A),)
    d = Dnf([p], 1)  # type: ignore[arg-type]
    assert d.products == (p,)


def test_reimport_does_not_pin_the_old_modules():
    # Module-level typing aliases would sit in typing's cache and keep every
    # imported copy of the package alive.
    code = """
import gc, importlib, sys, weakref

def fresh():
    for name in [m for m in sys.modules if m == "qelim" or m.startswith("qelim.")]:
        del sys.modules[name]
    return importlib.import_module("qelim")

refs = [weakref.ref(fresh().dnf.Literal), weakref.ref(sys.modules["qelim.formula"].Formula)]
fresh()
gc.collect()
sys.exit(0 if all(ref() is None for ref in refs) else 1)
"""
    src = str(Path(qelim.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, timeout=60
    )
    assert done.returncode == 0
