"""Seeded random generators shared across the test modules.

Every generator takes an explicit ``random.Random`` so each test pins its
own seed.  Shapes follow the corpus bounds used by the acceptance suite:
small arities, bounded shifts, a fixed quantifier budget that is split
between the two sides of a connective.
"""

from random import Random

from qelim import (
    And,
    Atom,
    Exists,
    Falsum,
    Forall,
    Formula,
    Implies,
    Literal,
    Or,
    Product,
    SNAtom,
    SNTerm,
)
from naive import quantifier_count


def random_term(rng: Random, arity: int, max_shift: int) -> SNTerm:
    shift = rng.randint(0, max_shift)
    if arity > 0 and rng.random() < 0.7:
        return SNTerm(rng.randrange(arity), shift)
    return SNTerm(None, shift)


def random_atom(rng: Random, arity: int, max_shift: int) -> SNAtom:
    return SNAtom(
        random_term(rng, arity, max_shift), random_term(rng, arity, max_shift)
    )


def random_literal(rng: Random, arity: int, max_shift: int) -> Literal:
    return Literal(rng.random() < 0.6, random_atom(rng, arity, max_shift))


def random_product(
    rng: Random, arity: int, max_shift: int = 6, max_literals: int = 4
) -> Product:
    count = rng.randint(0, max_literals)
    lits = tuple(random_literal(rng, arity, max_shift) for _ in range(count))
    return Product(lits, arity)


def random_env(rng: Random, arity: int, max_value: int = 8) -> tuple[int, ...]:
    return tuple(rng.randint(0, max_value) for _ in range(arity))


def _leaf(rng: Random, arity: int, max_shift: int) -> Formula:
    if rng.random() < 0.12:
        return Falsum(arity)
    return Atom(random_atom(rng, arity, max_shift), arity)


def random_qfree(rng: Random, arity: int, depth: int, max_shift: int = 6) -> Formula:
    if depth == 0 or rng.random() < 0.3:
        return _leaf(rng, arity, max_shift)
    kind = rng.choice(("or", "and", "implies"))
    lhs = random_qfree(rng, arity, depth - 1, max_shift)
    rhs = random_qfree(rng, arity, depth - 1, max_shift)
    if kind == "or":
        return Or(lhs, rhs)
    if kind == "and":
        return And(lhs, rhs)
    return Implies(lhs, rhs)


def random_formula(
    rng: Random,
    arity: int,
    depth: int,
    quantifiers: int,
    max_shift: int = 6,
) -> Formula:
    """A formula of the given arity with at most ``quantifiers`` binders."""
    if depth == 0 or rng.random() < 0.25:
        return _leaf(rng, arity, max_shift)
    kinds = ["or", "and", "implies"]
    if quantifiers > 0:
        kinds += ["exists", "forall"]
    kind = rng.choice(kinds)
    if kind == "exists" or kind == "forall":
        body = random_formula(rng, arity + 1, depth - 1, quantifiers - 1, max_shift)
        return Exists(body) if kind == "exists" else Forall(body)
    lhs = random_formula(rng, arity, depth - 1, quantifiers, max_shift)
    rhs = random_formula(
        rng, arity, depth - 1, quantifiers - quantifier_count(lhs), max_shift
    )
    if kind == "or":
        return Or(lhs, rhs)
    if kind == "and":
        return And(lhs, rhs)
    return Implies(lhs, rhs)
