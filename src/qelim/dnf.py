"""Disjunctive normal form over theory literals.

A ``Literal`` is a signed atom, a ``Product`` a conjunction of literals, a
``Dnf`` a disjunction of products.  The empty product means truth and the
empty DNF means falsity, matching ``interpret_product`` / ``interpret_dnf``.

``to_dnf`` builds one DNF, directed by polarity: each subformula is
converted in the polarity it is needed in, so negation and implication need
no separate pass.  ``Or`` takes the union of its sides' products and ``And``
their pairwise product; under negative polarity the two swap (De Morgan,
sound here because atoms are decidable).  ``Implies(a, b)`` is read as
``Or(not a, b)``, so only its left side flips polarity.

The theory hooks run once per atom occurrence, at the leaf.  A product under
construction maps the key ``(positive, canonical_atom(atom))`` to the first
literal with that key, so the pairwise product only merges two maps.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from .formula import (
    And,
    Atom,
    Falsum,
    Formula,
    Implies,
    NotQuantifierFree,
    Or,
    mk_not,
    mk_true,
)


class Truth(enum.Enum):
    """Verdict of the per-literal simplification hook."""

    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"


class DnfLimitError(RuntimeError):
    """The product count blew past the configured ceiling."""


@dataclass(frozen=True, slots=True)
class Literal:
    positive: bool
    atom: Any

    @classmethod
    def pos(cls, atom: Any) -> "Literal":
        return cls(True, atom)

    @classmethod
    def neg(cls, atom: Any) -> "Literal":
        return cls(False, atom)

    def negate(self) -> "Literal":
        return Literal(not self.positive, self.atom)

    def as_formula(self, arity: int) -> Formula:
        node = Atom(self.atom, arity)
        return node if self.positive else mk_not(node)


@dataclass(frozen=True, slots=True)
class Product:
    literals: tuple[Literal, ...]
    arity: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "literals", tuple(self.literals))


@dataclass(frozen=True, slots=True)
class Dnf:
    products: tuple[Product, ...]
    arity: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "products", tuple(self.products))


def interpret_product(p: Product) -> Formula:
    """Right-fold of And; the empty product reads as truth."""
    if not p.literals:
        return mk_true(p.arity)
    return _fold_right(And, [lit.as_formula(p.arity) for lit in p.literals])


def interpret_dnf(d: Dnf) -> Formula:
    """Right-fold of Or; the empty DNF reads as Falsum."""
    return disjoin([interpret_product(p) for p in d.products], d.arity)


def disjoin(parts: list[Formula], arity: int) -> Formula:
    """Right-nested disjunction of parts; no parts gives Falsum at arity."""
    if not parts:
        return Falsum(arity)
    return _fold_right(Or, parts)


def _fold_right(node: type, parts: list[Formula]) -> Formula:
    """``node(parts[0], node(parts[1], ...))``, right-nested; parts is not empty."""
    acc = parts[-1]
    for part in reversed(parts[:-1]):
        acc = node(part, acc)
    return acc


if TYPE_CHECKING:
    # Annotation-only: typing's subscription cache would otherwise hold these
    # aliases, and through them every imported copy of this module.
    LiteralTruth = Callable[[Literal], Truth]
    CanonicalAtom = Callable[[Any], Any]
    # A product under construction: canonical key -> first literal with it.
    _Lits = dict[tuple[bool, Any], Literal]


def to_dnf(
    phi: Formula,
    *,
    literal_truth: LiteralTruth | None = None,
    canonical_atom: CanonicalAtom | None = None,
    max_products: int | None = None,
) -> Dnf:
    """Convert a quantifier-free formula to an equivalent DNF.

    When a ``literal_truth`` hook is supplied, trivially true literals are
    dropped from their product and a trivially false literal drops the whole
    product.  Duplicate literals are removed, keyed on ``canonical_atom``
    when given; the first occurrence is kept.  ``max_products`` bounds every
    intermediate DNF built on the way, each of the polarity its subformula
    is needed in; crossing it raises DnfLimitError.  A conjunction, in the
    polarity built, whose left side has no products is empty: its right
    side is not built, so neither bounded nor checked for quantifiers.
    """
    products = _dnf(phi, True, literal_truth, canonical_atom, max_products)
    return Dnf(tuple(Product(tuple(p.values()), phi.arity) for p in products), phi.arity)


def _dnf(
    phi: Formula,
    positive: bool,
    literal_truth: LiteralTruth | None,
    canonical_atom: CanonicalAtom | None,
    max_products: int | None,
) -> list[_Lits]:
    """Products of phi when ``positive``, of its negation otherwise."""
    if isinstance(phi, Atom):
        lits: _Lits = {}
        if _admit(Literal(positive, phi.atom), lits, literal_truth, canonical_atom):
            return [lits]
        return []
    if isinstance(phi, Falsum):
        return [] if positive else [{}]
    if isinstance(phi, (Or, And, Implies)):
        # De Morgan: a negated Or/Implies is a conjunction, a negated And a
        # disjunction.  Sound because atoms are decidable.
        union = isinstance(phi, And) != positive
        # Spines of connectives that combine alike (And with And, Or with
        # Implies) are walked in loops, not one frame per node: the parser
        # nests a chain to the left, an elimination's disjunction nests to
        # the right.  The left spine stops at an Implies, whose left side
        # flips polarity (Implies(a, b) reads as Or(not a, b)); its nodes
        # are then combined bottom-up, each taking the products below it as
        # its left side, so every combination is the one recursion makes.
        alike = And if isinstance(phi, And) else (Or, Implies)
        spine = [phi]
        while not isinstance(phi, Implies) and isinstance(phi.lhs, alike):
            phi = phi.lhs
            spine.append(phi)
        lhs_positive = positive != isinstance(phi, Implies)
        acc = _dnf(phi.lhs, lhs_positive, literal_truth, canonical_atom, max_products)
        for node in reversed(spine):
            lefts, phi = [acc], node.rhs
            while isinstance(phi, alike) and (union or lefts[-1]):
                lhs_positive = positive != isinstance(phi, Implies)
                lhs = _dnf(phi.lhs, lhs_positive, literal_truth, canonical_atom, max_products)
                lefts.append(lhs)
                phi = phi.rhs
            if not union and not lefts[-1]:
                return []  # crossing with no products: the rest cannot add any
            acc = _dnf(phi, positive, literal_truth, canonical_atom, max_products)
            for lhs in reversed(lefts):
                acc = _union(lhs, acc, max_products) if union else _cross(lhs, acc, max_products)
        return acc
    raise NotQuantifierFree(
        f"to_dnf on quantified formula: {type(phi).__name__} of arity {phi.arity}"
    )


def _union(a: list[_Lits], b: list[_Lits], max_products: int | None) -> list[_Lits]:
    _check_limit(len(a) + len(b), max_products)
    return a + b


def _cross(a: list[_Lits], b: list[_Lits], max_products: int | None) -> list[_Lits]:
    # Both sides are already simplified and the hooks are pure, so merging
    # two products only drops keys the left one already has: no hook runs,
    # no product collapses, and the result has exactly len(a) * len(b).
    _check_limit(len(a) * len(b), max_products)
    out: list[_Lits] = []
    for xs in a:
        for ys in b:
            merged = xs.copy()
            for key, lit in ys.items():
                merged.setdefault(key, lit)
            out.append(merged)
    return out


def _admit(
    lit: Literal,
    lits: _Lits,
    literal_truth: LiteralTruth | None,
    canonical_atom: CanonicalAtom | None,
) -> bool:
    """Add lit to a product unless a duplicate is there; False when lit is false."""
    if literal_truth is not None:
        verdict = literal_truth(lit)
        if verdict is Truth.TRUE:
            return True
        if verdict is Truth.FALSE:
            return False
    key_atom = canonical_atom(lit.atom) if canonical_atom is not None else lit.atom
    lits.setdefault((lit.positive, key_atom), lit)
    return True


def simplify_literals(
    lits: tuple[Literal, ...],
    literal_truth: LiteralTruth | None,
    canonical_atom: CanonicalAtom | None,
) -> tuple[Literal, ...] | None:
    """Drop true literals and duplicates; None when a literal is false."""
    out: _Lits = {}
    for lit in lits:
        if not _admit(lit, out, literal_truth, canonical_atom):
            return None
    return tuple(out.values())


def _check_limit(count: int, max_products: int | None) -> None:
    if max_products is not None and count > max_products:
        raise DnfLimitError(
            f"DNF has more than {max_products} products; raise the limit to proceed"
        )
