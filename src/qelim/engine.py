"""Theory-generic quantifier elimination engine.

Given a single-variable elimination step for products (the ``ProdQEStep``
protocol), ``lift`` removes every quantifier from a formula working inside
out, with no prenex normal form: each quantifier is eliminated from the
already quantifier-free result of lifting its body.  An existential becomes
the disjunction of per-product eliminations of the body's DNF; a universal
is the negation of the eliminated negation, which is constructively fine
because quantifier-free formulas are decidable.  Products are eliminated in
order: one whose elimination is ``Falsum`` is dropped, and the first whose
elimination is the constant true settles the binder, whose equivalent is
then true without eliminating the rest.  ``eliminate_dnf`` applies the same
rule to a DNF given whole.

``lift`` returns a ``Lifted``: the quantifier-free equivalent plus one
table from each binder object, lifted once wherever it occurs, to the
products it kept and their eliminations.  ``lem`` lifts once and
walks the formula itself to one term whose type is its truth: an
``Evidence`` if phi holds, a ``Refutation`` if not; ``decide`` wraps that
term in ``Yes`` or ``No``.  Each binder is decided from its table entry:
the first stored product whose elimination holds gives the witness or
counterexample, through the theory's ``prod_witness``.  Universal evidence
and refuted existentials are deferred providers over the binder's body:
they only re-evaluate the stored eliminations, and never lift again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Iterable, Protocol, Sequence

from .dnf import Dnf, Literal, Product, Truth, disjoin, simplify_literals, to_dnf
from .formula import (
    And,
    ArityError,
    Atom,
    AtomFails,
    AtomHolds,
    Both,
    Consequent,
    Counterexample,
    Decision,
    Environment,
    Evidence,
    Exists,
    ExistsRefuted,
    Falsum,
    FalsumRefuted,
    Forall,
    Formula,
    Implies,
    LeftFails,
    NegAntecedent,
    NeitherHolds,
    No,
    Or,
    OrLeft,
    OrRight,
    Refutation,
    RightFails,
    Unimplied,
    UniversalEvidence,
    Witness,
    Yes,
    check_env,
    check_naturals,
    eval_qfree,
    extend,
    mk_not,
)


class EngineError(RuntimeError):
    """The engine's own invariants broke; indicates a bug, not bad input."""


class ProdQEStep(Protocol):
    """What a theory must supply to drive the generic engine.

    ``eliminate_product`` removes index 0 from a product of literals,
    returning a formula one arity down.  ``prod_witness`` produces a value
    for index 0 when the eliminated product is true under the environment.
    ``literal_truth`` lets DNF construction drop decided literals.  A step
    may additionally offer ``canonical_atom`` for literal deduplication.

    The engine hands ``eliminate_product`` and ``prod_witness`` only
    products simplified with the step's own hooks: no literal that
    ``literal_truth`` decides, and no two literals with one key
    ``(positive, canonical_atom(atom))`` (the atom itself without the hook),
    so a step need not simplify them again.  The hooks run on every literal
    occurrence of every DNF, so a theory should make them cheap for a
    repeated atom.
    """

    def eliminate_product(self, p: Product) -> Formula: ...

    def prod_witness(self, p: Product, env: Sequence) -> int: ...

    def literal_truth(self, lit: Literal) -> Truth: ...


def eliminate_dnf(step: ProdQEStep, d: Dnf) -> Formula:
    """Exists over d, eliminated by the binder rule of ``lift``; the empty DNF gives Falsum.

    d may be any DNF: each product is simplified with the step's hooks
    first, and one with a false literal is skipped.  This is the door for a
    product that is not simplified: ``eliminate_dnf(step, Dnf((p,), p.arity))``.
    """
    if d.arity < 1:
        raise ArityError("eliminate_dnf needs arity at least 1")
    hooks = step.literal_truth, getattr(step, "canonical_atom", None)
    simplified = (simplify_literals(p.literals, *hooks) for p in d.products)
    products = (Product(lits, d.arity) for lits in simplified if lits is not None)
    return _settle(_eliminations(step, products)[1], d.arity - 1)


@dataclass(eq=False, repr=False, slots=True)
class Lifted:
    """A formula lifted once, with what deciding it under any environment needs.

    ``qf`` is the quantifier-free equivalent of ``phi``.  ``binders`` maps the
    ``id`` of each binder in ``phi`` to the ``products`` of the DNF it
    eliminated (the body's for ``Exists``, its negation's for ``Forall``)
    and their eliminations ``parts``, position by position.  A product
    whose elimination is ``Falsum`` is dropped, and none after the first
    whose elimination is the constant true is eliminated: a decision reads
    the first part that holds, so it is the one a full table would give.
    Identity, not equality: hashing a formula walks all of it, and a
    binder's eliminations depend only on it.
    """

    step: ProdQEStep
    phi: Formula
    qf: Formula
    binders: dict[int, tuple[Sequence[Product], Sequence[Formula]]]

    def decide(self, env: Sequence = ()) -> Decision:
        """Decide phi under env, with evidence or a refutation to show for it."""
        term = _decide(self, self.phi, check_env(self.phi, env))
        return Yes(term) if isinstance(term, Evidence) else No(term)


def lift(step: ProdQEStep, phi: Formula, *, max_products: int | None = None) -> Lifted:
    """Lift phi in one inside-out pass, keeping every binder's eliminations."""
    binders: dict = {}
    return Lifted(step, phi, _lift(step, phi, max_products, binders), binders)


def _lift(
    step: ProdQEStep, phi: Formula, max_products: int | None, binders: dict
) -> Formula:
    """The QF equivalent of phi (phi itself when quantifier-free); fills binders."""
    if isinstance(phi, (Atom, Falsum)):
        return phi
    if isinstance(phi, (Or, And, Implies)):
        lhs = _lift(step, phi.lhs, max_products, binders)
        rhs = _lift(step, phi.rhs, max_products, binders)
        if lhs is phi.lhs and rhs is phi.rhs:
            return phi
        return type(phi)(lhs, rhs)
    if isinstance(phi, (Exists, Forall)):
        universal = isinstance(phi, Forall)
        if id(phi) not in binders:  # a binder object at several positions lifts once
            body = _lift(step, phi.body, max_products, binders)
            products = to_dnf(
                mk_not(body) if universal else body,
                literal_truth=step.literal_truth,
                canonical_atom=getattr(step, "canonical_atom", None),
                max_products=max_products,
            ).products
            binders[id(phi)] = _eliminations(step, products)
        qf = _settle(binders[id(phi)][1], phi.arity)
        return mk_not(qf) if universal else qf
    raise TypeError(f"not a Formula: {phi!r}")


def _eliminations(
    step: ProdQEStep, products: Iterable[Product]
) -> tuple[list[Product], list[Formula]]:
    """The products whose elimination is not Falsum, and those eliminations.

    Products are eliminated in order up to the first whose elimination is
    true: later ones cannot change the disjunction, and a decision reads
    the first part that holds.
    """
    kept: list[Product] = []
    parts: list[Formula] = []
    for p in products:
        part = step.eliminate_product(p)
        if isinstance(part, Falsum):
            continue
        kept.append(p)
        parts.append(part)
        if _is_true(part):
            break
    return kept, parts


def _settle(parts: list[Formula], arity: int) -> Formula:
    """The disjunction of a binder's parts from ``_eliminations``: the last when true."""
    return parts[-1] if parts and _is_true(parts[-1]) else disjoin(parts, arity)


def _is_true(phi: Formula) -> bool:
    """phi is the constant true, ``Implies(Falsum, Falsum)``."""
    return (
        isinstance(phi, Implies) and isinstance(phi.lhs, Falsum) and isinstance(phi.rhs, Falsum)
    )


def lift_qe(
    step: ProdQEStep, phi: Formula, *, max_products: int | None = None
) -> Formula:
    """Quantifier-free equivalent of phi at the same arity."""
    return lift(step, phi, max_products=max_products).qf


def decide(
    step: ProdQEStep,
    phi: Formula,
    env: Sequence = (),
    *,
    max_products: int | None = None,
) -> Decision:
    """Decide phi under env, with evidence or a refutation to show for it."""
    return lift(step, phi, max_products=max_products).decide(env)


# Leaf terms carry no data, so every leaf decision can share one.
_HOLDS = AtomHolds()
_FAILS = AtomFails()
_FALSUM = FalsumRefuted()


def _decide(lifted: Lifted, phi: Formula, env: Environment) -> Evidence | Refutation:
    """Evidence for phi under env if it holds, a refutation if not.

    phi is lifted.phi or a subformula of it.  Left sides first, right sides
    only when the term needs them.
    """
    if isinstance(phi, Atom):
        return _HOLDS if phi.atom.holds(env) else _FAILS
    if isinstance(phi, Falsum):
        return _FALSUM
    if isinstance(phi, (Exists, Forall)):
        return _decide_binder(lifted, phi, env)
    lhs = _decide(lifted, phi.lhs, env)
    if isinstance(phi, Or):
        if isinstance(lhs, Evidence):
            return OrLeft(lhs)
        rhs = _decide(lifted, phi.rhs, env)
        return OrRight(rhs) if isinstance(rhs, Evidence) else NeitherHolds(lhs, rhs)
    if isinstance(phi, And):
        if not isinstance(lhs, Evidence):
            return LeftFails(lhs)
        rhs = _decide(lifted, phi.rhs, env)
        return Both(lhs, rhs) if isinstance(rhs, Evidence) else RightFails(rhs)
    if not isinstance(lhs, Evidence):
        return NegAntecedent(lhs)
    rhs = _decide(lifted, phi.rhs, env)
    return Consequent(rhs) if isinstance(rhs, Evidence) else Unimplied(lhs, rhs)


def _decide_binder(
    lifted: Lifted, phi: Exists | Forall, env: Environment
) -> Evidence | Refutation:
    """The first eliminated product that holds gives a witness or counterexample."""
    products, parts = lifted.binders[id(phi)]
    body, universal = phi.body, isinstance(phi, Forall)
    for product, part in zip(products, parts):
        if eval_qfree(part, env):
            value = lifted.step.prod_witness(product, env)
            term = _body_term(lifted, body, env, value, not universal)
            return Counterexample(value, term) if universal else Witness(value, term)
    provider = partial(_body_term, lifted, body, env, holds=universal)
    return UniversalEvidence(provider) if universal else ExistsRefuted(provider)


def _body_term(lifted: Lifted, body: Formula, env: Environment, value: int, holds: bool):
    """The body's evidence (holds) or refutation (not) at value, as lifted.

    A provider's value is checked as an environment's is: a natural, or ValueError.
    """
    check_naturals((value,))
    term = _decide(lifted, body, extend(env, value))
    if isinstance(term, Evidence) != holds:
        raise EngineError(f"the body decides against its lift at {value}")
    return term


def lem(
    step: ProdQEStep,
    phi: Formula,
    env: Sequence = (),
    *,
    max_products: int | None = None,
) -> Evidence | Refutation:
    """Excluded middle, realized: evidence for phi or a refutation of it."""
    lifted = lift(step, phi, max_products=max_products)
    return _decide(lifted, phi, check_env(phi, env))


def forall_or_counterexample(
    step: ProdQEStep,
    body: Formula,
    env: Sequence = (),
    *,
    max_products: int | None = None,
) -> UniversalEvidence | tuple[int, Refutation]:
    """For a body at arity n+1: universal evidence or a counterexample pair."""
    term = lem(step, Forall(body), env, max_products=max_products)
    if isinstance(term, UniversalEvidence):
        return term
    if isinstance(term, Counterexample):
        return term.value, term.sub
    raise EngineError(f"unexpected term for Forall: {term!r}")


def exists_or_refutation(
    step: ProdQEStep,
    body: Formula,
    env: Sequence = (),
    *,
    max_products: int | None = None,
) -> tuple[int, Evidence] | ExistsRefuted:
    """For a body at arity n+1: a witness pair or a deferred refutation."""
    term = lem(step, Exists(body), env, max_products=max_products)
    if isinstance(term, Witness):
        return term.value, term.sub
    if isinstance(term, ExistsRefuted):
        return term
    raise EngineError(f"unexpected term for Exists: {term!r}")


def instantiate_universal(evidence: UniversalEvidence, value: int) -> Evidence:
    """Evidence for the body at the given value, from universal evidence."""
    if not isinstance(evidence, UniversalEvidence):
        raise TypeError(f"not universal evidence: {evidence!r}")
    return evidence.instantiate(value)
