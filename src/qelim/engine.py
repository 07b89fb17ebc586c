"""Theory-generic quantifier elimination engine.

Given a single-variable elimination step for products (the ``ProdQEStep``
protocol), ``lift`` removes every quantifier from a formula working inside
out, with no prenex normal form: each quantifier is eliminated from the
already quantifier-free result of lifting its body.  An existential becomes
the disjunction of per-product eliminations of the body's DNF; a universal
is the negation of the eliminated negation, which is constructively fine
because quantifier-free formulas are decidable.

``lift`` returns a ``Lifted``: the quantifier-free equivalent plus one
table from each binder to the products it eliminated and their
eliminations.  ``decide`` lifts once, then walks the formula itself and
decides each binder from its table entry: the witness or counterexample
comes from the first stored product whose elimination holds, through the
theory's ``prod_witness``.  Universal evidence and refuted existentials are
deferred providers over the binder's body: they only re-evaluate the stored
eliminations, and never lift or build a DNF again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Protocol, Sequence

from .dnf import Dnf, Literal, Product, Truth, disjoin, to_dnf
from .formula import (
    And,
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
    The hooks run on every literal occurrence, in every DNF and in every
    elimination, so a theory should make them cheap for a repeated atom.
    """

    def eliminate_product(self, p: Product) -> Formula: ...

    def prod_witness(self, p: Product, env: Sequence) -> int: ...

    def literal_truth(self, lit: Literal) -> Truth: ...


def eliminate_dnf(step: ProdQEStep, d: Dnf) -> Formula:
    """Disjunction of per-product eliminations; empty DNF gives Falsum."""
    if d.arity < 1:
        raise ValueError("eliminate_dnf needs arity at least 1")
    return disjoin([step.eliminate_product(p) for p in d.products], d.arity - 1)


@dataclass(eq=False, repr=False, slots=True)
class Lifted:
    """A formula lifted once, with what deciding it under any environment needs.

    ``qf`` is the quantifier-free equivalent of ``phi``.  ``binders`` maps the
    ``id`` of each binder in ``phi`` to the ``products`` of the DNF it
    eliminated (the body's for ``Exists``, its negation's for ``Forall``)
    and their eliminations ``parts``.  Identity, not equality: hashing a
    formula walks all of it, and a binder's eliminations depend only on it.
    """

    step: ProdQEStep
    phi: Formula
    qf: Formula
    binders: dict[int, tuple[tuple[Product, ...], Sequence[Formula]]]

    def decide(self, env: Sequence = ()) -> Decision:
        """Decide phi under env, with evidence or a refutation to show for it."""
        truth, term = _decide(self, self.phi, check_env(self.phi, env))
        return Yes(term) if truth else No(term)


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
        body = _lift(step, phi.body, max_products, binders)
        universal = isinstance(phi, Forall)
        products = to_dnf(
            mk_not(body) if universal else body,
            literal_truth=step.literal_truth,
            canonical_atom=getattr(step, "canonical_atom", None),
            max_products=max_products,
        ).products
        parts = [step.eliminate_product(p) for p in products]
        binders[id(phi)] = (products, parts)
        qf = disjoin(parts, phi.arity)
        return mk_not(qf) if universal else qf
    raise TypeError(f"not a Formula: {phi!r}")


def lift_qe(
    step: ProdQEStep, phi: Formula, *, max_products: int | None = None
) -> Formula:
    """Quantifier-free equivalent of phi at the same arity."""
    return _lift(step, phi, max_products, {})


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
_HOLDS = (True, AtomHolds())
_FAILS = (False, AtomFails())
_FALSUM = (False, FalsumRefuted())


def _decide(
    lifted: Lifted, phi: Formula, env: Environment
) -> tuple[bool, Evidence | Refutation]:
    """Truth under env, with evidence if true, a refutation if not.

    phi is lifted.phi or a subformula of it.  Left sides first, right sides
    only when the term needs them.
    """
    if isinstance(phi, Atom):
        return _HOLDS if phi.atom.holds(env) else _FAILS
    if isinstance(phi, Falsum):
        return _FALSUM
    if isinstance(phi, (Exists, Forall)):
        return _decide_binder(lifted, phi, env)
    lhs_true, lhs = _decide(lifted, phi.lhs, env)
    if isinstance(phi, Or):
        if lhs_true:
            return True, OrLeft(lhs)
        rhs_true, rhs = _decide(lifted, phi.rhs, env)
        return (True, OrRight(rhs)) if rhs_true else (False, NeitherHolds(lhs, rhs))
    if isinstance(phi, And):
        if not lhs_true:
            return False, LeftFails(lhs)
        rhs_true, rhs = _decide(lifted, phi.rhs, env)
        return (True, Both(lhs, rhs)) if rhs_true else (False, RightFails(rhs))
    if not lhs_true:
        return True, NegAntecedent(lhs)
    rhs_true, rhs = _decide(lifted, phi.rhs, env)
    return (True, Consequent(rhs)) if rhs_true else (False, Unimplied(lhs, rhs))


def _decide_binder(
    lifted: Lifted, phi: Exists | Forall, env: Environment
) -> tuple[bool, Evidence | Refutation]:
    """The first eliminated product that holds gives a witness or counterexample."""
    products, parts = lifted.binders[id(phi)]
    body, universal = phi.body, isinstance(phi, Forall)
    for product, part in zip(products, parts):
        if eval_qfree(part, env):
            value = lifted.step.prod_witness(product, env)
            term = _body_term(lifted, body, env, value, not universal)
            if universal:
                return False, Counterexample(value, term)
            return True, Witness(value, term)
    provider = partial(_body_term, lifted, body, env, holds=universal)
    if universal:
        return True, UniversalEvidence(provider)
    return False, ExistsRefuted(provider)


def _body_term(lifted: Lifted, body: Formula, env: Environment, value: int, holds: bool):
    """The body's evidence (holds) or refutation (not) at value, as lifted."""
    truth, term = _decide(lifted, body, extend(env, value))
    if truth != holds:
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
    decision = decide(step, phi, env, max_products=max_products)
    if isinstance(decision, Yes):
        return decision.evidence
    return decision.refutation


def forall_or_counterexample(
    step: ProdQEStep,
    body: Formula,
    env: Sequence = (),
    *,
    max_products: int | None = None,
) -> UniversalEvidence | tuple[int, Refutation]:
    """For a body at arity n+1: universal evidence or a counterexample pair."""
    decision = decide(step, Forall(body), env, max_products=max_products)
    if isinstance(decision, Yes):
        evidence = decision.evidence
        if not isinstance(evidence, UniversalEvidence):
            raise EngineError(f"unexpected evidence shape for Forall: {evidence!r}")
        return evidence
    refutation = decision.refutation
    if not isinstance(refutation, Counterexample):
        raise EngineError(f"unexpected refutation shape for Forall: {refutation!r}")
    return refutation.value, refutation.sub


def exists_or_refutation(
    step: ProdQEStep,
    body: Formula,
    env: Sequence = (),
    *,
    max_products: int | None = None,
) -> tuple[int, Evidence] | ExistsRefuted:
    """For a body at arity n+1: a witness pair or a deferred refutation."""
    decision = decide(step, Exists(body), env, max_products=max_products)
    if isinstance(decision, Yes):
        evidence = decision.evidence
        if not isinstance(evidence, Witness):
            raise EngineError(f"unexpected evidence shape for Exists: {evidence!r}")
        return evidence.value, evidence.sub
    refutation = decision.refutation
    if not isinstance(refutation, ExistsRefuted):
        raise EngineError(f"unexpected refutation shape for Exists: {refutation!r}")
    return refutation


def instantiate_universal(evidence: UniversalEvidence, value: int) -> Evidence:
    """Evidence for the body at the given value, from universal evidence."""
    if not isinstance(evidence, UniversalEvidence):
        raise TypeError(f"not universal evidence: {evidence!r}")
    return evidence.instantiate(value)
