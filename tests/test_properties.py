"""Hypothesis properties: the decision procedure against the oracle, the
printer against the parser, and ``to_dnf`` against evaluation and its ceiling.

Formulas draw their atoms from a small pool of ``SNAtom`` objects, so one
object often sits at several leaves and at several binder depths, a shape
the seeded generators in ``randgen`` never build.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qelim import (
    And,
    Atom,
    DnfLimitError,
    Exists,
    Falsum,
    Forall,
    Implies,
    No,
    Or,
    SNAtom,
    SNTerm,
    STEP,
    Yes,
    check_evidence,
    decide,
    eval_qfree,
    interpret_dnf,
    oracle_decide,
    parse,
    pretty,
    to_dnf,
)

HOOKS = [{}, {"literal_truth": STEP.literal_truth, "canonical_atom": STEP.canonical_atom}]


def terms(arity: int) -> st.SearchStrategy[SNTerm]:
    shifts = st.integers(0, 5)
    zero = st.builds(SNTerm, st.none(), shifts)
    if arity == 0:
        return zero
    return st.one_of(st.builds(SNTerm, st.integers(0, arity - 1), shifts), zero)


@st.composite
def formulas_sharing_atoms(draw, max_binders: int = 3):
    """A formula, an environment for it, and atoms drawn from a shared pool.

    The formula holds at most max_binders binders; with 0 it is quantifier-free.
    """
    arity = draw(st.integers(0, 2))
    binders = draw(st.integers(0, max_binders))
    top = arity + binders
    pool = draw(st.lists(st.builds(SNAtom, terms(top), terms(top)), min_size=1, max_size=6))

    def build(n: int, depth: int, budget: int):
        kinds = ["leaf"] if depth == 0 else ["leaf", "or", "and", "implies"]
        if depth and budget:
            kinds += ["exists", "forall"]
        kind = draw(st.sampled_from(kinds))
        if kind == "leaf":
            fitting = [a for a in pool if a.fits_arity(n)]
            if not fitting or draw(st.integers(0, 9)) == 0:
                return Falsum(n)
            return Atom(draw(st.sampled_from(fitting)), n)
        if kind in ("exists", "forall"):
            body = build(n + 1, depth - 1, budget - 1)
            return Exists(body) if kind == "exists" else Forall(body)
        lhs = build(n, depth - 1, budget)
        rhs = build(n, depth - 1, budget)
        return {"or": Or, "and": And, "implies": Implies}[kind](lhs, rhs)

    phi = build(arity, draw(st.integers(1, 5)), binders)
    env = tuple(draw(st.lists(st.integers(0, 8), min_size=arity, max_size=arity)))
    return phi, env


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(formulas_sharing_atoms())
def test_decide_agrees_with_oracle_and_evidence_checks(case):
    phi, env = case
    decision = decide(STEP, phi, env, max_products=10_000)
    assert isinstance(decision, Yes) == oracle_decide(phi, env)
    assert check_evidence(decision, phi, env)
    if isinstance(decision, Yes):
        assert not check_evidence(No(decision.evidence), phi, env)
    else:
        assert not check_evidence(Yes(decision.refutation), phi, env)


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(formulas_sharing_atoms())
def test_parse_reads_back_what_pretty_prints(case):
    phi, _env = case
    # The printer names binders x0, x1, ... and skips free names: x0 is one.
    names = ("x0", "y")[: phi.arity]
    assert parse(pretty(phi, names), names) == phi


@pytest.mark.parametrize("hooks", HOOKS, ids=["plain", "step-hooks"])
@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(formulas_sharing_atoms(max_binders=0))
def test_to_dnf_preserves_evaluation(hooks, case):
    phi, env = case
    assert eval_qfree(interpret_dnf(to_dnf(phi, **hooks)), env) == eval_qfree(phi, env)


@pytest.mark.parametrize("hooks", HOOKS, ids=["plain", "step-hooks"])
@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(formulas_sharing_atoms(max_binders=0), st.data())
def test_to_dnf_under_a_ceiling_is_exact_or_refuses(hooks, case, data):
    phi, _env = case
    unbounded = to_dnf(phi, **hooks)
    ceiling = data.draw(st.integers(1, len(unbounded.products) + 1))
    try:
        bounded = to_dnf(phi, max_products=ceiling, **hooks)
    except DnfLimitError:
        return
    assert bounded == unbounded
