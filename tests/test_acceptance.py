"""Acceptance gate: one test per shipping criterion, run with pytest -v.

Each test carries its stated tolerance (exact values, zero failures, wall
clock ceilings) so a verbose run gives one pass or fail line per criterion.
"""

import time
from random import Random

import pytest

from qelim import (
    And,
    AtomHolds,
    Both,
    Evidence,
    Literal,
    No,
    OrLeft,
    OrRight,
    Product,
    Refutation,
    SNAtom,
    STEP,
    UniversalEvidence,
    Witness,
    Yes,
    check_evidence,
    decide,
    eval_qfree,
    forall_or_counterexample,
    instantiate_universal,
    interpret_dnf,
    is_qfree,
    lem,
    lift_qe,
    mk_not,
    oracle_decide,
    to_dnf,
    var_term,
    zero_term,
    Atom,
)
from naive import naive_decide
from randgen import random_env, random_formula, random_qfree
from samples import sample0, sample1, sample1_body, sample2_body


@pytest.fixture(scope="module")
def corpus5():
    rng = Random(101)
    corpus = []
    for _ in range(1000):
        arity = rng.randint(0, 2)
        phi = random_formula(rng, arity, rng.randint(1, 5), 3, max_shift=6)
        corpus.append((phi, random_env(rng, arity, max_value=8)))
    return corpus


@pytest.fixture(scope="module")
def corpus5_decisions(corpus5):
    return [(phi, env, decide(STEP, phi, env)) for phi, env in corpus5]


def test_criterion_01_bundled_existential_decided_with_exact_witnesses():
    start = time.monotonic()
    decision = decide(STEP, sample0())
    elapsed = time.monotonic() - start
    assert decision == Yes(Witness(2, Witness(4, Both(AtomHolds(), AtomHolds()))))
    assert elapsed < 1.0


def test_criterion_02_bundled_universal_instantiable_across_range():
    start = time.monotonic()
    decision = decide(STEP, sample1())
    assert isinstance(decision, Yes)
    evidence = decision.evidence
    assert isinstance(evidence, UniversalEvidence)
    for v in range(21):
        sub = instantiate_universal(evidence, v)
        if v == 0:
            assert sub == OrLeft(AtomHolds())
        else:
            assert sub == OrRight(Witness(v - 1, AtomHolds()))
        assert check_evidence(Yes(sub), sample1_body(), (v,))
    elapsed = time.monotonic() - start
    assert elapsed < 1.0


def test_criterion_03_counterexample_found_at_one():
    start = time.monotonic()
    outcome = forall_or_counterexample(STEP, sample2_body())
    elapsed = time.monotonic() - start
    assert isinstance(outcome, tuple)
    value, refutation = outcome
    assert value == 1
    assert check_evidence(No(refutation), sample2_body(), (1,))
    assert elapsed < 1.0


def test_criterion_04_single_product_elimination_truth_table():
    eliminated = STEP.eliminate_product(
        Product((Literal.pos(SNAtom(var_term(0, 5), var_term(1, 3))),), 2)
    )
    reference = And(
        mk_not(Atom(SNAtom(var_term(0), zero_term(0)), 1)),
        mk_not(Atom(SNAtom(var_term(0), zero_term(1)), 1)),
    )
    table = [eval_qfree(eliminated, (y,)) for y in range(11)]
    expected = [eval_qfree(reference, (y,)) for y in range(11)]
    assert table == expected


def test_criterion_05_lifting_agrees_with_oracle_on_corpus(corpus5):
    start = time.monotonic()
    failures = 0
    for phi, env in corpus5:
        if eval_qfree(lift_qe(STEP, phi), env) != oracle_decide(phi, env):
            failures += 1
    elapsed = time.monotonic() - start
    assert failures == 0
    assert elapsed < 60.0


def test_criterion_06_lifting_lands_in_the_quantifier_free_fragment(corpus5):
    for phi, _env in corpus5:
        assert is_qfree(lift_qe(STEP, phi))


def test_criterion_07_dnf_preserves_evaluation_on_qfree_corpus():
    rng = Random(107)
    for _ in range(1000):
        arity = rng.randint(0, 3)
        phi = random_qfree(rng, arity, 6)
        back = interpret_dnf(to_dnf(phi))
        for _ in range(3):
            env = random_env(rng, arity)
            assert eval_qfree(back, env) == eval_qfree(phi, env)


def test_criterion_08_every_decision_carries_checkable_evidence(corpus5_decisions):
    assert check_evidence(decide(STEP, sample0()), sample0(), ())
    assert check_evidence(decide(STEP, sample1()), sample1(), ())
    outcome = forall_or_counterexample(STEP, sample2_body())
    assert check_evidence(No(outcome[1]), sample2_body(), (outcome[0],))
    for phi, env, decision in corpus5_decisions:
        assert check_evidence(decision, phi, env), repr(phi)


def test_criterion_09_excluded_middle_yields_exactly_one_branch(corpus5_decisions):
    for phi, env, decision in corpus5_decisions:
        branch = lem(STEP, phi, env)
        is_evidence = isinstance(branch, Evidence)
        is_refutation = isinstance(branch, Refutation)
        assert is_evidence != is_refutation
        assert is_evidence == isinstance(decision, Yes)


def test_criterion_10_double_oracle_consistency_on_tiny_closed_formulas():
    rng = Random(110)
    start = time.monotonic()
    failures = 0
    for _ in range(500):
        phi = random_formula(rng, 0, rng.randint(1, 4), 2, max_shift=4)
        if oracle_decide(phi, ()) != naive_decide(phi):
            failures += 1
    elapsed = time.monotonic() - start
    assert failures == 0
    assert elapsed < 30.0
