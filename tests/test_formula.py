"""Formula AST: arity checking, evaluation, and evidence validation."""

import importlib
import sys
from dataclasses import fields, replace
from random import Random

import pytest

from qelim import (
    And,
    ArityError,
    Atom,
    AtomFails,
    AtomHolds,
    Both,
    Consequent,
    Counterexample,
    Evidence,
    Exists,
    ExistsRefuted,
    Falsum,
    FalsumRefuted,
    Forall,
    Implies,
    LeftFails,
    NegAntecedent,
    NeitherHolds,
    No,
    NotQuantifierFree,
    Or,
    OrLeft,
    OrRight,
    Refutation,
    RightFails,
    SNAtom,
    STEP,
    UniversalEvidence,
    Witness,
    Yes,
    check_evidence,
    decide,
    eval_qfree,
    extend,
    is_qfree,
    mk_not,
    mk_true,
    oracle_decide,
    parse,
    var_term,
    zero_term,
)
from qelim.formula import subformulas
from randgen import random_env, random_formula, random_qfree
from samples import sample0, sample2_body


def x_eq(const: int, arity: int = 1) -> Atom:
    return Atom(SNAtom(var_term(0), zero_term(const)), arity)


# --- construction and arity -------------------------------------------------


def test_atom_rejects_out_of_range_index():
    with pytest.raises(ArityError):
        Atom(SNAtom(var_term(1), zero_term()), 1)


def test_atom_accepts_index_below_arity():
    a = Atom(SNAtom(var_term(1), zero_term()), 2)
    assert a.arity == 2


def test_connectives_require_matching_arity():
    with pytest.raises(ArityError):
        And(Falsum(1), Falsum(2))
    with pytest.raises(ArityError):
        Or(x_eq(0, 1), x_eq(0, 2))
    with pytest.raises(ArityError):
        Implies(Falsum(0), Falsum(1))


def test_quantifier_arity_is_one_below_body():
    assert Exists(Falsum(1)).arity == 0
    assert Forall(Falsum(3)).arity == 2


def test_quantifier_needs_body_arity_at_least_one():
    with pytest.raises(ArityError):
        Exists(Falsum(0))
    with pytest.raises(ArityError):
        Forall(Falsum(0))


def test_arity_is_a_field_set_at_construction():
    # A left-deep chain far past the recursion limit: reading arity on each
    # new node must not walk the spine below it.
    phi = x_eq(0)
    for k in range(1, 5000):
        phi = Or(phi, x_eq(k))
    assert phi.arity == 1
    assert Forall(And(phi, phi)).arity == 0
    # The cached field stays out of repr and equality.
    assert repr(Or(Falsum(1), Falsum(1))) == "Or(lhs=Falsum(arity=1), rhs=Falsum(arity=1))"
    assert Implies(Falsum(2), Falsum(2)) == mk_not(Falsum(2))
    assert Or(Falsum(0), Falsum(0)) != And(Falsum(0), Falsum(0))


def test_extend_prepends_innermost_value():
    assert extend((5,), 9) == (9, 5)
    assert extend((), 3) == (3,)


# --- mk_not / mk_true -------------------------------------------------------


def test_mk_not_unfolds_to_implies_false():
    assert mk_not(Falsum(0)) == Implies(Falsum(0), Falsum(0))
    a = x_eq(0)
    assert mk_not(a) == Implies(a, Falsum(1))
    assert mk_not(mk_not(Falsum(0))) == Implies(
        Implies(Falsum(0), Falsum(0)), Falsum(0)
    )


def test_mk_true_is_vacuous_implication():
    assert mk_true(2) == Implies(Falsum(2), Falsum(2))
    assert eval_qfree(mk_true(1), (7,)) is True


# --- is_qfree ----------------------------------------------------------------


def test_is_qfree_examples():
    a = x_eq(0)
    b = x_eq(1)
    assert is_qfree(a) is True
    assert is_qfree(Exists(Atom(SNAtom(var_term(0), zero_term()), 1))) is False
    assert is_qfree(Implies(a, Or(Falsum(1), b))) is True


def test_is_qfree_commutes_with_mk_not():
    rng = Random(11)
    for _ in range(200):
        phi = random_formula(rng, rng.randint(0, 2), 4, 2)
        assert is_qfree(mk_not(phi)) == is_qfree(phi)


def test_subformulas_pre_order_with_binder_depth():
    a, b = x_eq(0), x_eq(1)
    inner = Exists(x_eq(2, 2))
    phi = Or(And(a, b), inner)
    assert list(subformulas(phi)) == [
        (phi, 0), (phi.lhs, 0), (a, 0), (b, 0), (inner, 0), (inner.body, 1)
    ]
    with pytest.raises(TypeError):
        list(subformulas("x = 0"))


# --- eval_qfree ---------------------------------------------------------------


def test_eval_qfree_examples():
    assert eval_qfree(Atom(SNAtom(zero_term(3), zero_term(3)), 0), ()) is True
    assert eval_qfree(Atom(SNAtom(zero_term(8), var_term(0, 4)), 1), (4,)) is True
    vacuous = Implies(Falsum(1), x_eq(0))
    for v in range(5):
        assert eval_qfree(vacuous, (v,)) is True


def test_eval_qfree_connectives():
    t = Atom(SNAtom(zero_term(0), zero_term(0)), 0)
    f = Atom(SNAtom(zero_term(0), zero_term(1)), 0)
    assert eval_qfree(Or(f, t), ()) is True
    assert eval_qfree(And(t, f), ()) is False
    assert eval_qfree(Implies(t, f), ()) is False
    assert eval_qfree(Implies(f, f), ()) is True
    assert eval_qfree(Falsum(0), ()) is False


def test_eval_qfree_rejects_quantifiers():
    with pytest.raises(NotQuantifierFree):
        eval_qfree(Exists(x_eq(0)), ())


def test_eval_qfree_rejects_bad_environment_length():
    with pytest.raises(ArityError):
        eval_qfree(x_eq(0), ())
    with pytest.raises(ArityError):
        eval_qfree(Falsum(0), (1,))


def test_eval_of_negation_flips():
    rng = Random(12)
    for _ in range(300):
        arity = rng.randint(0, 3)
        phi = random_qfree(rng, arity, 4)
        env = random_env(rng, arity)
        assert eval_qfree(mk_not(phi), env) == (not eval_qfree(phi, env))


# --- check_evidence ----------------------------------------------------------


def test_check_evidence_accepts_published_witnesses():
    decision = Yes(Witness(2, Witness(4, Both(AtomHolds(), AtomHolds()))))
    assert check_evidence(decision, sample0(), ()) is True


def test_check_evidence_rejects_witness_three():
    # No inner value rescues an outer witness of 3: the two equations force
    # y = 5 and y = 4 at once.  Confirm by enumeration before asserting.
    phi = sample0()
    body = phi.body.body
    for y in range(21):
        assert eval_qfree(body, (y, 3)) is False
    for y in range(21):
        bad = Yes(Witness(3, Witness(y, Both(AtomHolds(), AtomHolds()))))
        assert check_evidence(bad, phi, ()) is False


def test_check_evidence_falsum_refutation():
    assert check_evidence(No(FalsumRefuted()), Falsum(0), ()) is True
    assert check_evidence(Yes(AtomHolds()), Falsum(0), ()) is False


def test_check_evidence_shape_mismatch_is_false_not_an_error():
    t = Atom(SNAtom(zero_term(0), zero_term(0)), 0)
    assert check_evidence(Yes(AtomHolds()), Or(t, t), ()) is False
    assert check_evidence(Yes(Witness(0, AtomHolds())), t, ()) is False
    assert check_evidence(Yes(OrLeft(AtomHolds())), And(t, t), ()) is False
    assert check_evidence(No(AtomFails()), Falsum(0), ()) is False
    assert check_evidence(Yes(OrLeft(AtomHolds())), Implies(t, t), ()) is False
    t1 = Atom(SNAtom(var_term(0), var_term(0)), 1)
    assert check_evidence(Yes(Witness(0, AtomHolds())), Forall(t1), ()) is False
    assert check_evidence(No(AtomFails()), Exists(t1), ()) is False
    # Terms for the other claim than the decision's, at the root or below it.
    f = Atom(SNAtom(zero_term(0), zero_term(1)), 0)
    always = Exists(t1)
    never = Forall(Atom(SNAtom(var_term(0), var_term(0, 1)), 1))
    assert check_evidence(Yes(AtomFails()), f, ()) is False
    assert check_evidence(No(AtomHolds()), t, ()) is False
    assert check_evidence(Yes(OrLeft(AtomFails())), Or(f, t), ()) is False
    assert check_evidence(No(LeftFails(AtomHolds())), And(t, f), ()) is False
    assert check_evidence(Yes(Consequent(AtomFails())), Implies(t, f), ()) is False
    assert check_evidence(Yes(Witness(0, AtomFails())), Exists(x_eq(1)), ()) is False
    assert check_evidence(No(Counterexample(0, AtomHolds())), Forall(x_eq(0)), ()) is False
    assert check_evidence(Yes(Counterexample(0, AtomHolds())), always, ()) is False
    assert check_evidence(No(Witness(0, AtomFails())), never, ()) is False
    assert check_evidence(Yes(FalsumRefuted()), Falsum(0), ()) is False
    assert check_evidence(Yes(UniversalEvidence(lambda v: AtomFails())), never, ()) is False
    assert check_evidence(No(ExistsRefuted(lambda v: AtomHolds())), always, ()) is False


# One-position changes of a term: the mirror class at one node, a witness
# or counterexample value moved by one, or a leaf term in place of a node.
# Providers are not entered.
_MIRROR = {
    OrLeft: OrRight,
    OrRight: OrLeft,
    LeftFails: RightFails,
    RightFails: LeftFails,
    Witness: Counterexample,
    Counterexample: Witness,
    UniversalEvidence: ExistsRefuted,
    ExistsRefuted: UniversalEvidence,
}
_LEAVES = (AtomHolds(), AtomFails(), FalsumRefuted())


def _mutants(term):
    kind = type(term)
    if kind in _MIRROR:
        yield _MIRROR[kind](*(getattr(term, f.name) for f in fields(term)))
    if kind in (Witness, Counterexample):
        yield kind(term.value + 1, term.sub)
        if term.value > 0:
            yield kind(term.value - 1, term.sub)
    yield from (leaf for leaf in _LEAVES if type(leaf) is not kind)
    for f in fields(term):
        sub = getattr(term, f.name)
        if isinstance(sub, (Evidence, Refutation)):
            for mutant in _mutants(sub):
                yield replace(term, **{f.name: mutant})


def test_check_evidence_accepts_no_mutant_that_the_oracle_refutes():
    rng = Random(2718)
    mutants = accepted = 0
    for _ in range(300):
        arity = rng.randint(0, 2)
        phi = random_formula(rng, arity, rng.randint(1, 5), 3)
        env = random_env(rng, arity)
        decision = decide(STEP, phi, env, max_products=10_000)
        term = decision.evidence if isinstance(decision, Yes) else decision.refutation
        truth = oracle_decide(phi, env)
        for mutant in _mutants(term):
            mutants += 1
            if check_evidence(Yes(mutant), phi, env):
                accepted += 1
                assert truth, (phi, env, mutant)
            if check_evidence(No(mutant), phi, env):
                accepted += 1
                assert not truth, (phi, env, mutant)
    assert mutants > 2000
    assert accepted < mutants / 10


def test_check_evidence_rechecks_leaves():
    wrong = Atom(SNAtom(zero_term(0), zero_term(1)), 0)
    assert check_evidence(Yes(AtomHolds()), wrong, ()) is False
    held = Atom(SNAtom(zero_term(2), zero_term(2)), 0)
    assert check_evidence(No(AtomFails()), held, ()) is False
    assert check_evidence(No(AtomFails()), wrong, ()) is True


def test_check_evidence_and_or_implies():
    t = Atom(SNAtom(zero_term(0), zero_term(0)), 0)
    f = Atom(SNAtom(zero_term(0), zero_term(1)), 0)
    assert check_evidence(Yes(Both(AtomHolds(), AtomHolds())), And(t, t), ()) is True
    assert check_evidence(Yes(Both(AtomHolds(), AtomHolds())), And(t, f), ()) is False
    assert check_evidence(Yes(OrLeft(AtomHolds())), Or(t, f), ()) is True
    assert check_evidence(Yes(OrLeft(AtomHolds())), Or(f, t), ()) is False
    assert (
        check_evidence(Yes(NegAntecedent(AtomFails())), Implies(f, f), ()) is True
    )
    assert (
        check_evidence(No(NeitherHolds(AtomFails(), AtomFails())), Or(f, f), ())
        is True
    )


def test_check_evidence_env_length_raises():
    with pytest.raises(ArityError):
        check_evidence(Yes(AtomHolds()), x_eq(0), ())


def test_universal_evidence_is_spot_checked():
    reflexive = Forall(Atom(SNAtom(var_term(0), var_term(0)), 1))
    good = Yes(UniversalEvidence(lambda v: AtomHolds()))
    assert check_evidence(good, reflexive, ()) is True

    only_zero = Forall(x_eq(0))
    pretender = Yes(UniversalEvidence(lambda v: AtomHolds()))
    # The default sample set contains 1, where x = 0 fails.
    assert check_evidence(pretender, only_zero, ()) is False
    # With a sampler that only ever looks at 0 the gap is invisible; the
    # spot check is exactly as strong as its samples.
    assert (
        check_evidence(pretender, only_zero, (), samples=lambda b, e: [0]) is True
    )


def test_universal_provider_that_raises_fails_the_check():
    def explode(v: int):
        raise RuntimeError("no evidence")

    reflexive = Forall(Atom(SNAtom(var_term(0), var_term(0)), 1))
    assert check_evidence(Yes(UniversalEvidence(explode)), reflexive, ()) is False
    never = Exists(Atom(SNAtom(var_term(0), var_term(0, 1)), 1))
    assert check_evidence(No(ExistsRefuted(explode)), never, ()) is False


def test_provider_crash_propagates_from_the_check():
    # A provider that runs out of stack has not shown the term invalid.
    def overflow(v: int):
        raise RecursionError("maximum recursion depth exceeded")

    reflexive = Forall(Atom(SNAtom(var_term(0), var_term(0)), 1))
    with pytest.raises(RecursionError):
        check_evidence(Yes(UniversalEvidence(overflow)), reflexive, ())
    never = Exists(Atom(SNAtom(var_term(0), var_term(0, 1)), 1))
    with pytest.raises(RecursionError):
        check_evidence(No(ExistsRefuted(overflow)), never, ())


def test_failing_default_sampler_propagates(monkeypatch):
    # A sampler that fails must not narrow the spot check to {0, 1} unnoticed.
    import qelim.successor

    phi = parse("forall x. x = y | x != y", ["y"])
    decision = decide(STEP, phi, (3,))

    def explode(body, env):
        raise RuntimeError("no candidates")

    monkeypatch.setattr(qelim.successor, "candidates", explode)
    with pytest.raises(RuntimeError, match="no candidates"):
        check_evidence(decision, phi, (3,))


def test_default_sampler_survives_a_fresh_import(monkeypatch):
    # Formulas built before qelim is imported afresh are still sampled with
    # the candidate set: 5 is a candidate for forall x. x != 5, and the
    # pretender's evidence is wrong there but right at 0 and 1.
    never_five = Forall(mk_not(x_eq(5)))
    pretender = Yes(UniversalEvidence(lambda v: NegAntecedent(AtomFails())))
    assert check_evidence(pretender, never_five, (), samples=lambda b, e: [0, 1])
    for name in [m for m in sys.modules if m == "qelim" or m.startswith("qelim.")]:
        monkeypatch.delitem(sys.modules, name)
    importlib.import_module("qelim")
    assert check_evidence(pretender, never_five, ()) is False


def test_exists_refutation_is_spot_checked():
    never = Exists(Atom(SNAtom(var_term(0, 1), zero_term(0)), 1))
    assert check_evidence(No(ExistsRefuted(lambda v: AtomFails())), never, ()) is True

    at_five = Exists(x_eq(5))
    # The sample set includes the solution point 5, where AtomFails lies.
    assert (
        check_evidence(No(ExistsRefuted(lambda v: AtomFails())), at_five, ()) is False
    )


def test_counterexample_refutes_a_universal():
    phi = Forall(sample2_body())
    inner_never = ExistsRefuted(lambda v: AtomFails())
    refutation = Counterexample(1, NeitherHolds(AtomFails(), inner_never))
    assert check_evidence(No(refutation), phi, ()) is True
    # 0 satisfies the left disjunct, so it is no counterexample.
    bad = Counterexample(0, NeitherHolds(AtomFails(), inner_never))
    assert check_evidence(No(bad), phi, ()) is False
