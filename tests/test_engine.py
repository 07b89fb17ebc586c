"""The elimination engine over the successor step: lifting, deciding, evidence."""

from collections import Counter
from random import Random

import pytest

import qelim.engine
import qelim.successor
from qelim import (
    And,
    ArityError,
    Atom,
    AtomFails,
    AtomHolds,
    Both,
    Consequent,
    Counterexample,
    Dnf,
    DnfLimitError,
    EngineError,
    Evidence,
    Exists,
    ExistsRefuted,
    Falsum,
    FalsumRefuted,
    Forall,
    Implies,
    Literal,
    NegAntecedent,
    NeitherHolds,
    No,
    Or,
    OrLeft,
    OrRight,
    Product,
    SNAtom,
    STEP,
    SuccessorStep,
    UniversalEvidence,
    Unimplied,
    Witness,
    Yes,
    candidates,
    check_evidence,
    decide,
    eliminate_dnf,
    eval_qfree,
    exists_or_refutation,
    forall_or_counterexample,
    instantiate_universal,
    is_qfree,
    lem,
    lift,
    lift_qe,
    mk_not,
    mk_true,
    oracle_decide,
    parse,
    to_dnf,
    var_term,
    zero_term,
)
from naive import quantifier_count
from randgen import random_env, random_formula, random_qfree
from samples import sample0, sample1, sample1_body, sample2_body


def x_eq(k: int) -> Atom:
    return Atom(SNAtom(var_term(0), zero_term(k)), 1)


def _nobody(value: int):
    raise AssertionError("dummy provider should never be called")


# --- eliminate_dnf ---------------------------------------------------------------


def test_eliminate_dnf_empty():
    assert eliminate_dnf(STEP, Dnf((), 1)) == Falsum(0)


def test_eliminate_dnf_singleton_and_pair():
    p1 = Product((Literal.pos(SNAtom(var_term(0), zero_term(5))),), 1)
    p2 = Product((Literal.neg(SNAtom(var_term(0), zero_term(0))),), 1)
    assert eliminate_dnf(STEP, Dnf((p1,), 1)) == STEP.eliminate_product(p1)
    # p1's elimination is true, so it settles the pair.
    assert eliminate_dnf(STEP, Dnf((p1, p2), 1)) == mk_true(0)


def test_eliminate_dnf_simplifies_what_it_is_given():
    x_is_x = Literal.pos(SNAtom(var_term(0), var_term(0)))
    sx_is_3 = Literal.pos(SNAtom(var_term(0, 1), zero_term(3)))
    zero_is_1 = Literal.pos(SNAtom(zero_term(0), zero_term(1)))
    y_ne_4 = Literal.neg(SNAtom(var_term(1), zero_term(4)))
    sy_ne_5 = Literal.neg(SNAtom(var_term(1, 1), zero_term(5)))  # y != 4 again
    x_is_y = Literal.pos(SNAtom(var_term(0), var_term(1)))
    # A literal the step decides, ahead of the pivot: true.
    assert eliminate_dnf(STEP, Dnf((Product((x_is_x, sx_is_3), 1),), 1)) == mk_true(0)
    # A duplicate under another shift: y != 4 once.
    dup = Product((y_ne_4, x_is_y, sy_ne_5), 2)
    assert eliminate_dnf(STEP, Dnf((dup,), 2)) == mk_not(x_eq(4))
    # A false literal: its product is skipped.
    false = Product((sx_is_3, zero_is_1), 1)
    assert eliminate_dnf(STEP, Dnf((false, Product((sx_is_3,), 1)), 1)) == mk_true(0)


def test_eliminate_dnf_is_the_binder_rule_of_lift():
    # A body's DNF eliminated whole gives exactly what lift gives its binder.
    rng = Random(2021)
    for _ in range(2000):
        body = random_qfree(rng, rng.randint(1, 3), rng.randint(1, 4))
        d = to_dnf(body, literal_truth=STEP.literal_truth, canonical_atom=STEP.canonical_atom)
        assert eliminate_dnf(STEP, d) == lift_qe(STEP, Exists(body)), repr(body)


# --- lift_qe ------------------------------------------------------------------------


def test_lift_qe_leaves_qfree_untouched():
    phi = Or(x_eq(3), mk_not(x_eq(0)))
    assert lift_qe(STEP, phi) == phi


def test_lift_qe_examples():
    lifted = lift_qe(STEP, Exists(x_eq(5)))
    assert is_qfree(lifted)
    assert lifted.arity == 0
    assert eval_qfree(lifted, ()) is True

    lifted = lift_qe(STEP, Forall(x_eq(0)))
    assert is_qfree(lifted)
    assert eval_qfree(lifted, ()) is False

    assert eval_qfree(lift_qe(STEP, sample0()), ()) is True
    assert eval_qfree(lift_qe(STEP, Forall(sample2_body())), ()) is False


def test_lift_qe_idempotent():
    rng = Random(41)
    for _ in range(200):
        arity = rng.randint(0, 2)
        phi = random_formula(rng, arity, rng.randint(1, 5), 3)
        once = lift_qe(STEP, phi)
        again = lift_qe(STEP, once)
        assert again == once
        env = random_env(rng, arity)
        assert eval_qfree(again, env) == eval_qfree(once, env)


def test_lift_qe_matches_oracle():
    rng = Random(42)
    for _ in range(400):
        arity = rng.randint(0, 2)
        phi = random_formula(rng, arity, rng.randint(1, 5), 3)
        lifted = lift_qe(STEP, phi)
        assert is_qfree(lifted)
        env = random_env(rng, arity)
        assert eval_qfree(lifted, env) == oracle_decide(phi, env), repr(phi)


# --- decide --------------------------------------------------------------------------


def test_decide_bundled_existential():
    assert decide(STEP, sample0()) == Yes(
        Witness(2, Witness(4, Both(AtomHolds(), AtomHolds())))
    )


def test_decide_falsum():
    assert decide(STEP, Falsum(0)) == No(FalsumRefuted())


def test_decide_open_body_at_one():
    decision = decide(STEP, sample2_body(), (1,))
    assert decision == No(NeitherHolds(AtomFails(), ExistsRefuted(_nobody)))
    assert check_evidence(decision, sample2_body(), (1,))


def test_decide_failing_universal():
    decision = decide(STEP, Forall(sample2_body()))
    assert decision == No(
        Counterexample(1, NeitherHolds(AtomFails(), ExistsRefuted(_nobody)))
    )
    assert check_evidence(decision, Forall(sample2_body()), ())


def test_decide_env_mismatch():
    with pytest.raises(ArityError):
        decide(STEP, Falsum(1), ())


def test_decide_prefers_left_disjunct_and_first_product():
    assert decide(STEP, Exists(Or(x_eq(1), x_eq(0)))) == Yes(
        Witness(1, OrLeft(AtomHolds()))
    )


def test_decide_implication_branches():
    assert decide(STEP, Implies(Falsum(0), mk_true(0))) == Yes(
        NegAntecedent(FalsumRefuted())
    )
    assert decide(STEP, Implies(mk_true(0), mk_true(0))) == Yes(
        Consequent(NegAntecedent(FalsumRefuted()))
    )


# --- lem -----------------------------------------------------------------------------


def test_lem_examples():
    assert lem(STEP, Falsum(0)) == FalsumRefuted()
    assert lem(STEP, sample0()) == Witness(2, Witness(4, Both(AtomHolds(), AtomHolds())))
    assert isinstance(lem(STEP, sample1()), UniversalEvidence)


def test_lem_consistent_with_decide():
    rng = Random(43)
    for _ in range(50):
        arity = rng.randint(0, 1)
        phi = random_formula(rng, arity, rng.randint(1, 4), 2)
        env = random_env(rng, arity)
        branch = lem(STEP, phi, env)
        decision = decide(STEP, phi, env)
        assert isinstance(branch, Evidence) == isinstance(decision, Yes)
        # Term for term; providers compare equal by design.
        term = decision.evidence if isinstance(decision, Yes) else decision.refutation
        assert branch == term


# --- quantifier front doors -------------------------------------------------------------


def test_forall_or_counterexample_bundled_body():
    result = forall_or_counterexample(STEP, sample2_body())
    assert isinstance(result, tuple)
    value, refutation = result
    assert value == 1
    assert check_evidence(No(refutation), sample2_body(), (1,))


def test_forall_or_counterexample_reflexive():
    body = Atom(SNAtom(var_term(0), var_term(0)), 1)
    result = forall_or_counterexample(STEP, body)
    assert isinstance(result, UniversalEvidence)
    for v in {0, 1} | candidates(body, ()):
        assert check_evidence(Yes(result.instantiate(v)), body, (v,))


def test_forall_or_counterexample_negated_atom():
    body = mk_not(x_eq(3))
    for v in range(11):
        assert eval_qfree(body, (v,)) == (v != 3)
    result = forall_or_counterexample(STEP, body)
    assert result == (3, Unimplied(AtomHolds(), FalsumRefuted()))
    assert check_evidence(No(result[1]), body, (3,))


def test_exists_or_refutation_examples():
    assert exists_or_refutation(STEP, x_eq(5)) == (5, AtomHolds())

    refuted = exists_or_refutation(STEP, Falsum(1))
    assert isinstance(refuted, ExistsRefuted)
    assert check_evidence(No(refuted), Exists(Falsum(1)), ())

    inner = sample0().body
    assert exists_or_refutation(STEP, inner) == (
        2,
        Witness(4, Both(AtomHolds(), AtomHolds())),
    )


def test_instantiate_universal_bundled():
    decision = decide(STEP, sample1())
    assert isinstance(decision, Yes)
    ev = decision.evidence
    assert instantiate_universal(ev, 0) == OrLeft(AtomHolds())
    assert instantiate_universal(ev, 5) == OrRight(Witness(4, AtomHolds()))
    rng = Random(44)
    for _ in range(100):
        v = rng.randint(0, 60)
        sub = instantiate_universal(ev, v)
        assert check_evidence(Yes(sub), sample1_body(), (v,))


def test_instantiate_universal_rejects_other_evidence():
    with pytest.raises(TypeError):
        instantiate_universal(AtomHolds(), 0)


# --- resource ceiling ----------------------------------------------------------------------


def test_max_products_threads_through():
    phi = x_eq(1)
    k = 1
    for _ in range(8):
        phi = And(phi, Or(x_eq(2 * k), x_eq(2 * k + 1)))
        k += 1
    blowup = Exists(phi)
    assert decide(STEP, blowup, max_products=None) == decide(STEP, blowup)
    with pytest.raises(DnfLimitError):
        decide(STEP, blowup, max_products=100)
    with pytest.raises(DnfLimitError):
        lift_qe(STEP, blowup, max_products=100)


# --- a binder settles at its first true elimination ------------------------------------------


class CountingStep(SuccessorStep):
    def __init__(self) -> None:
        self.calls = 0

    def eliminate_product(self, p):
        self.calls += 1
        return super().eliminate_product(p)


def test_a_binder_settles_at_its_first_true_elimination():
    step = CountingStep()
    phi = parse("exists x. " + " | ".join(f"x = {k}" for k in range(40)))
    assert lift_qe(step, phi) == mk_true(0)
    assert step.calls == 1


def test_binders_keep_non_falsum_eliminations_up_to_the_first_true(monkeypatch):
    dnfs = []
    real = qelim.engine.to_dnf

    def recording(*args, **kwargs):
        d = real(*args, **kwargs)
        dnfs.append(d.products)
        return d

    monkeypatch.setattr(qelim.engine, "to_dnf", recording)
    rng = Random(54)
    dropped = settled = 0
    for _ in range(500):
        arity = rng.randint(0, 2)
        phi = random_formula(rng, arity, rng.randint(1, 5), 3)
        dnfs.clear()
        lifted = lift(STEP, phi)
        # The table fills in the order the binders' DNFs are built.
        assert len(dnfs) == len(lifted.binders), repr(phi)
        for products, (kept, parts) in zip(dnfs, lifted.binders.values()):
            expected = []
            for p in products:
                part = STEP.eliminate_product(p)
                if part == mk_true(part.arity):
                    expected.append((p, part))
                    break
                if not isinstance(part, Falsum):
                    expected.append((p, part))
            assert list(zip(kept, parts)) == expected, repr(phi)
            assert len(kept) == len(parts)
            dropped += len(products) > len(kept)
            settled += bool(parts) and parts[-1] == mk_true(parts[-1].arity)
    assert dropped > 40 and settled > 150


# --- one lift per decision -------------------------------------------------------------------


def test_decide_and_every_provider_lift_each_binder_once(monkeypatch):
    calls = []
    real = qelim.engine.to_dnf

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(qelim.engine, "to_dnf", counting)
    rng = Random(48)
    binders = 0
    for _ in range(300):
        arity = rng.randint(0, 2)
        phi = random_formula(rng, arity, rng.randint(1, 5), 3)
        env = random_env(rng, arity)
        calls.clear()
        decision = decide(STEP, phi, env)
        # check_evidence queries every provider the decision carries.
        assert check_evidence(decision, phi, env)
        assert len(calls) == quantifier_count(phi), repr(phi)
        binders += len(calls)
    assert binders > 300


def test_decide_and_evidence_canonicalize_each_atom_once(monkeypatch):
    counts: Counter[int] = Counter()
    alive = []  # holding each atom keeps its id from being reused
    real = qelim.successor._canonical_form

    def counting(a):
        alive.append(a)
        counts[id(a)] += 1
        return real(a)

    monkeypatch.setattr(qelim.successor, "_canonical_form", counting)
    rng = Random(49)
    for _ in range(300):
        arity = rng.randint(0, 2)
        phi = random_formula(rng, arity, rng.randint(1, 5), 3)
        env = random_env(rng, arity)
        assert check_evidence(decide(STEP, phi, env), phi, env)
    assert len(counts) > 300
    assert max(counts.values()) == 1


def test_decide_wide_left_chain_is_linear(monkeypatch):
    # exists x. x = 0 | ... | x = n-1, nested to the left as the parser builds it.
    n = 200
    body = x_eq(0)
    for k in range(1, n):
        body = Or(body, x_eq(k))
    count = [0]
    real = SNAtom.holds

    def counting(self, env):
        count[0] += 1
        return real(self, env)

    monkeypatch.setattr(SNAtom, "holds", counting)
    assert isinstance(decide(STEP, Exists(body)), Yes)
    assert count[0] <= 4 * n


def test_one_binder_object_at_two_positions(monkeypatch):
    # The lift keeps one table entry per binder object, keyed on identity,
    # and lifts each object once however many positions it occupies.
    calls = []
    real = qelim.engine.to_dnf

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(qelim.engine, "to_dnf", counting)

    def atom(lhs, rhs):
        return Atom(SNAtom(lhs, rhs), 2)

    x, y = var_term(0), var_term(1)
    above = Exists(atom(x, var_term(1, 2)))  # exists x. x = y+2
    never = Exists(And(atom(x, y), atom(var_term(0, 1), y)))  # x = y and x+1 = y
    formulas = [
        And(above, Or(never, above)),
        Or(never, Implies(above, never)),
        Implies(Or(never, never), above),
    ]
    for inner in list(formulas):
        formulas.append(Forall(Implies(Atom(SNAtom(var_term(0), zero_term(1)), 1), inner)))
    for phi in formulas:
        calls.clear()
        entries = len(lift(STEP, phi).binders)
        assert entries == 2 + isinstance(phi, Forall)
        assert len(calls) == entries, repr(phi)
        for y_value in range(4):
            env = (y_value,) * phi.arity
            decision = decide(STEP, phi, env)
            assert isinstance(decision, Yes) == oracle_decide(phi, env), repr(phi)
            assert check_evidence(decision, phi, env), repr(phi)


def test_a_lying_step_is_caught_by_the_truth_checks():
    class TrueStep(SuccessorStep):
        def eliminate_product(self, p):
            return mk_true(p.arity - 1)

    class FalseStep(SuccessorStep):
        def eliminate_product(self, p):
            return Falsum(p.arity - 1)

    # exists x. x = 5 & x = 6: the lift says true, the body at the witness says no.
    with pytest.raises(EngineError, match="the body decides against its lift at 5"):
        decide(TrueStep(), Exists(And(x_eq(5), x_eq(6))))
    # forall x. x = 5: the lift says true, so the refuting value shows only on query.
    decision = decide(FalseStep(), Forall(x_eq(5)))
    assert isinstance(decision, Yes) and isinstance(decision.evidence, UniversalEvidence)
    with pytest.raises(EngineError, match="the body decides against its lift at 3"):
        decision.evidence.instantiate(3)
    assert not check_evidence(decision, Forall(x_eq(5)), ())
