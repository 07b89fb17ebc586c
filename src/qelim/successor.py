"""The theory of successor over the naturals: atoms, elimination, oracles.

Atoms have the shape ``S^a(u) = S^b(v)`` where u and v are either a de
Bruijn variable or the constant zero; there is no variable-plus-variable
addition.  This module supplies the single-variable elimination step the
generic engine needs (``eliminate_product``), the matching witness function,
and two independent decision oracles used to cross-check the engine.

The elimination step works on a product of literals whose innermost
variable (index 0) is being removed:

1. classify every literal; drop the trivially true ones, and give up with
   Falsum when one is trivially false;
2. if a positive literal mentions index 0, canonicalize it into a pivot
   ``S^a(Var 0) = S^b(t)``, where t is another variable or the constant
   zero, and substitute its solution for index 0 everywhere (collecting
   ``t != 0, ..., t != d-1`` side conditions when the solution is ``t - d``),
   then re-simplify and recurse; a pivot ``S^a(Var 0) = S^b(0)`` with a > b
   has no solution and gives Falsum at once;
3. otherwise index 0 occurs only in negative literals, each of which
   excludes at most one value; since the naturals are infinite, drop them;
4. finally every index is at least 1: decrement each by one and read the
   product back as a formula one arity down.

The hooks run on every literal occurrence, so each atom caches its
canonical form: ``canonicalize`` fills the slot on first use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from . import formula
from .dnf import Literal, Product, Truth, interpret_product, simplify_literals
from .formula import (
    And,
    ArityError,
    Atom,
    Environment,
    Exists,
    Falsum,
    Forall,
    Formula,
    Implies,
    Or,
    check_env,
    extend,
    subformulas,
)


class UnsatisfiableProductError(RuntimeError):
    """A witness was requested for a product that cannot hold; contract breach."""


class PivotError(ValueError):
    """The designated pivot literal is not usable for substitution."""


@dataclass(frozen=True, slots=True)
class SNTerm:
    """``S^shift(base)`` where base is a variable index or zero (index None)."""

    index: int | None
    shift: int

    def __post_init__(self) -> None:
        if self.shift < 0:
            raise ValueError(f"negative shift {self.shift}")
        if self.index is not None and self.index < 0:
            raise ValueError(f"negative variable index {self.index}")

    @property
    def is_var(self) -> bool:
        return self.index is not None

    @property
    def is_zero(self) -> bool:
        return self.index is None

    def shifted(self, extra: int) -> "SNTerm":
        return SNTerm(self.index, self.shift + extra)


def var_term(index: int, shift: int = 0) -> SNTerm:
    return SNTerm(index, shift)


def zero_term(shift: int = 0) -> SNTerm:
    return SNTerm(None, shift)


@dataclass(frozen=True, slots=True)
class SNAtom:
    """Equation between two successor terms."""

    lhs: SNTerm
    rhs: SNTerm
    # Filled by ``canonicalize`` on first use; a canonical atom points to itself.
    _canonical: SNAtom | None = field(default=None, init=False, repr=False, compare=False)

    def holds(self, env: Sequence[int]) -> bool:
        return atom_eval(self, env)

    def fits_arity(self, arity: int) -> bool:
        for side in (self.lhs, self.rhs):
            if side.is_var and side.index >= arity:
                return False
        return True


def _term_value(t: SNTerm, env: Sequence[int]) -> int:
    if t.is_zero:
        return t.shift
    if t.index >= len(env):
        raise ArityError(f"variable index {t.index} out of range for environment {env!r}")
    return t.shift + env[t.index]


def atom_eval(a: SNAtom, env: Sequence[int]) -> bool:
    """Truth of the equation under an environment assigning every index."""
    return _term_value(a.lhs, env) == _term_value(a.rhs, env)


def canonicalize(a: SNAtom) -> SNAtom:
    """Subtract the common shift and orient variables to the left.

    After canonicalization at least one side has shift 0; a lone variable
    side sits on the left; with two variables the smaller index is on the
    left.  Canonicalization preserves truth under every environment.  The
    result is cached on the atom, filled on first use; an atom that is
    already canonical is its own result.
    """
    canon = a._canonical
    if canon is None:
        canon = _canonical_form(a)
        object.__setattr__(a, "_canonical", canon)
    return canon


def _canonical_form(a: SNAtom) -> SNAtom:
    lhs, rhs = a.lhs, a.rhs
    drop = min(lhs.shift, rhs.shift)
    flip = (rhs.is_var and lhs.is_zero) or (
        lhs.is_var and rhs.is_var and rhs.index < lhs.index
    )
    if not drop and not flip:
        return a
    lhs = SNTerm(lhs.index, lhs.shift - drop)
    rhs = SNTerm(rhs.index, rhs.shift - drop)
    canon = SNAtom(rhs, lhs) if flip else SNAtom(lhs, rhs)
    object.__setattr__(canon, "_canonical", canon)
    return canon


def literal_truth(lit: Literal) -> Truth:
    """Decide literals whose two sides share a base; Unknown otherwise."""
    a = canonicalize(lit.atom)
    same_base = (a.lhs.is_zero and a.rhs.is_zero) or (
        a.lhs.is_var and a.rhs.is_var and a.lhs.index == a.rhs.index
    )
    if not same_base:
        return Truth.UNKNOWN
    holds = a.lhs.shift == a.rhs.shift
    if holds == lit.positive:
        return Truth.TRUE
    return Truth.FALSE


def _mentions_var0(a: SNAtom) -> bool:
    return (a.lhs.is_var and a.lhs.index == 0) or (a.rhs.is_var and a.rhs.index == 0)


def subst_pivot(p: Product, pivot: Literal) -> tuple[Product, tuple[Literal, ...]]:
    """Substitute the pivot's solution for index 0 through a product.

    The pivot must be a positive literal that canonicalizes to
    ``S^a(Var 0) = S^b(t)`` with t distinct from index 0: another variable
    or the constant zero, so one substitution serves both kinds of pivot.
    Solving gives ``Var 0 = t + (b - a)``.  When b >= a every occurrence
    ``S^k(Var 0)`` becomes ``S^(k + b - a)(t)``.  When a > b the solution is
    ``t - d`` with ``d = a - b``; occurrences become ``S^k(t)`` while the
    opposite side of the same literal gains d (sound because x + k = s + m
    is equivalent to t + k = s + m + d when x = t - d), and the side
    conditions ``t != 0, ..., t != d - 1`` record that t must reach d (for
    t = 0 they include the false ``0 != 0``).

    The first literal of p matching the pivot is consumed; the rest are
    substituted and returned together with the side conditions.
    """
    canon = canonicalize(pivot.atom)
    if not (canon.lhs.is_var and canon.lhs.index == 0):
        raise PivotError(f"pivot does not mention index 0: {pivot!r}")
    if canon.rhs.is_var and canon.rhs.index == 0:
        raise PivotError(f"pivot solves index 0 against itself: {pivot!r}")
    if not pivot.positive:
        raise PivotError(f"pivot literal must be positive: {pivot!r}")
    a = canon.lhs.shift
    b = canon.rhs.shift
    target = canon.rhs
    lift = b - a if b >= a else 0
    drop = a - b if a > b else 0

    def sub_literal(lit: Literal) -> Literal:
        lhs, rhs = lit.atom.lhs, lit.atom.rhs
        lhit = lhs.is_var and lhs.index == 0
        rhit = rhs.is_var and rhs.index == 0
        if not (lhit or rhit):
            return lit
        if lhit and rhit:
            raise PivotError(f"literal mentions index 0 on both sides: {lit!r}")
        if lhit:
            lhs = SNTerm(target.index, lhs.shift + lift)
            rhs = rhs.shifted(drop)
        else:
            rhs = SNTerm(target.index, rhs.shift + lift)
            lhs = lhs.shifted(drop)
        return Literal(lit.positive, SNAtom(lhs, rhs))

    consumed = False
    remaining: list[Literal] = []
    for lit in p.literals:
        if (
            not consumed
            and lit.positive
            and _mentions_var0(lit.atom)
            and canonicalize(lit.atom) == canon
        ):
            consumed = True
            continue
        remaining.append(sub_literal(lit))

    side = tuple(
        Literal.neg(SNAtom(SNTerm(target.index, 0), zero_term(i))) for i in range(drop)
    )
    return Product(tuple(remaining), p.arity), side


def _strengthen_term(t: SNTerm) -> SNTerm:
    if t.is_var:
        return SNTerm(t.index - 1, t.shift)
    return t


def _strengthen(lit: Literal) -> Literal:
    return Literal(
        lit.positive,
        SNAtom(_strengthen_term(lit.atom.lhs), _strengthen_term(lit.atom.rhs)),
    )


def _prepare(p: Product) -> tuple[tuple[Literal, ...], Literal | None] | None:
    """Simplified literals plus the pivot choice; None when a literal is false."""
    lits = simplify_literals(p.literals, literal_truth, canonicalize)
    if lits is None:
        return None
    pivot = None
    for lit in lits:
        if lit.positive and _mentions_var0(lit.atom):
            pivot = lit
            break
    return lits, pivot


def eliminate_product(p: Product) -> Formula:
    """Eliminate index 0 from a product; the result is one arity down."""
    if p.arity < 1:
        raise ArityError("eliminate_product needs arity at least 1")
    n = p.arity - 1
    prepared = _prepare(p)
    if prepared is None:
        return Falsum(n)
    lits, pivot = prepared
    if pivot is not None:
        canon = canonicalize(pivot.atom)
        # Unsolvable constant pivot: skip a substitution and a re-simplification.
        if canon.rhs.is_zero and canon.lhs.shift > canon.rhs.shift:
            return Falsum(n)
        remaining, side = subst_pivot(Product(lits, p.arity), pivot)
        return eliminate_product(Product(remaining.literals + side, p.arity))
    kept = tuple(l for l in lits if not _mentions_var0(l.atom))
    lowered = Product(tuple(_strengthen(l) for l in kept), n)
    return interpret_product(lowered)


def prod_witness(p: Product, env: Sequence[int]) -> int:
    """A value for index 0 making the product true, given that one exists.

    Mirrors the pivot choice of ``eliminate_product``: with a pivot the
    solved right side is evaluated; without one the smallest natural
    excluded by no negative literal is returned.  Called on a product whose
    elimination is false under env, this raises UnsatisfiableProductError.
    """
    env = tuple(env)
    if len(env) != p.arity - 1:
        raise ArityError(
            f"environment length {len(env)} does not match product arity {p.arity}"
        )
    prepared = _prepare(p)
    if prepared is None:
        raise UnsatisfiableProductError(f"product contains a false literal: {p!r}")
    lits, pivot = prepared
    if pivot is not None:
        canon = canonicalize(pivot.atom)
        t = canon.rhs
        w = t.shift + (env[t.index - 1] if t.is_var else 0) - canon.lhs.shift
        if w < 0:
            raise UnsatisfiableProductError(
                f"pivot {pivot!r} has no natural solution under {env!r}"
            )
        return w
    excluded: set[int] = set()
    for lit in lits:
        if lit.positive or not _mentions_var0(lit.atom):
            continue
        canon = canonicalize(lit.atom)
        k = canon.lhs.shift
        other = canon.rhs
        if other.is_zero:
            value = other.shift - k
        else:
            value = env[other.index - 1] + other.shift - k
        if value >= 0:
            excluded.add(value)
    w = 0
    while w in excluded:
        w += 1
    return w


# --- oracles -----------------------------------------------------------------


def quantifier_count(phi: Formula) -> int:
    return sum(isinstance(f, (Exists, Forall)) for f, _ in subformulas(phi))


def atom_count(phi: Formula) -> int:
    return sum(isinstance(f, Atom) for f, _ in subformulas(phi))


def max_shift(phi: Formula) -> int:
    atoms = [f.atom for f, _ in subformulas(phi) if isinstance(f, Atom)]
    return max((max(a.lhs.shift, a.rhs.shift) for a in atoms), default=0)


def candidates(body: Formula, env: Sequence[int]) -> set[int]:
    """Values that can matter for the variable a quantifier binds over body.

    Collects the solution points of every atom that mentions the bound
    variable against zero or an environment value, the below-threshold range
    of every atom linking two bound-but-unknown variables, closes the set
    under the relative offsets of those variable-to-variable atoms (one
    round per inner quantifier, so constraint chains propagate), and adds a
    single fresh value larger than everything mentioned.  Values outside the
    resulting set are indistinguishable from the fresh one, which makes the
    enumeration in ``oracle_decide`` exact.
    """
    env = tuple(env)
    if body.arity != len(env) + 1:
        raise ArityError(
            f"body arity {body.arity} does not extend environment of length {len(env)}"
        )
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
                # The quantified variable itself or one bound further in;
                # either way its value is not fixed by env.
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
        # Two open sides: skip self-relations, record the offset and the
        # below-threshold values of the side that must reach the other.
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


def _default_samples(body: Formula, env: Environment) -> list[int]:
    # Errors propagate: a fallback to {0, 1} would silently weaken the check.
    return sorted({0, 1} | candidates(body, env))


formula._default_samples = _default_samples


def oracle_decide(phi: Formula, env: Sequence[int]) -> bool:
    """Decide a formula by enumerating candidate values at each quantifier.

    Independent of the elimination pipeline: no DNF, no substitution, just
    structural recursion with finite candidate sets.
    """
    env = check_env(phi, env)
    return _oracle(phi, env)


def _oracle(phi: Formula, env: Environment) -> bool:
    if isinstance(phi, Atom):
        return atom_eval(phi.atom, env)
    if isinstance(phi, Falsum):
        return False
    if isinstance(phi, Or):
        return _oracle(phi.lhs, env) or _oracle(phi.rhs, env)
    if isinstance(phi, And):
        return _oracle(phi.lhs, env) and _oracle(phi.rhs, env)
    if isinstance(phi, Implies):
        return (not _oracle(phi.lhs, env)) or _oracle(phi.rhs, env)
    if isinstance(phi, Exists):
        values = sorted(candidates(phi.body, env))
        return any(_oracle(phi.body, extend(env, v)) for v in values)
    if isinstance(phi, Forall):
        values = sorted(candidates(phi.body, env))
        return all(_oracle(phi.body, extend(env, v)) for v in values)
    raise TypeError(f"not a Formula: {phi!r}")


def naive_decide(phi: Formula, env: Sequence[int] = ()) -> bool:
    """Crudest possible oracle: enumerate every quantifier over 0..bound.

    The base bound is max shift + atom count + quantifier count + 1,
    computed once for the whole formula.  Each quantifier additionally
    ranges past the largest ambient value, since a witness may sit a shift
    above an enclosing variable (forall x. exists y. y = x + 2 is true, yet
    no shared bound covers y for every enumerated x).  Meant for small
    closed formulas as a consistency check against ``oracle_decide``.
    """
    env = check_env(phi, env)
    bound = max_shift(phi) + atom_count(phi) + quantifier_count(phi) + 1
    return _naive(phi, env, bound)


def _naive(phi: Formula, env: Environment, bound: int) -> bool:
    if isinstance(phi, Atom):
        return atom_eval(phi.atom, env)
    if isinstance(phi, Falsum):
        return False
    if isinstance(phi, Or):
        return _naive(phi.lhs, env, bound) or _naive(phi.rhs, env, bound)
    if isinstance(phi, And):
        return _naive(phi.lhs, env, bound) and _naive(phi.rhs, env, bound)
    if isinstance(phi, Implies):
        return (not _naive(phi.lhs, env, bound)) or _naive(phi.rhs, env, bound)
    if isinstance(phi, Exists):
        top = bound + max(env, default=0)
        return any(_naive(phi.body, extend(env, v), bound) for v in range(top + 1))
    if isinstance(phi, Forall):
        top = bound + max(env, default=0)
        return all(_naive(phi.body, extend(env, v), bound) for v in range(top + 1))
    raise TypeError(f"not a Formula: {phi!r}")


class SuccessorStep:
    """Single-variable elimination step for the successor theory.

    Satisfies the engine's step interface: ``eliminate_product``,
    ``prod_witness``, ``literal_truth``, plus the optional
    ``canonical_atom`` hook used for literal deduplication.
    """

    def eliminate_product(self, p: Product) -> Formula:
        return eliminate_product(p)

    def prod_witness(self, p: Product, env: Sequence[int]) -> int:
        return prod_witness(p, env)

    def literal_truth(self, lit: Literal) -> Truth:
        return literal_truth(lit)

    def canonical_atom(self, a: SNAtom) -> SNAtom:
        return canonicalize(a)


STEP = SuccessorStep()
