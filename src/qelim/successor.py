"""The theory of successor over the naturals: atoms, elimination, an oracle.

Atoms have the shape ``S^a(u) = S^b(v)`` where u and v are either a de
Bruijn variable or the constant zero; there is no variable-plus-variable
addition.  This module supplies the single-variable elimination step the
generic engine needs, ``STEP``, with its matching witness function, and an
independent decision oracle, ``oracle_decide``, that cross-checks the engine.

The elimination step works on a simplified product of literals (no decided
literal, no duplicate) whose innermost variable (index 0) is being removed:

1. if a positive literal mentions index 0, canonicalize it into a pivot
   ``S^a(Var 0) = S^b(t)``, where t is another variable or the constant
   zero, and solve it for index 0: ``t + (b - a)``, with side conditions
   ``t != 0, ..., t != d-1`` when that is ``t - d``.  With t zero and
   a > b there is no natural solution, and the elimination is Falsum;
2. make one walk over the other literals and the side conditions:
   substitute the solution, which also reads every atom one arity down,
   drop true literals, give Falsum at a false one, dedupe;
3. without a pivot, index 0 occurs only in negative literals, each of
   which excludes at most one value; since the naturals are infinite, drop
   them and read the rest one arity down.

The hooks run on every literal occurrence, so each atom caches its
canonical form: ``canonicalize`` fills the slot on first use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Iterator, Sequence

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
    check_naturals,
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
    # A variable goes left of zero, and the smaller of two indices left.
    flip = rhs.index is not None and (lhs.index is None or rhs.index < lhs.index)
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
    if a.lhs.index != a.rhs.index:  # zero's index is None, so this compares bases
        return Truth.UNKNOWN
    holds = a.lhs.shift == a.rhs.shift
    if holds == lit.positive:
        return Truth.TRUE
    return Truth.FALSE


def _mentions_var0(a: SNAtom) -> bool:
    return a.lhs.index == 0 or a.rhs.index == 0


def _solution(
    pivot: Literal, canon: SNAtom
) -> tuple[Callable[[Literal], Literal], Iterator[Literal]]:
    """Solve the pivot for index 0: a per-literal substitution, and side conditions.

    canon is the pivot's canonical atom ``S^a(Var 0) = S^b(t)``, with t
    another variable or the constant zero, so one substitution serves both
    kinds of pivot.  Solving gives ``Var 0 = t + (b - a)``.  When b >= a
    every occurrence ``S^k(Var 0)`` becomes ``S^(k + b - a)(t)``.  When
    a > b the solution is ``t - d`` with ``d = a - b``; occurrences become
    ``S^k(t)`` while the opposite side of the same literal gains d (sound
    because x + k = s + m is equivalent to t + k = s + m + d when x = t - d),
    and the side conditions ``t != 0, ..., t != d - 1``, built as the walk
    reads them, record that t must reach d.  For t = 0 the first is the false
    ``0 != 0``, but ``eliminate_product`` gives Falsum before it solves such a pivot.

    Every literal comes back read one arity down: each variable index other
    than 0 drops by one, in the substituted literals and the side conditions.
    ``_pivot`` gives a positive literal that mentions index 0, so index 0
    sits on canon's left.  Only a product that was not simplified holds a
    pivot solving index 0 against itself or a literal with index 0 on both
    sides; either raises PivotError.
    """
    if canon.rhs.index == 0:
        raise PivotError(f"pivot solves index 0 against itself: {pivot!r}")
    a = canon.lhs.shift
    b = canon.rhs.shift
    target = None if canon.rhs.is_zero else canon.rhs.index - 1
    lift = b - a if b >= a else 0
    drop = a - b if a > b else 0

    def sub(lit: Literal) -> Literal:
        lhs, rhs = lit.atom.lhs, lit.atom.rhs
        lhit = lhs.index == 0
        rhit = rhs.index == 0
        if lhit and rhit:
            raise PivotError(f"literal mentions index 0 on both sides: {lit!r}")
        if lhit:
            lhs = SNTerm(target, lhs.shift + lift)
            rhs = _moved(rhs, drop)
        elif rhit:
            rhs = SNTerm(target, rhs.shift + lift)
            lhs = _moved(lhs, drop)
        else:
            return _lowered(lit)
        return Literal(lit.positive, SNAtom(lhs, rhs))

    side = (Literal.neg(SNAtom(SNTerm(target, 0), zero_term(i))) for i in range(drop))
    return sub, side


def _moved(t: SNTerm, extra: int) -> SNTerm:
    """t read one arity down, with extra successors added."""
    return SNTerm(t.index if t.index is None else t.index - 1, t.shift + extra)


def _lowered(lit: Literal) -> Literal:
    """A literal without index 0, read one arity down."""
    atom = lit.atom
    return Literal(lit.positive, SNAtom(_moved(atom.lhs, 0), _moved(atom.rhs, 0)))


def _pivot(lits: tuple[Literal, ...]) -> tuple[Literal, SNAtom] | tuple[None, None]:
    """The first positive literal that mentions index 0 and its canonical atom, if any."""
    for lit in lits:
        if lit.positive and _mentions_var0(lit.atom):
            return lit, canonicalize(lit.atom)
    return None, None


def _solved(canon: SNAtom, env: Environment) -> int:
    """Index 0's value solving ``S^a(Var 0) = S^b(t)`` under env, one arity down; maybe < 0.

    Only a product that was not simplified has t = Var 0; as in
    ``_solution``, that raises PivotError.
    """
    t = canon.rhs
    if t.index == 0:
        raise PivotError(f"atom mentions index 0 on both sides: {canon!r}")
    return t.shift - canon.lhs.shift + (0 if t.index is None else env[t.index - 1])


# --- oracle ------------------------------------------------------------------


def candidates(body: Formula, env: Sequence[int]) -> set[int]:
    """Values that can matter for the variable a quantifier binds over body.

    Collects the solution points of every atom that mentions the bound
    variable against zero or an environment value, the below-threshold range
    of every atom linking two bound-but-unknown variables, closes the set
    under the relative offsets of those variable-to-variable atoms (one
    round per inner quantifier, so constraint chains propagate), and adds a
    single fresh value larger than everything mentioned.  Values outside the
    resulting set are indistinguishable from the fresh one, which makes the
    enumeration in ``oracle_decide`` exact.  Each call reads body afresh,
    through ``_analyse``, as ``oracle_decide`` reads each binder's body.
    """
    env = tuple(env)
    if body.arity != len(env) + 1:
        raise ArityError(
            f"body arity {body.arity} does not extend environment of length {len(env)}"
        )
    return _analyse(body)(env)


def _analyse(body: Formula) -> Callable[[Environment], set[int]]:
    """``candidates`` for body as a function of the environment, read in one walk.

    The walk takes each atom of body with its binder depth, and counts each
    binder in body as one round.  The reading keeps what no environment
    changes: the largest shift, the constant solution points, the offsets
    between two open sides with their ranges, and the rounds; an atom solved
    against an environment value leaves that value's position and offset.
    """
    points: set[int] = set()
    offsets: set[int] = set()
    solved: set[tuple[int, int]] = set()  # (position, offset): env[position] + offset
    top = rounds = 0
    for f, depth in subformulas(body):
        if not isinstance(f, Atom):
            rounds += isinstance(f, (Exists, Forall))
            continue
        lhs, rhs = f.atom.lhs, f.atom.rhs
        top = max(top, lhs.shift, rhs.shift)
        # An open side is the quantified variable itself or one bound
        # further in; either way its value is not fixed by env.
        lopen = lhs.index is not None and lhs.index <= depth
        ropen = rhs.index is not None and rhs.index <= depth
        if lopen and ropen:
            # Skip self-relations, record the offset and the below-threshold
            # values of the side that must reach the other.
            if lhs.index != rhs.index:
                gap = abs(lhs.shift - rhs.shift)
                offsets.add(gap)
                points.update(range(gap + 1))
        elif lopen or ropen:
            known, other = (rhs, lhs) if lopen else (lhs, rhs)
            offset = known.shift - other.shift
            if known.index is not None:
                solved.add((known.index - depth - 1, offset))
            elif offset >= 0:
                points.add(offset)
    rounds = rounds if offsets else 0

    def values(env: Environment) -> set[int]:
        found = set(points)
        for position, offset in solved:
            if (point := env[position] + offset) >= 0:
                found.add(point)
        for _ in range(rounds):
            grown = set(found)
            for point in found:
                for off in offsets:
                    grown.add(point + off)
                    if point - off >= 0:
                        grown.add(point - off)
            if grown == found:
                break
            found = grown
        found.add(1 + max((top, *found, *env)))
        return found

    return values


def _default_samples(body: Formula, env: Environment) -> list[int]:
    # Errors propagate: a fallback to {0, 1} would silently weaken the check.
    return sorted({0, 1} | candidates(body, env))


formula._default_samples = _default_samples


def oracle_decide(phi: Formula, env: Sequence[int]) -> bool:
    """Decide a formula by enumerating candidate values at each quantifier.

    Independent of the elimination pipeline: no DNF, no substitution, just
    finite candidate sets, tried in ascending order until one decides.  A
    call compiles phi into closures once, and each binder reads its body
    once with ``_analyse``, as ``candidates`` does, so an environment the
    enumeration visits only adds its own points to the binder's candidates.
    """
    return _compile(phi)(check_env(phi, env))


def _compile(phi: Formula) -> Callable[[Environment], bool]:
    """phi's truth as a function of the environment."""
    if isinstance(phi, Atom):
        return _compile_atom(phi.atom)
    if isinstance(phi, Falsum):
        return lambda env: False
    if isinstance(phi, (Or, And, Implies)):
        lhs = _compile(phi.lhs)
        rhs = _compile(phi.rhs)
        if isinstance(phi, Or):
            return lambda env: lhs(env) or rhs(env)
        if isinstance(phi, And):
            return lambda env: lhs(env) and rhs(env)
        return lambda env: not lhs(env) or rhs(env)
    if isinstance(phi, (Exists, Forall)):
        body = _compile(phi.body)
        values = _analyse(phi.body)
        quantifier = any if isinstance(phi, Exists) else all
        return lambda env: quantifier(body((v,) + env) for v in sorted(values(env)))
    raise TypeError(f"not a Formula: {phi!r}")


def _compile_atom(a: SNAtom) -> Callable[[Environment], bool]:
    # S^s(u) = S^t(v) holds when u = v + gap, with gap = t - s and zero for None.
    i, j, gap = a.lhs.index, a.rhs.index, a.rhs.shift - a.lhs.shift
    if i is None:
        return (lambda env: gap == 0) if j is None else (lambda env: -gap == env[j])
    if j is None:
        return lambda env: env[i] == gap
    return lambda env: env[i] == env[j] + gap


class SuccessorStep:
    """Single-variable elimination step for the successor theory.

    Satisfies the engine's step interface: ``eliminate_product``,
    ``prod_witness``, ``literal_truth``, plus the optional
    ``canonical_atom`` hook used for literal deduplication.  As the
    interface promises, the products it receives are already simplified
    with these hooks; ``eliminate_dnf`` simplifies a product that is not.
    """

    def eliminate_product(self, p: Product) -> Formula:
        """Eliminate index 0 from a simplified product; the result is one arity down."""
        if p.arity < 1:
            raise ArityError("eliminate_product needs arity at least 1")
        n = p.arity - 1
        pivot, canon = _pivot(p.literals)
        if pivot is None:
            kept = tuple(_lowered(l) for l in p.literals if not _mentions_var0(l.atom))
            return interpret_product(Product(kept, n))
        if canon.rhs.is_zero and canon.lhs.shift > canon.rhs.shift:
            return Falsum(n)  # S^a(Var 0) = S^b(0) with a > b: no natural solves it
        # The one walk: substitute into lowered atoms, drop true literals, stop
        # at a false one, dedupe.  The pivot is the only literal with its key.
        sub, side = _solution(pivot, canon)
        substituted = (sub(l) for l in p.literals if l is not pivot)
        rest = simplify_literals(chain(substituted, side), literal_truth, canonicalize)
        return Falsum(n) if rest is None else interpret_product(Product(rest, n))

    def prod_witness(self, p: Product, env: Sequence[int]) -> int:
        """A value for index 0 making the simplified product true, given that one exists.

        Uses the pivot and the solve rule of ``eliminate_product``: with a
        pivot, its solution under env; without one, the least natural that no
        negative literal's solution excludes.  Called on a product whose
        elimination is false under env, this raises UnsatisfiableProductError.
        """
        env = tuple(env)
        if len(env) != p.arity - 1:
            raise ArityError(
                f"environment length {len(env)} does not match product arity {p.arity}"
            )
        check_naturals(env)
        lits = p.literals
        pivot, canon = _pivot(lits)
        if pivot is not None:
            w = _solved(canon, env)
            if w < 0:
                raise UnsatisfiableProductError(
                    f"pivot {pivot!r} has no natural solution under {env!r}"
                )
            return w
        # Every literal that mentions index 0 is negative, and excludes its solution.
        excluded = {_solved(canonicalize(l.atom), env) for l in lits if _mentions_var0(l.atom)}
        w = 0
        while w in excluded:
            w += 1
        return w

    def literal_truth(self, lit: Literal) -> Truth:
        return literal_truth(lit)

    def canonical_atom(self, a: SNAtom) -> SNAtom:
        return canonicalize(a)


STEP = SuccessorStep()
