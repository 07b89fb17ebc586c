"""The theory of successor over the naturals: atoms, elimination, oracles.

Atoms have the shape ``S^a(u) = S^b(v)`` where u and v are either a de
Bruijn variable or the constant zero; there is no variable-plus-variable
addition.  This module supplies the single-variable elimination step the
generic engine needs (``eliminate_product``), the matching witness function,
and two independent decision oracles used to cross-check the engine.

The elimination step works on a product of literals whose innermost
variable (index 0) is being removed:

1. simplify: drop the trivially true literals and the duplicates, and give
   Falsum at a trivially false one.  ``to_dnf`` has already done this to
   the engine's products, so only the module functions do it;
2. if a positive literal mentions index 0, canonicalize it into a pivot
   ``S^a(Var 0) = S^b(t)``, where t is another variable or the constant
   zero; with t zero and a > b it has no solution, and gives Falsum;
3. else solve it for index 0 (with side conditions ``t != 0, ...,
   t != d-1`` when the solution is ``t - d``) and make one walk over the
   other literals and the side conditions: substitute the solution, which
   also reads every atom one arity down, drop true literals, give Falsum at
   a false one, dedupe;
4. without a pivot, index 0 occurs only in negative literals, each of
   which excludes at most one value; since the naturals are infinite, drop
   them and read the rest one arity down.

The hooks run on every literal occurrence, so each atom caches its
canonical form: ``canonicalize`` fills the slot on first use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Sequence

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
) -> tuple[Callable[[Literal], Literal], tuple[Literal, ...]]:
    """Solve the pivot for index 0: a per-literal substitution, and side conditions.

    canon is the pivot's canonical atom ``S^a(Var 0) = S^b(t)``, with t
    another variable or the constant zero, so one substitution serves both
    kinds of pivot.  Solving gives ``Var 0 = t + (b - a)``.  When b >= a
    every occurrence ``S^k(Var 0)`` becomes ``S^(k + b - a)(t)``.  When
    a > b the solution is ``t - d`` with ``d = a - b``; occurrences become
    ``S^k(t)`` while the opposite side of the same literal gains d (sound
    because x + k = s + m is equivalent to t + k = s + m + d when x = t - d),
    and the side conditions ``t != 0, ..., t != d - 1`` record that t must
    reach d (for t = 0 they include the false ``0 != 0``).

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

    side = tuple(Literal.neg(SNAtom(SNTerm(target, 0), zero_term(i))) for i in range(drop))
    return sub, side


def _moved(t: SNTerm, extra: int) -> SNTerm:
    """t read one arity down, with extra successors added."""
    return SNTerm(t.index if t.index is None else t.index - 1, t.shift + extra)


def _lowered(lit: Literal) -> Literal:
    """A literal without index 0, read one arity down."""
    atom = lit.atom
    return Literal(lit.positive, SNAtom(_moved(atom.lhs, 0), _moved(atom.rhs, 0)))


def _pivot(lits: tuple[Literal, ...]) -> Literal | None:
    """The first positive literal that mentions index 0, if any."""
    for lit in lits:
        if lit.positive and _mentions_var0(lit.atom):
            return lit
    return None


def eliminate_product(p: Product) -> Formula:
    """Eliminate index 0 from a product; the result is one arity down."""
    return _eliminate(p, simplify_literals(p.literals, literal_truth, canonicalize))


def _eliminate(p: Product, lits: tuple[Literal, ...] | None) -> Formula:
    """Eliminate index 0 from p, given its literals simplified; None when one is false."""
    if p.arity < 1:
        raise ArityError("eliminate_product needs arity at least 1")
    n = p.arity - 1
    if lits is None:
        return Falsum(n)
    pivot = _pivot(lits)
    if pivot is None:
        kept = tuple(_lowered(l) for l in lits if not _mentions_var0(l.atom))
        return interpret_product(Product(kept, n))
    canon = canonicalize(pivot.atom)
    # Unsolvable constant pivot: no substitution at all.
    if canon.rhs.is_zero and canon.lhs.shift > canon.rhs.shift:
        return Falsum(n)
    # The one walk: substitute into lowered atoms, drop true literals, stop
    # at a false one, dedupe.  The pivot is the only literal with its key.
    sub, side = _solution(pivot, canon)
    substituted = (sub(l) for l in lits if l is not pivot)
    rest = simplify_literals(chain(substituted, side), literal_truth, canonicalize)
    return Falsum(n) if rest is None else interpret_product(Product(rest, n))


def prod_witness(p: Product, env: Sequence[int]) -> int:
    """A value for index 0 making the product true, given that one exists.

    Mirrors the pivot choice of ``eliminate_product``: with a pivot the
    solved right side is evaluated; without one the smallest natural
    excluded by no negative literal is returned.  Called on a product whose
    elimination is false under env, this raises UnsatisfiableProductError.
    """
    return _witness(p, env, simplify_literals(p.literals, literal_truth, canonicalize))


def _witness(p: Product, env: Sequence[int], lits: tuple[Literal, ...] | None) -> int:
    """``prod_witness``, given p's literals simplified; None when one is false."""
    env = tuple(env)
    if len(env) != p.arity - 1:
        raise ArityError(
            f"environment length {len(env)} does not match product arity {p.arity}"
        )
    if lits is None:
        raise UnsatisfiableProductError(f"product contains a false literal: {p!r}")
    pivot = _pivot(lits)
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
    enumeration in ``oracle_decide`` exact.  Each call analyses body afresh;
    ``oracle_decide`` analyses each binder once per call.
    """
    env = tuple(env)
    if body.arity != len(env) + 1:
        raise ArityError(
            f"body arity {body.arity} does not extend environment of length {len(env)}"
        )
    marks = [
        (f.atom if isinstance(f, Atom) else None, depth)
        for f, depth in subformulas(body)
        if isinstance(f, (Atom, Exists, Forall))
    ]
    return _analyse(marks, 0)(env)


def _analyse(
    marks: list[tuple[SNAtom | None, int]], base: int
) -> Callable[[Environment], set[int]]:
    """``candidates`` as a function of the environment, read from a body's marks.

    A mark is an atom of the body, or None for a binder in it, with its
    binder depth, counted from base.  The reading keeps what no environment
    changes: the largest shift, the constant solution points, the offsets
    between two open sides with their ranges, and the rounds; an atom solved
    against an environment value leaves that value's position and offset.
    """
    points: set[int] = set()
    offsets: set[int] = set()
    solved: set[tuple[int, int]] = set()  # (position, offset): env[position] + offset
    top = rounds = 0
    for a, depth in marks:
        if a is None:
            rounds += 1
            continue
        depth -= base
        lhs, rhs = a.lhs, a.rhs
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
    call reads each node outside every binder once; it compiles each binder
    it reaches into closures once, and analyses the binder's body once on
    the way, so an environment the enumeration visits only adds its own
    points to the binder's candidates.
    """
    env = check_env(phi, env)
    return _oracle(phi, env)


def _oracle(phi: Formula, env: Environment) -> bool:
    # A node outside every binder is visited once: read it where it stands.
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
    return _compile(phi, 0, [])(env)


def _compile(phi: Formula, depth: int, marks: list) -> Callable[[Environment], bool]:
    """phi's truth as a function of the environment; phi sits depth binders in.

    Appends the marks of phi (see ``_analyse``) to marks.
    """
    if isinstance(phi, Atom):
        marks.append((phi.atom, depth))
        return _compile_atom(phi.atom)
    if isinstance(phi, Falsum):
        return lambda env: False
    if isinstance(phi, (Or, And, Implies)):
        lhs = _compile(phi.lhs, depth, marks)
        rhs = _compile(phi.rhs, depth, marks)
        if isinstance(phi, Or):
            return lambda env: lhs(env) or rhs(env)
        if isinstance(phi, And):
            return lambda env: lhs(env) and rhs(env)
        return lambda env: not lhs(env) or rhs(env)
    if isinstance(phi, (Exists, Forall)):
        marks.append((None, depth))
        start = len(marks)
        body = _compile(phi.body, depth + 1, marks)
        values = _analyse(marks[start:], depth + 1)
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
    ``canonical_atom`` hook used for literal deduplication.  As the
    interface promises, the products it receives are already simplified
    with these hooks, so it skips step 1 of the module docstring.
    """

    def eliminate_product(self, p: Product) -> Formula:
        return _eliminate(p, p.literals)

    def prod_witness(self, p: Product, env: Sequence[int]) -> int:
        return _witness(p, env, p.literals)

    def literal_truth(self, lit: Literal) -> Truth:
        return literal_truth(lit)

    def canonical_atom(self, a: SNAtom) -> SNAtom:
        return canonicalize(a)


STEP = SuccessorStep()
