"""Formula AST over decidable theory atoms, with constructive evidence.

Formulas use de Bruijn indices: a variable is a natural number counting
binders outward, so index 0 always refers to the innermost enclosing
quantifier.  Every formula carries an ``arity``: an upper bound on its free
indices.  A formula of arity n is evaluated under an ``Environment`` of
exactly n values, ordered innermost first (index 0 is the most recently
bound variable).  Example: in ``Exists(Exists(body))`` the body has arity 2
and environment ``(y, x)`` where y belongs to the inner quantifier.

Negation is not a constructor.  ``mk_not(p)`` builds ``Implies(p, Falsum)``,
and ``mk_true(n)`` builds ``Implies(Falsum, Falsum)``; everything downstream
treats these as ordinary implications.

Evidence and Refutation are the constructive content of a Decision.  They
mirror the formula shape: a witness value for an existential, a reusable
provider function for a universal, and mirrored forms on the refuting side
(a counterexample refutes a universal, a provider refutes an existential).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Protocol, Sequence

Environment = tuple


class ArityError(ValueError):
    """Environment length or variable index does not fit the formula arity."""


class NotQuantifierFree(ValueError):
    """Raised when a quantifier-free-only operation meets Exists/Forall."""


class TheoryAtom(Protocol):
    """What the core needs from an atom: decidable truth and index bounds."""

    def holds(self, env: Sequence[Any]) -> bool: ...

    def fits_arity(self, arity: int) -> bool: ...


class Formula:
    """Base class for formula nodes.  Every node exposes ``.arity``."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Atom(Formula):
    atom: Any
    arity: int

    def __post_init__(self) -> None:
        if self.arity < 0:
            raise ArityError(f"negative arity {self.arity}")
        if not self.atom.fits_arity(self.arity):
            raise ArityError(f"atom {self.atom!r} does not fit arity {self.arity}")


@dataclass(frozen=True, slots=True)
class Falsum(Formula):
    arity: int

    def __post_init__(self) -> None:
        if self.arity < 0:
            raise ArityError(f"negative arity {self.arity}")


@dataclass(frozen=True, slots=True)
class _Connective(Formula):
    """Shared shape of Or, And and Implies: both sides have one arity."""

    lhs: Formula
    rhs: Formula
    # Set at construction so that reading it never walks the spine below:
    # the parser and lift_qe build chains thousands of nodes deep.
    arity: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.lhs.arity != self.rhs.arity:
            raise ArityError(
                f"arity mismatch in {type(self).__name__}: "
                f"{self.lhs.arity} vs {self.rhs.arity}"
            )
        object.__setattr__(self, "arity", self.lhs.arity)


@dataclass(frozen=True, slots=True)
class Or(_Connective):
    pass


@dataclass(frozen=True, slots=True)
class And(_Connective):
    pass


@dataclass(frozen=True, slots=True)
class Implies(_Connective):
    pass


@dataclass(frozen=True, slots=True)
class _Binder(Formula):
    """Shared shape of Exists and Forall: the body binds index 0."""

    body: Formula
    arity: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.body.arity < 1:
            raise ArityError(f"{type(self).__name__} body must bind at least index 0")
        object.__setattr__(self, "arity", self.body.arity - 1)


@dataclass(frozen=True, slots=True)
class Exists(_Binder):
    pass


@dataclass(frozen=True, slots=True)
class Forall(_Binder):
    pass


def mk_not(phi: Formula) -> Formula:
    return Implies(phi, Falsum(phi.arity))


def mk_true(arity: int) -> Formula:
    return Implies(Falsum(arity), Falsum(arity))


def extend(env: Environment, value: Any) -> Environment:
    """Push a value for a newly bound index 0; existing values shift up."""
    return (value,) + tuple(env)


def check_env(phi: Formula, env: Sequence[Any]) -> Environment:
    env = tuple(env)
    if len(env) != phi.arity:
        raise ArityError(
            f"environment length {len(env)} does not match arity {phi.arity}"
        )
    return env


def subformulas(phi: Formula) -> Iterator[tuple[Formula, int]]:
    """Every node of phi with its binder depth, pre-order, left side first."""
    todo = [(phi, 0)]
    while todo:
        f, depth = todo.pop()
        if isinstance(f, _Connective):
            todo.append((f.rhs, depth))
            todo.append((f.lhs, depth))
        elif isinstance(f, _Binder):
            todo.append((f.body, depth + 1))
        elif not isinstance(f, (Atom, Falsum)):
            raise TypeError(f"not a Formula: {f!r}")
        yield f, depth


def is_qfree(phi: Formula) -> bool:
    """True when the formula contains no quantifier anywhere."""
    return not any(isinstance(f, _Binder) for f, _ in subformulas(phi))


def eval_qfree(phi: Formula, env: Sequence[Any]) -> bool:
    """Decide a quantifier-free formula under an environment of matching length."""
    env = check_env(phi, env)
    return _eval(phi, env)


def _eval(phi: Formula, env: Environment) -> bool:
    # Iterative: interpreted DNFs chain one connective per product, which
    # for machine-built formulas runs far past the recursion limit.
    todo: list[tuple[Formula, bool]] = [(phi, False)]
    done: list[bool] = []
    while todo:
        f, expanded = todo.pop()
        if expanded:
            rhs = done.pop()
            lhs = done.pop()
            if isinstance(f, Or):
                done.append(lhs or rhs)
            elif isinstance(f, And):
                done.append(lhs and rhs)
            else:
                done.append((not lhs) or rhs)
        elif isinstance(f, Atom):
            done.append(bool(f.atom.holds(env)))
        elif isinstance(f, Falsum):
            done.append(False)
        elif isinstance(f, (Or, And, Implies)):
            todo.append((f, True))
            todo.append((f.rhs, False))
            todo.append((f.lhs, False))
        elif isinstance(f, (Exists, Forall)):
            raise NotQuantifierFree(
                f"eval_qfree on quantified formula: {type(f).__name__} of arity {f.arity}"
            )
        else:
            raise TypeError(f"not a Formula: {f!r}")
    return done[0]


# --- evidence ---------------------------------------------------------------


class Evidence:
    """Base class for constructive proof terms."""

    __slots__ = ()


class Refutation:
    """Base class for constructive disproof terms (the mirror of Evidence)."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class AtomHolds(Evidence):
    pass


@dataclass(frozen=True, slots=True)
class OrLeft(Evidence):
    sub: Evidence


@dataclass(frozen=True, slots=True)
class OrRight(Evidence):
    sub: Evidence


@dataclass(frozen=True, slots=True)
class Both(Evidence):
    left: Evidence
    right: Evidence


@dataclass(frozen=True, slots=True)
class NegAntecedent(Evidence):
    """An implication holds because its antecedent is refuted."""

    refutation: Refutation


@dataclass(frozen=True, slots=True)
class Consequent(Evidence):
    """An implication holds because its consequent holds."""

    evidence: Evidence


@dataclass(frozen=True, slots=True)
class Witness(Evidence):
    """An existential holds at ``value`` with evidence for the body."""

    value: int
    sub: Evidence


@dataclass(frozen=True, slots=True)
class UniversalEvidence(Evidence):
    """Deferred evidence for a universal: yields body evidence on demand.

    The provider is pure and re-entrant; each call recomputes evidence for
    the requested value, so it may be queried any number of times in any
    order.
    """

    provider: Callable[[int], Evidence] = field(compare=False, repr=False)

    def instantiate(self, value: int) -> Evidence:
        return self.provider(value)


@dataclass(frozen=True, slots=True)
class FalsumRefuted(Refutation):
    pass


@dataclass(frozen=True, slots=True)
class AtomFails(Refutation):
    pass


@dataclass(frozen=True, slots=True)
class NeitherHolds(Refutation):
    left: Refutation
    right: Refutation


@dataclass(frozen=True, slots=True)
class LeftFails(Refutation):
    sub: Refutation


@dataclass(frozen=True, slots=True)
class RightFails(Refutation):
    sub: Refutation


@dataclass(frozen=True, slots=True)
class Unimplied(Refutation):
    """An implication fails: the antecedent holds yet the consequent fails."""

    antecedent: Evidence
    consequent: Refutation


@dataclass(frozen=True, slots=True)
class Counterexample(Refutation):
    """A universal fails at ``value`` with a refutation of the body there."""

    value: int
    sub: Refutation


@dataclass(frozen=True, slots=True)
class ExistsRefuted(Refutation):
    """Deferred refutation of an existential: refutes the body at any value."""

    provider: Callable[[int], Refutation] = field(compare=False, repr=False)

    def refute_at(self, value: int) -> Refutation:
        return self.provider(value)


class Decision:
    """Base class: Yes carries Evidence, No carries a Refutation."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Yes(Decision):
    evidence: Evidence


@dataclass(frozen=True, slots=True)
class No(Decision):
    refutation: Refutation


if TYPE_CHECKING:
    # Annotation-only, as in ``dnf``: typing's cache would pin this module.
    Sampler = Callable[[Formula, Environment], Iterable[int]]


# check_evidence's sampler when given none: set by the successor module on
# import, so each import of qelim samples with its own theory.
_default_samples: Sampler | None = None


def check_evidence(
    decision: Decision,
    phi: Formula,
    env: Sequence[Any],
    samples: Sampler | None = None,
) -> bool:
    """Structurally validate a decision against a formula, in one walk.

    Leaves are re-evaluated, witnesses and counterexamples are checked under
    the extended environment, and providers (universal evidence, refuted
    existentials) are spot-checked at a sample of values, by default {0, 1}
    and the successor theory's ``candidates``; other theories pass ``samples``.
    A shape mismatch, or a provider raising at a sampled value, is an invalid
    term: False, never an error.  A provider's ``RecursionError`` or
    ``MemoryError`` is a crash, not a verdict, and propagates, as do a bad
    environment and a failing sampler.
    """
    env = check_env(phi, env)
    sampler = samples if samples is not None else _default_samples
    if isinstance(decision, Yes):
        return _check(decision.evidence, True, phi, env, sampler)
    if isinstance(decision, No):
        return _check(decision.refutation, False, phi, env, sampler)
    return False


def _check(term, holds: bool, phi: Formula, env: Environment, sampler: Sampler) -> bool:
    """Does term show that phi holds under env (holds) or that it fails (not)?"""
    if isinstance(phi, Atom):
        leaf = AtomHolds if holds else AtomFails
        return isinstance(term, leaf) and bool(phi.atom.holds(env)) == holds
    if isinstance(phi, Falsum):
        return not holds and isinstance(term, FalsumRefuted)
    if isinstance(phi, Or):
        if not holds:
            return (
                isinstance(term, NeitherHolds)
                and _check(term.left, False, phi.lhs, env, sampler)
                and _check(term.right, False, phi.rhs, env, sampler)
            )
        if isinstance(term, OrLeft):
            return _check(term.sub, True, phi.lhs, env, sampler)
        if isinstance(term, OrRight):
            return _check(term.sub, True, phi.rhs, env, sampler)
        return False
    if isinstance(phi, And):
        if holds:
            return (
                isinstance(term, Both)
                and _check(term.left, True, phi.lhs, env, sampler)
                and _check(term.right, True, phi.rhs, env, sampler)
            )
        if isinstance(term, LeftFails):
            return _check(term.sub, False, phi.lhs, env, sampler)
        if isinstance(term, RightFails):
            return _check(term.sub, False, phi.rhs, env, sampler)
        return False
    if isinstance(phi, Implies):
        if not holds:
            return (
                isinstance(term, Unimplied)
                and _check(term.antecedent, True, phi.lhs, env, sampler)
                and _check(term.consequent, False, phi.rhs, env, sampler)
            )
        if isinstance(term, NegAntecedent):
            return _check(term.refutation, False, phi.lhs, env, sampler)
        if isinstance(term, Consequent):
            return _check(term.evidence, True, phi.rhs, env, sampler)
        return False
    if not isinstance(phi, (Exists, Forall)):
        raise TypeError(f"not a Formula: {phi!r}")
    if holds == isinstance(phi, Exists):  # a witness or a counterexample settles it
        if not isinstance(term, Witness if holds else Counterexample):
            return False
        return _check(term.sub, holds, phi.body, extend(env, term.value), sampler)
    if not isinstance(term, UniversalEvidence if holds else ExistsRefuted):
        return False
    at = term.instantiate if holds else term.refute_at
    for value in sampler(phi.body, env):
        try:
            sub = at(value)
        except (RecursionError, MemoryError):
            raise  # a crash is not a verdict on the term
        except Exception:
            return False
        if not _check(sub, holds, phi.body, extend(env, value), sampler):
            return False
    return True
