"""Test oracles for the successor theory: size counters and a naive decider.

The decider enumerates every quantifier over a bound read from the whole
formula; the tests use it to cross-check ``oracle_decide`` on small closed
formulas, and the random generators use the counters.
"""

from typing import Sequence

from qelim import And, Atom, Exists, Falsum, Forall, Formula, Implies, Or, atom_eval
from qelim.formula import Environment, check_env, extend, subformulas


def quantifier_count(phi: Formula) -> int:
    return sum(isinstance(f, (Exists, Forall)) for f, _ in subformulas(phi))


def atom_count(phi: Formula) -> int:
    return sum(isinstance(f, Atom) for f, _ in subformulas(phi))


def max_shift(phi: Formula) -> int:
    atoms = [f.atom for f, _ in subformulas(phi) if isinstance(f, Atom)]
    return max((max(a.lhs.shift, a.rhs.shift) for a in atoms), default=0)


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
