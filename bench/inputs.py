"""Seeded input generators for the three workloads.

Generators emit plain JSON-able data and never touch the library, so the
inputs of a seed, and their digest, stay the same whatever later commits
change in ``qelim``.  ``build`` turns the plain form into library objects.

Plain formulas use de Bruijn indices like the library:

    ["eq", [index or None, shift], [index or None, shift]]   S^s(t) = S^s'(t')
    ["false"]
    ["or" | "and" | "imp", lhs, rhs]
    ["ex" | "all", body]

Negation is ``["imp", phi, ["false"]]``, matching ``mk_not``.
"""

from __future__ import annotations

import hashlib
import json
from random import Random

FALSE = ["false"]


def neg(phi: list) -> list:
    return ["imp", phi, FALSE]


def chain(op: str, parts: list) -> list:
    """Left-nested chain, as the parser builds ``a | b | c``."""
    acc = parts[0]
    for part in parts[1:]:
        acc = [op, acc, part]
    return acc


def quantifiers(phi: list) -> int:
    todo, count = [phi], 0
    while todo:
        f = todo.pop()
        count += f[0] in ("ex", "all")
        if f[0] not in ("eq", "false"):
            todo.extend(f[1:])
    return count


# --- random-decide: the acceptance corpus5 family, made deeper --------------

RD_MAX_DEPTH = 7
RD_QUANTIFIERS = 4
RD_MAX_SHIFT = 6
RD_MAX_ENV = 8
# Binders never nest, and a binder's body is at most this deep and has a
# naive DNF of at most RD_MAX_NAIVE_PRODUCTS products in either polarity.
# Nested binders (even a forall over an exists on eight atoms) and deeper
# bodies sometimes exceed the 10^4 product ceiling today; those cases are in
# the alternation-deep probe, not in a driver workload, where no op may fail.
RD_BODY_DEPTH = 5
RD_MAX_NAIVE_PRODUCTS = 2000


def naive_products(phi: list) -> tuple[int, int]:
    """Products of the textbook DNF of phi and of its negation, without
    simplification: an upper bound that does not depend on the library."""
    kind = phi[0]
    if kind == "eq":
        return 1, 1
    if kind == "false":
        return 0, 1
    (ap, an), (bp, bn) = naive_products(phi[1]), naive_products(phi[2])
    if kind == "or":
        return ap + bp, an * bn
    if kind == "and":
        return ap * bp, an + bn
    return an + bp, ap * bn  # imp


def _rd_term(rng: Random, arity: int) -> list:
    shift = rng.randint(0, RD_MAX_SHIFT)
    if arity > 0 and rng.random() < 0.7:
        return [rng.randrange(arity), shift]
    return [None, shift]


def _rd_leaf(rng: Random, arity: int) -> list:
    if rng.random() < 0.12:
        return FALSE
    return ["eq", _rd_term(rng, arity), _rd_term(rng, arity)]


def _rd_formula(rng: Random, arity: int, depth: int, budget: int) -> list:
    """Random formula with at most ``budget`` binders, none under another."""
    if depth == 0 or rng.random() < 0.25:
        return _rd_leaf(rng, arity)
    kinds = ["or", "and", "imp"]
    if budget > 0:
        kinds += ["ex", "all"]
    kind = rng.choice(kinds)
    if kind in ("ex", "all"):
        while True:
            body = _rd_formula(rng, arity + 1, min(depth - 1, RD_BODY_DEPTH), 0)
            if max(naive_products(body)) <= RD_MAX_NAIVE_PRODUCTS:
                return [kind, body]
    lhs = _rd_formula(rng, arity, depth - 1, budget)
    rhs = _rd_formula(rng, arity, depth - 1, budget - quantifiers(lhs))
    return [kind, lhs, rhs]


def random_decide(rng: Random):
    while True:
        arity = rng.randint(0, 2)
        phi = _rd_formula(rng, arity, rng.randint(1, RD_MAX_DEPTH), RD_QUANTIFIERS)
        env = [rng.randint(0, RD_MAX_ENV) for _ in range(arity)]
        yield {"phi": phi, "arity": arity, "env": env}


# --- alternation: alternating prefix over a chain of small clauses -----------

# One block of the schedule: (binders k, outermost binder, fewest and most
# literals per clause).  Each formula has at most three atoms.  With four
# atoms the product ceiling is sometimes tripped today (about once in 30000
# draws of k=3 starting with forall on two 2-literal clauses, once in 300 of
# k=5 starting with forall), and the driver runs see a few hundred thousand
# ops, so those families are in ALT_DEEP_BLOCK, outside the driver workloads.
# A fixed mix per block makes runs on different seeds weigh the cases alike;
# the seed shuffles each block and draws the clauses.
ALT_BLOCK = (
    ((2, "all", 2, 3),) * 3
    + ((2, "ex", 2, 3),) * 3
    + ((3, "all", 1, 1), (3, "ex", 1, 1))
    + ((4, "all", 1, 1),) * 2
    + ((4, "ex", 1, 1),) * 2
)
# Known blow-ups, for the alternation-deep probe: each of these trips the
# 10^4 product ceiling or raises RecursionError on some draws today, the
# k=4 and k=5 ones on most.
ALT_DEEP_BLOCK = (
    (3, "all", 2, 3),
    (3, "ex", 2, 3),
    (4, "all", 2, 3),
    (4, "ex", 2, 3),
    (5, "all", 1, 1),
    (5, "ex", 2, 3),
)
ALT_MAX_SHIFT = 3
ALT_MAX_CONST = 6


def _alt_literal(rng: Random, k: int, i: int) -> list:
    def var(j: int) -> list:
        return [k - 1 - j, rng.randint(0, ALT_MAX_SHIFT)]

    if rng.random() < 0.75:
        a, b = (i, i + 1) if rng.random() < 0.5 else (i + 1, i)
        atom = ["eq", var(a), var(b)]
    else:
        atom = ["eq", var(rng.choice((i, i + 1))), [None, rng.randint(0, ALT_MAX_CONST)]]
    return neg(atom) if rng.random() < 0.4 else atom


def _alt_formula(rng: Random, k: int, outer: str, lo: int, hi: int) -> list:
    clauses = [
        chain("or", [_alt_literal(rng, k, i) for _ in range(rng.randint(lo, hi))])
        for i in range(k - 1)
    ]
    body = clauses[-1]
    for clause in reversed(clauses[:-1]):
        body = ["and", clause, body]
    inner = "ex" if outer == "all" else "all"
    for j in reversed(range(k)):
        body = [outer if j % 2 == 0 else inner, body]
    return body


def _alternating(blocks: tuple):
    def generate(rng: Random):
        while True:
            block = list(blocks)
            rng.shuffle(block)
            for k, outer, lo, hi in block:
                yield {"k": k, "phi": _alt_formula(rng, k, outer, lo, hi)}

    return generate


alternation = _alternating(ALT_BLOCK)
alternation_deep = _alternating(ALT_DEEP_BLOCK)


# --- cli-wide: one quantifier over a flat chain, through the CLI -------------

CLI_SHAPES = ("exists-or-const", "exists-or-free", "exists-and-neq", "forall-or-neq")
# Timed ops all have this many atoms, so the median and the tail are taken
# over like ops: over a ladder of sizes they sit where latency climbs
# steeply with size, and moved by 15-20% between runs of one seed.
CLI_ATOMS = 64
# Geometric size ladder, 16 to 160 atoms, for the traced run's fixed op set:
# every shape at every size once, for the latency-against-atoms slope.
CLI_SIZES = (16, 20, 25, 32, 40, 50, 64, 80, 100, 125, 160)
CLI_FREE = ("a", "b", "c", "d")
CLI_MAX_SHIFT = 4
CLI_MAX_CONST = 40
CLI_MAX_ENV = 12


def _cli_side(rng: Random, free_share: float) -> tuple:
    """Right side of ``x+s = ...``: a free name with a shift, or a constant."""
    if rng.random() < free_share:
        return rng.choice(CLI_FREE), rng.randint(0, CLI_MAX_SHIFT)
    return None, rng.randint(0, CLI_MAX_CONST)


def _cli_case(rng: Random, shape: str, size: int) -> dict:
    quant, op = {
        "exists-or-const": ("ex", "or"),
        "exists-or-free": ("ex", "or"),
        "exists-and-neq": ("ex", "and"),
        "forall-or-neq": ("all", "or"),
    }[shape]
    free_share = {"exists-or-const": 0.0, "exists-or-free": 0.75}.get(shape, 0.25)
    rel = "!=" if shape.endswith("-neq") else "="
    # (shift of x, free name or None, shift or constant, x written on the right)
    drawn = [
        (rng.randint(0, CLI_MAX_SHIFT), *_cli_side(rng, free_share), rng.random() < 0.3)
        for _ in range(size)
    ]
    names = sorted({name for _, name, _, _ in drawn if name is not None})
    # Binder x is index 0; the free name at position i of the --env list is 1 + i.
    index = {name: 1 + i for i, name in enumerate(names)}
    parts, texts = [], []
    for s, name, t, flipped in drawn:
        x_plain, x_text = [0, s], f"x+{s}" if s else "x"
        if name is None:
            other_plain, other_text = [None, t], str(t)
        else:
            other_plain, other_text = [index[name], t], f"{name}+{t}" if t else name
        if flipped:
            atom = ["eq", other_plain, x_plain]
            texts.append(f"{other_text} {rel} {x_text}")
        else:
            atom = ["eq", x_plain, other_plain]
            texts.append(f"{x_text} {rel} {other_text}")
        parts.append(neg(atom) if rel == "!=" else atom)
    word = "exists" if quant == "ex" else "forall"
    joiner = " | " if op == "or" else " & "
    return {
        "shape": shape,
        "atoms": size,
        "text": f"{word} x. " + joiner.join(texts),
        "names": names,
        "env": [rng.randint(0, CLI_MAX_ENV) for _ in names],
        "phi": [quant, chain(op, parts)],
    }


def _cli_blocks(sizes: tuple):
    def generate(rng: Random):
        while True:
            block = [(shape, size) for shape in CLI_SHAPES for size in sizes]
            rng.shuffle(block)
            for shape, size in block:
                yield _cli_case(rng, shape, size)

    return generate


cli_wide = _cli_blocks((CLI_ATOMS,))
cli_ladder = _cli_blocks(CLI_SIZES)


GENERATORS = {
    "random-decide": random_decide,
    "alternation": alternation,
    "cli-wide": cli_wide,
    "alternation-deep": alternation_deep,
}


class Stream:
    """The seed's input sequence: a prefix made during set-up, the rest made
    on demand and not kept, so memory does not grow with throughput."""

    def __init__(self, name: str, seed: int, prefix: int, generator=None) -> None:
        self._gen = (generator or GENERATORS[name])(Random(f"{name}:{seed}"))
        self.items = [next(self._gen) for _ in range(prefix)]
        self.digest = hashlib.sha256(
            json.dumps(self.items, separators=(",", ":")).encode()
        ).hexdigest()[:16]

    def after_prefix(self) -> dict:
        """The next input past the prefix."""
        return next(self._gen)
