"""Named-variable surface syntax: parsing and pretty-printing.

Grammar, loosest binding first; a quantifier body always extends as far
right as possible::

    formula    := implies
    implies    := or ('->' implies)?          right associative
    or         := and ('|' and)*              left associative
    and        := unary ('&' unary)*          left associative
    unary      := '~' unary | quantified | primary
    quantified := ('forall' | 'exists') name '.' formula
    primary    := '(' formula ')' | 'false' | 'true' | atom
    atom       := term ('=' | '!=') term
    term       := name ('+' nat)? | nat

``x+3`` means three successors of x, a bare natural is a numeral, ``!=`` is
sugar for a negated equation, ``true`` for ``false -> false``.  Free names
are supplied in order: with binders counted innermost first, the name at
position i of ``free_vars`` maps to de Bruijn index (binder depth + i).
Shadowing is allowed; the innermost binder wins.

``pretty`` is the inverse, in one pass linear in its output: bound
variables are named x0, x1, ... in pre-order, skipping any free names,
operands of binary connectives are always parenthesized, ``Implies(p,
Falsum)`` prints as ``~p`` (or with ``!=`` when p is an atom; p is
parenthesized when a binder or a binary connective other than a
negation), and ``Implies(Falsum, Falsum)`` prints as ``true``.
``parse(pretty(phi, ns), ns)`` reproduces phi exactly when the printed
text nests at most ``MAX_NESTING`` deep; every binary connective adds a
level of parentheses, so a longer chain raises ParseError.
"""

from __future__ import annotations

import re
from typing import Callable, Sequence

from .formula import (
    And,
    ArityError,
    Atom,
    Exists,
    Falsum,
    Forall,
    Formula,
    Implies,
    Or,
    mk_not,
)
from .successor import SNAtom, SNTerm


class ParseError(ValueError):
    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnboundNameError(ParseError):
    def __init__(self, name: str, position: int) -> None:
        super().__init__(f"unbound name {name!r}", position)
        self.name = name


_KEYWORDS = {"forall": "FORALL", "exists": "EXISTS", "false": "FALSE", "true": "TRUE"}

_TOKEN_RE = re.compile(
    r"""
      (?P<WS>\s+)
    | (?P<NAME>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<NAT>\d+)
    | (?P<ARROW>->)
    | (?P<NEQ>!=)
    | (?P<SYM>[=|&~().+])
    | (?P<BAD>.)
    """,
    re.VERBOSE | re.DOTALL,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind, value, pos = m.lastgroup, m.group(), m.start()
        if kind == "WS":
            continue
        if kind == "BAD":
            raise ParseError(f"unexpected character {value!r}", pos)
        if kind == "NAME":
            kind = _KEYWORDS.get(value, kind)
        elif kind == "SYM":
            kind = value
        tokens.append((kind, value, pos))
    tokens.append(("EOF", "", len(text)))
    return tokens


# Cap on syntactic nesting (parens, negations, quantifier bodies).  The
# parser is recursive-descent, so unbounded nesting would hit the interpreter
# recursion limit; past the cap it reports a ParseError instead.  Formulas
# deeper than this should be built as ASTs directly.
MAX_NESTING = 100


class SurfaceParser:
    """Recursive-descent parser for the surface grammar; each instance parses once."""

    def __init__(self, text: str, free_vars: Sequence[str] = ()) -> None:
        self.free_vars = list(free_vars)
        if len(set(self.free_vars)) != len(self.free_vars):
            raise ValueError(f"duplicate free variable names: {self.free_vars!r}")
        self.tokens = _tokenize(text)
        self.pos = 0
        self.binders: list[str] = []
        self.used_free_names: set[str] = set()
        self._depth = 0

    def _nested(self, at: int, rule: Callable[[], Formula]) -> Formula:
        self._depth += 1
        if self._depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING}", at)
        phi = rule()
        self._depth -= 1
        return phi

    def parse(self) -> Formula:
        phi = self._implies()
        kind, value, at = self.tokens[self.pos]
        if kind != "EOF":
            raise ParseError(f"trailing input {value!r}", at)
        return phi

    # token plumbing

    def _peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def _advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    @property
    def _arity(self) -> int:
        return len(self.binders) + len(self.free_vars)

    # grammar rules

    def _implies(self) -> Formula:
        parts = [self._or()]
        while self._peek()[0] == "ARROW":
            self._advance()
            parts.append(self._or())
        node = parts[-1]
        for part in reversed(parts[:-1]):
            node = Implies(part, node)
        return node

    def _or(self) -> Formula:
        node = self._and()
        while self._peek()[0] == "|":
            self._advance()
            node = Or(node, self._and())
        return node

    def _and(self) -> Formula:
        node = self._unary()
        while self._peek()[0] == "&":
            self._advance()
            node = And(node, self._unary())
        return node

    def _unary(self) -> Formula:
        kind, _, at = self._peek()
        if kind == "~":
            self._advance()
            return mk_not(self._nested(at, self._unary))
        if kind in ("FORALL", "EXISTS"):
            return self._quantified()
        return self._primary()

    def _quantified(self) -> Formula:
        kind, _, at = self._advance()
        _, name, _ = self._expect("NAME")
        self._expect(".")
        self.binders.insert(0, name)
        body = self._nested(at, self._implies)
        self.binders.pop(0)
        return Exists(body) if kind == "EXISTS" else Forall(body)

    def _primary(self) -> Formula:
        kind, value, at = self._peek()
        if kind == "(":
            self._advance()
            phi = self._nested(at, self._implies)
            self._expect(")")
            return phi
        if kind == "FALSE":
            self._advance()
            return Falsum(self._arity)
        if kind == "TRUE":
            self._advance()
            return Implies(Falsum(self._arity), Falsum(self._arity))
        if kind in ("NAME", "NAT"):
            return self._atom()
        raise ParseError(f"expected a formula, found {value!r}", at)

    def _atom(self) -> Formula:
        lhs = self._term()
        kind, value, at = self._advance()
        if kind not in ("=", "NEQ"):
            raise ParseError(f"expected '=' or '!=', found {value!r}", at)
        rhs = self._term()
        node = Atom(SNAtom(lhs, rhs), self._arity)
        return node if kind == "=" else mk_not(node)

    def _term(self) -> SNTerm:
        kind, value, at = self._advance()
        if kind == "NAT":
            return SNTerm(None, _numeral(value, at))
        if kind != "NAME":
            raise ParseError(f"expected a term, found {value!r}", at)
        index = self._resolve(value, at)
        shift = 0
        if self._peek()[0] == "+":
            self._advance()
            _, nat, nat_at = self._expect("NAT")
            shift = _numeral(nat, nat_at)
        return SNTerm(index, shift)

    def _resolve(self, name: str, at: int) -> int:
        for depth, bound in enumerate(self.binders):
            if bound == name:
                return depth
        if name in self.free_vars:
            self.used_free_names.add(name)
            return len(self.binders) + self.free_vars.index(name)
        raise UnboundNameError(name, at)


def _numeral(digits: str, at: int) -> int:
    try:
        return int(digits)
    except ValueError:  # longer than the interpreter's int() digit limit
        raise ParseError(f"numeral of {len(digits)} digits is too long", at) from None


def parse(text: str, free_vars: Sequence[str] = ()) -> Formula:
    """Parse surface syntax into a formula of arity len(free_vars)."""
    return SurfaceParser(text, free_vars).parse()


_JOINS = {Implies: ") -> (", Or: ") | (", And: ") & ("}


def pretty(phi: Formula, free_names: Sequence[str] = ()) -> str:
    """Render a formula; inverse of parse for the same free names."""
    free_names = tuple(free_names)
    if len(free_names) != phi.arity:
        raise ArityError(
            f"{len(free_names)} names supplied for a formula of arity {phi.arity}"
        )
    taken = set(free_names)
    counter = 0

    def term(t: SNTerm, names: tuple[str, ...]) -> str:
        if t.is_zero:
            return str(t.shift)
        base = names[t.index]
        return f"{base}+{t.shift}" if t.shift else base

    # Iterative pre-order, left subtree first, naming binders as met: DNFs
    # chain one connective per product, far past the recursion limit.  The
    # stack holds nodes to print and the text to emit after them.
    out: list[str] = []
    todo: list = [(phi, free_names)]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        f, names = item
        if isinstance(f, Falsum):
            out.append("false")
        elif isinstance(f, Atom):
            out.append(f"{term(f.atom.lhs, names)} = {term(f.atom.rhs, names)}")
        elif isinstance(f, Implies) and isinstance(f.rhs, Falsum):
            p = f.lhs
            if isinstance(p, Falsum):
                out.append("true")
            elif isinstance(p, Atom):
                out.append(f"{term(p.atom.lhs, names)} != {term(p.atom.rhs, names)}")
            else:
                nested = isinstance(p, Implies) and isinstance(p.rhs, Falsum)
                out.append("~" if nested else "~(")
                if not nested:
                    todo.append(")")
                todo.append((p, names))
        elif isinstance(f, (Implies, Or, And)):
            # Binary-connective operands are always parenthesized.
            out.append("(")
            todo.append(")")
            todo.append((f.rhs, names))
            todo.append(_JOINS[type(f)])
            todo.append((f.lhs, names))
        elif isinstance(f, (Exists, Forall)):
            while f"x{counter}" in taken:
                counter += 1
            name = f"x{counter}"
            counter += 1
            out.append(f"{'exists' if isinstance(f, Exists) else 'forall'} {name}. ")
            todo.append((f.body, (name,) + names))
        else:
            raise TypeError(f"not a Formula: {f!r}")
    return "".join(out)
