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

The text is split into token strings by one regex pass, which the parser
reads by index.  Whitespace separates tokens; any other character no token
covers is a ParseError.  Positions, for error messages, are found by a
second, positional scan only when raising.

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


_KEYWORDS = frozenset({"forall", "exists", "false", "true"})

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN = rf"{_NAME_RE.pattern}|\d+|->|!=|[=|&~().+]"
_TOKEN_RE = re.compile(_TOKEN)
# The positional scan: each match is whitespace, a token or a character that
# no token covers, so it meets the tokens where ``findall`` does.
_SCAN_RE = re.compile(rf"(?P<WS>\s+)|(?P<TOKEN>{_TOKEN})|(?P<BAD>.)", re.DOTALL)


def _tokenize(text: str) -> list[str]:
    """The tokens of text, then "" for its end; ParseError at a bad character."""
    tokens = _TOKEN_RE.findall(text)
    # findall skips what no token covers: whitespace, and any bad character.
    if "".join(tokens) != "".join(text.split()):
        _positions(text)  # raises at the first bad character
    tokens.append("")
    return tokens


def _positions(text: str) -> list[int]:
    """Where each token of text starts, then len(text); ParseError at a bad character."""
    positions = []
    for m in _SCAN_RE.finditer(text):
        if m.lastgroup == "BAD":
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        if m.lastgroup == "TOKEN":
            positions.append(m.start())
    positions.append(len(text))
    return positions


def _is_name(token: str) -> bool:
    """Whether a token is a name: of the tokens, only names and keywords are identifiers."""
    return token.isidentifier() and token not in _KEYWORDS


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
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.binders: list[str] = []
        self.used_free_names: set[str] = set()
        self._depth = 0

    def _error(self, message: str, at: int) -> ParseError:
        """A ParseError at the token with index at."""
        return ParseError(message, _positions(self.text)[at])

    def _nested(self, at: int, rule: Callable[[], Formula]) -> Formula:
        self._depth += 1
        if self._depth > MAX_NESTING:
            raise self._error(f"nesting deeper than {MAX_NESTING}", at)
        phi = rule()
        self._depth -= 1
        return phi

    def parse(self) -> Formula:
        phi = self._implies()
        if self.tokens[self.pos]:
            raise self._error(f"trailing input {self.tokens[self.pos]!r}", self.pos)
        return phi

    def _expect(self, symbol: str) -> None:
        token = self.tokens[self.pos]
        if token != symbol:
            raise self._error(f"expected {symbol!r}, found {token!r}", self.pos)
        self.pos += 1

    @property
    def _arity(self) -> int:
        return len(self.binders) + len(self.free_vars)

    # grammar rules

    def _implies(self) -> Formula:
        parts = [self._or()]
        while self.tokens[self.pos] == "->":
            self.pos += 1
            parts.append(self._or())
        node = parts[-1]
        for part in reversed(parts[:-1]):
            node = Implies(part, node)
        return node

    def _or(self) -> Formula:
        node = self._and()
        while self.tokens[self.pos] == "|":
            self.pos += 1
            node = Or(node, self._and())
        return node

    def _and(self) -> Formula:
        node = self._unary()
        while self.tokens[self.pos] == "&":
            self.pos += 1
            node = And(node, self._unary())
        return node

    def _unary(self) -> Formula:
        at = self.pos
        token = self.tokens[at]
        if token == "~":
            self.pos += 1
            return mk_not(self._nested(at, self._unary))
        if token == "forall" or token == "exists":
            return self._quantified()
        return self._primary()

    def _quantified(self) -> Formula:
        at = self.pos
        keyword, name = self.tokens[at], self.tokens[at + 1]
        if not _is_name(name):
            raise self._error(f"expected 'NAME', found {name!r}", at + 1)
        self.pos += 2
        self._expect(".")
        self.binders.insert(0, name)
        body = self._nested(at, self._implies)
        self.binders.pop(0)
        return Exists(body) if keyword == "exists" else Forall(body)

    def _primary(self) -> Formula:
        at = self.pos
        token = self.tokens[at]
        if token == "(":
            self.pos += 1
            phi = self._nested(at, self._implies)
            self._expect(")")
            return phi
        if token == "false":
            self.pos += 1
            return Falsum(self._arity)
        if token == "true":
            self.pos += 1
            return Implies(Falsum(self._arity), Falsum(self._arity))
        # A numeral, or a name: the other keywords do not reach here.
        if token.isdecimal() or token.isidentifier():
            return self._atom()
        raise self._error(f"expected a formula, found {token!r}", at)

    def _atom(self) -> Formula:
        lhs = self._term()
        at = self.pos
        relation = self.tokens[at]
        if relation != "=" and relation != "!=":
            raise self._error(f"expected '=' or '!=', found {relation!r}", at)
        self.pos += 1
        rhs = self._term()
        node = Atom(SNAtom(lhs, rhs), self._arity)
        return node if relation == "=" else mk_not(node)

    def _term(self) -> SNTerm:
        at = self.pos
        token = self.tokens[at]
        self.pos += 1
        if token.isdecimal():
            return SNTerm(None, self._numeral(at))
        if not _is_name(token):
            raise self._error(f"expected a term, found {token!r}", at)
        index = self._resolve(token, at)
        shift = 0
        if self.tokens[self.pos] == "+":
            at = self.pos + 1
            if not self.tokens[at].isdecimal():
                raise self._error(f"expected 'NAT', found {self.tokens[at]!r}", at)
            shift = self._numeral(at)
            self.pos += 2
        return SNTerm(index, shift)

    def _numeral(self, at: int) -> int:
        digits = self.tokens[at]
        try:
            return int(digits)
        except ValueError:  # longer than the interpreter's int() digit limit
            raise self._error(f"numeral of {len(digits)} digits is too long", at) from None

    def _resolve(self, name: str, at: int) -> int:
        for depth, bound in enumerate(self.binders):
            if bound == name:
                return depth
        if name in self.free_vars:
            self.used_free_names.add(name)
            return len(self.binders) + self.free_vars.index(name)
        raise UnboundNameError(name, _positions(self.text)[at])


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
