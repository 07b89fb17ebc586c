"""Named-variable surface syntax: parsing, precedence, pretty-printing, roundtrips."""

import re
from random import Random

import pytest

from qelim import (
    And,
    ArityError,
    Atom,
    Exists,
    Falsum,
    Forall,
    Implies,
    Or,
    ParseError,
    SNAtom,
    UnboundNameError,
    mk_not,
    mk_true,
    parse,
    pretty,
    var_term,
    zero_term,
)
from qelim.parser import _SCAN_RE, _tokenize
from randgen import random_formula
from samples import sample0, sample1, sample2_body


def test_parse_bundled_formulas():
    assert parse("exists x. exists y. x+3 = y+1 & 8 = y+4") == sample0()
    assert parse("false") == Falsum(0)
    assert parse("forall x. x = 0 | exists y. x = y+1") == sample1()


def test_parse_precedence():
    names = ["a", "b", "c"]
    a = Atom(SNAtom(var_term(0), zero_term(0)), 3)
    b = Atom(SNAtom(var_term(1), zero_term(0)), 3)
    c = Atom(SNAtom(var_term(2), zero_term(0)), 3)
    assert parse("a = 0 & b = 0 | c = 0", names) == Or(And(a, b), c)
    assert parse("a = 0 -> b = 0 -> c = 0", names) == Implies(a, Implies(b, c))


def test_parse_parens_restrict_quantifier_scope():
    scoped = parse("(exists x. x = 0) -> false")
    body = Atom(SNAtom(var_term(0), zero_term(0)), 1)
    assert scoped == Implies(Exists(body), Falsum(0))
    unscoped = parse("exists x. x = 0 -> false")
    assert unscoped == Exists(Implies(body, Falsum(1)))


def test_parse_shadowing_binds_innermost():
    assert parse("exists x. exists x. x = 0") == Exists(
        Exists(Atom(SNAtom(var_term(0), zero_term(0)), 2))
    )


def test_parse_sugar():
    assert parse("x != 0", ["x"]) == mk_not(Atom(SNAtom(var_term(0), zero_term(0)), 1))
    assert parse("true") == mk_true(0)
    assert parse("~x = 0", ["x"]) == mk_not(Atom(SNAtom(var_term(0), zero_term(0)), 1))


def test_parse_numerals_and_shifts():
    assert parse("x+2 = 7", ["x"]) == Atom(SNAtom(var_term(0, 2), zero_term(7)), 1)
    assert parse("3 = 3") == Atom(SNAtom(zero_term(3), zero_term(3)), 0)


def test_parse_free_variable_indices():
    assert parse("x = y", ["x", "y"]) == Atom(SNAtom(var_term(0), var_term(1)), 2)
    assert parse("exists z. z = x", ["x"]) == Exists(
        Atom(SNAtom(var_term(0), var_term(1)), 2)
    )


def test_parse_rejects_duplicate_free_names():
    with pytest.raises(ValueError):
        parse("x = 0", ["x", "x"])


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as info:
        parse("x = ", ["x"])
    assert isinstance(info.value.position, int)
    with pytest.raises(ParseError):
        parse("(x = 0", ["x"])
    with pytest.raises(ParseError):
        parse("exists x.")
    # Numerals past the interpreter's int() digit limit, as constant and shift.
    with pytest.raises(ParseError):
        parse("exists x. x = " + "9" * 5000)
    with pytest.raises(ParseError):
        parse("x+" + "9" * 5000 + " = 0", ["x"])
    # Characters outside the grammar: mid-text, after a newline, non-ASCII,
    # and last.
    for text, position, char in [
        ("x = 0 # y", 6, "#"),
        ("x = 0\n| x = $", 12, "$"),
        ("x = 0 | é = 0", 8, "é"),
        ("x = 0!", 5, "!"),
    ]:
        with pytest.raises(ParseError) as info:
            parse(text, ["x"])
        assert info.value.position == position
        assert str(info.value) == (
            f"unexpected character {char!r} (at position {position})"
        )
    # Input left over after a formula, and a term with no relation after it.
    for text, position, message in [
        ("x = 0 )", 6, "trailing input ')'"),
        ("x & x = 0", 2, "expected '=' or '!=', found '&'"),
    ]:
        with pytest.raises(ParseError) as info:
            parse(text, ["x"])
        assert info.value.position == position
        assert str(info.value) == f"{message} (at position {position})"


def test_tokens_and_error_positions_match_the_positional_scan():
    # Texts of keywords, names, numerals and symbols over mixed whitespace,
    # Unicode whitespace too; run together where no space falls between.
    rng = Random(53)
    pieces = ["forall", "exists", "false", "true", "->", "!=", "=", "|", "&", "~", "(",
              ")", ".", "+", "x", "y1", "_z", "0", "42", "x+3", "٣"]
    spaces = ["", " ", "  ", "\t", "\n", "\r\n", "\xa0", "\u2003", "\x1c"]
    named = re.compile(r"(?:found|input|name) '(.*)'")
    for _ in range(500):
        parts = [rng.choice(spaces) + rng.choice(pieces) for _ in range(rng.randint(1, 12))]
        text = "".join(parts) + rng.choice(spaces)
        scanned = [m for m in _SCAN_RE.finditer(text) if m.lastgroup == "TOKEN"]
        assert _tokenize(text) == [m.group() for m in scanned] + [""]
        # A grammar error sits at the token it names, or at the end.
        try:
            parse(text, ["x"])
        except ParseError as exc:
            token = named.search(str(exc)).group(1)
            assert exc.position in [m.start() for m in scanned] + [len(text)]
            assert text[exc.position:].startswith(token)
            assert bool(token) == (exc.position < len(text))
        # One character no token covers, put between two pieces, is reported
        # where it stands.
        at = len("".join(parts[: rng.randint(0, len(parts))]))
        bad = rng.choice("#$@^é\x00ß")
        with pytest.raises(ParseError) as info:
            parse(text[:at] + bad + text[at:], ["x"])
        assert info.value.position == at
        assert str(info.value) == f"unexpected character {bad!r} (at position {at})"


def test_unbound_name_error():
    with pytest.raises(UnboundNameError) as info:
        parse("x = 0")
    assert info.value.name == "x"


def test_pretty_pinned_renderings():
    assert pretty(Falsum(0)) == "false"
    assert pretty(sample2_body(), ["x"]) == "(x = 0) | (exists x0. x = x0+2)"
    assert pretty(mk_not(Atom(SNAtom(var_term(0), zero_term(0)), 1)), ["x"]) == "x != 0"
    assert pretty(mk_true(0)) == "true"
    assert pretty(Exists(Atom(SNAtom(var_term(0), zero_term(0)), 1))) == "exists x0. x0 = 0"
    assert (
        pretty(Forall(Or(Atom(SNAtom(var_term(0), zero_term(0)), 1), Falsum(1))))
        == "forall x0. (x0 = 0) | (false)"
    )
    # ``~`` parenthesizes a binder or a binary connective, never a negation.
    a = Atom(SNAtom(var_term(0), zero_term(0)), 1)
    b = Atom(SNAtom(var_term(0), zero_term(1)), 1)
    y_is_x = Atom(SNAtom(var_term(0), var_term(1)), 2)
    for phi, text in [
        (mk_not(mk_not(a)), "~x != 0"),
        (mk_not(mk_true(1)), "~true"),
        (mk_not(Or(a, b)), "~((x = 0) | (x = 1))"),
        (mk_not(Implies(a, b)), "~((x = 0) -> (x = 1))"),
        (mk_not(mk_not(And(a, b))), "~~((x = 0) & (x = 1))"),
        (mk_not(Exists(y_is_x)), "~(exists x0. x0 = x)"),
        (mk_not(Forall(mk_not(y_is_x))), "~(forall x0. x0 != x)"),
    ]:
        assert pretty(phi, ["x"]) == text
        assert parse(text, ["x"]) == phi


def test_pretty_skips_taken_names():
    phi = Exists(Atom(SNAtom(var_term(0), var_term(1)), 2))
    assert pretty(phi, ["x0"]) == "exists x1. x1 = x0"


def test_pretty_name_count_must_match_arity():
    with pytest.raises(ArityError):
        pretty(Falsum(1), [])
    with pytest.raises(ArityError):
        pretty(Falsum(0), ["x"])


def test_pretty_handles_wide_disjunctions():
    phi = Atom(SNAtom(var_term(0), zero_term(0)), 1)
    for k in range(1, 1500):
        phi = Or(Atom(SNAtom(var_term(0), zero_term(k)), 1), phi)
    text = pretty(phi, ["x"])
    assert text.startswith("(x = 1499) | ((x = 1498)")

    modest = Atom(SNAtom(var_term(0), zero_term(0)), 1)
    for k in range(1, 90):
        modest = Or(Atom(SNAtom(var_term(0), zero_term(k)), 1), modest)
    assert parse(pretty(modest, ["x"]), ["x"]) == modest


def test_parse_nesting_cap():
    shallow = "(" * 50 + "x = 0" + ")" * 50
    assert parse(shallow, ["x"]) == Atom(SNAtom(var_term(0), zero_term(0)), 1)
    deep = "(" * 101 + "x = 0" + ")" * 101
    with pytest.raises(ParseError) as info:
        parse(deep, ["x"])
    assert "nesting" in str(info.value)


def test_parse_long_implication_chain():
    text = " -> ".join(["x = 0"] * 500)
    phi = parse(text, ["x"])
    atom = Atom(SNAtom(var_term(0), zero_term(0)), 1)
    depth = 0
    while isinstance(phi, Implies):
        assert phi.lhs == atom
        phi = phi.rhs
        depth += 1
    assert phi == atom
    assert depth == 499


def test_roundtrip():
    rng = Random(51)
    names = ("x", "y")
    for _ in range(1000):
        arity = rng.randint(0, 2)
        phi = random_formula(rng, arity, rng.randint(1, 5), 3)
        text = pretty(phi, names[:arity])
        assert parse(text, names[:arity]) == phi, text
