"""Command line front end.

Subcommands::

    qelim decide FORMULA [--env name=value ...] [--evidence]
                 [--instantiate N ...] [--json] [--dnf-limit N]
    qelim eliminate FORMULA [--env ...] [--json] [--dnf-limit N]
    qelim oracle FORMULA [--env ...] [--json] [--dnf-limit N]
    qelim split FORMULA [--json] [--dnf-limit N]

Environment bindings give the formula's free variables in the order the
``--env`` flags appear; their names must be exactly the free names used by
the formula.  ``split`` takes a formula with exactly one free variable,
which it quantifies over itself.

Exit status: 0 the formula holds, 1 it does not (or a counterexample was
found), 2 usage or parse error (including the DNF size ceiling), 3 internal
inconsistency (the decision procedure and the oracle disagree, an engine
invariant broke, or any other unexpected error, printed with its traceback).
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from typing import Sequence

from .dnf import DnfLimitError
from .engine import (
    EngineError,
    decide,
    forall_or_counterexample,
    instantiate_universal,
    lift,
    lift_qe,
)
from .formula import (
    Both,
    Consequent,
    Counterexample,
    Evidence,
    OrLeft,
    OrRight,
    UniversalEvidence,
    Witness,
    Yes,
)
from .parser import (
    _KEYWORDS, _TOKEN_RE, ParseError, SurfaceParser, UnboundNameError, pretty
)
from .successor import STEP, UnsatisfiableProductError, oracle_decide

DEFAULT_DNF_LIMIT = 10000


class UsageError(ValueError):
    pass


def _parse_env(pairs: Sequence[str]) -> tuple[list[str], tuple[int, ...]]:
    names: list[str] = []
    values: list[int] = []
    for pair in pairs:
        name, sep, raw = pair.partition("=")
        if not sep:
            raise UsageError(f"--env expects name=value, got {pair!r}")
        token = _TOKEN_RE.fullmatch(name)
        if not token or token.lastgroup != "NAME" or name in _KEYWORDS:
            raise UsageError(f"--env name {name!r} is not a usable variable name")
        if name in names:
            raise UsageError(f"--env name {name!r} given twice")
        try:
            value = _int_at_least(0)(raw)
        except (ValueError, argparse.ArgumentTypeError):
            raise UsageError(f"--env value for {name!r} must be a natural: {raw!r}")
        names.append(name)
        values.append(value)
    return names, tuple(values)


def _int_at_least(low: int):
    """argparse type: an integer no smaller than low."""

    def integer(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as an invalid value
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return integer


def _parse_formula(text: str, names: Sequence[str]):
    parser = SurfaceParser(text, names)
    phi = parser.parse()
    unused = set(names) - parser.used_free_names
    if unused:
        raise UsageError(
            f"--env names not free in the formula: {', '.join(sorted(unused))}"
        )
    return phi


def _witnesses(ev: Evidence) -> list[int]:
    """Existential witness values along the satisfying path, outermost first."""
    if isinstance(ev, Witness):
        return [ev.value] + _witnesses(ev.sub)
    if isinstance(ev, (OrLeft, OrRight)):
        return _witnesses(ev.sub)
    if isinstance(ev, Both):
        return _witnesses(ev.left) + _witnesses(ev.right)
    if isinstance(ev, Consequent):
        return _witnesses(ev.evidence)
    return []


def _emit(payload: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(json.dumps(payload))
    else:
        for line in lines:
            print(line)


def _cmd_decide(args: argparse.Namespace) -> int:
    names, values = _parse_env(args.env)
    phi = _parse_formula(args.formula, names)
    lifted = lift(STEP, phi, max_products=args.dnf_limit)
    decision = lifted.decide(values)
    payload: dict = {"qf_equivalent": pretty(lifted.qf, names)}
    lines: list[str] = []
    if isinstance(decision, Yes):
        payload["result"] = "yes"
        lines.append("yes")
        wits = _witnesses(decision.evidence)
        if wits:
            payload["witnesses"] = wits
        code = 0
        if args.evidence:
            if wits:
                lines.append("witnesses: " + " ".join(str(w) for w in wits))
            if isinstance(decision.evidence, UniversalEvidence):
                lines.append("universal evidence: instantiable at any value")
                for value in args.instantiate:
                    sub = instantiate_universal(decision.evidence, value)
                    inner = _witnesses(sub)
                    note = f"at {value}: holds"
                    if inner:
                        note += " (witnesses: " + " ".join(str(w) for w in inner) + ")"
                    lines.append(note)
    else:
        payload["result"] = "no"
        lines.append("no")
        code = 1
        if isinstance(decision.refutation, Counterexample):
            payload["counterexample"] = decision.refutation.value
            if args.evidence:
                lines.append(f"counterexample: {decision.refutation.value}")
    _emit(payload, args.json, lines)
    return code


def _cmd_eliminate(args: argparse.Namespace) -> int:
    names, _values = _parse_env(args.env)
    phi = _parse_formula(args.formula, names)
    qf = pretty(lift_qe(STEP, phi, max_products=args.dnf_limit), names)
    _emit({"qf_equivalent": qf}, args.json, [qf])
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    names, values = _parse_env(args.env)
    phi = _parse_formula(args.formula, names)
    verdict = oracle_decide(phi, values)
    decision = decide(STEP, phi, values, max_products=args.dnf_limit)
    decided = isinstance(decision, Yes)
    agree = verdict == decided
    payload = {
        "result": "yes" if decided else "no",
        "oracle": "yes" if verdict else "no",
        "agree": agree,
    }
    lines = [
        f"oracle: {'yes' if verdict else 'no'}",
        f"decide: {'yes' if decided else 'no'}",
        f"agreement: {'yes' if agree else 'no'}",
    ]
    _emit(payload, args.json, lines)
    if not agree:
        print("internal inconsistency: oracle and decide disagree", file=sys.stderr)
        return 3
    return 0 if verdict else 1


def _split_parse(text: str):
    """Parse a formula with exactly one free variable, discovering its name."""
    try:
        SurfaceParser(text, ()).parse()
    except UnboundNameError as exc:
        name = exc.name
    else:
        raise UsageError("split needs a formula with exactly one free variable")
    try:
        return SurfaceParser(text, (name,)).parse(), name
    except UnboundNameError as exc:
        raise UsageError(
            "split needs a formula with exactly one free variable; "
            f"found {name!r} and {exc.name!r}"
        )


def _cmd_split(args: argparse.Namespace) -> int:
    phi, name = _split_parse(args.formula)
    outcome = forall_or_counterexample(STEP, phi, (), max_products=args.dnf_limit)
    if isinstance(outcome, UniversalEvidence):
        _emit({"result": "forall"}, args.json, ["forall: holds for all values"])
        return 0
    value, _refutation = outcome
    _emit(
        {"result": "counterexample", "counterexample": value},
        args.json,
        [f"counterexample: {value}"],
    )
    return 1


def _build_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(
        prog="qelim",
        description="Decide formulas of the first-order theory of successor.",
    )
    sub = root.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, env: bool = True) -> None:
        p.add_argument("formula", help="formula in the surface syntax")
        if env:
            p.add_argument(
                "--env",
                action="append",
                default=[],
                metavar="NAME=VALUE",
                help="bind a free variable; order of flags is the variable order",
            )
        p.add_argument("--json", action="store_true", help="machine readable output")
        p.add_argument(
            "--dnf-limit",
            type=_int_at_least(1),
            default=DEFAULT_DNF_LIMIT,
            metavar="N",
            help=f"abort if any DNF exceeds N products (default {DEFAULT_DNF_LIMIT})",
        )

    p = sub.add_parser("decide", help="decide the formula under the environment")
    common(p)
    p.add_argument("--evidence", action="store_true", help="show witness structure")
    p.add_argument(
        "--instantiate",
        action="append",
        type=_int_at_least(0),
        default=[],
        metavar="N",
        help="with --evidence on a universal: check the instance at N",
    )
    p.set_defaults(run=_cmd_decide)

    p = sub.add_parser("eliminate", help="print a quantifier-free equivalent")
    common(p)
    p.set_defaults(run=_cmd_eliminate)

    p = sub.add_parser("oracle", help="cross-check decide against the oracle")
    common(p)
    p.set_defaults(run=_cmd_oracle)

    p = sub.add_parser("split", help="forall-or-counterexample over one free variable")
    common(p, env=False)
    p.set_defaults(run=_cmd_split)

    return root


# Built once: argparse copies an ``append`` default, so no call leaks into the next.
_PARSER = _build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args)
    except (ParseError, UsageError, DnfLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EngineError, UnsatisfiableProductError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        # Anything else is a crash, which must never read as "no" (exit 1).
        print(f"internal error: {exc!r}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
