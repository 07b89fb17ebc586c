"""The workloads: how an input becomes library objects, what one timed
op does, and how its answer is checked against an independent reference.

Every op calls the library through module attributes (``q.engine.decide``,
``q.cli.main``, ...) and takes the theory step as an argument, so the traced
run can rebind those attributes and substitute a delegating step.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
from types import SimpleNamespace

# The CLI's DEFAULT_DNF_LIMIT.  Library calls pass it explicitly, so a blow-up
# fails as it does for CLI users instead of running unbounded.
MAX_PRODUCTS = 10000

FAILURE_CLASSES = (
    "dnf_limit",
    "recursion",
    "cli_exit_2",
    "cli_exit_3",
    "other",
    "over_budget",
)


class WrongAnswer(Exception):
    """The program answered, and the answer disagrees with the reference."""


class OpFailed(Exception):
    """The op did not produce an answer; ``kind`` is one of FAILURE_CLASSES."""

    def __init__(self, kind: str, detail: str) -> None:
        super().__init__(f"{kind}: {detail}")
        self.kind = kind


def classify(q: SimpleNamespace, exc: BaseException) -> str:
    if isinstance(exc, q.dnf.DnfLimitError):
        return "dnf_limit"
    if isinstance(exc, RecursionError):
        return "recursion"
    return "other"


def build(q: SimpleNamespace, phi: list, arity: int):
    """Library formula of the given arity from the plain form in ``inputs``."""
    kind = phi[0]
    if kind == "eq":
        lhs, rhs = (q.successor.SNTerm(i, s) for i, s in phi[1:])
        return q.formula.Atom(q.successor.SNAtom(lhs, rhs), arity)
    if kind == "false":
        return q.formula.Falsum(arity)
    if kind in ("ex", "all"):
        body = build(q, phi[1], arity + 1)
        return q.formula.Exists(body) if kind == "ex" else q.formula.Forall(body)
    node = {"or": q.formula.Or, "and": q.formula.And, "imp": q.formula.Implies}[kind]
    return node(build(q, phi[1], arity), build(q, phi[2], arity))


# --- random-decide ------------------------------------------------------------


def rd_prepare(q, item: dict) -> dict:
    return {"phi": build(q, item["phi"], item["arity"]), "env": tuple(item["env"])}


def rd_run(q, step, case: dict):
    decision = q.engine.decide(step, case["phi"], case["env"], max_products=MAX_PRODUCTS)
    return decision, q.formula.check_evidence(decision, case["phi"], case["env"])


def _swallowed(q, decision, case: dict) -> list:
    """Exceptions that ``check_evidence`` caught from evidence providers.

    ``check_evidence`` turns a provider that raises into False; re-running it
    with the provider methods spied on tells a provider blow-up (a failure)
    from evidence that is really wrong.
    """
    seen: list = []
    methods = [
        (q.formula.UniversalEvidence, "instantiate"),
        (q.formula.ExistsRefuted, "refute_at"),
    ]
    saved = [(cls, name, cls.__dict__[name]) for cls, name in methods]

    def spy(original):
        def method(self, value):
            try:
                return original(self, value)
            except Exception as exc:
                seen.append(exc)
                raise

        return method

    try:
        for cls, name, original in saved:
            setattr(cls, name, spy(original))
        q.formula.check_evidence(decision, case["phi"], case["env"])
    finally:
        for cls, name, original in saved:
            setattr(cls, name, original)
    return seen


def rd_check(q, case: dict, outcome) -> None:
    decision, evidence_ok = outcome
    verdict = isinstance(decision, q.formula.Yes)
    reference = q.successor.oracle_decide(case["phi"], case["env"])
    if verdict != reference:
        raise WrongAnswer(f"decide says {verdict}, oracle_decide says {reference}")
    if not evidence_ok:
        seen = _swallowed(q, decision, case)
        if seen:
            raise OpFailed(classify(q, seen[0]), f"evidence provider raised {seen[0]!r}")
        raise WrongAnswer("check_evidence rejects the decision")


# --- alternation ----------------------------------------------------------------


def alt_prepare(q, item: dict) -> dict:
    return {"phi": build(q, item["phi"], 0)}


def alt_run(q, step, case: dict):
    qf = q.engine.lift_qe(step, case["phi"], max_products=MAX_PRODUCTS)
    return qf, q.formula.eval_qfree(qf, ())


def alt_check(q, case: dict, outcome) -> None:
    qf, value = outcome
    if not q.formula.is_qfree(qf):
        raise WrongAnswer("lift_qe returned a formula with a quantifier")
    reference = q.successor.oracle_decide(case["phi"], ())
    if value != reference:
        raise WrongAnswer(f"eval_qfree of the lifted formula is {value}, oracle says {reference}")


# --- cli-wide -------------------------------------------------------------------


def cli_prepare(q, item: dict) -> dict:
    argv = ["decide", item["text"], "--json", "--evidence"]
    for name, value in zip(item["names"], item["env"]):
        argv += ["--env", f"{name}={value}"]
    return {
        "argv": argv,
        "phi": build(q, item["phi"], len(item["names"])),
        "env": dict(zip(item["names"], item["env"])),
        "env_tuple": tuple(item["env"]),
    }


def cli_run(q, step, case: dict):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = q.cli.main(case["argv"])
    return code, out.getvalue(), err.getvalue()


def cli_check(q, case: dict, outcome) -> None:
    code, out, err = outcome
    if code in (2, 3):
        raise OpFailed(f"cli_exit_{code}", err.strip()[:200])
    if code not in (0, 1):
        raise WrongAnswer(f"exit code {code} is outside the CLI's contract")
    payload = json.loads(out)
    result = payload.get("result")
    if (result, code) not in (("yes", 0), ("no", 1)):
        raise WrongAnswer(f"exit code {code} does not match result {result!r}")
    reference = q.successor.oracle_decide(case["phi"], case["env_tuple"])
    if (result == "yes") != reference:
        raise WrongAnswer(f"CLI says {result}, oracle_decide says {reference}")
    try:
        qf_value = eval_qf_text(payload["qf_equivalent"], case["env"])
    except (IndexError, KeyError, ValueError) as exc:
        raise WrongAnswer(f"qf_equivalent does not parse: {exc!r}")
    if qf_value != reference:
        raise WrongAnswer("qf_equivalent evaluates to the other verdict")


_TOKEN = re.compile(r"\s*(->|!=|[=|&~()+]|[A-Za-z_][A-Za-z0-9_]*|\d+)")
_BINARY = {"->": 1, "|": 2, "&": 3}


def eval_qf_text(text: str, env: dict) -> bool:
    """Truth of a quantifier-free surface formula under named values.

    Independent of ``qelim.parser``: an operator-precedence evaluator with
    explicit stacks, so it has no nesting cap (the CLI prints one level of
    parentheses per DNF product).
    """
    tokens = _TOKEN.findall(text)
    if "".join(tokens) != re.sub(r"\s+", "", text):
        raise WrongAnswer(f"qf_equivalent has characters outside the syntax: {text[:80]!r}")
    values: list = []
    ops: list = []

    def apply(op: str) -> None:
        if op == "~":
            values.append(not values.pop())
            return
        b, a = values.pop(), values.pop()
        values.append({"->": (not a) or b, "|": a or b, "&": a and b}[op])

    def term(pos: int) -> tuple[int, int]:
        tok = tokens[pos]
        if tok.isdigit():
            return int(tok), pos + 1
        if tok not in env:
            raise WrongAnswer(f"qf_equivalent mentions {tok!r}, which is not free")
        value, pos = env[tok], pos + 1
        if pos < len(tokens) and tokens[pos] == "+":
            value, pos = value + int(tokens[pos + 1]), pos + 2
        return value, pos

    pos, operand = 0, True
    while pos < len(tokens):
        tok = tokens[pos]
        if operand:
            if tok in ("(", "~"):
                ops.append(tok)
                pos += 1
            elif tok in ("true", "false"):
                values.append(tok == "true")
                operand, pos = False, pos + 1
            else:
                lhs, pos = term(pos)
                rel = tokens[pos]
                if rel not in ("=", "!="):
                    raise WrongAnswer(f"qf_equivalent has {rel!r} where a relation belongs")
                rhs, pos = term(pos + 1)
                values.append((lhs == rhs) == (rel == "="))
                operand = False
        elif tok == ")":
            while ops[-1] != "(":
                apply(ops.pop())
            ops.pop()
            pos += 1
        else:
            prec = _BINARY[tok]
            while ops and ops[-1] != "(" and (
                ops[-1] == "~" or _BINARY[ops[-1]] > prec or (_BINARY[ops[-1]] == prec and tok != "->")
            ):
                apply(ops.pop())
            ops.append(tok)
            operand, pos = True, pos + 1
    while ops:
        apply(ops.pop())
    (value,) = values
    return value


WORKLOADS = {
    "random-decide": (rd_prepare, rd_run, rd_check),
    "alternation": (alt_prepare, alt_run, alt_check),
    "cli-wide": (cli_prepare, cli_run, cli_check),
    "alternation-deep": (alt_prepare, alt_run, alt_check),
}
