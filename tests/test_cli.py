"""Command line behavior: output shapes, exit codes, error mapping."""

import json

import pytest

import qelim.cli as cli
import qelim.engine
from qelim import (
    ArityError,
    EngineError,
    ParseError,
    STEP,
    Yes,
    check_evidence,
    decide,
    oracle_decide,
    parse,
)
from qelim.cli import main


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SAMPLE0 = "exists x. exists y. x+3 = y+1 & 8 = y+4"
SAMPLE1 = "forall x. x = 0 | exists y. x = y+1"


# --- decide ---------------------------------------------------------------------


def test_decide_json_payload(capsys):
    code, out, _ = run(capsys, "decide", SAMPLE0, "--json")
    assert code == 0
    assert json.loads(out) == {
        "qf_equivalent": "true",
        "result": "yes",
        "witnesses": [2, 4],
    }
    # A witness reached through the consequent of an implication.
    code, out, _ = run(capsys, "decide", "0 = 0 -> exists x. x = 2", "--json")
    assert code == 0
    assert json.loads(out)["witnesses"] == [2]


def test_decide_text_and_evidence(capsys):
    code, out, _ = run(capsys, "decide", SAMPLE0)
    assert (code, out) == (0, "yes\n")
    code, out, _ = run(capsys, "decide", SAMPLE0, "--evidence")
    assert code == 0
    assert out == "yes\nwitnesses: 2 4\n"


def test_decide_text_does_not_print_the_qf(monkeypatch, capsys):
    # Only the JSON payload carries qf_equivalent, so text mode never renders it.
    def unused(*args):
        raise AssertionError("pretty called in text mode")

    monkeypatch.setattr(cli, "pretty", unused)
    code, out, _ = run(capsys, "decide", SAMPLE0, "--evidence")
    assert (code, out) == (0, "yes\nwitnesses: 2 4\n")
    code, out, _ = run(capsys, "decide", "forall x. x = 0", "--evidence")
    assert (code, out) == (1, "no\ncounterexample: 1\n")


def test_decide_universal_with_instantiations(capsys):
    code, out, _ = run(
        capsys, "decide", SAMPLE1, "--evidence", "--instantiate", "0", "--instantiate", "5"
    )
    assert code == 0
    assert out.splitlines() == [
        "yes",
        "universal evidence: instantiable at any value",
        "at 0: holds",
        "at 5: holds (witnesses: 4)",
    ]


def test_repeated_flags_do_not_carry_into_the_next_call(capsys):
    # main reuses one argparse parser; its ``append`` defaults must stay empty.
    code, out, _ = run(capsys, "decide", SAMPLE1, "--evidence", "--instantiate", "3")
    assert (code, out.splitlines()[-1]) == (0, "at 3: holds (witnesses: 2)")
    code, out, _ = run(capsys, "decide", SAMPLE1, "--evidence")
    assert (code, out) == (0, "yes\nuniversal evidence: instantiable at any value\n")
    assert run(capsys, "decide", "x = 0", "--env", "x=0")[:2] == (0, "yes\n")
    assert run(capsys, "decide", "0 = 0")[:2] == (0, "yes\n")


def test_decide_failed_universal(capsys):
    code, out, _ = run(capsys, "decide", "forall x. x = 0", "--json")
    assert code == 1
    assert json.loads(out) == {
        "qf_equivalent": "~true",
        "result": "no",
        "counterexample": 1,
    }
    code, out, _ = run(capsys, "decide", "forall x. x = 0", "--evidence")
    assert code == 1
    assert out == "no\ncounterexample: 1\n"


def test_decide_open_formula_under_env(capsys):
    code, out, _ = run(capsys, "decide", "x = 0 | x = 2", "--env", "x=1", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["result"] == "no"
    assert "counterexample" not in payload
    code, out, _ = run(capsys, "decide", "x = 0 | x = 2", "--env", "x=2")
    assert (code, out) == (0, "yes\n")


def test_decide_qf_equivalent_reparses_and_agrees(capsys):
    cases = [
        (SAMPLE0, []),
        (SAMPLE1, []),
        ("exists y. x = y+2", ["x=1"]),
        ("forall y. y = x", ["x=0"]),
    ]
    for text, env in cases:
        argv = ["decide", text, "--json"]
        for pair in env:
            argv += ["--env", pair]
        code, out, _ = run(capsys, *argv)
        payload = json.loads(out)
        names = [p.split("=")[0] for p in env]
        values = tuple(int(p.split("=")[1]) for p in env)
        reparsed = parse(payload["qf_equivalent"], names)
        verdict = isinstance(decide(STEP, reparsed, values), Yes)
        assert verdict == (payload["result"] == "yes")
        assert (code == 0) == verdict


def test_decide_qf_equivalent_past_the_nesting_cap_is_a_parse_error(capsys):
    # One parenthesis level per disjunct: 150 levels against parser.MAX_NESTING.
    text = "exists x. " + " | ".join(f"x = y+{i} & x != {i}" for i in range(150))
    code, out, _ = run(capsys, "decide", text, "--env", "y=3", "--json")
    assert code == 0
    qf = json.loads(out)["qf_equivalent"]
    with pytest.raises(ParseError) as info:
        parse(qf, ["y"])
    assert "nesting deeper than" in str(info.value)
    code, out, err = run(capsys, "decide", qf, "--env", "y=3")
    assert (code, out) == (2, "")
    assert err.startswith("error: nesting deeper than")


# --- eliminate -------------------------------------------------------------------


def test_eliminate_text_and_json(capsys):
    code, out, _ = run(capsys, "eliminate", "exists x. x+5 = y+3", "--env", "y=0")
    assert (code, out) == (0, "(y != 0) & (y != 1)\n")
    code, out, _ = run(capsys, "eliminate", "exists x. x+5 = y+3", "--env", "y=0", "--json")
    assert code == 0
    assert json.loads(out) == {"qf_equivalent": "(y != 0) & (y != 1)"}


# --- oracle -----------------------------------------------------------------------


def test_oracle_agreement(capsys):
    code, out, _ = run(capsys, "oracle", "exists x. x = 5")
    assert code == 0
    assert out.splitlines() == ["oracle: yes", "decide: yes", "agreement: yes"]
    code, out, _ = run(capsys, "oracle", "false")
    assert code == 1
    assert out.splitlines() == ["oracle: no", "decide: no", "agreement: yes"]


def test_oracle_disagreement_is_internal(monkeypatch, capsys):
    monkeypatch.setattr(cli, "oracle_decide", lambda phi, env: False)
    code, out, err = run(capsys, "oracle", "exists x. x = 5")
    assert code == 3
    assert "internal inconsistency" in err
    assert out.splitlines()[-1] == "agreement: no"


# --- split -------------------------------------------------------------------------


def test_split_counterexample(capsys):
    code, out, _ = run(capsys, "split", "x = 0 | exists y. x = y+2")
    assert (code, out) == (1, "counterexample: 1\n")
    code, out, _ = run(capsys, "split", "x = 0 | exists y. x = y+2", "--json")
    assert json.loads(out) == {"result": "counterexample", "counterexample": 1}
    assert code == 1


def test_split_tautology(capsys):
    code, out, _ = run(capsys, "split", "x = 0 | x != 0")
    assert (code, out) == (0, "forall: holds for all values\n")
    code, out, _ = run(capsys, "split", "x = 0 | x != 0", "--json")
    assert json.loads(out) == {"result": "forall"}
    assert code == 0


def test_split_needs_exactly_one_free_name(capsys):
    code, _, err = run(capsys, "split", "x = y")
    assert code == 2
    assert "one free variable" in err
    code, _, err = run(capsys, "split", "3 = 3")
    assert code == 2
    assert "one free variable" in err


# --- errors and exit codes -----------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ("decide", "x = 0", "--env", "x"),
        ("decide", "x = 0", "--env", "x=-1"),
        ("decide", "x = 0", "--env", "x=1", "--env", "x=2"),
        ("decide", "3 = 3", "--env", "z=1"),
        ("decide", "x = 0"),
        ("decide", "x = ", "--env", "x=0"),
        ("decide", "forall x. forall x = 0",),
        ("decide", "forall x. x = x", "--evidence", "--instantiate", "-1"),
        ("decide", "exists x. x = 0", "--dnf-limit", "0"),
        ("decide", "exists x. x = 0", "--dnf-limit", "-1"),
        ("decide", "exists x. x = " + "9" * 5000),
        ("decide", "x = 0", "--env", "1x=0"),
        ("decide", "x = 0", "--env", "forall=0"),
        ("decide", "x = 0", "--env", "é=0"),
        ("decide", "x = 0", "--env", "x y=0"),
    ],
)
def test_usage_and_parse_errors_exit_2(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "error:" in err


def test_dnf_limit_exit_2(capsys):
    phi = "exists x. (x = 1 | x = 2) & (x = 3 | x = 4) & (x = 5 | x = 6)"
    code, out, _ = run(capsys, "decide", phi)
    assert (code, out) == (1, "no\n")
    code, _, err = run(capsys, "decide", phi, "--dnf-limit", "3")
    assert code == 2
    assert "error:" in err


def test_dnf_limit_bounds_only_the_polarity_needed(capsys):
    # 14 products under the existential; its negation would have 2^14.
    phi = "exists x. " + " | ".join(f"(x = {2 * i} & y != {i})" for i in range(14))
    code, out, _ = run(capsys, "decide", phi, "--env", "y=3")
    assert (code, out) == (0, "yes\n")


def test_no_arguments_and_help(capsys):
    assert run(capsys, )[0] == 2
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "decide" in out


def test_internal_error_exit_3(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise EngineError("boom")

    monkeypatch.setattr(cli, "lift", boom)
    code, _, err = run(capsys, "decide", "false")
    assert code == 3
    assert "internal error" in err


def test_unexpected_exception_exits_3_with_traceback(monkeypatch, capsys):
    def crash(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "lift", crash)
    code, out, err = run(capsys, "decide", "false")
    assert (code, out) == (3, "")
    assert err.startswith("internal error:")
    assert "Traceback" in err and "RecursionError" in err


def test_internal_value_error_exits_3_with_traceback(monkeypatch, capsys):
    # ArityError is a ValueError, but a bad arity inside the engine is a bug.
    def bad_arity(*args, **kwargs):
        raise ArityError("environment length 2 does not match arity 1")

    monkeypatch.setattr(cli, "lift", bad_arity)
    code, out, err = run(capsys, "decide", "false")
    assert (code, out) == (3, "")
    assert err.startswith("internal error:")
    assert "Traceback" in err and "ArityError" in err


def test_decide_lifts_each_binder_once(monkeypatch, capsys):
    calls = []
    real = qelim.engine.to_dnf

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(qelim.engine, "to_dnf", counting)
    cases = [
        (SAMPLE0, 2),
        (SAMPLE1, 2),
        ("forall x. x = 0", 1),
        ("exists x. " + " | ".join(f"x = {i}" for i in range(40)), 1),
        ("(exists x. x = 3) & forall y. y = 0 | exists z. y = z+1", 3),
    ]
    for text, binders in cases:
        calls.clear()
        code = main(["decide", text, "--json", "--evidence", "--instantiate", "0",
                     "--instantiate", "7"])
        capsys.readouterr()
        assert code in (0, 1)
        assert len(calls) == binders, text


def test_machine_sized_input_never_reads_as_no(capsys):
    # A true formula: decided yes, or a crash reported as internal (3).
    phi = "exists x. " + " | ".join(f"x = {i}" for i in range(3000))
    code, _, err = run(capsys, "decide", phi)
    assert code in (0, 3)
    if code == 3:
        assert err.startswith("internal error:")


# Three binders over an inner elimination's right-nested disjunction: the DNF
# of the outer bodies walks that disjunction's spine.
THREE_BINDERS = (
    "exists x0. exists x1. forall x2. (((2 = 3) & (u+5 = u+4)) -> ((x0+1 = x2+2) | "
    "(u+1 = x2+1))) -> (((5 = x0+3) & (x2+4 = u)) | ((x0+2 = x1) -> (x1+6 = 2)))"
)


def test_three_binders_over_a_nested_disjunction_decide_in_the_library():
    phi = parse(THREE_BINDERS, ("u",))
    decision = decide(STEP, phi, (3,))
    assert isinstance(decision, Yes)
    assert oracle_decide(phi, (3,))
    assert check_evidence(decision, phi, (3,))


def test_three_binders_over_a_nested_disjunction_decide_in_the_cli(capsys):
    code, out, _ = run(capsys, "decide", THREE_BINDERS, "--env", "u=3")
    assert (code, out) == (0, "yes\n")


def test_entry_raises_system_exit(monkeypatch, capsys):
    monkeypatch.setattr(cli.sys, "argv", ["qelim", "decide", "false"])
    with pytest.raises(SystemExit) as info:
        cli.entry()
    capsys.readouterr()
    assert info.value.code == 1
