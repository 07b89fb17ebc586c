"""Outputs and work counts do not depend on the hash seed.

Sets and dicts of atoms and literals order some of the work by hash value,
and string hashes change with ``PYTHONHASHSEED``.  One seeded script runs
in two interpreters with different hash seeds: the digest of everything it
printed or returned, and its counts of elimination and witness calls, must
agree.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import qelim

_SCRIPT = r"""
import contextlib, hashlib, io, json, re, sys
from random import Random

from qelim import SuccessorStep, check_evidence, cli, decide, lift_qe, pretty
from randgen import random_env, random_formula


class CountingStep(SuccessorStep):
    def __init__(self):
        self.calls = {"eliminate_product": 0, "prod_witness": 0}

    def eliminate_product(self, p):
        self.calls["eliminate_product"] += 1
        return super().eliminate_product(p)

    def prod_witness(self, p, env):
        self.calls["prod_witness"] += 1
        return super().prod_witness(p, env)


step = cli.STEP = CountingStep()
digest = hashlib.sha256()
exits = {}
rng = Random(15)
for _ in range(600):
    arity = rng.randint(0, 2)
    phi = random_formula(rng, arity, rng.randint(1, 5), 3)
    env = random_env(rng, arity)
    names = ("y", "z")[:arity]
    decision = decide(step, phi, env)
    text = pretty(phi, names)
    argv = ["decide", text, "--json", "--evidence"]
    for name, value in zip(names, env):
        if re.search(rf"\b{name}\b", text):  # the CLI rejects a name not in the text
            argv += ["--env", f"{name}={value}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    exits[code] = exits.get(code, 0) + 1
    for part in (lift_qe(step, phi), decision, check_evidence(decision, phi, env), code):
        digest.update(repr(part).encode())
    digest.update(out.getvalue().encode() + err.getvalue().encode())
json.dump({"digest": digest.hexdigest(), "calls": step.calls, "exits": exits}, sys.stdout)
"""


def _run(hash_seed: str) -> dict:
    src = str(Path(qelim.__file__).resolve().parent.parent)
    tests = str(Path(__file__).resolve().parent)
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join((src, tests)), "PYTHONHASHSEED": hash_seed},
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_outputs_and_counts_do_not_depend_on_the_hash_seed():
    first, second = _run("0"), _run("1")
    assert first == second
    # The script did the work it counts: eliminations, witnesses, and CLI
    # decisions that answered yes and no.
    assert first["calls"]["eliminate_product"] > 1000
    assert first["calls"]["prod_witness"] > 300
    assert set(first["exits"]) == {"0", "1"}
