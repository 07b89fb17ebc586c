"""The names the benchmark's tracer rebinds must exist in the library.

``bench/tracing.py`` wraps library functions and methods by rebinding them
on the imported ``qelim`` modules.  Rebinding a name the library no longer
has raises nothing: the traced run just counts zero there.  This test reads
the tracer as text, collects every ``q.<module>.<name>`` it touches (through
a local alias too) and every ``(class, "method")`` pair it wraps, and looks
each one up in a fresh ``qelim`` in another process, so nothing here is
rebound.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import qelim

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _chain(node: ast.AST, aliases: dict) -> list[str] | None:
    """The path of an attribute chain rooted at ``q`` or at an alias of one."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    if node.id == "q":
        return names[::-1] or None
    if node.id in aliases:
        return aliases[node.id] + names[::-1]
    return None


def tracer_targets() -> set[tuple[str, ...]]:
    """Paths below ``q`` that the tracer reads, rebinds or wraps a method of."""
    tree = ast.parse(TRACER.read_text())
    aliases = {}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and (path := _chain(node.value, {}))
        ):
            aliases[node.targets[0].id] = path
    targets = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and (path := _chain(node, aliases)):
            targets.add(tuple(path))
        if (
            isinstance(node, ast.Tuple)
            and len(node.elts) == 2
            and (path := _chain(node.elts[0], aliases))
            and isinstance(node.elts[1], ast.Constant)
            and isinstance(node.elts[1].value, str)
        ):
            targets.add((*path, node.elts[1].value))
    return targets


# A name on a class must be the class's own: the tracer wraps ``cls.__dict__[name]``.
_LOOKUP = """
import importlib, json, sys

missing = []
for path in json.load(sys.stdin):
    obj = importlib.import_module("qelim." + path[0])
    for depth, name in enumerate(path[1:], 2):
        own = name in vars(obj) if isinstance(obj, type) else hasattr(obj, name)
        if not own:
            missing.append(".".join(path[:depth]))
            break
        obj = getattr(obj, name)
print(json.dumps(missing))
"""


def test_tracer_targets_are_found_in_the_text():
    targets = {".".join(t) for t in tracer_targets()}
    assert {
        "engine.eliminate_dnf",
        "engine.to_dnf",
        "successor.simplify_literals",
        "successor.STEP.eliminate_product",
        "formula.UniversalEvidence.instantiate",
        "formula.ExistsRefuted.refute_at",
        "parser.SurfaceParser.parse",
        "parser.SurfaceParser.__init__",
        "cli.STEP",
    } <= targets


def test_every_tracer_target_exists_in_a_fresh_qelim():
    src = str(Path(qelim.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", _LOOKUP],
        input=json.dumps(sorted(tracer_targets())),
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []
