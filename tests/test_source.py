"""Checks on the package source itself."""

import ast
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import monolift
from monolift import ball_rule, core, default_scheme

SOURCES = sorted(Path(monolift.__file__).parent.glob("*.py"))


def test_sources_found():
    assert len(SOURCES) >= 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips assert statements: a check the package relies on must raise
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements at lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_imports_across_modules(path):
    # a module's underscore names are its own; a sibling that needs one
    # should get it public, or the code should move next to its caller
    tree = ast.parse(path.read_text(), filename=str(path))
    private = [
        f"{node.module}.{alias.name} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("monolift"))
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]
    assert private == [], f"{path.name} imports private names {private}"


# the map kernels of the dispatch tables share one signature, read or not
DISPATCHED = {f.__name__ for table in (core._EVAL, core._JAC) for f in table.values()}


def unread_parameters(tree):
    """``name(parameter)`` for each parameter its function's body never reads."""
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        a = node.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p]
        name = getattr(node, "name", "<lambda>")
        unread += [f"{name}({p}) (line {node.lineno})" for p in params
                   if p not in read and name not in DISPATCHED]
    return unread


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    # a parameter no body reads is an option no caller can use: delete it
    unread = unread_parameters(ast.parse(path.read_text(), filename=str(path)))
    assert unread == [], f"{path.name} has unread parameters {unread}"


def test_unread_parameter_check_finds_one():
    tree = ast.parse("def f(a, b, *c, d=1):\n    return [a, lambda e: d]\n")
    assert unread_parameters(tree) == ["f(b) (line 1)", "f(c) (line 1)", "<lambda>(e) (line 2)"]
    assert "_eval_identity" in DISPATCHED


POWER1 = '{"kind":"power_radial","dim":2,"params":{"p":1.0}}'
POWER4 = '{"kind":"power_radial","dim":4,"params":{"p":1.0}}'

# commands that build no Sobol rule: the tensor rule up to dim 3, the polar
# ball rule in dim 2, and no rule at all for claim-check
NO_SOBOL_ARGVS = [
    ["claim-check", "--dims", "2", "--matrices", "100"],
    ["extend", "--spec", POWER1, "--x", "0.3,-1.2", "--t", "0.7"],
    ["jacobian", "--spec", POWER1, "--x", "0.3,-1.2", "--t", "0.7"],
    ["certify-delta", "--spec", POWER1, "--lift", "gaussian", "--pairs", "50"],
    ["doubling", "--dim", "2"],
    ["moments", "--dim", "2"],
    ["hyperbolic", "--spec", POWER1, "--pairs", "20"],
]

# commands that build one: the default dim-4 Gaussian rule and the dim-3 ball rule
SOBOL_ARGVS = [
    ["extend", "--spec", POWER4, "--x", "0.3,-1.2,0.5,0.1", "--t", "0.7"],
    ["moments", "--dim", "4", "--p", "2"],
    ["doubling", "--dim", "3", "--centers=0,0,0;1,0.5,-0.2"],
]

# run in a fresh interpreter: this process has imported scipy.stats already
CHILD = """
import contextlib, hashlib, io, json, sys
import monolift.cli
def loaded(*prefixes):
    return sorted(m for m in sys.modules if m.startswith(prefixes))
def run(argvs):
    codes = []
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(monolift.cli.main(argv))
    return codes
no_sobol, sobol = json.loads(sys.argv[1])
out = {"import": loaded("scipy.stats", "scipy.special"), "codes": run(no_sobol)}
out["commands"] = loaded("scipy.stats", "scipy.special")
out["codes"] += run(sobol)
out["sobol_commands"] = loaded("scipy.stats")
from monolift import ball_rule, default_scheme
out["sobol"] = [hashlib.sha256(r.nodes.tobytes()).hexdigest()
                for r in (default_scheme(4), ball_rule(3))]
out["built"] = "scipy.stats" in sys.modules
print(json.dumps(out))
"""


def test_no_command_imports_scipy_stats():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(monolift.__file__).parents[1]), env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps([NO_SOBOL_ARGVS, SOBOL_ARGVS])],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    child = json.loads(proc.stdout)
    assert child["import"] == []
    assert child["codes"] == [0] * (len(NO_SOBOL_ARGVS) + len(SOBOL_ARGVS))
    # commands without a Sobol rule load neither scipy.stats nor scipy.special
    assert child["commands"] == []
    # Sobol rules are drawn with numpy alone, to the bits this process draws
    assert child["sobol_commands"] == []
    assert not child["built"]
    assert child["sobol"] == [hashlib.sha256(r.nodes.tobytes()).hexdigest()
                              for r in (default_scheme(4), ball_rule(3))]
