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
from monolift import ball_rule, default_scheme

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


POWER1 = '{"kind":"power_radial","dim":2,"params":{"p":1.0}}'

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

# run in a fresh interpreter: this process has imported scipy.stats already
CHILD = """
import contextlib, hashlib, io, json, sys
import monolift.cli
def heavy():
    return sorted(m for m in sys.modules if m.startswith(("scipy.stats", "scipy.special")))
out = {"import": heavy(), "codes": []}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        out["codes"].append(monolift.cli.main(argv))
out["commands"] = heavy()
from monolift import ball_rule, default_scheme
out["sobol"] = [hashlib.sha256(r.nodes.tobytes()).hexdigest()
                for r in (default_scheme(4), ball_rule(3))]
out["built"] = "scipy.stats" in sys.modules
print(json.dumps(out))
"""


def test_scipy_stats_is_imported_only_to_build_a_sobol_rule():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(monolift.__file__).parents[1]), env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(NO_SOBOL_ARGVS)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    child = json.loads(proc.stdout)
    assert child["import"] == []
    assert child["codes"] == [0] * len(NO_SOBOL_ARGVS)
    assert child["commands"] == []
    # the Sobol builders import it themselves, and build the same bits
    assert child["built"]
    assert child["sobol"] == [hashlib.sha256(r.nodes.tobytes()).hexdigest()
                              for r in (default_scheme(4), ball_rule(3))]
