"""The README's quick tour runs and prints what it says it prints."""

import contextlib
import io
import math
import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_tour_code() -> str:
    text = README.read_text(encoding="utf-8")
    tour = text[text.index("## Quick tour"):]
    return re.search(r"```python\n(.*?)```", tour, re.S).group(1)


def test_quick_tour_runs_and_prints_rotation_lift():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(quick_tour_code(), str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    first = np.array([float(v) for v in lines[0].strip("[] ").split()])
    # F(x, t) = (R x, t tr R) at x = (1, 0), t = 2, theta = pi/4
    c = math.cos(math.pi / 4)
    assert np.allclose(first, [c, c, 4.0 * c], atol=1e-10)
    assert float(lines[1]) > 0.0
