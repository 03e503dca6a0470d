"""A fixed reference computation that measures the speed the host gives this process.

On a shared host the CPU time of the same code moves by tens of percent
within a minute, most likely as other guests share the physical core.  The
benchmark runs this kernel right before and right after every timed call and
scales the call's CPU time by ``NOMINAL / measured``: the host's speed
cancels and the program's cost stays.  A run reports its figures in CPU
seconds of a host that runs one pass of the kernel in the nominal time.

The kernel uses numpy and the interpreter only, never monolift, so no change
to the program can change it.  Its mix follows the program's: array
arithmetic and reductions on a lift-shaped (chunk, nodes, n) array, and a
pure-Python loop like the argument parsing, dispatch and formatting around
it.  The array comes in two working sets, because code that streams arrays
far larger than L2 slows down more under a busy neighbour than code that
stays in cache, and the reference must slow down like the workload it
scales: ``small`` (0.8 MB, six passes over it) and ``large`` (6.6 MB, one
pass).  ``python_pass`` is the loop alone; it needs no numpy, so it can time
a fresh interpreter's import of the program before numpy is loaded.
"""

from __future__ import annotations

import time
from functools import cache

# working set -> (chunk rows of the (rows, 400, 2) array, array passes per pass)
WORKING_SETS = {"small": (128, 6), "large": (1024, 1)}

# CPU seconds of one pass on an idle 2-vCPU Xeon KVM guest (about the fastest
# tenth of passes there); only the unit of the scaled figures depends on them.
NOMINAL_PASS_S = {"small": 0.0105, "large": 0.013}
NOMINAL_PYTHON_PASS_S = 0.0045


@cache
def _arrays(rows: int):
    import numpy as np

    rng = np.random.default_rng(20090423)
    return rng.uniform(-2.0, 2.0, (rows, 400, 2)), rng.uniform(0.0, 1.0, 400)


def _array_part(rows: int) -> float:
    import numpy as np

    points, weights = _arrays(rows)
    r = np.sqrt(np.einsum("cnk,cnk->cn", points, points))
    mapped = (r ** 0.5)[..., None] * points
    return float(np.einsum("cnk,n->", mapped, weights))


def python_pass() -> int:
    acc = 0
    for i in range(60000):
        acc = (acc + i * i) % 1000003
    return acc


def reference_pass(working_set: str) -> None:
    rows, reps = WORKING_SETS[working_set]
    for _ in range(reps):
        _array_part(rows)
    python_pass()


def per_pass_cpu_s(kernel, passes: int, *args) -> float:
    """Mean CPU seconds of one pass of ``kernel(*args)`` over ``passes`` passes."""
    t0 = time.process_time()
    for _ in range(passes):
        kernel(*args)
    return (time.process_time() - t0) / passes
