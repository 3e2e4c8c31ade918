"""Host-speed reference: a fixed kernel timed between the operations.

The benchmark runs on a shared host whose speed drifts by 25-45 % in
stretches of tens of seconds to minutes, wall and CPU time alike.  The
drift moves every timing of a run together, so it is measured alongside:
``reference()`` times a fixed kernel that never changes with the program,
and each timing is scaled by ``REFERENCE_S / median(reference samples
taken around it)``.  The kernel compiles a generated module and inverts small
matrices; of the kernels tried (integer loops, dict and sort work, large
and small numpy ops, LAPACK inverses, compiling), this mix tracked the
drift of CLI children, sweeps and screened designs most closely.  A
timing so scaled reads in seconds at the speed the host had when the
kernel took ``REFERENCE_S``.
"""

from __future__ import annotations

import marshal
import statistics
from time import perf_counter

import numpy as np

# Roughly the kernel's median time on the 2-core x86 host the benchmark was
# written on.  Only the scale of the reported times depends on it.
REFERENCE_S = 0.004
# Reference samples whose median scales one timing.
WINDOW = 21

# Python source the kernel compiles: generated here, so that it does not
# change when any other file does.
_SOURCE = "\n".join(
    f"def f{i}(x, y=({i}, 'v{i}')):\n"
    f"    d = {{'k{i}': x, 'v': [y, x * {i}.5]}}\n"
    f"    for j in range(x):\n"
    f"        if j % {i % 7 + 2} == 0:\n"
    f"            d[f'j{{j}}'] = (j, str(j), {i})\n"
    f"    return sorted(d, key=str)\n"
    for i in range(30))
_MATRIX = np.random.default_rng(0).random((60, 60)) + 60.0 * np.eye(60)


def _kernel() -> None:
    """Compile and unmarshal a module, then invert small matrices."""
    marshal.loads(marshal.dumps(compile(_SOURCE, "<reference>", "exec")))
    for _ in range(2):
        np.linalg.inv(_MATRIX)


def reference() -> float:
    """Seconds the fixed kernel takes now."""
    start = perf_counter()
    _kernel()
    return perf_counter() - start


def factors(positions: list[int], samples: list[float]) -> list[float]:
    """Factors that turn timings into reference seconds.  Timing i is scaled
    by the median of the ``WINDOW`` reference samples taken nearest to it,
    so that drift within a run is followed too; ``positions[i]`` is the
    number of samples taken before timing i was measured."""
    out = []
    for p in positions:
        lo = min(max(0, p - WINDOW // 2), max(0, len(samples) - WINDOW))
        out.append(REFERENCE_S / statistics.median(samples[lo:lo + WINDOW]))
    return out


def scaled(times: list[float], positions: list[int], samples: list[float]) -> list[float]:
    """``times`` in reference seconds (see ``factors``)."""
    return [t * k for t, k in zip(times, factors(positions, samples))]
