"""A fixed pure-Python reference kernel that measures the machine's speed.

On a shared host the speed of one CPU drifts by 15-40% over seconds to
minutes, which no run length averages away.  Runs therefore time this
kernel between the program's jobs and operations and report every time
at the nominal speed at which the kernel takes NOMINAL_S seconds:

    corrected = measured * NOMINAL_S / median(kernel times around it)

Host drift cancels and the program's own cost stays.  The kernel does the
same kind of work as the program, in code the program does not share:
fraction-free elimination of a sparse integer matrix with gcd
normalisation, then rational back-substitution.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction
from math import gcd

ROWS, COLS, DENSITY, SEED = 52, 64, 0.25, 20060426
# The kernel's time on the 2-vCPU Xeon host the benchmark was written on,
# in its faster phases; corrected times are seconds at that speed.
NOMINAL_S = 0.1


def _matrix():
    rng = random.Random(SEED)
    return [[rng.randint(-6, 6) if rng.random() < DENSITY else 0
             for _ in range(COLS)] for _ in range(ROWS)]


MATRIX = _matrix()


def kernel():
    """The fixed work: returns the rank, which never changes."""
    rows = [list(r) for r in MATRIX]
    pivots = []
    pr = 0
    for c in range(COLS):
        sel = next((r for r in range(pr, ROWS) if rows[r][c]), None)
        if sel is None:
            continue
        rows[pr], rows[sel] = rows[sel], rows[pr]
        p = rows[pr][c]
        for r in range(pr + 1, ROWS):
            f = rows[r][c]
            if f:
                new = [p * a - f * b for a, b in zip(rows[r], rows[pr])]
                g = 0
                for v in new:
                    g = gcd(g, v)
                rows[r] = [v // g for v in new] if g > 1 else new
        pivots.append(c)
        pr += 1
        if pr == ROWS:
            break
    out = [[Fraction(x) for x in row] for row in rows[:len(pivots)]]
    for i in reversed(range(len(pivots))):
        c = pivots[i]
        out[i] = [x / out[i][c] for x in out[i]]
        for r in range(max(0, i - 4), i):
            f = out[r][c]
            if f:
                out[r] = [a - f * b for a, b in zip(out[r], out[i])]
    return len(pivots)


def measure():
    """Seconds the kernel takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def correct(seconds, kernel_times):
    """`seconds`, measured alongside `kernel_times`, at nominal speed."""
    return seconds * NOMINAL_S / statistics.median(kernel_times)


if __name__ == "__main__":
    print([round(measure(), 4) for _ in range(8)], kernel())
