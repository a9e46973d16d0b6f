"""A fixed measure of the machine's current speed, timed between solves.

On a shared host the same solve can run 25% faster or slower a minute
later, because other tenants' load changes.  The yardstick is one plain
projected-gradient step, ``x <- clip(x - 1e-3 M x)`` plus a dot product, on
a fixed dense matrix.  From ``n1 = 512`` up, a solver iteration is bound by
matrix-vector products on its ``n1 x n1`` Hessians, and the matrix is
``n1 x n1`` too.  Below that the solver is bound by interpreter overhead
around small products, and the matrix is 128 x 128, so the step is mostly
that overhead as well.  The yardstick calls no ``qcqpd`` code, so no change
to the package can move it.  Dividing a solve time by the step time gives
the solve's cost in steps, which the host's drift leaves alone.
"""

from time import perf_counter

import numpy as np

PASS_S = 0.05
GEMV_BOUND_N1 = 512
SMALL_N = 128
_CHECK_EVERY = 16


class Yardstick:
    def __init__(self, n1):
        n = n1 if n1 >= GEMV_BOUND_N1 else SMALL_N
        rng = np.random.Generator(np.random.PCG64(0))
        self._M = np.asfortranarray(rng.standard_normal((n, n)))
        self._x0 = rng.standard_normal(n)

    def step_seconds(self):
        """Seconds per step, timed over a pass of at least ``PASS_S`` seconds."""
        M = self._M
        x = self._x0.copy()
        acc = 0.0
        steps = 0
        t0 = perf_counter()
        while True:
            y = M @ x
            acc += float(y @ x)
            x = np.clip(x - 1e-3 * y, -1.0, 1.0)
            steps += 1
            if steps % _CHECK_EVERY == 0:
                elapsed = perf_counter() - t0
                if elapsed >= PASS_S:
                    return elapsed / steps
