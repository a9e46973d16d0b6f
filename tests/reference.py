"""Reference implementations the tests compare the package against.

* :func:`objective`, the objective value ``0.5 x'P0 x + q0'x + c0'u + r0``
  of a problem at a point, on a dense copy of ``P0``;
* :func:`reference_solve_small`, an augmented-Lagrangian solver for small
  dense instances, unrelated to the predictor-corrector path, so
  agreement with :func:`qcqpd.solve` is an independent check;
* :func:`reference_kkt`, the residual pair and the max-norm certificate
  from the five first-order condition vectors, written out on dense
  copies, so sharing the conditions between the stopping test and the
  certificate is checked against a separate definition;
* :func:`reference_norms`, the per-bound norms from ``np.linalg.norm`` on
  dense copies, independent of the package's ``_frob``;
* :func:`_root_rule`, the positive root of the quadratic each step-size
  bound solves, and :func:`pairwise_step_size`, the closed-form step size
  as the least of these roots over every pair of a bound-2 and a bound-3
  term, which :func:`qcqpd.core.adaptive_step_size` inlines and must
  reproduce bit for bit;
* :func:`reference_ranges`, the balanced column split as one half-open
  range per worker, built one worker at a time, which the width runs of
  :func:`qcqpd.dist._width_runs` must expand to exactly;
* :func:`reference_products`, the partitioned Hessian products computed
  per call over those ranges, each worker's rows one 2-D product per
  square matrix, and :func:`reference_dot`, the row-wise products as a
  list of per-worker products of fresh slices summed by :func:`_tree_sum`,
  each into a new array, which the plans of
  :meth:`qcqpd.dist.ColumnBlocks.bind` and
  :meth:`qcqpd.dist.ColumnBlocks.bind_dot` must reproduce bit for bit;
* :func:`reference_pass`, one predictor or corrector pass written as the
  compound expressions over those per-call kernels, which the plan of
  :meth:`qcqpd.core._Workspace._bind` must reproduce bit for bit;
* :func:`reference_step_size`, the eight step-size bounds one bound at a
  time for a given budget split.  At the split
  :func:`reference_budget_needs` gives it must return the closed-form
  :func:`qcqpd.core.adaptive_step_size`, and at the even split
  (:func:`even_split_step_size`) it is the baseline the adaptive split is
  measured against;
* :func:`kernel_eval`, the kernel value of one pair of points, which the
  vectorized :func:`qcqpd.generators.gram_matrix` must reproduce entry by
  entry;
* :func:`project_box`, the projection onto the box, which the ``x`` block
  of :func:`qcqpd.core.projected_step` must reproduce bit for bit.
"""

import math
from types import SimpleNamespace

import numpy as np

from qcqpd import kkt_residual_max
from qcqpd.core import BIG_M, EPS0
from qcqpd.generators import Kernel


class OracleError(RuntimeError):
    """The reference solver failed to reach its target accuracy."""


def _dense(M):
    """A matrix as a dense array; a Hessian stored as its diagonal becomes the diagonal matrix."""
    M = np.asarray(M, dtype=np.float64)
    return np.diag(M) if M.ndim == 1 else M


def objective(problem, x, u):
    """``0.5 x'P0 x + q0'x + c0'u + r0``."""
    p = problem
    return 0.5 * float(x @ _dense(p.P[0]) @ x) + float(p.q[0] @ x) + float(p.c[0] @ u) + float(p.r[0])


# --- reference solver -------------------------------------------------------


def project_box(problem, x):
    """Project onto the box ``0 <= x_j <= x_upper_j``."""
    return np.clip(x, 0.0, problem.x_upper)


# Iteration caps of the reference solver: outer multiplier steps, inner gradient steps.
REFERENCE_MAX_OUTER = 200
REFERENCE_MAX_INNER = 20000


def _al_value_grad(problem, x, u, lam, gam, beta):
    """Augmented-Lagrangian value and gradient blocks at ``(x, u)``."""
    p = problem
    cons = p.constraint_values(x, u)
    eq = p.equality_residual(x, u)
    lam_eff = np.maximum(0.0, lam + beta * cons)
    val = (
        objective(p, x, u)
        + float(lam_eff @ lam_eff - lam @ lam) / (2.0 * beta)
        + float(gam @ eq)
        + 0.5 * beta * float(eq @ eq)
    )
    gam_eff = gam + beta * eq
    gx = p.lagrangian_grad_x(x, lam_eff, gam_eff)
    gu = p.lagrangian_grad_u(lam_eff, gam_eff)
    return val, gx, gu


def _al_inner(problem, x, u, lam, gam, beta, gtol):
    """Minimize the augmented Lagrangian over the box by spectral projected gradient."""
    p = problem
    val, gx, gu = _al_value_grad(p, x, u, lam, gam, beta)
    step = 1.0 / max(1.0, float(np.linalg.norm(gx)) + float(np.linalg.norm(gu)))
    for _ in range(REFERENCE_MAX_INNER):
        stat = 0.0
        if p.n1:
            stat = float(np.abs(x - project_box(p, x - gx)).max())
        if p.n2:
            stat = max(stat, float(np.abs(gu).max()))
        if stat <= gtol:
            break
        # Armijo backtracking on the projected step
        while True:
            xn = project_box(p, x - step * gx)
            un = u - step * gu
            decrease = float(gx @ (x - xn)) + float(gu @ (u - un))
            valn, gxn, gun = _al_value_grad(p, xn, un, lam, gam, beta)
            if valn <= val - 1e-4 * decrease + 1e-14 * abs(val) or step < 1e-16:
                break
            step *= 0.5
        # Barzilai-Borwein step for the next iteration
        sx, su = xn - x, un - u
        yx, yu = gxn - gx, gun - gu
        ss = float(sx @ sx) + float(su @ su)
        sy = float(sx @ yx) + float(su @ yu)
        step = min(max(ss / sy, 1e-12), 1e8) if sy > 1e-18 * max(ss, 1e-30) else step * 2.0
        x, u, val, gx, gu = xn, un, valn, gxn, gun
    return x, u


def reference_solve_small(problem, tol=1e-6):
    """Solve a small dense instance by an augmented-Lagrangian method.

    Outer multiplier steps wrap a spectral projected-gradient inner
    minimization; the penalty grows whenever feasibility stalls.  Stops
    once :func:`kkt_residual_max` falls below ``tol`` and raises
    :class:`OracleError` otherwise.  Intended for cross-checking other
    solvers on desk-scale problems (dense, ``n1`` up to a few hundred),
    entirely unrelated to the predictor-corrector path.
    """
    p = problem
    x = project_box(p, np.zeros(p.n1))
    u = np.zeros(p.n2)
    lam = np.zeros(p.m1)
    gam = np.zeros(p.m2)
    beta = 10.0
    gtol = 1e-2
    prev_viol = math.inf
    for _ in range(REFERENCE_MAX_OUTER):
        x, u = _al_inner(p, x, u, lam, gam, beta, gtol)
        cons = p.constraint_values(x, u)
        eq = p.equality_residual(x, u)
        lam = np.maximum(0.0, lam + beta * cons)
        gam = gam + beta * eq
        if kkt_residual_max(x, u, lam, gam, p) <= tol:
            return x, u, lam, gam
        viol = 0.0
        if p.m1:
            viol = float(np.maximum(0.0, cons).max())
        if p.m2:
            viol = max(viol, float(np.abs(eq).max()))
        if viol > 0.25 * prev_viol:
            beta = min(beta * 4.0, 1e12)
        prev_viol = max(viol, 1e-300)
        gtol = max(0.2 * gtol, tol * 1e-2)
    raise OracleError(f"reference solver did not reach kkt tolerance {tol:g} in {REFERENCE_MAX_OUTER} outer iterations")


# --- optimality conditions -----------------------------------------------------


def reference_kkt(problem, x, u, lam, gam):
    """``(res1, res2, kkt_max)`` from the five first-order condition vectors at a point.

    Textbook formulas on dense copies, sharing no code with
    :mod:`qcqpd.diagnostics` or the ``QcqpProblem`` evaluators.  With
    ``f_i = x'Pi x / 2 + qi'x + ci'u + ri`` the vectors are: the gradient
    ``g = P0 x + q0 + sum_i lam_i (Pi x + qi) + A'gam`` with its component
    ``g_j`` replaced by ``min(g_j, 0)`` at ``x_j = 0`` and ``max(g_j, 0)`` at
    ``x_j = x_upper_j``; ``c0 + sum_i lam_i ci + B'gam``; ``|lam_i f_i|``;
    ``max(f_i, 0)``; and ``A x + B u - b``.  ``res1`` is the RMS of the first
    two over ``n1 + n2`` entries, ``res2`` that of the other three over
    ``m1 + m2`` (0 for an empty count), and ``kkt_max`` the largest magnitude
    of all five.
    """
    p = problem
    P, A, B = [_dense(M) for M in p.P], _dense(p.A), _dense(p.B)
    f = np.array([0.5 * x @ P[i] @ x + p.q[i] @ x + p.c[i] @ u + p.r[i] for i in range(1, p.m1 + 1)])
    g_x = P[0] @ x + p.q[0] + A.T @ gam
    g_u = p.c[0] + B.T @ gam
    for i in range(1, p.m1 + 1):
        g_x += lam[i - 1] * (P[i] @ x + p.q[i])
        g_u += lam[i - 1] * p.c[i]
    g_x = np.array([min(g, 0.0) if xj <= 0.0 else max(g, 0.0) if xj >= top else g
                    for g, xj, top in zip(g_x, x, p.x_upper)])
    stationarity = [g_x, g_u]
    feasibility = [np.abs(lam * f), np.maximum(f, 0.0), A @ x + B @ u - p.b]

    def rms(vectors, count):
        return math.sqrt(sum(float(v @ v) for v in vectors) / count) if count else 0.0

    kkt_max = max((float(np.abs(v).max()) for v in stationarity + feasibility if v.size), default=0.0)
    return rms(stationarity, p.n1 + p.n2), rms(feasibility, p.m1 + p.m2), kkt_max


# --- step size ---------------------------------------------------------------


def _root_rule(a, b, c):
    """Positive root of ``a t^2 + b t - c = 0`` for a >= 0, b > 0, c > 0.

    ``2c / (b + sqrt(b^2 + 4ac))``, which does not cancel when ``b^2 >> 4ac``,
    and ``c / b`` when ``a = 0``.  When ``b^2 + 4ac`` overflows (``b`` above
    about 1e154) its root is taken as ``hypot(b, 2 sqrt(ac))``.
    """
    if a > 0.0:
        d = b * b + 4.0 * a * c
        return 2.0 * c / (b + (math.sqrt(d) if d < math.inf else math.hypot(b, 2.0 * math.sqrt(a * c))))
    return c / b


def pairwise_step_size(norms, x, lam, cons, grad):
    """``min(BIG_M, _root_rule(a2 + a3, beta + b2 + b3, 1 - EPS0))`` over every
    pair of a bound-2 term ``(a2, b2)`` and a bound-3 term ``(a3, b3)``.

    The terms are those of :func:`qcqpd.core.adaptive_step_size`: ``(0, 0)``
    stands for bound 2 when ``m1 = 0``, and bound 3 has ``(0, 1/2)`` and,
    when ``stacked > 0``, ``(S ||grad|| / 2, S ||x||)``.
    """
    stacked = norms.stacked
    x_norm = math.sqrt(x.dot(x))
    beta = norms.static_den_sum + (x_norm * stacked if x_norm and stacked else 1.0)
    bound3 = [(0.0, 0.5)]
    if stacked:
        bound3.append((0.5 * stacked * math.sqrt(grad.dot(grad)), stacked * x_norm))
    bound2 = [(s * abs(a), s * b) for a, b, s in zip(cons.tolist(), lam.tolist(), norms.pi_scale)]
    rho = BIG_M
    for a2, b2 in bound2 or [(0.0, 0.0)]:
        for a3, b3 in bound3:
            rho = min(rho, _root_rule(a2 + a3, beta + b2 + b3, 1.0 - EPS0))
    return rho


def reference_norms(problem):
    """The Frobenius norms of the step-size bounds, by ``np.linalg.norm`` on dense copies.

    ``P0``, ``Pi`` (one per quadratic constraint), ``stacked`` (the
    vertically stacked ``(P1; ...; Pm1)``), ``Q`` and ``C`` (the rows ``qi``
    and ``ci``, ``i >= 1``), ``A`` and ``B``; an empty block has norm 0.
    Entries must be small enough that their squares do not overflow.
    """
    p = problem
    Pi = [_dense(M) for M in p.P[1:]]
    return SimpleNamespace(
        P0=float(np.linalg.norm(_dense(p.P[0]))),
        Pi=np.array([np.linalg.norm(M) for M in Pi]),
        stacked=float(np.linalg.norm(np.vstack(Pi))) if Pi else 0.0,
        Q=float(np.linalg.norm(p.q[1:])),
        C=float(np.linalg.norm(p.c[1:])),
        A=float(np.linalg.norm(_dense(p.A))),
        B=float(np.linalg.norm(_dense(p.B))),
    )


def reference_step_size(problem, x, lam, epsilons, cons, grad):
    """``(rho, components)`` of the eight step-size bounds, each bound on its own.

    ``epsilons`` holds the eight budgets ``eps_s``; the norms are
    :func:`reference_norms`.  Five bounds are static ratios
    ``eps_s / norm`` (``eps_s`` when the norm vanishes); the other three
    depend on the iterate:

    * per-constraint quadratic-root bound with ``a_i`` the absolute
      constraint value, ``b_i = lam_i``, ``c_i = eps_2 / (m1 ||Pi||_F)``
      (minimum over constraints; the arbitrarily large :data:`BIG_M` when
      a constraint has ``a_i = b_i = 0``, and outright when ``m1 = 0``),
    * a quadratic-root bound capped at ``2 eps_3`` with ``a`` the
      Lagrangian-gradient norm, ``b = 2 ||x||`` and ``c`` scaled by the
      stacked constraint-Hessian norm (the cap alone when ``a = b = 0``),
    * ``eps_5 / (||x|| ||P_stacked||)``.

    When the stacked norm is zero (no quadratic constraints: a plain QP)
    the latter two degenerate to their ``c -> inf`` limits ``2 eps_3`` and
    ``eps_5``.
    """
    p = problem
    norms = reference_norms(p)
    e1, e2, e3, e4, e5, e6, e7, e8 = (float(e) for e in epsilons)

    rho1 = e1 / norms.P0 if norms.P0 != 0.0 else e1

    if p.m1 == 0:
        rho2 = BIG_M
    else:
        rho2 = math.inf
        for i in range(p.m1):
            nPi = norms.Pi[i]
            ci = e2 / (p.m1 * nPi) if nPi != 0.0 else e2 / p.m1
            a, b = abs(float(cons[i])), float(lam[i])
            rho2 = min(rho2, _root_rule(a, b, ci) if a or b else BIG_M)

    x_norm = float(np.linalg.norm(x))
    if norms.stacked == 0.0:
        rho3 = 2.0 * e3
        rho5 = e5
    else:
        a, b = float(np.linalg.norm(grad)), 2.0 * x_norm
        rho3 = min(2.0 * e3, _root_rule(a, b, 2.0 * e3 / norms.stacked)) if a or b else 2.0 * e3
        rho5 = e5 if x_norm == 0.0 else e5 / (x_norm * norms.stacked)

    rho4 = e4 / norms.Q if norms.Q != 0.0 else e4
    rho6 = e6 / norms.C if norms.C != 0.0 else e6
    rho7 = e7 / norms.A if norms.A != 0.0 else e7
    rho8 = e8 / norms.B if norms.B != 0.0 else e8

    components = np.array([rho1, rho2, rho3, rho4, rho5, rho6, rho7, rho8])
    return float(components.min()), components


EVEN_SPLIT = np.full(8, (1.0 - EPS0) / 8)


def even_split_step_size(problem, x, lam, cons, grad):
    """The step size at the even split ``(1 - EPS0) / 8`` of the budget.

    Takes the state arguments of :func:`qcqpd.core.adaptive_step_size`
    after the problem, so a test that binds the problem can put it in that
    function's place to solve with the even split.
    """
    return reference_step_size(problem, x, lam, EVEN_SPLIT, cons, grad)[0]


def reference_budget_needs(problem, x, lam, cons, grad, rho):
    """``need_s(rho)``: the least budget ``eps_s`` at which bound ``s`` of
    :func:`reference_step_size` allows the step ``rho``, one bound at a time."""
    p = problem
    norms = reference_norms(p)

    def static(norm):
        return rho * norm if norm != 0.0 else rho

    need2 = 0.0
    for i in range(p.m1):
        scale = p.m1 * norms.Pi[i] if norms.Pi[i] != 0.0 else p.m1
        need2 = max(need2, scale * (abs(float(cons[i])) * rho**2 + float(lam[i]) * rho))

    x_norm = float(np.linalg.norm(x))
    stacked = norms.stacked
    if stacked == 0.0:
        need3, need5 = rho / 2.0, rho
    else:
        need3 = max(rho / 2.0, stacked * (float(np.linalg.norm(grad)) * rho**2 + 2.0 * x_norm * rho) / 2.0)
        need5 = rho if x_norm == 0.0 else rho * x_norm * stacked

    return np.array([static(norms.P0), need2, need3, static(norms.Q), need5,
                     static(norms.C), static(norms.A), static(norms.B)])


# --- one pass ----------------------------------------------------------------


def _tree_sum(parts):
    """Pairwise left-to-right tree reduction; fixed, deterministic order."""
    while len(parts) > 1:
        nxt = []
        for i in range(0, len(parts) - 1, 2):
            nxt.append(parts[i] + parts[i + 1])
        if len(parts) % 2:
            nxt.append(parts[-1])
        parts = nxt
    return parts[0]


def reference_ranges(n, workers):
    """The half-open column range ``(lo, hi)`` of each of ``workers`` workers over ``n`` columns.

    Contiguous blocks whose widths differ by at most one; the first ``n %
    workers`` workers take the wider ones.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    base, extra = divmod(n, workers)
    ranges, lo = [], 0
    for w in range(workers):
        hi = lo + base + (1 if w < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges


def reference_products(hessians, x, workers, stats):
    """The ``(k, n)`` products ``P_i x`` of a :class:`qcqpd.dist.ColumnBlocks` stack over ``workers``, in a new array.

    Reads the stack's own blocks, the items of its arrays of equal-width
    workers' blocks in worker order, each stacking one worker's rows of the
    square matrices, against the :func:`reference_ranges` of ``x``: each
    row kept whole is ``dsymv``'s product, and each diagonal's row is ``d *
    x``.  On one worker the square rows are the one block's 2-D product
    with ``x``; otherwise worker ``[lo, hi)`` writes columns ``[lo, hi)`` of
    each square row, the 2-D product of that matrix's ``hi - lo`` rows of
    its block with the whole ``x``, one product per matrix, as the batched
    call runs each item.  Books one allgather of ``x``.
    """
    k, n = hessians._shape
    out = np.empty((k, n))
    for i, M in hessians._symmetric:
        hessians._dsymv(1.0, M, x, beta=0.0, y=out[i], overwrite_y=1)
    if hessians._square:
        rows, stacks = hessians._square
        blocks = [block for stack in stacks for block in stack]
        ranges = reference_ranges(n, workers)
        square = np.empty((len(out[rows]), n))
        for block, (lo, hi) in zip(blocks, ranges, strict=True):
            if workers == 1:
                square[:] = (block @ x).reshape(-1, n)
            else:
                c = hi - lo
                for i, row in enumerate(square):
                    row[lo:hi] = block[i * c:(i + 1) * c] @ x
        out[rows] = square
    for i, d in hessians._diagonal:
        out[i] = d * x
    stats.record(n_gathered=n)
    return out


def reference_dot(X, y, workers, stats):
    """The row-wise products ``X @ y`` as the tree sum of ``X[:, lo:hi] @ y[lo:hi]`` over
    the :func:`reference_ranges` of ``workers``; books one reduce of ``len(X)`` doubles."""
    stats.record(len(X))
    return _tree_sum([X[:, lo:hi] @ y[lo:hi] for lo, hi in reference_ranges(len(y), workers)])


def reference_pass(problem, hessians, workers, stats, z, F):
    """The plan of :meth:`qcqpd.core._Workspace._bind` with each quantity one compound expression.

    Writes ``F = (grad_x, grad_u, -cons, -eq)`` at the state ``z`` through
    :func:`reference_products` and :func:`reference_dot`, with the
    quadratic and equality constraints as one block of ``m1 + m2`` rows and
    multipliers ``y = (lam, gam)``, and returns the Hessian products.
    ``J`` and ``HA`` are row-major, as the pass's buffers are.
    """
    p = problem
    n1, nu = p.n1, p.n1 + p.n2
    x, u, y = z[:n1], z[n1:nu], z[nu:]
    Px = reference_products(hessians, x, workers, stats)
    J = np.ascontiguousarray(np.block([[Px + p.q, p.c], [p.A, p.B]]))
    F[:nu] = J[0] + y @ J[1:]
    if p.m1 + p.m2:
        HA = np.ascontiguousarray(np.vstack([0.5 * Px[1:] + p.q[1:], p.A]))
        g = reference_dot(HA, x, workers, stats)
        F[nu:] = -np.concatenate([p.r[1:], -p.b]) - (g + J[1:, n1:] @ u if p.n2 else g)
    return Px


# --- kernels -----------------------------------------------------------------


def kernel_eval(kernel: Kernel, d, dp) -> float:
    """Kernel value for a single pair of points."""
    d = np.asarray(d, dtype=np.float64)
    dp = np.asarray(dp, dtype=np.float64)
    if kernel.kind == "linear":
        return float(d @ dp)
    if kernel.kind == "polynomial":
        return float((1.0 + d @ dp) ** 2)
    diff = d - dp
    return float(np.exp(-(diff @ diff) / (2.0 * kernel.sigma2)))
