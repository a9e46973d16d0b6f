"""Reference implementations the tests compare the package against.

* :func:`reference_solve_small`, an augmented-Lagrangian solver for small
  dense instances, unrelated to the predictor-corrector path, so
  agreement with :func:`qcqpd.solve` is an independent check;
* :func:`reference_norms`, the per-bound norms from ``np.linalg.norm`` on
  dense copies, independent of the package's ``_frob``;
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
import scipy.sparse as sp

from qcqpd import kkt_residual_max
from qcqpd.core import BIG_M, EPS0, _root_rule
from qcqpd.generators import Kernel


class OracleError(RuntimeError):
    """The reference solver failed to reach its target accuracy."""


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
        p.objective(x, u)
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


# --- step size ---------------------------------------------------------------


def _dense(M):
    return M.toarray() if sp.issparse(M) else np.asarray(M, dtype=np.float64)


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
