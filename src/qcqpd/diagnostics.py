"""Optimality residuals, termination classification and verification oracles.

Two averaged residuals drive the stopping test: ``res1`` measures dual
feasibility (the Lagrangian gradient, clipped against the normal cone of
the box on the ``x`` block) and ``res2`` measures complementarity plus
primal feasibility of the equalities.  Their joint behavior also exposes
pathological instances: a diverging ``res2`` with bounded ``res1`` points
at infeasibility, while ``res1`` leveling off at a nonzero value with
``res2`` converged points at an unbounded objective.  Neither detection
is a certificate; both are flagged as "suspected".

The module also provides an independent optimality certificate
(:func:`kkt_residual_max`, a max-norm aggregation of all first-order
conditions), a slow reference solver used only for cross-checking in
tests, and the test-set accuracy evaluation for kernel-combination SVM
instances.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ResidualReport",
    "TerminationStatus",
    "OracleError",
    "compute_residuals",
    "classify_termination",
    "kkt_residual_max",
    "reference_solve_small",
    "test_set_accuracy",
]


# Residual checks a suspected-pathology pattern must span, and the largest
# relative spread of res1 over them that still counts as a plateau.
DIVERGENCE_WINDOW = 50
PLATEAU_REL_CHANGE = 1e-6


class TerminationStatus(enum.Enum):
    CONVERGED = "converged"
    MAX_ITERS_EXCEEDED = "max_iters_exceeded"
    INFEASIBLE_SUSPECTED = "infeasible_suspected"
    UNBOUNDED_SUSPECTED = "unbounded_suspected"
    DIVERGED = "diverged"


@dataclass(frozen=True)
class ResidualReport:
    """Residual pair measured at one iterate."""

    res1: float
    res2: float
    iteration: int = 0


class OracleError(RuntimeError):
    """The reference solver failed to reach its target accuracy."""


def _clipped_gradient(problem, x, grad_x):
    """Gradient components clipped against the box normal cone.

    At the lower bound only an outward (negative) gradient counts as a
    violation; at a finite upper bound only a positive one; strictly
    inside, the full component counts.
    """
    clipped = np.array(grad_x, dtype=np.float64, copy=True)
    at_lo = x <= 0.0
    clipped[at_lo] = np.minimum(0.0, clipped[at_lo])
    at_hi = x >= problem.x_upper
    clipped[at_hi] = np.maximum(0.0, clipped[at_hi])
    return clipped


def compute_residuals(problem, x, u, lam, gam, grad_x=None, grad_u=None, cons=None, eq=None, iteration=0) -> ResidualReport:
    """Averaged dual-feasibility and complementarity/feasibility residuals.

    ``res1 = sqrt((sum_j clip(g_x)_j^2 + ||g_u||^2) / (n1 + n2))`` with
    ``g_x``, ``g_u`` the Lagrangian gradient blocks and the clipping of
    :func:`_clipped_gradient`; ``res2 = sqrt((sum_i (lam_i |cons_i|)^2 +
    ||Ax + Bu - b||^2) / (m1 + m2))``.  An empty block contributes a zero
    residual by convention.  Precomputed pieces may be supplied to avoid
    re-evaluating the Hessian products.
    """
    p = problem
    if grad_x is None:
        grad_x = p.lagrangian_grad_x(x, lam, gam)
    if grad_u is None:
        grad_u = p.lagrangian_grad_u(lam, gam)
    if cons is None:
        cons = p.constraint_values(x, u)
    if eq is None:
        eq = p.equality_residual(x, u)

    if p.n1 + p.n2 > 0:
        clipped = _clipped_gradient(p, x, grad_x)
        res1 = math.sqrt((float(clipped @ clipped) + float(grad_u @ grad_u)) / (p.n1 + p.n2))
    else:
        res1 = 0.0
    if p.m1 + p.m2 > 0:
        comp = lam * np.abs(cons)
        res2 = math.sqrt((float(comp @ comp) + float(eq @ eq)) / (p.m1 + p.m2))
    else:
        res2 = 0.0
    return ResidualReport(res1=res1, res2=res2, iteration=iteration)


def classify_termination(residuals, tol, divergence_threshold):
    """Classify a residual history; returns ``(status, message)`` or ``None``.

    * converged: both residuals of the last entry below ``tol``;
    * infeasibility suspected: ``res2`` above ``divergence_threshold``
      and strictly increasing over the last :data:`DIVERGENCE_WINDOW`
      entries, while ``res1`` stays below the same threshold;
    * unboundedness suspected: ``res2`` below ``tol`` but ``res1``
      flat (relative spread below :data:`PLATEAU_REL_CHANGE` over the
      window) at a level above ``10 * tol``.

    A pure function of the history: replaying a trace reproduces the
    classification.  The divergence/plateau rules are heuristics (the
    pathologies have no finite certificate here), hence "suspected".
    """
    if not residuals:
        return None
    last = residuals[-1]
    if last.res1 < tol and last.res2 < tol:
        return TerminationStatus.CONVERGED, (
            f"res1={last.res1:.3e}, res2={last.res2:.3e} below tol={tol:g} at iteration {last.iteration}"
        )
    if len(residuals) >= DIVERGENCE_WINDOW:
        window = residuals[-DIVERGENCE_WINDOW:]
        r2 = [r.res2 for r in window]
        if (
            last.res2 > divergence_threshold
            and last.res1 <= divergence_threshold
            and all(b > a for a, b in zip(r2, r2[1:]))
        ):
            return TerminationStatus.INFEASIBLE_SUSPECTED, (
                f"res2={last.res2:.3e} exceeds {divergence_threshold:g} and grew monotonically "
                f"over the last {DIVERGENCE_WINDOW} checks while res1={last.res1:.3e} stayed bounded"
            )
        r1 = [r.res1 for r in window]
        hi = max(r1)
        if (
            last.res2 < tol
            and last.res1 > 10.0 * tol
            and hi > 0.0
            and (hi - min(r1)) / hi < PLATEAU_REL_CHANGE
        ):
            return TerminationStatus.UNBOUNDED_SUSPECTED, (
                f"res2={last.res2:.3e} converged but res1 plateaued at {last.res1:.3e} "
                f"(> 10*tol) over the last {DIVERGENCE_WINDOW} checks"
            )
    return None


def kkt_residual_max(x, u, lam, gam, problem) -> float:
    """Max-norm aggregation of all first-order optimality conditions.

    Combines box-clipped stationarity in ``x``, stationarity in ``u``,
    complementarity ``|lam_i * cons_i|``, quadratic constraint violation
    ``max(0, cons_i)`` and the equality residual.  Independent of the
    averaged residual pair; zero exactly at a KKT point.
    """
    p = problem
    lam = np.asarray(lam, dtype=np.float64)
    terms = [0.0]
    if p.n1:
        clipped = _clipped_gradient(p, x, p.lagrangian_grad_x(x, lam, gam))
        terms.append(float(np.abs(clipped).max()))
    if p.n2:
        terms.append(float(np.abs(p.lagrangian_grad_u(lam, gam)).max()))
    if p.m1:
        cons = p.constraint_values(x, u)
        terms.append(float((lam * np.abs(cons)).max()))
        terms.append(float(np.maximum(0.0, cons).max()))
    if p.m2:
        terms.append(float(np.abs(p.equality_residual(x, u)).max()))
    return max(terms)


# --- reference solver -------------------------------------------------------

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
            stat = float(np.abs(x - p.project_box(x - gx)).max())
        if p.n2:
            stat = max(stat, float(np.abs(gu).max()))
        if stat <= gtol:
            break
        # Armijo backtracking on the projected step
        while True:
            xn = p.project_box(x - step * gx)
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
    x = p.project_box(np.zeros(p.n1))
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


# --- kernel-combination SVM scoring ----------------------------------------


def test_set_accuracy(alpha, kernel_weights, labels_train, labels_test, gram_train, gram_cross, svm="sm2", C=1.0):
    """Fraction of test points labeled correctly by the learned classifier.

    The decision value of a point is the kernel expansion of the trained
    coefficients under the weighted kernel combination, plus a bias
    recovered from margin support vectors: training points with
    ``0 < alpha_j < C`` for the 1-norm margin (functional margin exactly
    1), or ``alpha_j > 0`` for the 2-norm margin (functional margin
    ``1 - alpha_j / C``).  If no strict margin vector exists, the bias is
    averaged over all points with ``alpha_j > 0``.

    Parameters
    ----------
    alpha : array, shape (n_tr,)
        Trained coefficient vector.
    kernel_weights : array, shape (n_kernels,)
        Learned nonnegative combination weights.
    labels_train, labels_test : arrays of +-1
    gram_train : list of (n_tr, n_tr) arrays
        Per-kernel Gram blocks over the training points (normalized
        consistently with the training problem).
    gram_cross : list of (n_tr, n_t) arrays
        Per-kernel blocks pairing training with test points.
    svm : {"sm1", "sm2"}
        Which soft-margin criterion produced ``alpha``.
    C : float
        Margin parameter of that criterion.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    weights = np.asarray(kernel_weights, dtype=np.float64)
    ltr = np.asarray(labels_train, dtype=np.float64)
    lte = np.asarray(labels_test, dtype=np.float64)
    if svm not in ("sm1", "sm2"):
        raise ValueError(f"svm must be 'sm1' or 'sm2', got {svm!r}")

    coef = alpha * ltr
    f0_train = np.zeros(alpha.shape[0])
    f0_test = np.zeros(lte.shape[0])
    for w, Ktr, Kcross in zip(weights, gram_train, gram_cross):
        if w != 0.0:
            f0_train += w * (np.asarray(Ktr) @ coef)
            f0_test += w * (np.asarray(Kcross).T @ coef)

    scale = max(1.0, float(np.abs(alpha).max()) if alpha.size else 1.0)
    positive = alpha > 1e-8 * scale
    if svm == "sm1":
        margin = positive & (alpha < C * (1.0 - 1e-8))
        target = np.ones_like(alpha)
    else:
        margin = positive
        target = 1.0 - alpha / C
    if not margin.any():
        margin = positive
    if margin.any():
        b = float(np.mean(ltr[margin] * target[margin] - f0_train[margin]))
    else:
        b = 0.0

    predicted = np.where(f0_test + b >= 0.0, 1.0, -1.0)
    return float(np.mean(predicted == lte))
