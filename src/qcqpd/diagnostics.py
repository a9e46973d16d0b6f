"""Optimality conditions, termination classification and solution checks.

The first-order conditions are defined once (:func:`_conditions`) as five
vectors: stationarity, the Lagrangian gradient clipped against the box
normal cone in ``x`` and the gradient in ``u``, and feasibility, the
complementarity ``lam_i |cons_i|``, the violation ``max(0, cons_i)`` and
the equality rows.  The RMS of each group is the stopping pair ``(res1,
res2)`` (:func:`compute_residuals`), the max-norm over all five the
certificate :func:`kkt_residual_max`.  The pair also exposes pathological
instances: a diverging ``res2`` with bounded ``res1`` points at
infeasibility, while ``res1`` leveling off at a nonzero value with ``res2``
converged, so at a primal-feasible iterate, points at an unbounded
objective.  Neither detection is a certificate; both are flagged as
"suspected".  Kernel-combination SVM solutions are scored on a test set.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .model import _frob

__all__ = [
    "TerminationStatus",
    "compute_residuals",
    "classify_termination",
    "kkt_residual_max",
    "serial_operator",
    "test_set_accuracy",
]


# Residual checks a suspected-pathology pattern must span (500 iterations at
# qcqpd.core.TRACE_EVERY), and the largest relative spread of res1 over them
# that still counts as a plateau.
DIVERGENCE_WINDOW = 50
PLATEAU_REL_CHANGE = 1e-6


class TerminationStatus(enum.Enum):
    CONVERGED = "converged"
    MAX_ITERS_EXCEEDED = "max_iters_exceeded"
    INFEASIBLE_SUSPECTED = "infeasible_suspected"
    UNBOUNDED_SUSPECTED = "unbounded_suspected"
    DIVERGED = "diverged"


def serial_operator(problem, x, u, lam, gam):
    """The operator blocks ``(g_x, g_u, -cons, -eq)`` at a point, from the serial
    :class:`qcqpd.QcqpProblem` evaluators rather than the solver's pass."""
    p = problem
    return (p.lagrangian_grad_x(x, lam, gam), p.lagrangian_grad_u(lam, gam),
            -p.constraint_values(x, u), -p.equality_residual(x, u))


def _conditions(problem, x, lam, F):
    """The stationarity vectors ``(clip(g_x), g_u)`` and the feasibility vectors
    ``(lam |cons|, max(0, cons), eq)`` of the operator blocks ``F = (g_x, g_u,
    -cons, -eq)``; all five are zero exactly at a KKT point.

    ``clip`` keeps the part of ``g_x`` outside the box normal cone: at the
    lower bound only a negative component, at a finite upper bound only a
    positive one, strictly inside the whole component.
    """
    grad_x, grad_u, neg_cons, neg_eq = F
    clipped = np.array(grad_x, dtype=np.float64, copy=True)
    at_lo = x <= 0.0
    clipped[at_lo] = np.minimum(0.0, clipped[at_lo])
    at_hi = x >= problem.x_upper
    clipped[at_hi] = np.maximum(0.0, clipped[at_hi])
    return (clipped, grad_u), (lam * np.abs(neg_cons), np.maximum(0.0, -neg_cons), neg_eq)


def _rms(blocks, count):
    """``sqrt(sum of squares / count)`` over ``blocks``, 0 for ``count = 0``; when the sum
    overflows (the caller silences numpy's warning) the entries are rescaled as in ``_frob``."""
    if not count:
        return 0.0
    total = sum(float(v @ v) for v in blocks)
    if total == math.inf:  # an entry above about 1.3e154: the rescaling norm
        return _frob(np.concatenate(blocks)) / math.sqrt(count)
    return math.sqrt(total / count)


def compute_residuals(problem, x, lam, F):
    """The stopping pair ``(res1, res2)``: RMS stationarity and RMS feasibility.

    ``F = (g_x, g_u, -cons, -eq)`` are the operator blocks at the iterate:
    the Lagrangian gradient, the negated quadratic constraint values and the
    negated equality rows ``Ax + Bu - b``.  Over :func:`_conditions`, ``res1
    = sqrt((||clip(g_x)||^2 + ||g_u||^2) / (n1 + n2))`` and ``res2 =
    sqrt((||lam |cons|||^2 + ||max(0, cons)||^2 + ||eq||^2) / (m1 + m2))``;
    an empty group gives 0, and an overflowing sum of squares is rescaled.
    """
    p = problem
    with np.errstate(over="ignore"):
        stationarity, feasibility = _conditions(p, x, lam, F)
        return _rms(stationarity, p.n1 + p.n2), _rms(feasibility, p.m1 + p.m2)


def classify_termination(residuals, tol, divergence_threshold):
    """Classify a residual history; returns ``(status, message)`` or ``None``.

    ``residuals`` lists the residual checks in order, each with
    ``iteration``, ``res1`` and ``res2`` (the solve trace's rows).

    * converged: both residuals of the last entry below ``tol``;
    * infeasibility suspected: ``res2`` above ``divergence_threshold``
      and strictly increasing over the last :data:`DIVERGENCE_WINDOW`
      entries, while ``res1`` stays below the same threshold;
    * unboundedness suspected: ``res2`` below ``tol``, so the iterate is
      primal feasible to within ``tol``, but ``res1``
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
    """Max-norm of the five condition vectors of :func:`_conditions` at a point.

    The certificate reads the same conditions as :func:`compute_residuals`,
    on :func:`serial_operator`; a max-norm bounds an RMS, so ``max(res1,
    res2) <= kkt_residual_max``.  Zero exactly at a KKT point.
    """
    lam = np.asarray(lam, dtype=np.float64)
    stationarity, feasibility = _conditions(problem, x, lam, serial_operator(problem, x, u, lam, gam))
    return max((float(np.abs(v).max()) for v in stationarity + feasibility if v.size), default=0.0)


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
