"""Predictor-corrector proximal-multiplier solver for convex QCQPs.

The iterate is one state vector ``z = (x, u, lam, gam)``, and an iteration
is Korpelevich's extragradient form of one projected step
(:func:`projected_step`),

    w  = P_Z(z - rho F(z))    (predictor)
    z+ = P_Z(z - rho F(w))    (corrector)

with ``F = (grad_x L, grad_u L, -cons, -eq)`` the saddle operator of the
Lagrangian and ``P_Z`` the clip onto ``Z = box x R^n2 x R+^m1 x R^m2``:
a gradient step on ``(x, u)`` projected onto the box (``u`` is
unconstrained) and an ascent step on ``(lam, gam)`` with ``lam`` clipped
nonnegative.

The step is component-wise, so the ``x`` block can be partitioned by
coordinates; the products it needs run through the column-partitioned
kernels in :mod:`qcqpd.dist`.  Each pass (predictor or corrector) is one
call of :func:`_pass`, which writes ``F`` into one buffer and issues one
collective per quantity: the stacked Hessian products, the constraint
values and the equality rows.  The column blocks of the Hessians and of
``A`` are cut once per solve.

The step size is recomputed every iteration from eight bounds driven by
three per-solve norm constants (:class:`ProblemNorms`) and the current
iterate, each owning a share of the budget ``1 - EPS0``;
:func:`adaptive_step_size` computes the fixed point of the paper's
multiplicative weight rule for the shares in closed form.  ``EPS0 > 0``
keeps ``rho ||P0|| < 1``: at 1 the extragradient corrector stalls.
Scalars derived from reduced vectors (norms, the step size) are computed
redundantly, so every worker agrees on them bitwise.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import (
    TerminationStatus,
    classify_termination,
    compute_residuals,
)
from .dist import ColumnBlocks, CommStats, dist_dot, partition_columns
from .model import QcqpProblem, _frob

__all__ = [
    "SolverConfig",
    "SolveReport",
    "TraceRow",
    "solve",
    "projected_step",
    "state_bounds",
    "ProblemNorms",
    "compute_norms",
    "adaptive_step_size",
    "analytic_comm_stats",
    "EPS0",
    "BIG_M",
    "TRACE_EVERY",
]

# The step-size bounds split the budget 1 - EPS0 (see the module docstring).
EPS0 = 0.1

# The step size's cap (see adaptive_step_size).
BIG_M = 1e12

# The residual-check cadence in iterations: a check costs as much as an
# update, so it is not done every iteration.  The classifier's window
# counts checks, so it spans DIVERGENCE_WINDOW * TRACE_EVERY iterations.
TRACE_EVERY = 10

_EMPTY = np.zeros(0)


@dataclass
class SolverConfig:
    """Solve parameters.

    ``tol`` is the residual tolerance for convergence, ``max_iters`` the
    iteration cap and ``n_workers`` the number of column blocks ``x`` is
    partitioned into; both are integers >= 1.  ``divergence_threshold`` is
    the ``res2`` level that flags suspected infeasibility, see
    :func:`qcqpd.diagnostics.classify_termination`.  Both ``tol`` and
    ``divergence_threshold`` must be finite and > 0.  The step-size budget
    share :data:`EPS0` and the check cadence :data:`TRACE_EVERY` are
    constants.
    """

    tol: float = 1e-3
    max_iters: int = 200_000
    n_workers: int = 1
    divergence_threshold: float = 1e6

    def __post_init__(self):
        for name in ("tol", "divergence_threshold"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        for name in ("max_iters", "n_workers"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be >= 1")


# --- the projected step ----------------------------------------------------


def _blocks(problem, v):
    """Views of the ``x``, ``u``, ``lam`` and ``gam`` blocks of a state-length vector ``v``."""
    p = problem
    i, j, k = p.n1, p.n1 + p.n2, p.n1 + p.n2 + p.m1
    return v[:i], v[i:j], v[j:k], v[k:]


def state_bounds(problem):
    """``(lower, upper)`` of ``Z`` over ``z = (x, u, lam, gam)``: ``(0, -inf, 0, -inf)``
    and ``(x_upper, inf, inf, inf)`` block by block."""
    p = problem
    n = p.n1 + p.n2 + p.m1 + p.m2
    lower, upper = np.full(n, -np.inf), np.full(n, np.inf)
    x_lo, _, lam_lo, _ = _blocks(p, lower)
    x_lo[:] = lam_lo[:] = 0.0
    _blocks(p, upper)[0][:] = p.x_upper
    return lower, upper


def projected_step(z, F, rho, lower, upper, out):
    """``P_Z(z - rho F) = min(max(z - rho F, lower), upper)``, written into ``out``.

    With ``F = (grad_x, grad_u, -cons, -eq)`` the blocks are
    ``clip(x - rho grad_x, 0, x_upper)``, ``u - rho grad_u``,
    ``max(0, lam + rho cons)`` and ``gam + rho eq`` bit for bit:
    ``lam - rho (-cons)`` is ``lam + rho cons`` exactly, and ``u`` and ``gam``
    clip against infinite bounds.  ``out`` may be ``z``.
    """
    return np.minimum(np.maximum(z - rho * F, lower), upper, out=out)


# --- adaptive step size -----------------------------------------------------


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


@dataclass(frozen=True)
class ProblemNorms:
    """The three per-solve constants of :func:`adaptive_step_size`.

    ``stacked`` is ``||(P1; ...; Pm1)||_F``, the norm of the stacked
    constraint Hessians (0 when ``m1 = 0``).  ``static_den_sum`` sums the
    Frobenius norms of the five static bounds' matrices ``P0``, ``Q``,
    ``C``, ``A`` and ``B`` (``Q`` and ``C`` stack ``qi`` and ``ci``,
    ``i >= 1``, as rows), a zero norm counting as 1.  ``pi_scale`` holds
    ``m1 ||Pi||_F`` per quadratic constraint (``m1`` for a zero norm) as
    Python floats.
    """

    stacked: float
    static_den_sum: float
    pi_scale: tuple


def compute_norms(problem: QcqpProblem) -> ProblemNorms:
    """The norms :func:`adaptive_step_size` reads, once per solve.

    Every norm is :func:`qcqpd.model._frob`, which rescales when squaring
    overflows; the stacked norm is taken over the per-constraint norms, so
    it is finite whenever they are.
    """
    p = problem
    pi_norms = np.array([_frob(p.P[i]) for i in range(1, p.m1 + 1)])
    den = np.array([_frob(M) for M in (p.P[0], p.q[1:], p.c[1:], p.A, p.B)])
    den[den == 0.0] = 1.0
    return ProblemNorms(
        stacked=_frob(pi_norms),
        static_den_sum=float(den.sum()),
        pi_scale=tuple(np.where(pi_norms != 0.0, p.m1 * pi_norms, p.m1).tolist()),
    )


def adaptive_step_size(norms, x, lam, cons, grad):
    """The largest step that any split of the budget ``1 - EPS0`` allows.

    ``norms`` are the solve's :class:`ProblemNorms`; ``cons`` are the
    quadratic constraint values and ``grad`` the Lagrangian gradient in
    ``x``, both at the iterate.  Each of the eight step-size bounds owns a
    share ``eps_s`` of the budget and allows ``rho`` when ``eps_s`` is at
    least ``need_s(rho)``:

    * bounds 1, 4, 6, 7 and 8, static ratios on ``P0``, ``Q``, ``C``, ``A``
      and ``B``: ``rho ||M||_F`` (``rho`` for a zero norm), summed over the
      five in ``norms.static_den_sum``;
    * bound 2, per quadratic constraint: ``max_i pi_scale_i (|cons_i| rho^2
      + lam_i rho)``, 0 when ``m1 = 0``;
    * bound 3: ``max(rho/2, S (||grad|| rho^2 + 2 ||x|| rho) / 2)``;
    * bound 5: ``rho ||x|| S`` (``rho`` when ``||x|| S = 0``),

    with ``S = norms.stacked``.  Each need is a maximum of terms
    ``alpha rho^2 + beta rho``, so ``sum_s need_s(rho) = 1 - EPS0`` at the
    smallest positive root over the at most ``2 m1`` choices of terms,
    capped at :data:`BIG_M`.  There every bound binds: the fixed point of
    the paper's multiplicative weight rule.  The ``beta`` of every root is at
    least ``static_den_sum > 0``.
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


# --- solve loop -------------------------------------------------------------


@dataclass(frozen=True)
class TraceRow:
    """One residual-check record: ``iter,rho,res1,res2,objective``."""

    iteration: int
    rho: float
    res1: float
    res2: float
    objective: float


@dataclass
class SolveReport:
    """Outcome of one solve: final iterates, residuals, trace and traffic."""

    status: TerminationStatus
    message: str
    iterations: int
    x: np.ndarray
    u: np.ndarray
    lam: np.ndarray
    gam: np.ndarray
    objective: float
    res1: float
    res2: float
    rho_min: float
    rho_max: float
    rho_final: float
    comm: CommStats
    trace: list = field(default_factory=list)

    def to_json_dict(self):
        def num(v):
            return None if (v is None or not math.isfinite(v)) else float(v)

        return {
            "status": self.status.value,
            "message": self.message,
            "iterations": self.iterations,
            "objective": num(self.objective),
            "res1": num(self.res1),
            "res2": num(self.res2),
            "rho": {"min": num(self.rho_min), "max": num(self.rho_max), "final": num(self.rho_final)},
            "comm": self.comm.as_dict(),
            "x": [float(v) for v in self.x],
            "u": [float(v) for v in self.u],
            "lambda": [float(v) for v in self.lam],
            "gamma": [float(v) for v in self.gam],
        }

    def write_report_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh)
            fh.write("\n")

    def write_trace_csv(self, path):
        with open(path, "w") as fh:
            fh.write("iter,rho,res1,res2,objective\n")
            for row in self.trace:
                fh.write(f"{row.iteration},{row.rho!r},{row.res1!r},{row.res2!r},{row.objective!r}\n")


def analytic_comm_stats(problem, iterations):
    """Exact expected communication volume for a solve of ``iterations`` steps.

    One *pass* (predictor or corrector) issues, for an ``n1``-dimensional
    problem with ``m1`` quadratic and ``m2`` equality constraints:

    * one reduce of the ``(m1 + 1) n1`` stacked Hessian products, scattered
      back to the workers,
    * one reduce of the ``m1`` quadratic constraint values (absent when
      ``m1 = 0``),
    * one reduce of the ``m2`` equality rows (absent when ``m2 = 0``).

    A finished solve of ``k`` iterations runs ``2k`` such passes plus the
    one extra predictor pass of the iteration that observed termination.

    Scalar reductions over all ``n1`` coordinates of ``x`` are not booked,
    here or in the solve's :class:`CommStats`: the step size's ``||x||``
    and ``||grad_x L||`` every iteration, and the residual check's
    clipped-gradient sum of squares and the trace objective's ``x' P0 x``
    every check.  A column-partitioned deployment needs a reduce of one
    double for each.
    """
    p = problem
    passes = 2 * iterations + 1
    reduces_per_pass = 1 + (p.m1 > 0) + (p.m2 > 0)
    bytes_reduced_per_pass = 8 * ((p.m1 + 1) * p.n1 + p.m1 + p.m2)
    return CommStats(
        reduce_ops=passes * reduces_per_pass,
        scatter_ops=passes,
        bytes_reduced=passes * bytes_reduced_per_pass,
        bytes_scattered=passes * 8 * (p.m1 + 1) * p.n1,
    )


def _pass(problem, hessians, a_blocks, stats, at, f):
    """One pass at the state blocks ``at = (x, u, lam, gam)``; returns ``(Px, cons, eq)``.

    Writes ``F = (grad_x, grad_u, -cons, -eq)`` into the blocks ``f`` of
    the operator buffer.  ``Px`` stacks the Hessian products (row ``i`` is
    ``Pi x``), ``cons`` are the quadratic constraint values and ``eq`` the
    equality rows ``A x + B u - b``.  ``Px``, ``cons`` and ``eq`` cost one
    reduce each (none for an empty ``cons`` or ``eq``); ``A' gam`` is
    worker-local.
    """
    p = problem
    x, u, lam, gam = at
    grad_x, grad_u, neg_cons, neg_eq = f
    Px = hessians.matvec(x, stats).reshape(p.m1 + 1, p.n1)
    G = Px + p.q  # row i: Pi x + qi
    np.add(G[0], lam @ G[1:], out=grad_x)
    cons = eq = _EMPTY
    if p.m1:
        cons = dist_dot(0.5 * Px[1:] + p.q[1:], x, hessians.partition, stats) + p.c[1:] @ u + p.r[1:]
        np.negative(cons, out=neg_cons)
    if p.m2:
        eq = a_blocks.matvec(x, stats, scatter=False) + p.B @ u - p.b
        np.negative(eq, out=neg_eq)
        grad_x += a_blocks.transpose_matvec(gam)
    if p.n2:
        grad_u[:] = p.lagrangian_grad_u(lam, gam)
    return Px, cons, eq


def solve(problem: QcqpProblem, config: SolverConfig | None = None, callback=None) -> SolveReport:
    """Run the predictor-corrector loop until a termination rule fires.

    The loop starts from the origin, ``x = u = lam = gam = 0``, which meets
    the box and the multiplier sign from the first step.
    ``callback(k, x, u, lam, gam)``, when given, is invoked once per
    iteration at the current iterate, including the final one; the arrays
    are live views of the state vector and must be copied if stored.

    Termination: residuals are evaluated every :data:`TRACE_EVERY` iterations,
    each check is appended to the trace as a :class:`TraceRow`, and the
    trace is classified (converged / infeasibility suspected /
    unboundedness suspected); the loop also stops on iterate overflow
    (diverged) or after ``max_iters`` iterations.  The reported residuals
    always refer to the returned iterate.

    Precondition: every ``P[i]`` is symmetric, as :func:`qcqpd.validate`
    checks.  On one worker a dense Hessian of at least
    :data:`qcqpd.dist.SYMMETRIC_MIN_COLS` columns is multiplied by ``dsymv``,
    which reads one triangle, so an unvalidated non-symmetric ``P[i]`` gives
    the product of its symmetrised triangle.
    """
    p = problem
    cfg = config if config is not None else SolverConfig()
    norms = compute_norms(p)
    part = partition_columns(p.n1, cfg.n_workers)
    hessians = ColumnBlocks(p.P, part, symmetric=True)
    a_blocks = ColumnBlocks([p.A], part)
    stats = CommStats()

    # the iterate z, the predictor w and the operator F, each one buffer
    # whose blocks are views
    lower, upper = state_bounds(p)
    z = np.zeros_like(lower)
    w = np.empty_like(z)
    F = np.empty_like(z)
    at_z, at_w, f = _blocks(p, z), _blocks(p, w), _blocks(p, F)
    x, u, lam, gam = at_z
    grad_x, grad_u, _, _ = f

    trace: list[TraceRow] = []
    rho = math.nan
    rho_min = math.inf
    rho_max = -math.inf
    status = None
    message = ""
    res1 = res2 = math.nan
    k = 0

    while True:
        Px, cons, eq = _pass(p, hessians, a_blocks, stats, at_z, f)

        if not np.isfinite(z).all():
            status = TerminationStatus.DIVERGED
            message = f"non-finite iterate at iteration {k}"
            res1 = res2 = math.nan
            break

        if callback is not None:
            callback(k, x, u, lam, gam)

        rho = adaptive_step_size(norms, x, lam, cons, grad_x)
        rho_min = min(rho_min, rho)
        rho_max = max(rho_max, rho)

        # residual check on the cadence and at the iteration cap; only a
        # check on the cadence is classified
        on_cadence = k % TRACE_EVERY == 0
        if on_cadence or k >= cfg.max_iters:
            rep = compute_residuals(p, x, u, lam, gam, grad_x=grad_x, grad_u=grad_u, cons=cons, eq=eq)
            res1, res2 = rep.res1, rep.res2
            objective = 0.5 * float(x @ Px[0]) + float(p.q[0] @ x) + float(p.c[0] @ u) + float(p.r[0])
            trace.append(TraceRow(k, rho, res1, res2, objective))
            outcome = None
            if on_cadence:
                outcome = classify_termination(trace, cfg.tol, cfg.divergence_threshold)
            if outcome is None and k >= cfg.max_iters:
                outcome = (
                    TerminationStatus.MAX_ITERS_EXCEEDED,
                    f"residual tolerance {cfg.tol:g} not reached in {cfg.max_iters} iterations",
                )
            if outcome is not None:
                status, message = outcome
                break

        # predictor from the k-th iterate; the corrector anchors at it again
        # but takes F at the predictor
        projected_step(z, F, rho, lower, upper, w)
        _pass(p, hessians, a_blocks, stats, at_w, f)
        projected_step(z, F, rho, lower, upper, z)
        k += 1

    # every exit but divergence has just traced the returned iterate
    objective = math.nan if status is TerminationStatus.DIVERGED else trace[-1].objective
    return SolveReport(
        status=status,
        message=message,
        iterations=k,
        x=x,
        u=u,
        lam=lam,
        gam=gam,
        objective=objective,
        res1=res1,
        res2=res2,
        rho_min=rho_min if rho_min != math.inf else math.nan,
        rho_max=rho_max if rho_max != -math.inf else math.nan,
        rho_final=rho,
        comm=stats,
        trace=trace,
    )
