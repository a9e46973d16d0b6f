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
coordinates; the products it needs run through the partitioned kernels
in :mod:`qcqpd.dist`.  Each pass writes the operator at its state buffer,
``F(z)`` at the iterate or ``F(w)`` at the predictor, into a buffer of its
own and issues two collectives: an allgather of ``x``, after which each
worker writes its own rows of the stacked Hessian products, and a reduce
of the ``m1`` quadratic constraint values with the ``m2`` equality rows
``A x`` as one block of ``m1 + m2`` rows (none when that block is
empty).  The multipliers' term of the gradient, ``lam' (Px +
q)[1:] + gam' A``, is one worker-local product.  Everything a solve needs
is set up once, in its workspace (:class:`_Workspace`): the row blocks
of the Hessians are cut, the state buffers are laid out, and one pass is
bound to each state buffer, the iterate and the predictor, as a fixed
sequence of ``out=`` calls on views, with the slices of ``x``, the stack
of the constraint rows' partials and its reduction tree built up front,
so a pass allocates nothing.  The loop is three steps of the workspace: the
pass at the iterate with its finiteness test, the step size with the
residual check, and the predictor, the pass at it and the corrector.

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
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import (
    TerminationStatus,
    classify_termination,
    compute_residuals,
)
from .dist import ColumnBlocks, CommStats, Plan, _aligned_stack
from .model import QcqpProblem, _check_int, _check_real, _frob

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

# The residual-check cadence in iterations: a check (compute_residuals, the
# trace objective and classify_termination) costs a large fraction of an
# iteration on the kernel-learning instances (measured in the CHANGES.md
# entry "Bind each pass once per solve"), so it is not done every iteration.
# The classifier's window counts checks, so it spans DIVERGENCE_WINDOW *
# TRACE_EVERY iterations.
TRACE_EVERY = 10


@dataclass
class SolverConfig:
    """Solve parameters.

    ``tol`` is the residual tolerance for convergence, ``max_iters`` the
    iteration cap and ``n_workers`` the number of blocks ``x`` is
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
            _check_real(name, getattr(self, name))
        for name in ("max_iters", "n_workers"):
            _check_int(name, getattr(self, name), 1)


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


def projected_step(z, F, rho, lower, upper, out, scratch):
    """``P_Z(z - rho F) = min(max(z - rho F, lower), upper)``, written into ``out``.

    With ``F = (grad_x, grad_u, -cons, -eq)`` the blocks are
    ``clip(x - rho grad_x, 0, x_upper)``, ``u - rho grad_u``,
    ``max(0, lam + rho cons)`` and ``gam + rho eq`` bit for bit:
    ``lam - rho (-cons)`` is ``lam + rho cons`` exactly, and ``u`` and ``gam``
    clip against infinite bounds.  ``out`` may be ``z``.  The operations are
    those of the expression, done in one temporary: ``scratch``, a
    state-length buffer distinct from ``z``.
    """
    t = np.multiply(F, rho, out=scratch)
    np.subtract(z, t, out=t)
    np.maximum(t, lower, out=t)
    return np.minimum(t, upper, out=out)


# --- adaptive step size -----------------------------------------------------


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
    ``x``, both at the iterate.  Only ``|cons|`` is read, so the operator
    block ``-cons`` serves as well.  Each of the eight step-size bounds owns a
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

    The positive root of ``a t^2 + b t - c = 0`` is ``2c / (b + sqrt(b^2 +
    4ac))``, which does not cancel when ``b^2 >> 4ac``, and ``c / b`` when
    ``a = 0``; when ``b^2 + 4ac`` overflows (``b`` above about 1e154) its root
    is taken as ``hypot(b, 2 sqrt(ac))``.
    """
    stacked = norms.stacked
    x_norm = math.sqrt(x.dot(x))
    beta = norms.static_den_sum + (x_norm * stacked if x_norm and stacked else 1.0)
    bound3 = [(0.0, 0.5)]
    if stacked:
        bound3.append((0.5 * stacked * math.sqrt(grad.dot(grad)), stacked * x_norm))
    c = 1.0 - EPS0
    rho = BIG_M
    # one (a2, b2) term of bound 2 per constraint, a zero term when m1 = 0
    for con, mult, s in zip(cons.tolist(), lam.tolist(), norms.pi_scale) if norms.pi_scale else [(0.0, 0.0, 1.0)]:
        a2, beta2 = s * abs(con), beta + s * mult
        for a3, b3 in bound3:
            a, b = a2 + a3, beta2 + b3
            if a > 0.0:
                d = b * b + 4.0 * a * c
                t = 2.0 * c / (b + (math.sqrt(d) if d < math.inf else math.hypot(b, 2.0 * math.sqrt(a * c))))
            else:
                t = c / b
            if t < rho:
                rho = t
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
            "x": [num(v) for v in self.x],
            "u": [num(v) for v in self.u],
            "lambda": [num(v) for v in self.lam],
            "gamma": [num(v) for v in self.gam],
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

    * one allgather of the ``n1`` doubles of ``x``, after which each worker
      writes its own rows of the stacked Hessian products,
    * one reduce of the ``m1 + m2`` constraint rows, the quadratic
      constraint values and the equality rows in one block (absent when
      ``m1 + m2 = 0``),

    and scatters nothing.

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
    reduces = passes if p.m1 + p.m2 else 0
    return CommStats(reduce_ops=reduces, allgather_ops=passes,
                     bytes_reduced=reduces * 8 * (p.m1 + p.m2), bytes_allgathered=passes * 8 * p.n1)


class _Workspace:
    """Everything one solve sets up once, and the steps of its loop.

    Built in this order, which fixes where each buffer lands: the solve's
    :class:`ProblemNorms`, the Hessians' row blocks, its
    :class:`CommStats`, the bounds of ``Z``, the state buffers, the
    finiteness test's flags, the arrays both passes share, and the passes.
    The state buffers are the iterate ``z``, the predictor ``w``, the
    operator at each, ``Fz`` and ``Fw``, and the projected step's temporary:
    the rows of one block, each starting on a cache line, because as
    separate arrays placed wherever the allocator put them an iteration
    cost more (measured in the CHANGES.md entry "Make the worker count the
    whole column partition").  With the flags they are all the
    state-length buffers, so an iteration between residual checks
    allocates nothing of the state's length.

    The passes share ``J``, ``(1 + m1 + m2, n1 + n2)``: the rows ``Pi x +
    qi`` (``i <= m1``, written by every pass) and then ``A``, with the
    ``u`` columns ``(c0; C; B)`` beside them; ``HA``, ``(m1 + m2, n1)``: the
    rows ``0.5 Pi x + qi`` (``i >= 1``, written by every pass) and then
    ``A``; ``CB = (C; B)``, the ``u`` columns of ``J[1:]``; ``neg_rb = -(r[1:];
    -b)``; and ``Px``, the ``(m1 + 1, n1)`` Hessian products.
    ``pass_z`` and ``pass_w`` (:meth:`_bind`) are the passes at ``z`` and
    at ``w``, each writing its own operator buffer.
    """

    def __init__(self, problem, n_workers):
        p = self.problem = problem
        self.norms = compute_norms(p)
        self.hessians = ColumnBlocks(p.P, n_workers)
        self.stats = CommStats()
        self.lower, self.upper = state_bounds(p)
        self.z, self.w, self.Fz, self.Fw, self.scratch = _aligned_stack(5, len(self.lower), 1)[..., 0]
        self.z.fill(0.0)
        self.finite = np.empty(self.z.shape, dtype=bool)
        # row-major whatever the order of c, A and B, so each product takes one BLAS path
        self.J = np.ascontiguousarray(np.block([[np.zeros((p.m1 + 1, p.n1)), p.c], [p.A, p.B]]))
        self.HA = np.ascontiguousarray(np.vstack([np.zeros((p.m1, p.n1)), p.A]))
        self.CB = np.ascontiguousarray(self.J[1:, p.n1:])
        self.neg_rb = np.concatenate([-p.r[1:], p.b])
        self.Px = np.empty((p.m1 + 1, p.n1))
        self.pass_z, self.pass_w = self._bind(self.z, self.Fz), self._bind(self.w, self.Fw)
        self.blocks, self.f_blocks = _blocks(p, self.z), _blocks(p, self.Fz)

    def _bind(self, v, F):
        """The pass at the state buffer ``v``, bound once as a :class:`qcqpd.dist.Plan`.

        Each run writes the Hessian products into ``Px`` (row ``i`` is ``Pi
        x``) and ``F = (grad_x, grad_u, -cons, -eq)`` into the operator buffer
        ``F``, with ``cons`` the quadratic constraint values and ``eq`` the
        equality rows ``A x + B u - b``, all at the current contents of ``v``.
        The two constraint kinds are one block of ``m1 + m2`` rows ``g = (cons -
        r[1:], eq + b)`` with multipliers ``y = (lam, gam)``, so::

            (grad_x, grad_u) = J[0] + y' J[1:]
            g = HA x + (C; B) u
            (-cons, -eq) = neg_rb - g

        Each step is one ``out=`` call on views bound here, in the order the
        expressions are written, so a run allocates nothing; ``g`` is built in
        place in the operator's block ``(-cons, -eq)``.  ``Px`` costs one
        allgather of ``x`` and ``HA x`` one reduce (none when ``m1 + m2 =
        0``); ``y' J[1:]`` and ``(C; B) u`` are local products, a worker's
        slice of the first reading only its own columns.  The zero-size
        products of an empty ``g`` or ``u`` are left out.
        """
        p, J, HA, Px, hessians, stats = self.problem, self.J, self.HA, self.Px, self.hessians, self.stats
        nu = p.n1 + p.n2
        x, u = _blocks(p, v)[:2]
        y, grad, neg_g = v[nu:], F[:nu], F[nu:]
        Pq, yJ = J[:p.m1 + 1, :p.n1], np.empty(nu)
        plan = hessians.bind(x, Px, stats) + Plan(
            [(np.add, (Px, p.q, Pq)), (np.dot, (y, J[1:], yJ)), (np.add, (J[0], yJ, grad))])
        if len(HA):
            # HA[:m1] = 0.5 Px[1:] + q[1:] and g = HA x + (C; B) u, each in the
            # order it is written, g in neg_g, which then becomes neg_rb - g
            H = HA[:p.m1]
            plan += Plan([(np.multiply, (Px[1:], 0.5, H)), (np.add, (H, p.q[1:], H))])
            plan += hessians.bind_dot(HA, x, neg_g, stats)
            if p.n2:
                Cu = np.empty(len(HA))
                plan += Plan([(np.dot, (self.CB, u, Cu)), (np.add, (neg_g, Cu, neg_g))])
            plan += Plan([(np.subtract, (self.neg_rb, neg_g, neg_g))])
        return plan

    def pass_at_z(self):
        """Run the pass at the iterate; whether every entry of the iterate is finite."""
        self.pass_z()
        return np.isfinite(self.z, out=self.finite).all()

    def check(self, k, rho, trace, cfg):
        """Trace the residual check of iterate ``k`` at the step ``rho`` and classify
        ``trace``: ``(status, message)``, or ``None`` while the solve goes on."""
        p, (x, u, lam, _) = self.problem, self.blocks
        res1, res2 = compute_residuals(p, x, lam, self.f_blocks)
        objective = 0.5 * float(x @ self.Px[0]) + float(p.q[0] @ x) + float(p.c[0] @ u) + float(p.r[0])
        trace.append(TraceRow(k, rho, res1, res2, objective))
        outcome = classify_termination(trace, cfg.tol, cfg.divergence_threshold)
        if outcome is None and k >= cfg.max_iters:
            message = f"residual tolerance {cfg.tol:g} not reached in {cfg.max_iters} iterations"
            outcome = (TerminationStatus.MAX_ITERS_EXCEEDED, message)
        return outcome

    def step(self, rho):
        """The predictor ``w = P_Z(z - rho F(z))``, the pass at ``w`` and the corrector ``z = P_Z(z - rho F(w))``."""
        z, lower, upper, scratch = self.z, self.lower, self.upper, self.scratch
        projected_step(z, self.Fz, rho, lower, upper, self.w, scratch)
        self.pass_w()
        projected_step(z, self.Fw, rho, lower, upper, z, scratch)


def solve(problem: QcqpProblem, config: SolverConfig | None = None, callback=None) -> SolveReport:
    """Run the predictor-corrector loop until a termination rule fires.

    The loop starts from the origin, ``x = u = lam = gam = 0``, which meets
    the box and the multiplier sign from the first step.
    ``callback(k, x, u, lam, gam)``, when given, is invoked once per
    iteration at the current iterate, the final one included unless the
    solve ends ``diverged``: a non-finite iterate is not passed to it.  The
    arrays are live views of the state vector and must be copied if stored.
    The loop, the callback included, runs under ``np.errstate(over="ignore")``:
    an overflow shows as a non-finite iterate, which ends the solve
    ``diverged``, or as a non-finite trace objective.

    Termination: residuals are evaluated every :data:`TRACE_EVERY` iterations
    and at the ``max_iters`` cap, each check is appended to the trace as a
    :class:`TraceRow`, and the trace is classified (converged / infeasibility
    suspected / unboundedness suspected); the loop also stops on iterate
    overflow (diverged), or at the cap when its check is not classified.
    The reported residuals always refer to the returned iterate;
    ``converged`` means both are below ``tol``, so the iterate is primal
    feasible to within ``tol`` in RMS.

    Precondition: every ``P[i]`` is symmetric, as :func:`qcqpd.validate`
    checks.  On one worker a dense Hessian of at least
    :data:`qcqpd.model.LARGE_DENSE_COLS` columns, the size from which
    ``validate`` factorizes it with ``dpotrf``, is multiplied by ``dsymv``,
    which reads one triangle, so an unvalidated non-symmetric ``P[i]`` gives
    the product of its symmetrised triangle.
    """
    cfg = config if config is not None else SolverConfig()
    ws = _Workspace(problem, cfg.n_workers)
    norms, (x, u, lam, gam), (grad_x, _, neg_cons, _) = ws.norms, ws.blocks, ws.f_blocks
    trace: list[TraceRow] = []
    # the origin is finite, so iteration 0 always reaches the step size
    rho_min, rho_max, k = math.inf, -math.inf, 0

    with np.errstate(over="ignore"):
        while True:
            if not ws.pass_at_z():
                outcome = (TerminationStatus.DIVERGED, f"non-finite iterate at iteration {k}")
                break

            if callback is not None:
                callback(k, x, u, lam, gam)

            rho = adaptive_step_size(norms, x, lam, neg_cons, grad_x)
            if rho < rho_min:
                rho_min = rho
            if rho > rho_max:
                rho_max = rho
            # residual check on the cadence and at the iteration cap; every
            # check is classified
            if k % TRACE_EVERY == 0 or k >= cfg.max_iters:
                outcome = ws.check(k, rho, trace, cfg)
                if outcome is not None:
                    break

            ws.step(rho)
            k += 1

    status, message = outcome
    # every exit but divergence has just traced the returned iterate
    last = TraceRow(k, rho, math.nan, math.nan, math.nan) if status is TerminationStatus.DIVERGED else trace[-1]
    return SolveReport(
        status=status, message=message, iterations=k, x=x, u=u, lam=lam, gam=gam,
        objective=last.objective, res1=last.res1, res2=last.res2,
        rho_min=rho_min, rho_max=rho_max, rho_final=rho, comm=ws.stats, trace=trace,
    )
