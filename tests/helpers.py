"""Shared construction helpers for the test suite."""

import numpy as np

from qcqpd import QcqpProblem
from qcqpd.core import projected_step, state_bounds
from qcqpd.diagnostics import serial_operator


def toy_problem():
    """min 0.5 x^2 - 2x  s.t.  0.5 x^2 - 0.5 <= 0,  x in [0, 10].

    Hand-derived solution: the constraint is active at x* = 1 and
    stationarity x + lam*x - 2 = 0 gives lam* = 1.
    """
    return QcqpProblem(
        P=[np.array([[1.0]]), np.array([[1.0]])],
        q=[np.array([-2.0]), np.array([0.0])],
        r=[0.0, -0.5],
        x_upper=[10.0],
    )


def interior_problem():
    """Unconstrained in disguise: minimizer [0.5, 0.5] strictly inside the box."""
    return QcqpProblem(
        P=[np.eye(2)],
        q=[np.array([-0.5, -0.5])],
        x_upper=[1.0, 1.0],
    )


def equality_problem():
    """min 0.5 x^2  s.t.  x = 0.5;  solution x* = 0.5, gam* = -0.5."""
    return QcqpProblem(
        P=[np.array([[1.0]])],
        q=[np.array([0.0])],
        A=np.array([[1.0]]),
        B=np.zeros((1, 0)),
        b=[0.5],
        x_upper=[1.0],
    )


def hessian_problem(P_list, x_upper=None):
    """Problem with the Hessians ``P_list`` (``P0`` first) and every other datum zero or empty."""
    return QcqpProblem(P=P_list, q=np.zeros((len(P_list), len(P_list[0]))), x_upper=x_upper)


def random_problem(rng, n1, m1, n2=0, m2=0, box=None, psd_shift=0.5):
    """Dense random valid problem with PSD Hessians (Gram construction)."""
    P = []
    for _ in range(m1 + 1):
        M = rng.standard_normal((n1, n1)) / np.sqrt(n1)
        P.append(np.asfortranarray(M.T @ M + psd_shift * np.eye(n1)))
    q = [rng.uniform(-1.0, 1.0, n1) for _ in range(m1 + 1)]
    c = [rng.uniform(-1.0, 1.0, n2) for _ in range(m1 + 1)]
    r = np.concatenate([rng.uniform(-1.0, 0.0, 1), rng.uniform(-1.0, 0.0, m1)]) if m1 else rng.uniform(-1.0, 0.0, 1)
    upper = np.full(n1, np.inf) if box is None else np.full(n1, box)
    return QcqpProblem(
        P=P,
        q=q,
        c=c,
        r=r,
        A=rng.standard_normal((m2, n1)),
        B=rng.standard_normal((m2, n2)),
        b=rng.standard_normal(m2),
        x_upper=upper,
    )


def random_box_state(rng, problem, scale=1.0):
    """Random iterate satisfying the box and multiplier-sign invariants."""
    upper = np.where(np.isfinite(problem.x_upper), problem.x_upper, 2.0 * scale)
    x = rng.uniform(0.0, 1.0, problem.n1) * upper
    u = scale * rng.standard_normal(problem.n2)
    lam = rng.uniform(0.0, scale, problem.m1)
    gam = scale * rng.standard_normal(problem.m2)
    return x, u, lam, gam


def step_size_state(rng, trial):
    """``(problem, x, u, lam, gam)`` for step-size checks, with degenerate cases by ``trial``.

    ``m1 = 0`` at random; a zero ``P0`` every 5th trial, a zero ``q1`` every
    7th (with ``m1 > 0``), ``x = 0`` and ``lam = 0`` every 11th and a zero
    constraint-Hessian stack every 13th.
    """
    n1 = int(rng.integers(1, 9))
    m1 = int(rng.integers(0, 4))
    n2 = int(rng.integers(0, 3))
    m2 = int(rng.integers(0, 3))
    problem = random_problem(rng, n1=n1, m1=m1, n2=n2, m2=m2, box=2.0)
    if trial % 5 == 0:
        problem.P[0] = np.zeros((n1, n1))
    if trial % 7 == 0 and m1:
        problem.q[1] = np.zeros(n1)
    if trial % 13 == 0:
        for i in range(1, m1 + 1):
            problem.P[i] = np.zeros((n1, n1))
    x, u, lam, gam = random_box_state(rng, problem)
    if trial % 11 == 0:
        x = np.zeros(n1)
        lam = np.zeros(m1)
    return problem, x, u, lam, gam


def operator(problem, x, u, lam, gam):
    """The saddle operator ``F = (grad_x L, grad_u L, -cons, -eq)`` at ``(x, u, lam, gam)``, by serial products."""
    return np.concatenate(serial_operator(problem, x, u, lam, gam))


def step(problem, state, F, rho):
    """The ``(x, u, lam, gam)`` blocks of :func:`qcqpd.core.projected_step` from ``state`` along ``F``."""
    p = problem
    z = np.concatenate(state)
    lower, upper = state_bounds(p)
    out = projected_step(z, F, rho, lower, upper, np.empty_like(z), np.empty_like(z))
    return np.split(out, np.cumsum([p.n1, p.n2, p.m1]))


def read_members(path):
    """The members of a problem archive, as a dict of arrays."""
    with np.load(path) as archive:
        return dict(archive)


def write_members(path, members):
    """Write ``members`` as an uncompressed ``.npz`` archive at exactly ``path``."""
    with open(path, "wb") as fh:
        np.savez(fh, **members)
    return str(path)
