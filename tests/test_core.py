import dataclasses
import json
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qcqpd import (
    MklSpec,
    QcqpProblem,
    RandomQcqpSpec,
    SolverConfig,
    TerminationStatus,
    analytic_comm_stats,
    build_mkl_qcqp,
    gen_infeasible,
    gen_random_qcqp,
    gen_unbounded,
    kkt_residual_max,
    solve,
    validate,
)
import qcqpd.core
from qcqpd.core import (
    BIG_M, EPS0, TRACE_EVERY, _Workspace, adaptive_step_size, compute_norms, projected_step, state_bounds,
)
from qcqpd.dist import CommStats
from helpers import (
    equality_problem, hessian_problem, interior_problem, operator, random_box_state, random_problem, step,
    step_size_state, toy_problem,
)
from reference import (
    _root_rule, even_split_step_size, objective, pairwise_step_size, project_box, reference_budget_needs,
    reference_norms, reference_pass, reference_step_size,
)


class TestNorms:
    def test_identity_frobenius(self):
        # ||P0||_F = sqrt(2); the four empty blocks count as 1 each
        norms = compute_norms(hessian_problem([np.eye(2)]))
        assert norms.static_den_sum == pytest.approx(np.sqrt(2.0) + 4.0, rel=1e-15)

    # the id "csc" names the diagonal storage by the sparse storage it replaced
    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csc"])
    def test_huge_entries_have_a_finite_norm(self, sparse):
        # squaring 1e200 overflows; the norms themselves are representable
        M = np.full(2, 1e200) if sparse else np.diag([1e200, 1e200])
        norms = compute_norms(hessian_problem([M, M]))
        assert norms.static_den_sum == pytest.approx(np.sqrt(2.0) * 1e200, rel=1e-15)
        assert norms.stacked == pytest.approx(np.sqrt(2.0) * 1e200, rel=1e-15)
        assert norms.pi_scale == pytest.approx((np.sqrt(2.0) * 1e200,), rel=1e-15)

    def test_empty_stacks_are_zero(self):
        norms = compute_norms(hessian_problem([np.eye(2)]))
        assert norms.stacked == 0.0
        assert norms.pi_scale == ()
        # a zero constraint Hessian scales its bound by m1
        norms = compute_norms(hessian_problem([np.eye(2), np.zeros((2, 2)), np.zeros((2, 2))]))
        assert norms.stacked == 0.0
        assert norms.pi_scale == (2.0, 2.0)

    def test_three_four_five(self):
        p = hessian_problem([np.eye(2), np.eye(2)])
        p.q[1] = np.array([3.0, 4.0])
        # ||P0||_F + ||Q||_F + 1 for each of the empty C, A and B
        assert compute_norms(p).static_den_sum == pytest.approx(np.sqrt(2.0) + 5.0 + 3.0, rel=1e-15)

    def test_stacked_norm_identity(self):
        rng = np.random.default_rng(7)
        p = random_problem(rng, n1=6, m1=3)
        norms = compute_norms(p)
        per_constraint = np.array(norms.pi_scale) / p.m1
        assert norms.stacked**2 == pytest.approx(float(np.sum(per_constraint**2)), rel=1e-10)

    def test_permutation_covariance(self):
        rng = np.random.default_rng(8)
        p = random_problem(rng, n1=5, m1=4)
        perm = [2, 0, 3, 1]
        shuffled = QcqpProblem(
            P=[p.P[0]] + [p.P[1 + i] for i in perm],
            q=[p.q[0]] + [p.q[1 + i] for i in perm],
            c=[p.c[0]] + [p.c[1 + i] for i in perm],
            r=np.concatenate([[p.r[0]], p.r[1:][perm]]),
            x_upper=p.x_upper,
        )
        assert compute_norms(shuffled).pi_scale == tuple(np.array(compute_norms(p).pi_scale)[perm])

    def test_all_norms_finite_nonnegative(self):
        rng = np.random.default_rng(9)
        p = random_problem(rng, n1=4, m1=2, n2=3, m2=2)
        norms = compute_norms(p)
        for v in (norms.stacked, norms.static_den_sum, *norms.pi_scale):
            assert np.isfinite(v) and v >= 0
        assert norms.static_den_sum > 0

    def test_matches_reference_norms(self):
        # criterion 4's state family, against np.linalg.norm on dense copies
        rng = np.random.default_rng(4)
        for trial in range(1000):
            p = step_size_state(rng, trial)[0]
            ref = reference_norms(p)
            norms = compute_norms(p)
            den = [n if n != 0.0 else 1.0 for n in (ref.P0, ref.Q, ref.C, ref.A, ref.B)]
            assert norms.stacked == pytest.approx(ref.stacked, rel=1e-12, abs=0)
            assert norms.static_den_sum == pytest.approx(sum(den), rel=1e-12, abs=0)
            pi_scale = [p.m1 * n if n != 0.0 else p.m1 for n in ref.Pi]
            assert norms.pi_scale == pytest.approx(pi_scale, rel=1e-12, abs=0)


def _closed_form_states(n_states=300):
    """``((problem, x, lam, cons, grad), rho*)`` over :func:`step_size_state` draws."""
    rng = np.random.default_rng(12)
    for trial in range(n_states):
        p, x, u, lam, gam = step_size_state(rng, trial)
        state = (x, lam, p.constraint_values(x, u), p.lagrangian_grad_x(x, lam, gam))
        yield (p, *state), adaptive_step_size(compute_norms(p), *state)


class TestAdaptiveStepSize:
    def test_reference_rule_returns_the_closed_form(self):
        # at the split eps_s = need_s(rho*) every bound allows rho* and one binds
        for (p, x, lam, cons, grad), rho in _closed_form_states():
            eps = reference_budget_needs(p, x, lam, cons, grad, rho)
            ref_rho, _ = reference_step_size(p, x, lam, eps, cons, grad)
            assert ref_rho == pytest.approx(rho, rel=1e-12, abs=0)

    def test_needs_fit_the_budget(self):
        for args, rho in _closed_form_states():
            assert reference_budget_needs(*args, rho).sum() <= (1.0 - EPS0) * (1.0 + 1e-12)

    def test_larger_step_exceeds_the_budget(self):
        for args, rho in _closed_form_states():
            assert reference_budget_needs(*args, 1.01 * rho).sum() > 1.0 - EPS0

    def test_beats_the_equal_split(self):
        for args, rho in _closed_form_states():
            assert rho >= even_split_step_size(*args) * (1.0 - 1e-12)

    def test_inlined_roots_are_the_pairwise_rule_bitwise(self):
        for args in _inlined_rule_states():
            assert adaptive_step_size(*args).hex() == pairwise_step_size(*args).hex()

    def test_huge_multiplier_takes_the_hypot_branch(self):
        # the largest b is at least s lam_i > 1e154: b^2 overflows, and the
        # least root is c / b to rounding
        for norms, x, lam, cons, grad in list(_inlined_rule_states())[-3:]:
            b = max(norms.pi_scale) * float(lam[0])
            assert math.isinf(b * b)
            assert adaptive_step_size(norms, x, lam, cons, grad) == pytest.approx((1.0 - EPS0) / b, rel=1e-9)


def _inlined_rule_states():
    """``(norms, x, lam, cons, grad)``: the random states of :func:`_closed_form_states`
    (``m1 = 0`` and a zero stack among them), then on one random problem with
    ``m1 = 2``: zero ``cons`` and ``lam``, ``stacked = 0``, ``m1 = 0``, and
    last three multipliers so large that every root's ``b`` exceeds 1e154."""
    for (p, *state), _ in _closed_form_states():
        yield (compute_norms(p), *state)
    rng = np.random.default_rng(5)
    p = random_problem(rng, n1=6, m1=2, n2=1, m2=1, box=2.0)
    x, u, lam, gam = random_box_state(rng, p)
    norms, cons, grad = compute_norms(p), p.constraint_values(x, u), p.lagrangian_grad_x(x, lam, gam)
    yield norms, x, np.zeros(2), np.zeros(2), grad
    yield dataclasses.replace(norms, stacked=0.0), x, lam, cons, grad
    yield dataclasses.replace(norms, pi_scale=()), x, lam[:0], cons[:0], grad
    for big in (1e155, 1e200, 1e300):
        yield norms, x, np.array([big, big]), cons, grad


class TestRootRule:
    @pytest.mark.parametrize("a, b, c", [
        (1e-17, 1.0, 0.01),  # b^2 >> 4ac: (-b + sqrt(b^2 + 4ac)) / 2a cancels to 0
        (1.0, 0.0, 4.0), (1.0, 2.0, 3.0), (0.0, 4.0, 2.0), (3.0, 1e-9, 1e6),
        (1.0, 1e200, 0.9),  # b^2 overflows
    ])
    def test_root_solves_the_quadratic(self, a, b, c):
        t = _root_rule(a, b, c)
        assert t > 0
        assert a * t * t + b * t == pytest.approx(c, rel=1e-14)


def _norm_problem(P0=None, P1=None, n1=1, q1=None, r1=0.0):
    """Single-constraint scaffold for step-size unit cases."""
    P0 = np.eye(n1) if P0 is None else np.atleast_2d(P0)
    mats = [P0] if P1 is None else [P0, np.atleast_2d(P1)]
    m1 = len(mats) - 1
    q = [np.zeros(n1)] + [np.zeros(n1) if q1 is None else np.asarray(q1, float)] * m1
    return QcqpProblem(P=mats, q=q, r=np.concatenate([[0.0], [r1] * m1]), x_upper=np.full(n1, np.inf))


def _step_size(p, x, u, lam, gam, eps, grad=None):
    """``reference_step_size`` with the constraint values and gradient at ``(x, u, lam, gam)``."""
    if grad is None:
        grad = p.lagrangian_grad_x(x, lam, gam)
    return reference_step_size(p, x, lam, eps, p.constraint_values(x, u), grad)


class TestStepSize:
    """The eight bounds of the reference rule at a given budget split."""

    eps = np.full(8, 0.125)

    def test_static_ratio(self):
        # ||P0||_F = 4 and eps1 = 0.2 -> first bound 0.05
        p = _norm_problem(P0=np.diag([np.sqrt(8.0), np.sqrt(8.0)]), n1=2)
        e = np.array([0.2, 1, 1, 1, 1, 1, 1, 1])
        _, comps = _step_size(p, np.zeros(2), np.zeros(0), np.zeros(0), np.zeros(0), e)
        assert comps[0] == pytest.approx(0.05, rel=1e-15)

    def test_quadratic_root_case(self):
        # a=1 (|constraint value|), b=0 (lam), c=1 -> root of t^2 - 1 = 0
        p = _norm_problem(P1=[[1.0]], r1=-1.0)  # value at x=0 is -1
        e = np.array([1, 1.0, 1, 1, 1, 1, 1, 1])  # eps2 / (m1 ||P1||) = 1
        _, comps = _step_size(p, np.zeros(1), np.zeros(0), np.zeros(1), np.zeros(0), e)
        assert comps[1] == pytest.approx(1.0, rel=1e-14)

    def test_linear_case_with_cap(self):
        # zero gradient, ||x|| = 1, stacked norm 4 => a=0, b=2, c=0.5; bound min(2, 0.25)
        p = _norm_problem(P0=np.zeros((1, 1)), P1=[[4.0]])
        e = np.array([1, 1, 1.0, 1, 1, 1, 1, 1])  # eps3 = 1
        x = np.array([1.0])
        lam = np.zeros(1)
        grad = np.zeros(1)
        _, comps = _step_size(p, x, np.zeros(0), lam, np.zeros(0), e, grad=grad)
        assert comps[2] == pytest.approx(0.25, rel=1e-14)

    def test_degenerate_fallbacks(self):
        p = interior_problem()  # m1 = 0, m2 = 0
        e = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8])
        _, comps = _step_size(p, np.zeros(2), np.zeros(0), np.zeros(0), np.zeros(0), e)
        assert comps[1] == BIG_M          # no quadratic constraints
        assert comps[2] == pytest.approx(0.6)   # 2 * eps3, empty stack
        assert comps[4] == pytest.approx(0.5)   # eps5, empty stack
        assert comps[5] == pytest.approx(0.6)   # eps6, no C rows
        assert comps[6] == pytest.approx(0.7)   # eps7, no A
        assert comps[7] == pytest.approx(0.8)   # eps8, no B

    def test_rho_is_exact_min(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            p = random_problem(rng, n1=6, m1=2, n2=1, m2=1, box=2.0)
            x, u, lam, gam = random_box_state(rng, p)
            w = rng.uniform(0.1, 2.0, 8)
            eps = w / w.sum()
            rho, comps = _step_size(p, x, u, lam, gam, eps)
            assert rho == comps.min()
            assert rho > 0

    def test_zero_constraint_and_multiplier_uses_big_m(self):
        p = _norm_problem(P1=[[1.0]], r1=0.0)  # value at x=0 is exactly 0
        rho, comps = _step_size(p, np.zeros(1), np.zeros(0), np.zeros(1), np.zeros(0), self.eps)
        assert comps[1] == BIG_M


def _primal_x(p, x, lam, gam, rho, grad=None):
    """``x`` block of the projected step, gradient at ``(x, lam, gam)`` unless given."""
    u = np.zeros(p.n2)
    F = operator(p, x, u, lam, gam)
    if grad is not None:
        F[:p.n1] = grad
    return step(p, (x, u, lam, gam), F, rho)[0]


def _dual_at(p, x, u, lam, gam, rho):
    """``(lam, gam)`` blocks of the projected step, with the constraint values at ``(x, u)``."""
    return step(p, (x, u, lam, gam), operator(p, x, u, lam, gam), rho)[2:]


def _u_step(p, u, lam, gam, rho):
    """``u`` block of the projected step from ``x = 0``, ``lam``, ``gam``."""
    x = np.zeros(p.n1)
    return step(p, (x, u, lam, gam), operator(p, x, u, lam, gam), rho)[1]


class TestUpdates:
    def test_dual_predictor_zero_constraint(self):
        p = toy_problem()
        p.q[0][:] = 0.0  # irrelevant to duals
        mu, nu = _dual_at(p, np.array([1.0]), np.zeros(0), np.array([0.2]), np.zeros(0), 0.1)
        np.testing.assert_allclose(mu, [0.2], rtol=0, atol=0)  # constraint value exactly 0

    def test_dual_predictor_positive_value(self):
        p = toy_problem()
        mu, _ = _dual_at(p, np.array([2.0]), np.zeros(0), np.array([0.2]), np.zeros(0), 0.1)
        assert mu[0] == pytest.approx(0.35, rel=1e-15)  # 0.2 + 0.1 * 1.5

    def test_dual_predictor_clamps(self):
        p = _norm_problem(P1=[[0.0]], r1=-1.0)
        mu, _ = _dual_at(p, np.zeros(1), np.zeros(0), np.zeros(1), np.zeros(0), 0.5)
        assert mu[0] == 0.0

    def test_primal_predictor_fixed_point(self):
        p = interior_problem()
        y = _primal_x(p, np.array([0.4, 0.4]), np.zeros(0), np.zeros(0), 0.3, grad=np.zeros(2))
        np.testing.assert_array_equal(y, [0.4, 0.4])

    def test_primal_predictor_clamps_below(self):
        p = interior_problem()
        y = _primal_x(p, np.array([0.1, 0.1]), np.zeros(0), np.zeros(0), 0.5, grad=np.ones(2))
        np.testing.assert_array_equal(y, [0.0, 0.0])

    def test_primal_predictor_arithmetic(self):
        p = interior_problem()
        p.q[0] = np.array([-2.0, 0.0])
        y = _primal_x(p, np.array([0.5, 0.9]), np.zeros(0), np.zeros(0), 0.1)
        np.testing.assert_allclose(y, [0.65, 0.81], rtol=1e-15)

    def test_corrector_equals_predictor_at_same_point(self):
        # the corrector anchors at the iterate and evaluates F at the
        # predictor point (y, v, mu, nu); at the iterate itself it must
        # reproduce the predictor exactly
        rng = np.random.default_rng(3)
        p = random_problem(rng, n1=5, m1=2, n2=2, m2=1, box=1.5)
        x, u, lam, gam = random_box_state(rng, p)
        y, v, mu, nu = x.copy(), u.copy(), lam.copy(), gam.copy()
        rho = 0.05
        pred = step(p, (x, u, lam, gam), operator(p, x, u, lam, gam), rho)
        corr = step(p, (x, u, lam, gam), operator(p, y, v, mu, nu), rho)
        for a, b in zip(corr, pred):
            np.testing.assert_array_equal(a, b)

    def test_corrector_arithmetic(self):
        p = interior_problem()
        p.q[0] = np.array([-2.0, 0.0])
        x = np.array([0.5, 0.9])
        y = np.array([0.65, 0.81])
        out = _primal_x(p, x, np.zeros(0), np.zeros(0), 0.1, grad=p.lagrangian_grad_x(y, np.zeros(0), np.zeros(0)))
        np.testing.assert_allclose(out, [0.635, 0.819], rtol=1e-15)

    def test_u_predictor(self):
        p = QcqpProblem(
            P=[np.zeros((1, 1))], q=[np.zeros(1)], c=[np.array([1.0])], r=[0.0],
            x_upper=[1.0],
        )
        v = _u_step(p, np.array([2.0]), np.zeros(0), np.zeros(0), 0.5)
        np.testing.assert_allclose(v, [1.5], rtol=1e-15)

    def test_u_predictor_zero_terms(self):
        p = QcqpProblem(
            P=[np.zeros((1, 1))], q=[np.zeros(1)], c=[np.zeros(2)], r=[0.0],
            A=np.zeros((1, 1)), B=np.zeros((1, 2)), b=np.zeros(1), x_upper=[1.0],
        )
        u = np.array([1.0, -2.0])
        v = _u_step(p, u, np.zeros(0), np.ones(1), 0.7)
        np.testing.assert_array_equal(v, u)

    def test_dual_corrector_clamps(self):
        p = _norm_problem(P1=[[0.0]], r1=-2.0)
        lam2, _ = _dual_at(p, np.zeros(1), np.zeros(0), np.zeros(1), np.zeros(0), 0.1)
        assert lam2[0] == 0.0


# magnitudes up to 1e150, so rho * F cannot overflow
_finite = st.floats(-1e150, 1e150)
_nonneg = st.floats(0.0, 1e150)


@st.composite
def _step_cases(draw):
    """A problem's box, a state meeting it and the multiplier sign, ``F``'s pieces and ``rho``."""
    n1, n2, m1, m2 = (draw(st.integers(lo, 4)) for lo in (1, 0, 0, 0))
    upper = draw(hnp.arrays(np.float64, n1, elements=st.one_of(st.just(np.inf), st.floats(1e-300, 1e150))))
    p = QcqpProblem(P=[np.zeros((n1, n1))] * (m1 + 1), q=np.zeros((m1 + 1, n1)), c=np.zeros((m1 + 1, n2)),
                    r=np.zeros(m1 + 1), b=np.zeros(m2), x_upper=upper)
    x = np.minimum(draw(hnp.arrays(np.float64, n1, elements=_nonneg)), upper)
    state = (x, draw(hnp.arrays(np.float64, n2, elements=_finite)),
             draw(hnp.arrays(np.float64, m1, elements=_nonneg)), draw(hnp.arrays(np.float64, m2, elements=_finite)))
    pieces = tuple(draw(hnp.arrays(np.float64, n, elements=_finite)) for n in (n1, n2, m1, m2))
    return p, state, pieces, draw(st.floats(1e-12, 1e3))


class TestProjectedStep:
    @given(_step_cases())
    @settings(max_examples=300, deadline=None)
    def test_blocks_are_the_per_block_formulas_bitwise(self, case):
        # F = (g, g_u, -cons, -eq): each block of the one clip is its own
        # update formula, bit for bit
        p, (x, u, lam, gam), (g, g_u, cons, eq), rho = case
        out = step(p, (x, u, lam, gam), np.concatenate([g, g_u, -cons, -eq]), rho)
        expected = (project_box(p, x - rho * g), u - rho * g_u, np.maximum(0.0, lam + rho * cons), gam + rho * eq)
        for got, want in zip(out, expected):
            assert got.tobytes() == want.tobytes()


def _pass_problems():
    """A small MKL instance (diagonal ``P0``, dense constraint Hessians, ``n2 = m2 = 1``)
    and a random one with ``n2 = m2 = 2`` and one diagonal constraint Hessian."""
    mkl = build_mkl_qcqp(MklSpec(n_tr=12, n_t=4, svm="sm2", seed=0))[0]
    rnd = random_problem(np.random.default_rng(12), n1=11, m1=2, n2=2, m2=2, box=2.0)
    rnd.P[1] = np.diagonal(rnd.P[1]).copy()
    return [mkl, rnd]


def _stack_problems():
    """Stacks whose product rows are laid out otherwise: dense and diagonal
    Hessians interleaved (both kinds' rows index lists), all dense (at one
    worker written in place), and ``n1 = 512`` with a diagonal ``P0`` (at one
    worker through ``dsymv``)."""
    rng = np.random.default_rng(13)
    interleaved = random_problem(rng, n1=9, m1=3, n2=2, m2=2, box=2.0)
    for i in (1, 3):
        interleaved.P[i] = np.diagonal(interleaved.P[i]).copy()
    dense = random_problem(rng, n1=10, m1=2, n2=1, m2=1, box=2.0)
    large = random_problem(rng, n1=512, m1=2, n2=1, m2=1, box=2.0)
    large.P[0] = np.diagonal(large.P[0]).copy()
    return [interleaved, dense, large]


def _uneven_problems():
    """Partitions with two column widths (``n1 = 13`` and ``37``) and, at 4 or
    5 workers, empty column ranges (``n1 = 3``), each with ``n2 = m2 = 1`` and
    one diagonal constraint Hessian."""
    rng = np.random.default_rng(15)
    problems = [random_problem(rng, n1=n1, m1=2, n2=1, m2=1, box=2.0) for n1 in (13, 37, 3)]
    for p in problems:
        p.P[2] = np.diagonal(p.P[2]).copy()
    return problems


def _workspace(problem, workers, state):
    """A solve's workspace at ``workers`` workers with the iterate ``z`` set to ``state``
    and the operator buffers filled with NaN."""
    ws = _Workspace(problem, workers)
    ws.z[:] = np.concatenate(state)
    ws.Fz.fill(np.nan)
    ws.Fw.fill(np.nan)
    return ws


class TestPass:
    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 5])
    def test_writes_the_operator_and_books_one_pass(self, workers):
        for p in _pass_problems():
            assert min(p.n2, p.m1, p.m2) >= 1
            assert {Pi.ndim for Pi in p.P} == {1, 2}
        # the bound pass is the compound expressions over the per-call
        # kernels bit for bit, its products and its traffic included; with
        # m1 = 0 or 1 beside a column-major A, a stacked constraint block
        # could come out column-major
        rng = np.random.default_rng(14)
        small_m1 = [random_problem(rng, n1=5, m1=m1, n2=2, m2=2, box=2.0) for m1 in (0, 1)]
        assert not small_m1[1].A.flags.c_contiguous
        for p in _pass_problems() + _stack_problems() + small_m1 + _uneven_problems():
            state = random_box_state(np.random.default_rng(workers), p)
            ws = _workspace(p, workers, state)
            z, F, Px, hessians, stats = ws.z, ws.Fz, ws.Px, ws.hessians, ws.stats
            want, want_stats = np.full_like(z, np.nan), CommStats()
            ws.pass_z()
            want_Px = reference_pass(p, hessians, workers, want_stats, z, want)
            assert F.tobytes() == want.tobytes()
            assert Px.tobytes() == want_Px.tobytes()
            np.testing.assert_allclose(F, operator(p, *state), rtol=1e-12)
            assert stats.as_dict() == want_stats.as_dict() == analytic_comm_stats(p, 0).as_dict()  # one pass
            # a second run reads the state afresh, through the same views
            z[:] = np.concatenate(random_box_state(rng, p))
            ws.pass_z()
            want_Px = reference_pass(p, hessians, workers, CommStats(), z, want)
            assert F.tobytes() == want.tobytes()
            assert Px.tobytes() == want_Px.tobytes()

    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 5])
    def test_one_call_writes_every_bound_buffer(self, workers):
        # the buffers persist from pass to pass, so an entry a pass did not
        # write would repeat the previous pass's value the same way on every
        # run; filled with NaN, none may survive one call.  The buffers are
        # each step's output (its last argument, np.copyto's first): each
        # worker's rows of the products, the constraint rows' per-worker
        # partials and their sum and the pass's temporaries; and the products
        # Px, which dsymv writes in place, and the operator, whose dual block
        # holds the constraint rows g while the pass builds them
        for p in _pass_problems() + _stack_problems() + _uneven_problems():
            ws = _workspace(p, workers, random_box_state(np.random.default_rng(workers), p))
            plan = ws.pass_z
            outputs = [args[0] if function is np.copyto else args[-1] for function, args in plan.steps if args]
            buffers = [a for a in outputs if isinstance(a, np.ndarray)] + [ws.Px, ws.Fz]
            for a in buffers:
                a.fill(np.nan)
            plan()
            for a in buffers:
                assert np.isfinite(a).all()

    @pytest.mark.parametrize("workers", [1, 3])
    def test_each_pass_writes_its_own_operator_buffer(self, workers):
        # the passes at z and w share the Hessian blocks and the pass
        # buffers, and each writes its own operator buffer, F(z) or F(w)
        p = _pass_problems()[0]
        state_w = random_box_state(np.random.default_rng(2), p)
        ws = _workspace(p, workers, random_box_state(np.random.default_rng(1), p))
        ws.w[:] = np.concatenate(state_w)
        Fz, Fw = ws.Fz, ws.Fw
        ws.pass_z()
        assert np.isfinite(Fz).all() and np.isnan(Fw).all()
        want = Fz.copy()
        ws.pass_w()
        assert np.isfinite(Fw).all() and Fz.tobytes() == want.tobytes()
        np.testing.assert_allclose(Fw, operator(p, *state_w), rtol=1e-12)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_step_is_predictor_pass_corrector(self, workers):
        # the step from the pass at z is the predictor w = P_Z(z - rho F(z)),
        # the pass at w and the corrector P_Z(z - rho F(w)), bit for bit, with
        # F(w) the compound expressions over the per-call kernels
        for p in _pass_problems():
            ws = _workspace(p, workers, random_box_state(np.random.default_rng(workers), p))
            ws.pass_z()
            x, _, lam, _ = ws.blocks
            grad_x, _, neg_cons, _ = ws.f_blocks
            rho = adaptive_step_size(ws.norms, x, lam, neg_cons, grad_x)
            z, lower, upper = ws.z.copy(), *state_bounds(p)
            w, Fw, want_z, scratch = (np.empty_like(z) for _ in range(4))
            projected_step(z, ws.Fz, rho, lower, upper, w, scratch)
            want_Px = reference_pass(p, ws.hessians, workers, CommStats(), w, Fw)
            projected_step(z, Fw, rho, lower, upper, want_z, scratch)
            ws.step(rho)
            assert ws.w.tobytes() == w.tobytes() and ws.Fw.tobytes() == Fw.tobytes()
            assert ws.Px.tobytes() == want_Px.tobytes() and ws.z.tobytes() == want_z.tobytes()

    @pytest.mark.parametrize("workers", [1, 4])
    def test_one_call_allocates_almost_nothing(self, workers):
        # every buffer of a pass is built when it is bound: a per-call
        # product, partial or sum temporary of n1 doubles would pass
        # the bound
        p = gen_infeasible(256)
        plan = _workspace(p, workers, random_box_state(np.random.default_rng(0), p)).pass_z
        plan()
        tracemalloc.start()
        try:
            plan()
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            plan()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 8 * p.n1

    @pytest.mark.parametrize("workers", [1, 4])
    def test_one_iteration_allocates_almost_nothing(self, workers):
        # from the callback of iteration 1 to that of iteration 2, between
        # residual checks: the step size, both projected steps, both passes
        # and the finiteness test.  One temporary of the state's length in
        # doubles, such as a projected step's, would pass the bound
        p = gen_infeasible(256)
        assert TRACE_EVERY > 1
        start, peaks = [], []

        def measure(k, *_):
            if k == 1:
                tracemalloc.reset_peak()
                start.append(tracemalloc.get_traced_memory()[0])
            elif k == 2:
                peaks.append(tracemalloc.get_traced_memory()[1] - start[0])

        tracemalloc.start()
        try:
            solve(p, SolverConfig(n_workers=workers, max_iters=3), callback=measure)
        finally:
            tracemalloc.stop()
        assert len(peaks) == 1 and peaks[0] < 8 * p.n1

    @pytest.mark.parametrize("n1", [63, 64, 65])
    def test_state_starts_on_a_cache_line(self, n1):
        # x opens the state z, the first row of the solve's block of state buffers
        offsets = []
        p = gen_random_qcqp(RandomQcqpSpec(n1=n1, m1=2, seed=0))
        solve(p, SolverConfig(max_iters=2),
              callback=lambda k, x, *_: offsets.append(x.__array_interface__["data"][0] % 64))
        assert offsets == [0, 0, 0]


class TestSolve:
    @pytest.mark.parametrize("field", ["tol", "divergence_threshold"])
    @pytest.mark.parametrize("value", [np.inf, np.nan, 0.0, -1.0, "1e-3", None, True])
    def test_config_rejects_non_finite_or_nonpositive(self, field, value):
        with pytest.raises(ValueError, match=field):
            SolverConfig(**{field: value})

    @pytest.mark.parametrize("field", ["max_iters", "n_workers"])
    @pytest.mark.parametrize("value", [10.5, 2.0, True, "5"])
    def test_config_rejects_non_integer_counts(self, field, value):
        with pytest.raises(ValueError, match=field):
            SolverConfig(**{field: value})

    def test_benchmark_hooks_are_looked_up_at_call_time(self, monkeypatch):
        # the benchmark's tracer (perfbench/tracing.py) times these three by
        # swapping the qcqpd.core globals, so solve must call them through
        # those names: the residuals and the classifier once per check, the
        # norms once per solve
        calls = dict.fromkeys(["compute_residuals", "classify_termination", "compute_norms"], 0)
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(qcqpd.core, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(qcqpd.core, name, counted)
        rep = solve(toy_problem(), SolverConfig(tol=1e-6))
        assert len(rep.trace) > 1
        assert calls == {"compute_residuals": len(rep.trace), "classify_termination": len(rep.trace), "compute_norms": 1}

    def test_toy_kkt(self):
        t0 = time.time()
        rep = solve(toy_problem(), SolverConfig(tol=1e-6))
        assert rep.status is TerminationStatus.CONVERGED
        assert abs(rep.x[0] - 1.0) <= 1e-4
        assert abs(rep.lam[0] - 1.0) <= 1e-4
        assert rep.res1 < 1e-6 and rep.res2 < 1e-6
        assert time.time() - t0 < 1.0

    def test_interior_minimizer(self):
        rep = solve(interior_problem(), SolverConfig(tol=1e-8))
        assert rep.status is TerminationStatus.CONVERGED
        np.testing.assert_allclose(rep.x, [0.5, 0.5], atol=1e-6)

    def test_equality_only(self):
        rep = solve(equality_problem(), SolverConfig(tol=1e-8))
        assert rep.status is TerminationStatus.CONVERGED
        assert rep.x[0] == pytest.approx(0.5, abs=1e-6)
        assert rep.gam[0] == pytest.approx(-0.5, abs=1e-6)

    def test_iterates_stay_feasible(self):
        rng = np.random.default_rng(4)
        p = random_problem(rng, n1=8, m1=2, box=1.0)

        def check(k, x, u, lam, gam):
            assert (x >= 0).all() and (x <= p.x_upper).all()
            assert (lam >= 0).all()

        rep = solve(p, SolverConfig(tol=1e-5), callback=check)
        assert rep.status is TerminationStatus.CONVERGED

    def test_max_iters_status(self):
        rep = solve(toy_problem(), SolverConfig(tol=1e-16, max_iters=7))
        assert rep.status is TerminationStatus.MAX_ITERS_EXCEEDED
        assert rep.iterations == 7
        assert len(rep.trace) >= 1
        assert rep.trace[-1].iteration == 7

    def test_trace_at_cap_on_cadence_has_no_duplicate_row(self):
        rep = solve(toy_problem(), SolverConfig(tol=1e-16, max_iters=20))
        assert rep.status is TerminationStatus.MAX_ITERS_EXCEEDED
        assert [row.iteration for row in rep.trace] == [0, 10, 20]

    def test_classifier_at_cap_wins_over_max_iters(self):
        # the toy converges at the check of iteration 150 (tol=1e-6)
        assert solve(toy_problem(), SolverConfig(tol=1e-6)).iterations == 150
        rep = solve(toy_problem(), SolverConfig(tol=1e-6, max_iters=150))
        assert rep.status is TerminationStatus.CONVERGED
        assert rep.iterations == 150

    def test_check_at_cap_off_cadence_is_classified(self):
        # 349 is not a multiple of TRACE_EVERY: the check at the cap meets the
        # tolerance (res1 about 2.8e-4, res2 about 8.8e-4) and reads converged
        rep = solve(gen_random_qcqp(RandomQcqpSpec(n1=64, m1=2, seed=0)), SolverConfig(max_iters=349))
        assert 349 % TRACE_EVERY
        assert rep.status is TerminationStatus.CONVERGED
        assert rep.iterations == rep.trace[-1].iteration == 349
        assert max(rep.res1, rep.res2) < 1e-3

    def test_divergence_guard(self, tmp_path):
        p = toy_problem()
        p.q[0] = np.array([np.nan])
        rep = solve(p, SolverConfig(tol=1e-6, max_iters=100))
        assert rep.status is TerminationStatus.DIVERGED
        assert "non-finite" in rep.message
        assert np.isnan(rep.objective)
        # the report is strict JSON: a non-finite iterate entry is written as null
        path = tmp_path / "report.json"
        rep.write_report_json(path)

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        report = json.loads(path.read_text(), parse_constant=reject)
        assert report["x"] == [None]
        assert report["objective"] is None

    def test_deterministic_rerun(self):
        rng = np.random.default_rng(5)
        p = random_problem(rng, n1=10, m1=1, box=2.0)
        a = solve(p, SolverConfig(tol=1e-6))
        b = solve(p, SolverConfig(tol=1e-6))
        assert a.iterations == b.iterations
        assert np.array_equal(a.x, b.x)
        assert a.trace == b.trace

    @pytest.mark.parametrize("workers", [2, 3])
    def test_worker_count_independence(self, workers):
        # the MKL instance puts its equality row on both sides of the partition
        for p in (random_problem(np.random.default_rng(6), n1=24, m1=2, box=3.0),
                  build_mkl_qcqp(MklSpec(n_tr=12, n_t=4, svm="sm2", seed=0))[0]):
            base = solve(p, SolverConfig(tol=1e-5, n_workers=1))
            other = solve(p, SolverConfig(tol=1e-5, n_workers=workers))
            assert base.iterations == other.iterations
            assert other.objective == pytest.approx(base.objective, rel=1e-8)

    def test_comm_matches_analytic_count(self):
        rng = np.random.default_rng(7)
        mkl_sm2 = build_mkl_qcqp(MklSpec(n_tr=12, n_t=4, svm="sm2", seed=0))[0]
        assert (mkl_sm2.m1, mkl_sm2.m2) == (5, 1)
        # (problem, reduces per pass): one allgather of x before the stacked
        # Hessian products, and one reduce of the m1 constraint values and the
        # m2 equality rows together when m1 + m2 > 0; nothing is scattered
        for p, reduces in (
            (toy_problem(), 1),
            (random_problem(rng, n1=6, m1=3, box=2.0), 1),
            (random_problem(rng, n1=5, m1=1, n2=2, m2=2, box=2.0), 1),
            (mkl_sm2, 1),
            (interior_problem(), 0),
        ):
            for workers in (1, 2, 3, 4, 7):
                rep = solve(p, SolverConfig(tol=1e-4, max_iters=500, n_workers=workers))
                passes = 2 * rep.iterations + 1
                comm = rep.comm
                assert (comm.reduce_ops, comm.allgather_ops, comm.scatter_ops) == (reduces * passes, passes, 0)
                assert (comm.bytes_allgathered, comm.bytes_scattered) == (8 * p.n1 * passes, 0)
                assert comm.as_dict() == analytic_comm_stats(p, rep.iterations).as_dict()

    def test_comm_per_pass(self):
        # modeled doubles per pass: an allgather of the n1 doubles of x and a
        # reduce of the m1 + m2 constraint rows; dense-1w (n1 = 1024, m1 = 4)
        # by its sizes alone, carried by diagonal Hessians
        cases = [
            (gen_infeasible(256, seed=0), 258),
            (gen_unbounded(256, seed=0), 257),
            (build_mkl_qcqp(MklSpec(seed=0))[0], 166),
            (gen_random_qcqp(RandomQcqpSpec(n1=257, m1=0, seed=1)), 257),
            (QcqpProblem(P=[np.ones(1024)] * 5, q=np.zeros((5, 1024))), 1028),
        ]
        for p, doubles in cases:
            for iterations in (0, 9):
                comm = analytic_comm_stats(p, iterations)
                passes = 2 * iterations + 1
                assert comm.bytes_reduced + comm.bytes_scattered + comm.bytes_allgathered == 8 * doubles * passes
                assert (comm.allgather_ops, comm.scatter_ops) == (passes, 0)

    def test_fewer_columns_than_workers_ends_like_one_worker(self):
        # n1 = 2 at 3 workers leaves the third worker blocks of no rows
        p = random_problem(np.random.default_rng(1), n1=2, m1=1, n2=1, m2=1, box=2.0)
        one, three = (solve(p, SolverConfig(n_workers=workers)) for workers in (1, 3))
        assert (three.status, three.iterations) == (one.status, one.iterations) == (TerminationStatus.CONVERGED, 440)
        np.testing.assert_allclose(three.x, one.x, rtol=1e-12, atol=1e-15)
        assert three.comm == one.comm == analytic_comm_stats(p, one.iterations)

    def test_workers_beyond_the_columns_hold_nothing(self):
        # 64 columns at 100 000 workers are the partition of 64 one-column
        # workers, and the other workers add nothing: the same solve bit for bit
        p = gen_random_qcqp(RandomQcqpSpec(n1=64, m1=2, seed=0))
        few, many = (solve(p, SolverConfig(n_workers=workers, max_iters=20)) for workers in (64, 100_000))
        assert (many.status, many.iterations, many.comm) == (few.status, few.iterations, few.comm)
        assert many.x.tobytes() == few.x.tobytes() and many.lam.tobytes() == few.lam.tobytes()

    @pytest.mark.parametrize("workers", [1, 3])
    def test_no_columns_converges(self, workers):
        # n1 = 0: no worker holds a column, so the constraint rows' partial
        # stack is empty and its reduce writes zeros; min u s.t. u >= -1 and
        # u = -1
        p = QcqpProblem(P=[np.zeros(0), np.zeros(0)], q=np.zeros((2, 0)), c=[[1.0], [-1.0]], r=[0.0, -1.0],
                        A=np.zeros((1, 0)), B=[[1.0]], b=[-1.0])
        assert (p.n1, p.n2, p.m1, p.m2) == (0, 1, 1, 1)
        rep = solve(p, SolverConfig(n_workers=workers))
        assert rep.status is TerminationStatus.CONVERGED
        np.testing.assert_allclose(rep.u, [-1.0], atol=1e-2)
        assert rep.comm == analytic_comm_stats(p, rep.iterations)

    @pytest.mark.parametrize("problem, settings, status", [
        (toy_problem(), {"tol": 1e-6}, TerminationStatus.CONVERGED),
        (toy_problem(), {"tol": 1e-16, "max_iters": 25}, TerminationStatus.MAX_ITERS_EXCEEDED),
        (gen_infeasible(8, seed=0), {"divergence_threshold": 1e4}, TerminationStatus.INFEASIBLE_SUSPECTED),
        (gen_unbounded(8, seed=0), {}, TerminationStatus.UNBOUNDED_SUSPECTED),
    ], ids=["converged", "max_iters", "infeasible", "unbounded"])
    def test_objective_is_last_trace_row(self, problem, settings, status):
        for workers in (1, 3):
            rep = solve(problem, SolverConfig(n_workers=workers, **settings))
            assert rep.status is status
            assert rep.trace[-1].iteration == rep.iterations
            assert rep.objective == rep.trace[-1].objective
            assert rep.objective == pytest.approx(objective(problem, rep.x, rep.u), rel=1e-12)

    @pytest.mark.parametrize("P0", [1e6, 1e8, 1e10])
    def test_stiff_objective_converges(self, P0):
        # min P0 x^2 / 2 - 2x s.t. x^2 <= 1: the answer is 2/P0.  With a
        # budget of 1 the step reaches rho P0 = 1 and the corrector stalls.
        p = QcqpProblem(P=[[[P0]], [[2.0]]], q=[[-2.0], [0.0]], c=[[], []], r=[0.0, -1.0], x_upper=[np.inf])
        rep = solve(p, SolverConfig())
        assert rep.status is TerminationStatus.CONVERGED
        assert abs(rep.x[0] - 2.0 / P0) <= 1e-3 * 2.0 / P0
        assert rep.rho_max * P0 <= 1.0 - EPS0

    # the id "csc" names the diagonal storage by the sparse storage it replaced
    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csc"])
    @pytest.mark.parametrize("P0", [1e160, 1e300])
    def test_overflowing_objective_norm_converges(self, P0, sparse):
        # the same instance with P0^2 beyond the float range: the Frobenius
        # norm and the step-size root must not overflow and leave rho = 0
        P = [np.array([[P0]]), np.array([[2.0]])]
        p = QcqpProblem(P=[M[0] for M in P] if sparse else P,
                        q=[[-2.0], [0.0]], c=[[], []], r=[0.0, -1.0], x_upper=[np.inf])
        rep = solve(p, SolverConfig())
        assert rep.status is TerminationStatus.CONVERGED
        assert abs(rep.x[0] - 2.0 / P0) <= 1e-3 * 2.0 / P0
        assert rep.rho_max <= (1.0 - EPS0) / P0

    # the id "csc" names the diagonal storage by the sparse storage it replaced
    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csc"])
    @pytest.mark.parametrize("P1", [1e160, 1e300])
    def test_overflowing_constraint_norm_converges(self, P1, sparse):
        # min x^2/2 - 2x s.t. P1 x^2/2 <= 1, solved at x = sqrt(2/P1): the
        # stacked constraint norm must stay finite, or rho = 0
        P = [np.array([[1.0]]), np.array([[P1]])]
        p = QcqpProblem(P=[M[0] for M in P] if sparse else P,
                        q=[[-2.0], [0.0]], c=[[], []], r=[0.0, -1.0], x_upper=[np.inf])
        rep = solve(p, SolverConfig())
        assert rep.status is TerminationStatus.CONVERGED
        assert abs(rep.x[0] - np.sqrt(2.0 / P1)) <= 1e-3 * np.sqrt(2.0 / P1)

    def test_overflowing_objective_value_diverges_without_a_warning(self):
        # c0 = 1e308 pushes u past the float range: the trace objective reads
        # -inf and the solve ends diverged, and numpy's overflow warning (an
        # error under the suite's filter) stays off
        p = QcqpProblem(P=[[[1.0]]], q=[[-1.0]], c=[[1e308]], r=[0.0])
        assert validate(p).ok
        rep = solve(p, SolverConfig())
        assert rep.status is TerminationStatus.DIVERGED
        assert rep.iterations == 13
        assert rep.trace[1].iteration == 10 and rep.trace[1].objective == -np.inf

    @pytest.mark.parametrize("problem, x_star", [
        # min x s.t. 1 - x <= 0, 0 <= x <= 10
        (QcqpProblem(P=[[[0.0]], [[0.0]]], q=[[1.0], [-1.0]], c=[[], []], r=[0.0, 1.0], x_upper=[10.0]), [1.0]),
        # min ||x||^2/2 + x1 + x2 s.t. ||x||^2/2 - x1 - x2 + 0.5 <= 0, x >= 0
        (QcqpProblem(P=[np.eye(2), np.eye(2)], q=[[1.0, 1.0], [-1.0, -1.0]], c=[[], []], r=[0.0, 0.5]),
         [1.0 - np.sqrt(0.5)] * 2),
    ], ids=["linear", "ball"])
    def test_infeasible_origin_is_not_converged(self, problem, x_star):
        # at the origin the objective gradient points out of the box and
        # lam = 0: only the violation of the constraint is nonzero there
        assert validate(problem).ok
        rep = solve(problem, SolverConfig())
        assert rep.status is TerminationStatus.CONVERGED
        assert rep.iterations > 0
        assert np.abs(rep.x - x_star).max() <= 1e-3
        assert kkt_residual_max(rep.x, rep.u, rep.lam, rep.gam, problem) <= 2e-3

    def test_sparse_hessians_with_workers(self):
        rng = np.random.default_rng(9)
        n = 12
        p = random_problem(rng, n1=n, m1=1, box=2.0)
        p.P[1] = np.diagonal(p.P[1]).copy()  # a diagonal Hessian, stored as its diagonal
        serial = solve(p, SolverConfig(tol=1e-6, n_workers=1))
        parallel = solve(p, SolverConfig(tol=1e-6, n_workers=3))
        assert serial.status is TerminationStatus.CONVERGED
        assert parallel.iterations == serial.iterations
        assert parallel.objective == pytest.approx(serial.objective, rel=1e-10)

    def test_rho_summary_ordering(self):
        rep = solve(toy_problem(), SolverConfig(tol=1e-6))
        assert rep.rho_min <= rep.rho_final <= rep.rho_max

    def test_report_and_trace_files(self, tmp_path):
        rep = solve(toy_problem(), SolverConfig(tol=1e-6))
        report_path = tmp_path / "report.json"
        trace_path = tmp_path / "trace.csv"
        rep.write_report_json(report_path)
        rep.write_trace_csv(trace_path)
        import json

        doc = json.loads(report_path.read_text())
        assert doc["status"] == "converged"
        assert doc["comm"]["reduce_ops"] == rep.comm.reduce_ops
        lines = trace_path.read_text().strip().splitlines()
        assert lines[0] == "iter,rho,res1,res2,objective"
        assert len(lines) == len(rep.trace) + 1


class TestProximalEquivalence:
    def test_first_order_conditions(self):
        # each block of the projected step is the exact minimizer of its
        # proximal subproblem: interior components satisfy the stationarity
        # equation, boundary components clamp exactly
        rng = np.random.default_rng(8)
        for _ in range(30):
            p = random_problem(rng, n1=7, m1=2, n2=2, m2=1, box=1.0)
            x, u, lam, gam = random_box_state(rng, p)
            rho = float(rng.uniform(0.01, 0.2))
            g = p.lagrangian_grad_x(x, lam, gam)
            gu = p.lagrangian_grad_u(lam, gam)
            y, v, mu, nu = step(p, (x, u, lam, gam), operator(p, x, u, lam, gam), rho)
            raw = x - rho * g
            for j in range(p.n1):
                if 0.0 < y[j] < p.x_upper[j]:
                    assert abs(y[j] - x[j] + rho * g[j]) <= 1e-10
                elif y[j] == 0.0:
                    assert raw[j] <= 0.0
                else:
                    assert y[j] == p.x_upper[j] and raw[j] >= p.x_upper[j]
            cons = p.constraint_values(x, u)
            for i in range(p.m1):
                if mu[i] > 0.0:
                    assert abs(mu[i] - lam[i] - rho * cons[i]) <= 1e-10
                else:
                    assert lam[i] + rho * cons[i] <= 0.0
            np.testing.assert_allclose(v - u + rho * gu, 0.0, atol=1e-10)
