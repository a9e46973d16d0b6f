import dataclasses

import numpy as np
import pytest

from qcqpd import (
    QcqpProblem,
    SolverConfig,
    TerminationStatus,
    classify_termination,
    compute_residuals,
    kkt_residual_max,
    solve,
    validate,
)
from qcqpd.core import TraceRow, compute_norms
from qcqpd.diagnostics import serial_operator
from qcqpd.diagnostics import test_set_accuracy as mkl_accuracy
from helpers import equality_problem, random_box_state, random_problem, step_size_state, toy_problem
from reference import objective, reference_kkt, reference_solve_small


def _residuals(p, x, u, lam, gam):
    """:func:`compute_residuals` at ``(x, u, lam, gam)``, fed the serial operator."""
    return compute_residuals(p, x, lam, serial_operator(p, x, u, lam, gam))


def _kkt_states(n_states=120):
    """:func:`step_size_state` draws with coordinates on both faces of the box.

    Every third coordinate is put at 0 and every third at ``x_upper``; the
    quadratic constraints are left as drawn, and many are violated.
    """
    rng = np.random.default_rng(17)
    for trial in range(n_states):
        p, x, u, lam, gam = step_size_state(rng, trial)
        x[::3] = 0.0
        x[1::3] = p.x_upper[1::3]
        yield p, x, u, lam, gam


class TestResiduals:
    def test_zero_at_kkt_point(self):
        res1, res2 = _residuals(toy_problem(), np.array([1.0]), np.zeros(0), np.array([1.0]), np.zeros(0))
        assert res1 == 0.0
        assert res2 == 0.0

    def test_zero_at_interior_stationary_point(self):
        p = toy_problem()
        p.q[0][:] = 0.0  # stationary at x = 0 with zero gradient
        res1, res2 = _residuals(p, np.array([0.0]), np.zeros(0), np.zeros(1), np.zeros(0))
        assert res1 == 0.0 and res2 == 0.0

    def test_inward_gradient_at_lower_bound_is_optimal(self):
        p = toy_problem()
        p.q[0] = np.array([3.0])  # gradient +3 at x = 0 points inward
        res1, _ = _residuals(p, np.array([0.0]), np.zeros(0), np.zeros(1), np.zeros(0))
        assert res1 == 0.0

    def test_outward_gradient_at_upper_bound_counts(self):
        p = toy_problem()
        res1, _ = _residuals(p, np.array([10.0]), np.zeros(0), np.zeros(1), np.zeros(0))
        assert res1 > 0  # gradient 10 - 2 = 8 points outward at the bound

    def test_violated_constraint_counts_in_res2(self):
        # min x s.t. 1 - x <= 0: at the origin the gradient points into the
        # box and lam = 0, so only the violation 1 of the constraint is nonzero
        p = QcqpProblem(P=[[[0.0]], [[0.0]]], q=[[1.0], [-1.0]], c=[[], []], r=[0.0, 1.0], x_upper=[10.0])
        assert _residuals(p, np.zeros(1), np.zeros(0), np.zeros(1), np.zeros(0)) == (0.0, 1.0)
        assert kkt_residual_max(np.zeros(1), np.zeros(0), np.zeros(1), np.zeros(0), p) == 1.0

    def test_empty_blocks_convention(self):
        p = random_problem(np.random.default_rng(0), n1=3, m1=0)
        _, res2 = _residuals(p, np.zeros(3), np.zeros(0), np.zeros(0), np.zeros(0))
        assert res2 == 0.0

    @pytest.mark.parametrize("q0, c0, want", [
        (-1.0, [1e308], 1e308 / np.sqrt(2)),  # g_u = c0 = 1e308, g_x = -1 outward at the lower bound
        (-1e200, [], 1e200),  # g_x = -1e200 outward, no u block
    ], ids=["u-block", "x-block"])
    def test_huge_gradient_gives_finite_res1(self, q0, c0, want):
        # the squares overflow: res1 rescales instead of reading inf (or
        # raising numpy's overflow warning under the suite's warning filter)
        n2 = len(c0)
        p = QcqpProblem(P=[np.array([[1.0]])], q=[np.array([q0])], c=[np.array(c0)], r=[0.0])
        assert validate(p).ok
        res1, res2 = _residuals(p, np.zeros(1), np.zeros(n2), np.zeros(0), np.zeros(0))
        assert res1 == pytest.approx(want, rel=1e-15)
        assert res2 == 0.0


class TestKktResidualMax:
    def test_zero_at_kkt_point(self):
        assert kkt_residual_max(np.array([1.0]), np.zeros(0), np.array([1.0]), np.zeros(0), toy_problem()) == 0.0

    def test_positive_at_nonstationary_point(self):
        assert kkt_residual_max(np.array([0.5]), np.zeros(0), np.zeros(1), np.zeros(0), toy_problem()) > 0.0

    def test_complementarity_term(self):
        # lam = 1 against constraint value -0.5 contributes exactly 0.5
        p = toy_problem()
        x = np.array([0.0])  # constraint value -0.5, gradient q0 = -2 outward
        val = kkt_residual_max(x, np.zeros(0), np.array([1.0]), np.zeros(0), p)
        assert val >= 0.5

    def test_dominates_averaged_residuals(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            p = random_problem(rng, n1=5, m1=2, n2=2, m2=1, box=1.0)
            x, u, lam, gam = random_box_state(rng, p)
            res1, res2 = _residuals(p, x, u, lam, gam)
            kkt = kkt_residual_max(x, u, lam, gam, p)
            # the max-norm and the RMS of the same vectors
            dim = np.sqrt(max(p.n1 + p.n2, p.m1 + p.m2))
            assert max(res1, res2) <= kkt * (1 + 1e-15)
            assert kkt <= dim * max(res1, res2) * (1 + 1e-15)


class TestSharedConditions:
    def test_residuals_and_certificate_match_the_reference(self):
        violated = on_faces = 0
        for p, x, u, lam, gam in _kkt_states():
            got = (*_residuals(p, x, u, lam, gam), kkt_residual_max(x, u, lam, gam, p))
            np.testing.assert_allclose(got, reference_kkt(p, x, u, lam, gam), rtol=1e-12, atol=0.0)
            violated += bool(p.m1 and (p.constraint_values(x, u) > 0.0).any())
            on_faces += bool((x == 0.0).any() and (x == p.x_upper).any())
        assert violated >= 30 and on_faces >= 60


    def test_diagonal_and_square_storage_agree(self):
        # the same Hessians as vectors d and as np.diag(d): the serial operator,
        # the certificate and the norms read them alike
        rng = np.random.default_rng(21)
        for _ in range(10):
            p = random_problem(rng, n1=6, m1=2, n2=2, m2=1, box=1.0)
            p.P[0], p.P[2] = rng.uniform(0.0, 2.0, 6), rng.uniform(0.0, 2.0, 6)
            square = dataclasses.replace(p, P=[np.diag(Pi) if Pi.ndim == 1 else Pi for Pi in p.P])
            x, u, lam, gam = random_box_state(rng, p)
            for got, want in zip(serial_operator(p, x, u, lam, gam), serial_operator(square, x, u, lam, gam)):
                np.testing.assert_array_equal(got, want)
            assert kkt_residual_max(x, u, lam, gam, p) == kkt_residual_max(x, u, lam, gam, square)
            diag_norms, square_norms = compute_norms(p), compute_norms(square)
            for name in ("stacked", "static_den_sum", "pi_scale"):
                assert getattr(diag_norms, name) == pytest.approx(getattr(square_norms, name), rel=1e-15)


def _history(res1_seq, res2_seq):
    """Trace rows of checks every 10 iterations; classification reads no ``rho`` or objective."""
    return [TraceRow(10 * i, 0.0, r1, r2, 0.0) for i, (r1, r2) in enumerate(zip(res1_seq, res2_seq))]


class TestClassification:
    def test_converged(self):
        out = classify_termination(_history([5e-4], [5e-4]), tol=1e-3, divergence_threshold=1e6)
        assert out is not None and out[0] is TerminationStatus.CONVERGED

    def test_no_classification_when_above_tol(self):
        assert classify_termination(_history([5e-2], [5e-4]), tol=1e-3, divergence_threshold=1e6) is None

    def test_infeasible_pattern(self):
        n = 60
        res2 = [10.0 * 1.5**i for i in range(n)]  # monotone, ends far above threshold
        res1 = [1.0] * n
        out = classify_termination(_history(res1, res2), tol=1e-3, divergence_threshold=1e6)
        assert out is not None and out[0] is TerminationStatus.INFEASIBLE_SUSPECTED

    def test_infeasible_needs_monotone_growth(self):
        n = 60
        res2 = [10.0 * 1.5**i for i in range(n)]
        res2[-2] = res2[-1] * 2  # break monotonicity inside the window
        out = classify_termination(_history([1.0] * n, res2), tol=1e-3, divergence_threshold=1e6)
        assert out is None

    def test_infeasible_needs_bounded_res1(self):
        n = 60
        res2 = [10.0 * 1.5**i for i in range(n)]
        res1 = [1e7] * n  # res1 blown up too: not the infeasibility signature
        out = classify_termination(_history(res1, res2), tol=1e-3, divergence_threshold=1e6)
        assert out is None

    def test_unbounded_pattern(self):
        n = 60
        out = classify_termination(_history([0.125] * n, [0.0] * n), tol=1e-3, divergence_threshold=1e6)
        assert out is not None and out[0] is TerminationStatus.UNBOUNDED_SUSPECTED

    def test_unbounded_needs_plateau_above_ten_tol(self):
        n = 60
        out = classify_termination(_history([5e-3] * n, [0.0] * n), tol=1e-3, divergence_threshold=1e6)
        assert out is None  # res1 flat but below 10 * tol: keep iterating

    def test_window_must_fill_before_suspecting(self):
        out = classify_termination(_history([0.125] * 10, [0.0] * 10), tol=1e-3, divergence_threshold=1e6)
        assert out is None

    def test_pure_function_replay(self):
        hist = _history([0.125] * 60, [0.0] * 60)
        out = classify_termination(hist, tol=1e-3, divergence_threshold=1e6)
        assert out == classify_termination(list(hist), tol=1e-3, divergence_threshold=1e6)


class TestReferenceSolver:
    def test_toy(self):
        x, u, lam, gam = reference_solve_small(toy_problem(), tol=1e-8)
        assert abs(x[0] - 1.0) <= 1e-3
        assert abs(lam[0] - 1.0) <= 1e-3

    def test_equality(self):
        x, _, _, gam = reference_solve_small(equality_problem(), tol=1e-8)
        assert x[0] == pytest.approx(0.5, abs=1e-6)
        assert gam[0] == pytest.approx(-0.5, abs=1e-4)

    def test_cross_check_against_main_solver(self):
        rng = np.random.default_rng(3)
        p = random_problem(rng, n1=20, m1=2, box=2.0)
        rep = solve(p, SolverConfig(tol=1e-5))
        assert rep.status is TerminationStatus.CONVERGED
        xo, uo, lo, go = reference_solve_small(p, tol=1e-8)
        assert rep.objective == pytest.approx(objective(p, xo, uo), rel=1e-3)

    def test_oracle_point_has_small_averaged_residuals(self):
        rng = np.random.default_rng(4)
        p = random_problem(rng, n1=12, m1=1, box=1.5)
        x, u, lam, gam = reference_solve_small(p, tol=1e-8)
        res1, res2 = _residuals(p, x, u, lam, gam)
        assert res1 <= 1e-6 and res2 <= 1e-6


class TestTestSetAccuracy:
    def test_single_training_point(self):
        acc = mkl_accuracy(
            alpha=np.array([1.0]),
            kernel_weights=np.array([1.0]),
            labels_train=np.array([1.0]),
            labels_test=np.array([1.0]),
            gram_train=[np.array([[1.0]])],
            gram_cross=[np.array([[1.0]])],
            svm="sm1",
            C=2.0,
        )
        assert acc == 1.0

    def test_zero_kernel_weights_degenerate_to_bias_sign(self):
        labels_test = np.array([1.0, -1.0, 1.0])
        acc = mkl_accuracy(
            alpha=np.array([0.5, 0.5]),
            kernel_weights=np.zeros(1),
            labels_train=np.array([1.0, 1.0]),
            labels_test=labels_test,
            gram_train=[np.eye(2)],
            gram_cross=[np.zeros((2, 3))],
            svm="sm1",
            C=1.0,
        )
        # discriminant is sign(b) = +1 everywhere: two of three test labels
        assert acc == pytest.approx(2.0 / 3.0)

    def test_separable_two_points(self):
        # linear kernel, points +1 and -1 on the line; alpha symmetric
        gram = np.array([[1.0, -1.0], [-1.0, 1.0]])
        cross = np.array([[2.0, -2.0], [-2.0, 2.0]])
        acc = mkl_accuracy(
            alpha=np.array([0.5, 0.5]),
            kernel_weights=np.array([1.0]),
            labels_train=np.array([1.0, -1.0]),
            labels_test=np.array([1.0, -1.0]),
            gram_train=[gram],
            gram_cross=[cross],
            svm="sm1",
            C=1.0,
        )
        assert acc == 1.0

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            mkl_accuracy(np.ones(1), np.ones(1), np.ones(1), np.ones(1), [np.eye(1)], [np.eye(1)], svm="sm3")
