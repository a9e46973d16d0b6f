import re

import numpy as np
import pytest
import scipy.sparse as sp

from qcqpd import (
    MklSpec,
    ProblemFormatError,
    QcqpProblem,
    RandomQcqpSpec,
    SolverConfig,
    build_mkl_qcqp,
    gen_infeasible,
    gen_random_qcqp,
    gen_unbounded,
    load_problem,
    save_problem,
    solve,
    validate,
)
from qcqpd.model import PSD_RTOL, SYMMETRY_TILE, _asymmetry
from helpers import hessian_problem, random_problem, read_members, toy_problem, write_members


class TestValidate:
    def test_identity_is_valid(self):
        report = validate(hessian_problem([np.eye(2)]))
        assert report.ok
        assert report.violations == []

    def test_asymmetric_matrix_flagged(self):
        report = validate(hessian_problem([np.array([[0.0, 1.0], [0.0, 0.0]])]))
        assert not report.ok
        assert "not symmetric" in report.violations[0]

    # n spans three symmetry tiles, the last one partial
    @pytest.mark.parametrize("at", [(5, 9), (7, 200), (270, 290)], ids=["diagonal", "off-diagonal", "last-diagonal"])
    def test_asymmetric_pair_in_a_tile_flagged(self, at):
        n = 2 * SYMMETRY_TILE + 40
        rng = np.random.default_rng(11)
        M = rng.standard_normal((n, n))
        P = np.asfortranarray((M + M.T) / 2 + n * np.eye(n))
        assert _asymmetry(P) == 0.0 and validate(hessian_problem([P], n1=n)).ok
        P[at] += 1e-3
        report = validate(hessian_problem([P], n1=n))
        assert any("not symmetric" in v for v in report.violations)
        for A in (P, np.asfortranarray(M), np.ascontiguousarray(M)):
            assert _asymmetry(A) == pytest.approx(np.linalg.norm(A - A.T), rel=1e-12)

    def test_indefinite_matrix_flagged(self):
        # eigenvalues are exactly +-1 (diagonal), well below the PSD slack
        bad = np.diag([-1.0, 1.0])
        assert np.linalg.eigvalsh(bad)[0] == -1.0
        report = validate(hessian_problem([np.eye(2), bad]))
        assert any("not PSD" in v for v in report.violations)

    def test_dimension_mismatch_reported(self):
        fields = dict(n1=2, n2=1, m1=1, m2=1, P=[np.eye(2)] * 2, q=[np.zeros(2)] * 2, c=[np.zeros(1)] * 2,
                      r=np.zeros(2), A=np.zeros((1, 2)), B=np.zeros((1, 1)), b=np.zeros(1), x_upper=np.ones(2))
        p = QcqpProblem(**{**fields, "q": [[1, 2], np.array([3.0, 4.0])], "c": np.asfortranarray([[5.0], [6.0]])})
        # lists of vectors and Fortran-order arrays are stored as C-contiguous float64 (m1 + 1, n) arrays
        for arr, rows in ((p.q, [[1.0, 2.0], [3.0, 4.0]]), (p.c, [[5.0], [6.0]])):
            assert type(arr) is np.ndarray and arr.dtype == np.float64 and arr.flags.c_contiguous
            np.testing.assert_array_equal(arr, rows)
        for name, value, message in [
            ("P", [np.eye(2), np.eye(3)], "P[1] has shape (3, 3), expected (2, 2)"),
            ("q", [np.zeros(3), np.zeros(2)], "q[0] has length 3, expected 2"),
            ("q", [np.zeros(2)], "expected 2 q vectors, got 1"),
            ("q", np.zeros((2, 3)), "q has shape (2, 3), expected (2, 2)"),
            ("q", np.zeros(2), "q has shape (2,), expected (2, 2)"),
            ("c", [np.zeros(1), np.zeros((1, 1))], "c[1] has shape (1, 1), expected (1,)"),
            ("c", [np.zeros(1)] * 3, "expected 2 c vectors, got 3"),
            ("c", np.zeros((3, 1)), "c has shape (3, 1), expected (2, 1)"),
            ("r", np.zeros(3), "r has length 3, expected 2"),
            ("A", np.zeros((2, 2)), "A has shape (2, 2), expected (1, 2)"),
            ("B", np.zeros((1, 2)), "B has shape (1, 2), expected (1, 1)"),
            ("b", 0.0, "b has shape (), expected (1,)"),
            ("x_upper", np.ones(1), "x_upper has length 1, expected 2"),
        ]:
            with pytest.raises(ValueError, match=re.escape(message)):
                QcqpProblem(**{**fields, name: value})

    def test_nonpositive_upper_bound_flagged(self):
        p = hessian_problem([np.eye(2)])
        p.x_upper = np.array([1.0, 0.0])
        report = validate(p)
        assert any("x_upper" in v for v in report.violations)

    def test_non_finite_entries_flagged(self):
        rng = np.random.default_rng(12)
        p = random_problem(rng, n1=3, m1=1, n2=2, m2=1)  # x_upper all +inf, which stays valid
        p.P[0][1, 2] = np.nan
        p.P[1] = sp.csc_matrix(p.P[1])
        p.P[1].data[5] = np.inf  # dense 3x3 in CSC order: column 1, row 2
        p.q[1][0] = -np.inf
        p.c[0][1] = np.nan
        p.r[0] = np.inf
        p.A[0, 2] = np.nan
        p.B[0, 1] = -np.inf
        p.b[0] = np.nan
        assert validate(p).violations == [
            "P[0][1, 2] is not finite",
            "P[1][2, 1] is not finite",
            "q[1][0] is not finite",
            "c[0][1] is not finite",
            "r[0] is not finite",
            "A[0, 2] is not finite",
            "B[0, 1] is not finite",
            "b[0] is not finite",
        ]

    def test_gram_matrices_accepted(self):
        # any M'M is PSD, also when rank-deficient; neither storage may reject one
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = rng.integers(1, 12)
            M = rng.standard_normal((rng.integers(1, n + 1), n))
            for G in (M.T @ M, sp.csc_matrix(M.T @ M)):
                assert validate(hessian_problem([G], n1=n)).ok

    def test_sparse_psd_accepted(self):
        report = validate(hessian_problem([sp.identity(2, format="csc")]))
        assert report.ok

    def test_large_sparse_indefinite_rejected(self):
        # path-graph Laplacian (PSD, smallest eigenvalue 0) shifted down by 1e-3
        n = 256
        lap = sp.diags([-np.ones(n - 1), np.r_[1.0, np.full(n - 2, 2.0), 1.0], -np.ones(n - 1)], [-1, 0, 1])
        assert validate(hessian_problem([sp.identity(n), lap.tocsc()], n1=n)).ok
        bad = (lap - 1e-3 * sp.identity(n)).tocsc()
        tau = PSD_RTOL * max(sp.linalg.norm(bad), 1.0)
        report = validate(hessian_problem([sp.identity(n), bad], n1=n))
        assert report.violations == [f"P[1] is not PSD (P[1] + {tau:.3e} I is not positive definite)"]

    def test_unbounded_generator_singular_sparse_accepted(self):
        p = gen_unbounded(256, seed=0)
        assert all(sp.issparse(Pi) for Pi in p.P)
        assert np.linalg.eigvalsh(p.P[0].toarray())[0] == 0.0
        assert validate(p).ok

    @pytest.mark.parametrize("storage", ["dense", "csc", "diagonal csc"])
    @pytest.mark.parametrize("factor, ok", [(-0.5, True), (-2.0, False)])
    def test_psd_slack_boundary(self, storage, factor, ok):
        # smallest eigenvalue factor * tau; the rule accepts lambda_min >= -tau
        rng = np.random.default_rng(5)
        Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        spectrum = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
        tau = PSD_RTOL * np.linalg.norm(spectrum)
        spectrum[0] = factor * tau
        P = (Q * spectrum) @ Q.T
        P = (P + P.T) / 2
        P = {"dense": np.asfortranarray(P), "csc": sp.csc_matrix(P), "diagonal csc": sp.diags(spectrum, format="csc")}
        assert validate(hessian_problem([np.eye(6), P[storage]], n1=6)).ok is ok

    def test_decision_matches_eigvalsh(self):
        # symmetric matrices whose smallest eigenvalue lies within 1e-3 ||P||_F of zero,
        # dense and sparsified, against the rule lambda_min >= -tau
        rng = np.random.default_rng(7)
        decisions = set()
        for _ in range(100):
            n = int(rng.integers(2, 30))
            S = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.3)
            S = np.triu(S) + np.triu(S, 1).T
            S -= (np.linalg.eigvalsh(S)[0] + rng.uniform(-1e-3, 1e-3) * np.linalg.norm(S)) * np.eye(n)
            want = np.linalg.eigvalsh(S)[0] >= -PSD_RTOL * max(np.linalg.norm(S), 1.0)
            for P in (np.asfortranarray(S), sp.csc_matrix(S)):
                assert validate(hessian_problem([np.eye(n), P], n1=n)).ok == want
            decisions.add(bool(want))
        assert decisions == {True, False}


# One instance of every family scripts/golden.py saves, small enough to solve quickly.
GOLDEN_FAMILIES = {
    "toy": toy_problem,
    "random-box": lambda: gen_random_qcqp(RandomQcqpSpec(n1=16, m1=2, seed=0, box_upper=1.0)),
    "mkl-sm1": lambda: build_mkl_qcqp(MklSpec(svm="sm1", n_tr=16, n_t=4, seed=0))[0],
    "mkl-sm2": lambda: build_mkl_qcqp(MklSpec(svm="sm2", n_tr=16, n_t=4, seed=0))[0],
    "infeasible": lambda: gen_infeasible(16, seed=0),
    "unbounded": lambda: gen_unbounded(16, seed=0),
}


class TestSerialization:
    def _assert_problems_equal(self, a, b):
        assert (a.n1, a.n2, a.m1, a.m2) == (b.n1, b.n2, b.m1, b.m2)
        for Pa, Pb in zip(a.P, b.P):
            if sp.issparse(Pa) or sp.issparse(Pb):
                assert sp.issparse(Pa) is sp.issparse(Pb)
                assert (Pa != Pb).nnz == 0
            else:
                np.testing.assert_array_equal(Pa, Pb)
        for qa, qb in zip(a.q, b.q):
            np.testing.assert_array_equal(qa, qb)
        for ca, cb in zip(a.c, b.c):
            np.testing.assert_array_equal(ca, cb)
        np.testing.assert_array_equal(a.r, b.r)
        np.testing.assert_array_equal(np.asarray(a.A), np.asarray(b.A))
        np.testing.assert_array_equal(np.asarray(a.B), np.asarray(b.B))
        np.testing.assert_array_equal(a.b, b.b)
        np.testing.assert_array_equal(a.x_upper, b.x_upper)

    def test_round_trip_dense(self, tmp_path):
        rng = np.random.default_rng(10)
        p = random_problem(rng, n1=5, m1=2, n2=2, m2=1, box=3.0)
        path = tmp_path / "p.npz"
        save_problem(p, path)
        self._assert_problems_equal(load_problem(path), p)

    def test_round_trip_sparse_and_infinite_bounds(self, tmp_path):
        P1 = sp.csc_matrix(np.diag([1.0, 0.0, 2.5]))
        p = hessian_problem([np.eye(3), P1], n1=3, x_upper=[1.0, np.inf, 2.0])
        path = tmp_path / "p.npz"
        save_problem(p, path)
        members = read_members(path)
        assert "P0" in members and "P1_data" in members and "P1" not in members
        assert members["x_upper"][1] == np.inf
        loaded = load_problem(path)
        assert loaded.x_upper[1] == np.inf
        self._assert_problems_equal(loaded, p)

    def test_non_canonical_csc_is_saved_canonical(self, tmp_path):
        # column 0 lists row 1 before row 0 and row 1 twice; the constructor sums and sorts
        P1 = sp.csc_matrix((np.array([0.5, 1.0, 0.5]), np.array([1, 0, 1]), np.array([0, 3, 3])), shape=(2, 2))
        assert not P1.has_canonical_format
        p = hessian_problem([np.eye(2), P1])
        path = tmp_path / "p.npz"
        save_problem(p, path)
        loaded = load_problem(path)
        assert loaded.P[1].has_canonical_format
        np.testing.assert_array_equal(loaded.P[1].toarray(), [[1.0, 0.0], [1.0, 0.0]])

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("family", list(GOLDEN_FAMILIES))
    def test_round_trip_solves_identically(self, tmp_path, family, workers):
        p = GOLDEN_FAMILIES[family]()
        path = tmp_path / "p.npz"
        save_problem(p, path)
        loaded = load_problem(path)
        self._assert_problems_equal(loaded, p)
        for Pi in loaded.P:
            assert Pi.has_canonical_format if sp.issparse(Pi) else Pi.flags.f_contiguous
        outputs = []
        for problem in (p, loaded):
            rep = solve(problem, SolverConfig(n_workers=workers, max_iters=300))
            rep.write_report_json(tmp_path / "report.json")
            rep.write_trace_csv(tmp_path / "trace.csv")
            outputs.append(((tmp_path / "report.json").read_bytes(), (tmp_path / "trace.csv").read_bytes()))
        assert outputs[0] == outputs[1]

    def test_unwritable_problem_leaves_no_file(self, tmp_path):
        p = toy_problem()
        p.x_upper[0] = np.nan
        path = tmp_path / "p.npz"
        with pytest.raises(ValueError, match=re.escape("x_upper[0] is not finite")):
            save_problem(p, path)
        assert not path.exists()

    def test_round_trip_is_bitwise(self, tmp_path):
        rng = np.random.default_rng(11)
        p = random_problem(rng, n1=4, m1=1)
        first = tmp_path / "a.npz"
        second = tmp_path / "b.npz"
        save_problem(p, first)
        save_problem(load_problem(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_missing_matrix_is_dimension_error(self, tmp_path):
        path = tmp_path / "p.npz"
        save_problem(toy_problem(), path)
        members = read_members(path)
        members["dims"][2] = 2  # claims two constraints but only one constraint matrix present
        write_members(path, members)
        with pytest.raises(ProblemFormatError, match=re.escape("P[2] needs exactly one encoding")):
            load_problem(path)

    def test_bad_bound_rejected(self, tmp_path):
        path = tmp_path / "p.npz"
        save_problem(toy_problem(), path)
        members = read_members(path)
        members["x_upper"] = np.array(["huge"])
        write_members(path, members)
        with pytest.raises(ProblemFormatError, match="x_upper has dtype <U4, expected float64"):
            load_problem(path)

    def test_matrix_needs_exactly_one_encoding(self, tmp_path):
        path = tmp_path / "p.npz"
        save_problem(toy_problem(), path)
        members = read_members(path)
        members.update(P0_data=np.ones(1), P0_indices=np.zeros(1, dtype=np.int32), P0_indptr=np.array([0, 1]))
        write_members(path, members)
        with pytest.raises(ProblemFormatError, match=re.escape("P[0] needs exactly one encoding")):
            load_problem(path)

    def test_unsorted_csc_column_is_named(self, tmp_path):
        path = tmp_path / "p.npz"
        save_problem(random_problem(np.random.default_rng(3), n1=3, m1=0), path)
        members = read_members(path)
        del members["P0"]
        # column 0 empty, column 1 sorted, column 2 out of order
        members.update(P0_data=np.ones(4), P0_indices=np.array([0, 2, 2, 1]), P0_indptr=np.array([0, 0, 2, 4]))
        write_members(path, members)
        with pytest.raises(ProblemFormatError, match=re.escape("P[0]: column 2: row indices are not sorted")):
            load_problem(path)
