import dataclasses
import os
import re
import subprocess
import sys

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
from qcqpd.model import LARGE_DENSE_COLS, PSD_RTOL, SYMMETRY_TILE, _asymmetry
from helpers import hessian_problem, random_problem, read_members, toy_problem, write_members

# A problem with every field given: two Hessians, one u column and one equality row.
EVERY_FIELD = dict(P=[np.eye(2)] * 2, q=[np.zeros(2)] * 2, c=[np.zeros(1)] * 2,
                   r=np.zeros(2), A=np.zeros((1, 2)), B=np.zeros((1, 1)), b=np.zeros(1), x_upper=np.ones(2))


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
        assert _asymmetry(P) == 0.0 and validate(hessian_problem([P])).ok
        P[at] += 1e-3
        report = validate(hessian_problem([P]))
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
        fields = dict(P=[np.eye(2)] * 2, q=[np.zeros(2)] * 2, c=[np.zeros(1)] * 2,
                      r=np.zeros(2), A=np.zeros((1, 2)), B=np.zeros((1, 1)), b=np.zeros(1), x_upper=np.ones(2))
        p = QcqpProblem(**{**fields, "q": [[1, 2], np.array([3.0, 4.0])], "c": np.asfortranarray([[5.0], [6.0]])})
        # lists of vectors and Fortran-order arrays are stored as C-contiguous float64 (m1 + 1, n) arrays
        for arr, rows in ((p.q, [[1.0, 2.0], [3.0, 4.0]]), (p.c, [[5.0], [6.0]])):
            assert type(arr) is np.ndarray and arr.dtype == np.float64 and arr.flags.c_contiguous
            np.testing.assert_array_equal(arr, rows)
        # a Hessian is a square matrix or its diagonal; A and B are Fortran-ordered as the archive reads back
        p = QcqpProblem(**{**fields, "P": [np.eye(2), [1.0, 2.0]], "A": [[1.0, 0.0]], "B": [[2.0]]})
        for arr, rows in ((p.P[1], [1.0, 2.0]), (p.A, [[1.0, 0.0]]), (p.B, [[2.0]])):
            assert type(arr) is np.ndarray and arr.dtype == np.float64 and arr.flags.f_contiguous
            np.testing.assert_array_equal(arr, rows)
        # n1 is read from P[0], n2 from c and m2 from A: a change to one of
        # these is reported by the field that then disagrees with it
        for name, value, message in [
            ("P", [], "P is empty"),
            ("P", [1.0, np.eye(2)], "P[0] must be an array, got 1.0"),
            ("P", [np.zeros((2, 2, 2)), np.eye(2)], "P[0] has shape (2, 2, 2), expected (2, 2) or (2,)"),
            ("P", [np.eye(2), np.eye(3)], "P[1] has shape (3, 3), expected (2, 2) or (2,)"),
            ("P", [np.ones(3), np.eye(2)], "P[1] has shape (2, 2), expected (3, 3) or (3,)"),
            ("P", [np.eye(2)] * 3, "expected 3 q vectors, got 2"),
            ("q", [np.zeros(3), np.zeros(2)], "q[0] has length 3, expected 2"),
            ("q", [np.zeros(2)], "expected 2 q vectors, got 1"),
            ("q", np.zeros((2, 3)), "q has shape (2, 3), expected (2, 2)"),
            ("q", np.zeros(2), "q has shape (2,), expected (2, 2)"),
            ("c", [np.zeros(1), np.zeros((1, 1))], "c[1] has shape (1, 1), expected (1,)"),
            ("c", [np.zeros(1)] * 3, "expected 2 c vectors, got 3"),
            ("c", np.zeros((3, 1)), "c has shape (3, 1), expected (2, 1)"),
            ("c", [np.zeros(2)] * 2, "B has shape (1, 1), expected (1, 2)"),
            ("c", np.zeros(2), "c[0] must be an array"),
            ("r", np.zeros(3), "r has length 3, expected 2"),
            ("A", np.zeros((2, 2)), "B has shape (1, 1), expected (2, 1)"),
            ("A", np.zeros((1, 3)), "A has shape (1, 3), expected (1, 2)"),
            ("B", np.zeros((1, 2)), "B has shape (1, 2), expected (1, 1)"),
            ("b", 0.0, "b has shape (), expected (1,)"),
            ("x_upper", np.ones(1), "x_upper has length 1, expected 2"),
        ]:
            with pytest.raises(ValueError, match=re.escape(message)):
                QcqpProblem(**{**fields, name: value})

    def test_c_and_r_default_to_zeros(self, tmp_path):
        fields = dict(P=[np.eye(2)] * 2, q=[np.ones(2)] * 2, B=np.zeros((0, 3)))  # B's columns: n2 = 3
        implicit = QcqpProblem(**fields)
        explicit = QcqpProblem(**fields, c=[np.zeros(3)] * 2, r=[0.0, 0.0])
        for a, b in ((implicit.c, explicit.c), (implicit.r, explicit.r)):
            assert a.dtype == b.dtype and a.flags.c_contiguous and np.array_equal(a, b)
        assert implicit.c.shape == (2, 3) and implicit.r.shape == (2,)
        save_problem(implicit, tmp_path / "implicit.npz")
        save_problem(explicit, tmp_path / "explicit.npz")
        assert (tmp_path / "implicit.npz").read_bytes() == (tmp_path / "explicit.npz").read_bytes()

    # the fields left out, and the sizes (n1, n2, m1, m2) read from the rest
    @pytest.mark.parametrize("omitted, sizes", [
        ((), (2, 1, 1, 1)),
        (("c",), (2, 1, 1, 1)),  # n2 from B
        (("c", "B"), (2, 0, 1, 1)),
        (("A",), (2, 1, 1, 1)),  # m2 from B
        (("A", "B"), (2, 1, 1, 1)),  # m2 from b
        (("A", "B", "b"), (2, 1, 1, 0)),
        (("c", "A", "B", "b", "r", "x_upper"), (2, 0, 1, 0)),
    ])
    def test_sizes_are_read_from_the_data(self, omitted, sizes):
        fields = dict(P=[np.eye(2), np.ones(2)], q=[np.zeros(2)] * 2, c=[np.zeros(1)] * 2, r=np.zeros(2),
                      A=np.zeros((1, 2)), B=np.zeros((1, 1)), b=np.zeros(1), x_upper=np.ones(2))
        p = QcqpProblem(**{k: v for k, v in fields.items() if k not in omitted})
        assert (p.n1, p.n2, p.m1, p.m2) == sizes
        assert p.c.shape == (2, p.n2) and p.A.shape == (p.m2, 2) and p.B.shape == (p.m2, p.n2)
        # a u block without linear terms or equality rows: B with no rows carries n2
        p = QcqpProblem(P=[np.eye(2)], q=[np.zeros(2)], B=np.zeros((0, 3)))
        assert (p.n1, p.n2, p.m1, p.m2) == (2, 3, 0, 0) and p.c.shape == (1, 3)

    @pytest.mark.parametrize("size", ["n1", "n2", "m1", "m2"])
    def test_sizes_are_not_arguments(self, size):
        with pytest.raises(TypeError, match=f"'{size}'"):
            QcqpProblem(P=[[[1.0]]], q=[[0.0]], **{size: 1.5})

    def test_replace_derives_the_sizes_again(self):
        p = random_problem(np.random.default_rng(13), n1=4, m1=2, n2=2, m2=1)
        fewer = dataclasses.replace(p, P=p.P[:2], q=p.q[:2], c=p.c[:2], r=p.r[:2])
        assert (fewer.n1, fewer.n2, fewer.m1, fewer.m2) == (4, 2, 1, 1)
        no_rows = dataclasses.replace(p, A=np.zeros((0, 4)), B=np.zeros((0, 2)), b=np.zeros(0))
        assert (no_rows.n1, no_rows.n2, no_rows.m1, no_rows.m2) == (4, 2, 2, 0)
        with pytest.raises(ValueError, match=re.escape("P[1] has shape (4, 4), expected (2, 2) or (2,)")):
            dataclasses.replace(p, P=[np.eye(2)] + p.P[1:])  # n1 read from P[0]: P[1] disagrees
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(p, n1=4)

    @pytest.mark.parametrize("name", ["P", "q"])
    def test_missing_hessians_or_linear_terms_name_the_field(self, name):
        fields = dict(P=[[[1.0]]], q=[[0.0]])
        del fields[name]
        with pytest.raises(TypeError, match=f"'{name}'"):
            QcqpProblem(**fields)

    @pytest.mark.parametrize("name, value, field", [
        ("P", sp.identity(2, format="csc"), "P"),
        ("P", [sp.identity(2, format="csc"), np.eye(2)], "P[0]"),
        ("P", [np.eye(2), sp.identity(2, format="csc")], "P[1]"),
        ("q", sp.csr_matrix(np.zeros((2, 2))), "q"),
        ("q", [np.zeros(2), sp.csr_matrix(np.zeros((1, 2)))], "q[1]"),
        ("c", sp.csr_matrix(np.zeros((2, 1))), "c"),
        ("r", sp.csr_matrix(np.zeros((1, 2))), "r"),
        ("A", sp.csc_matrix([[1.0, 0.0]]), "A"),
        ("B", sp.csr_matrix([[2.0]]), "B"),
        ("b", sp.csr_matrix([[0.5]]), "b"),
        ("x_upper", sp.csr_matrix(np.ones((1, 2))), "x_upper"),
    ])
    def test_sparse_input_is_refused_by_name(self, name, value, field):
        # numpy cannot convert a sparse matrix: the caller passes .toarray() or .diagonal()
        with pytest.raises(ValueError, match=re.escape(f"{field} is a sparse matrix")):
            QcqpProblem(**{**EVERY_FIELD, name: value})

    @pytest.mark.parametrize("name, value, field", [
        ("P", [[[1.0, 0.0], [1.0]], np.eye(2)], "P[0]"),
        ("P", ["ab", np.eye(2)], "P[0]"),
        ("q", [[0.0, [0.0]], np.zeros(2)], "q[0]"),
        ("q", [["a", "b"], np.zeros(2)], "q[0]"),
        ("A", [[1.0, 0.0], [1.0]], "A"),
        ("A", [["a", "b"]], "A"),
        ("B", [[1.0], []], "B"),
        ("B", [["a"]], "B"),
        ("b", [[1.0], [1.0, 2.0]], "b"),
        ("b", ["a"], "b"),
        ("r", [[0.0], [0.0, 1.0]], "r"),
        ("r", ["a", "b"], "r"),
        ("x_upper", [[1.0], [1.0, 2.0]], "x_upper"),
        ("x_upper", ["a", "b"], "x_upper"),
    ])
    def test_ragged_or_non_numeric_input_names_its_field(self, name, value, field):
        # numpy's own message (an inhomogeneous shape, a string it cannot
        # convert) follows the name of the field
        with pytest.raises(ValueError, match="^" + re.escape(f"{field} is not a numeric array: ")):
            QcqpProblem(**{**EVERY_FIELD, name: value})
        if name == "B":  # with no c, the columns of B are the size n2
            with pytest.raises(ValueError, match="^B is not a numeric array: "):
                QcqpProblem(**{**EVERY_FIELD, "c": None, "B": value})

    def test_problems_compare_by_identity(self):
        # the array fields have no one truth value, so == is identity and a problem hashes
        p, q = gen_unbounded(4), gen_unbounded(4)
        assert p == p and p != q
        assert len({p, q, p}) == 2

    def test_nonpositive_upper_bound_flagged(self):
        p = hessian_problem([np.eye(2)])
        p.x_upper = np.array([1.0, 0.0])
        report = validate(p)
        assert any("x_upper" in v for v in report.violations)

    def test_non_finite_entries_flagged(self):
        rng = np.random.default_rng(12)
        p = random_problem(rng, n1=3, m1=1, n2=2, m2=1)  # x_upper all +inf, which stays valid
        p.P[0][1, 2] = np.nan
        p.P[1] = np.diagonal(p.P[1]).copy()
        p.P[1][2] = np.inf
        p.q[1][0] = -np.inf
        p.c[0][1] = np.nan
        p.r[0] = np.inf
        p.A[0, 2] = np.nan
        p.B[0, 1] = -np.inf
        p.b[0] = np.nan
        assert validate(p).violations == [
            "P[0][1, 2] is not finite",
            "P[1][2] is not finite",
            "q[1][0] is not finite",
            "c[0][1] is not finite",
            "r[0] is not finite",
            "A[0, 2] is not finite",
            "B[0, 1] is not finite",
            "b[0] is not finite",
        ]

    def test_gram_matrices_accepted(self):
        # any M'M is PSD, also when rank-deficient, and so is a diagonal of
        # squared column norms; neither storage may reject one
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = rng.integers(1, 12)
            M = rng.standard_normal((rng.integers(1, n + 1), n))
            for G in (M.T @ M, np.square(M).sum(axis=0)):
                assert validate(hessian_problem([G])).ok

    def test_sparse_psd_accepted(self):
        report = validate(hessian_problem([np.ones(2)]))  # the identity, as its diagonal
        assert report.ok

    def test_large_sparse_indefinite_rejected(self):
        # the spectrum of the path-graph Laplacian (PSD, smallest eigenvalue 0)
        # as a diagonal, shifted down by 1e-3
        n = 256
        lap = 2.0 - 2.0 * np.cos(np.pi * np.arange(n) / n)
        assert validate(hessian_problem([np.ones(n), lap])).ok
        bad = lap - 1e-3
        tau = PSD_RTOL * max(np.linalg.norm(bad), 1.0)
        report = validate(hessian_problem([np.ones(n), bad]))
        assert report.violations == [f"P[1] is not PSD (P[1] + {tau:.3e} I is not positive definite)"]

    def test_unbounded_generator_singular_sparse_accepted(self):
        p = gen_unbounded(256, seed=0)
        assert all(Pi.shape == (256,) for Pi in p.P)
        assert p.P[0].min() == 0.0
        assert validate(p).ok

    # "csc" and "diagonal csc" hold what a caller with such a sparse matrix
    # passes: its .toarray(), C-ordered, and its .diagonal()
    @pytest.mark.parametrize("storage", ["dense", "csc", "diagonal csc", "dense lapack"])
    @pytest.mark.parametrize("factor, ok", [(-0.5, True), (-2.0, False)])
    def test_psd_slack_boundary(self, storage, factor, ok):
        # smallest eigenvalue factor * tau; the rule accepts lambda_min >= -tau.
        # "dense lapack" has LARGE_DENSE_COLS columns, the smallest factorized by dpotrf
        n = LARGE_DENSE_COLS if storage == "dense lapack" else 6
        rng = np.random.default_rng(5)
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        spectrum = np.r_[0.0, np.linspace(1.0, 5.0, n - 1)]
        tau = PSD_RTOL * np.linalg.norm(spectrum)
        spectrum[0] = factor * tau
        P = (Q * spectrum) @ Q.T
        P = (P + P.T) / 2
        P = {"dense": np.asfortranarray(P), "csc": np.ascontiguousarray(P), "diagonal csc": spectrum,
             "dense lapack": np.asfortranarray(P)}
        assert validate(hessian_problem([np.eye(n), P[storage]])).ok is ok

    def test_lapack_scratch_reused_across_hessians(self):
        # one scratch matrix serves every Hessian: the indefinite middle one
        # leaves it partly factorized, and the PSD one after it must still pass
        n = LARGE_DENSE_COLS
        rng = np.random.default_rng(8)
        M = rng.standard_normal((n, n))
        psd = np.asfortranarray(M @ M.T / n)
        indefinite = np.asfortranarray(psd - 0.1 * np.eye(n))
        tau = PSD_RTOL * max(np.linalg.norm(indefinite), 1.0)
        assert np.linalg.eigvalsh(indefinite)[0] < -tau
        report = validate(hessian_problem([psd, indefinite, psd]))
        assert report.violations == [f"P[1] is not PSD (P[1] + {tau:.3e} I is not positive definite)"]

    def test_lapack_illegal_argument_raises(self, monkeypatch):
        # a negative info is a fault of the call, not of the data: it must not read as "not PSD"
        import scipy.linalg.lapack

        monkeypatch.setattr(scipy.linalg.lapack, "dpotrf", lambda a, **kw: (a, -1))
        with pytest.raises(RuntimeError, match="dpotrf rejected argument 1"):
            validate(hessian_problem([np.eye(LARGE_DENSE_COLS)]))

    def test_small_families_do_not_import_scipy_linalg(self, tmp_path):
        # below LARGE_DENSE_COLS the PSD test needs no scipy.linalg (about 28 MB
        # peak resident), and no family needs scipy.sparse at any size: each is
        # generated, saved, loaded, validated and solved, and the scipy modules
        # loaded after it are printed
        code = (
            "import os, sys\n"
            "from qcqpd import (MklSpec, RandomQcqpSpec, SolverConfig, build_mkl_qcqp, gen_infeasible,\n"
            "                   gen_random_qcqp, gen_unbounded, load_problem, save_problem, solve, validate)\n"
            "families = [('random', lambda: gen_random_qcqp(RandomQcqpSpec(n1=64, m1=2, seed=0))),\n"
            "            ('mkl-sm1', lambda: build_mkl_qcqp(MklSpec(svm='sm1'))[0]),\n"
            "            ('mkl-sm2', lambda: build_mkl_qcqp(MklSpec())[0]),\n"
            "            ('infeasible', lambda: gen_infeasible(64, seed=0)),\n"
            "            ('unbounded', lambda: gen_unbounded(64, seed=0)),\n"
            f"            ('random-large', lambda: gen_random_qcqp(RandomQcqpSpec(n1={LARGE_DENSE_COLS}, m1=1, seed=0)))]\n"
            "path = os.path.join(sys.argv[1], 'p.npz')\n"
            "for name, build in families:\n"
            "    save_problem(build(), path)\n"
            "    p = load_problem(path)\n"
            "    assert validate(p).ok, name\n"
            "    solve(p, SolverConfig(max_iters=20))\n"
            "    loaded = sorted({'.'.join(m.split('.')[:2]) for m in sys.modules if m.startswith('scipy.')})\n"
            "    print(name, *loaded)\n"
        )
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
        res = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert res.returncode == 0, res.stderr
        lines = [line.split() for line in res.stdout.splitlines()]
        assert [line[0] for line in lines] == ["random", "mkl-sm1", "mkl-sm2", "infeasible", "unbounded", "random-large"]
        for name, *modules in lines:
            assert "scipy.sparse" not in modules, name
            if name != "random-large":
                assert "scipy.linalg" not in modules, name

    def test_scipy_paths_switch_at_large_dense_cols(self):
        # one size class decides both scipy.linalg paths: a problem one column
        # short of LARGE_DENSE_COLS is validated and solved on one worker with
        # no scipy.linalg loaded; at LARGE_DENSE_COLS validate factorizes each
        # dense Hessian with dpotrf and the solve multiplies it with dsymv
        code = (
            "import sys\n"
            "from qcqpd import RandomQcqpSpec, SolverConfig, gen_random_qcqp, solve, validate\n"
            "from qcqpd.model import LARGE_DENSE_COLS\n"
            "def run(n1):\n"
            "    p = gen_random_qcqp(RandomQcqpSpec(n1=n1, m1=1, seed=0))\n"
            "    assert validate(p).ok\n"
            "    solve(p, SolverConfig(max_iters=1, n_workers=1))\n"
            "run(LARGE_DENSE_COLS - 1)\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.linalg')))\n"
            "import scipy.linalg.blas, scipy.linalg.lapack\n"
            "calls = {}\n"
            "def counted(module, name):\n"
            "    f = getattr(module, name)\n"
            "    def wrapper(*args, **kwargs):\n"
            "        calls[name] = calls.get(name, 0) + 1\n"
            "        return f(*args, **kwargs)\n"
            "    setattr(module, name, wrapper)\n"
            "counted(scipy.linalg.lapack, 'dpotrf')\n"
            "counted(scipy.linalg.blas, 'dsymv')\n"
            "run(LARGE_DENSE_COLS)\n"
            "print(calls.get('dpotrf', 0), calls.get('dsymv', 0))\n"
        )
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert res.returncode == 0, res.stderr
        below, at = res.stdout.splitlines()
        assert below == "[]"
        dpotrf, dsymv = map(int, at.split())
        assert dpotrf == 2  # one per dense Hessian
        assert dsymv > 0

    def test_decision_matches_eigvalsh(self):
        # symmetric matrices whose smallest eigenvalue lies within 1e-3 ||P||_F of zero,
        # in either memory order, against the rule lambda_min >= -tau
        rng = np.random.default_rng(7)
        decisions = set()
        for _ in range(100):
            n = int(rng.integers(2, 30))
            S = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.3)
            S = np.triu(S) + np.triu(S, 1).T
            S -= (np.linalg.eigvalsh(S)[0] + rng.uniform(-1e-3, 1e-3) * np.linalg.norm(S)) * np.eye(n)
            want = np.linalg.eigvalsh(S)[0] >= -PSD_RTOL * max(np.linalg.norm(S), 1.0)
            for P in (np.asfortranarray(S), np.ascontiguousarray(S)):
                assert validate(hessian_problem([np.eye(n), P])).ok == want
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
            assert Pa.shape == Pb.shape
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
        P1 = np.array([1.0, 0.0, 2.5])  # diag(1, 0, 2.5)
        p = hessian_problem([np.eye(3), P1], x_upper=[1.0, np.inf, 2.0])
        path = tmp_path / "p.npz"
        save_problem(p, path)
        members = read_members(path)
        assert members["P0"].shape == (3, 3) and members["P1"].shape == (3,)
        assert members["x_upper"][1] == np.inf
        loaded = load_problem(path)
        assert loaded.x_upper[1] == np.inf
        self._assert_problems_equal(loaded, p)

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("family", list(GOLDEN_FAMILIES))
    def test_round_trip_solves_identically(self, tmp_path, family, workers):
        p = GOLDEN_FAMILIES[family]()
        path = tmp_path / "p.npz"
        save_problem(p, path)
        loaded = load_problem(path)
        self._assert_problems_equal(loaded, p)
        for Pi in loaded.P:
            assert Pi.flags.f_contiguous
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

    # (n2, m2): the sizes read from c, A and B, a u block with no equality rows included
    @pytest.mark.parametrize("n2, m2", [(0, 0), (2, 1), (3, 0), (0, 2)])
    def test_round_trip_is_bitwise(self, tmp_path, n2, m2):
        rng = np.random.default_rng(11)
        p = random_problem(rng, n1=4, m1=1, n2=n2, m2=m2)
        first = tmp_path / "a.npz"
        second = tmp_path / "b.npz"
        save_problem(p, first)
        loaded = load_problem(first)
        assert (loaded.n1, loaded.n2, loaded.m1, loaded.m2) == (4, n2, 1, m2)
        assert read_members(first)["dims"].tolist() == [4, n2, 1, m2]
        save_problem(loaded, second)
        assert first.read_bytes() == second.read_bytes()

    def test_missing_matrix_is_dimension_error(self, tmp_path):
        path = tmp_path / "p.npz"
        save_problem(toy_problem(), path)
        members = read_members(path)
        members["dims"][2] = 2  # claims two constraints but only one constraint matrix present
        write_members(path, members)
        with pytest.raises(ProblemFormatError, match=re.escape("missing member 'P2'")):
            load_problem(path)

    def test_bad_bound_rejected(self, tmp_path):
        path = tmp_path / "p.npz"
        save_problem(toy_problem(), path)
        members = read_members(path)
        members["x_upper"] = np.array(["huge"])
        write_members(path, members)
        with pytest.raises(ProblemFormatError, match="x_upper has dtype <U4, expected float64"):
            load_problem(path)

    @pytest.mark.parametrize("shape", [(2, 1), (1,), (3,), (3, 3), ()])
    def test_hessian_of_another_shape_is_named(self, tmp_path, shape):
        # a Hessian member is square or a diagonal of length n1, nothing else
        path = tmp_path / "p.npz"
        save_problem(hessian_problem([np.eye(2), np.ones(2)]), path)
        members = read_members(path)
        members["P1"] = np.ones(shape)
        write_members(path, members)
        with pytest.raises(ProblemFormatError, match=re.escape(f"P1 has shape {shape}, expected (2, 2) or (2,)")):
            load_problem(path)
