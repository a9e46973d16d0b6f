import os
import re
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from qcqpd import CommStats, partition_columns
from qcqpd.dist import ColumnBlocks, _tree_sum, dist_dot
from qcqpd.model import LARGE_DENSE_COLS


def _matvec(M, x, part, stats=None):
    """``M @ x``: the one row of a one-matrix :class:`ColumnBlocks` stack's product."""
    return ColumnBlocks([M], part).matvec(x, CommStats() if stats is None else stats)[0]


class TestPartition:
    def test_one_column_each(self):
        assert partition_columns(3, 3).ranges == ((0, 1), (1, 2), (2, 3))

    def test_balanced_split(self):
        assert partition_columns(5, 2).ranges == ((0, 3), (3, 5))

    def test_more_workers_than_columns(self):
        part = partition_columns(2, 4)
        sizes = [hi - lo for lo, hi in part.ranges]
        assert sizes == [1, 1, 0, 0]

    @given(n=st.integers(0, 500), w=st.integers(1, 64))
    @settings(max_examples=200, deadline=None)
    def test_partition_properties(self, n, w):
        part = partition_columns(n, w)
        sizes = [hi - lo for lo, hi in part.ranges]
        assert sum(sizes) == n
        assert part.ranges == partition_columns(n, w).ranges
        assert max(sizes) - min(sizes) <= 1
        if w > n:
            assert min(sizes) == 0
        pos = 0
        for lo, hi in part.ranges:
            assert lo == pos
            pos = hi

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError):
            partition_columns(4, 0)


class TestMatvec:
    def test_toy(self):
        M = np.asfortranarray([[1.0, 2.0], [3.0, 4.0]])
        out = _matvec(M, np.array([1.0, 1.0]), partition_columns(2, 2))
        np.testing.assert_array_equal(out, [3.0, 7.0])

    def test_identity(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(7)
        out = _matvec(np.eye(7), x, partition_columns(7, 3))
        np.testing.assert_allclose(out, x, rtol=1e-15)

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_matches_single_worker(self, workers):
        rng = np.random.default_rng(1)
        M = np.asfortranarray(rng.standard_normal((64, 64)))
        x = rng.standard_normal(64)
        serial = _matvec(M, x, partition_columns(64, 1))
        out = _matvec(M, x, partition_columns(64, workers))
        np.testing.assert_allclose(out, serial, rtol=1e-12)
        np.testing.assert_allclose(out, M @ x, rtol=1e-12)

    @pytest.mark.parametrize("n1", [64, 257, 1000])
    @pytest.mark.parametrize("sparse", [False, True])
    def test_parallel_serial_equivalence(self, n1, sparse):
        rng = np.random.default_rng(n1)
        if sparse:  # a diagonal Hessian, stored as its diagonal
            M = rng.standard_normal(n1)
        else:
            # symmetric: from LARGE_DENSE_COLS columns one worker reads one triangle
            G = rng.standard_normal((n1, n1))
            M = np.asfortranarray(G + G.T)
        x = rng.standard_normal(n1)
        serial = _matvec(M, x, partition_columns(n1, 1))
        np.testing.assert_allclose(serial, (np.diag(M) if sparse else M) @ x, rtol=1e-12, atol=1e-14)
        for w in (2, 7, 32, n1):
            out = _matvec(M, x, partition_columns(n1, w))
            np.testing.assert_allclose(out, serial, rtol=1e-12, atol=1e-14)

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(2)
        M = np.asfortranarray(rng.standard_normal((33, 33)))
        x = rng.standard_normal(33)
        part = partition_columns(33, 5)
        a = _matvec(M, x, part)
        b = _matvec(M, x, part)
        assert np.array_equal(a, b)

    def test_comm_accounting(self):
        stats = CommStats()
        M = np.asfortranarray(np.eye(6))
        _matvec(M, np.ones(6), partition_columns(6, 3), stats)
        assert stats.reduce_ops == 1
        assert stats.scatter_ops == 1
        assert stats.bytes_reduced == 6 * 8
        assert stats.bytes_scattered == 6 * 8

    def test_dimension_mismatch(self):
        # at 2 and 3 workers a wrong length would be cut silently by x[lo:hi]
        for workers in (1, 2, 3):
            for length in (2, 4):
                with pytest.raises(ValueError, match=re.escape(f"vector has shape ({length},), expected (3,)")):
                    _matvec(np.eye(3), np.ones(length), partition_columns(3, workers))
        with pytest.raises(ValueError, match="matrix 0"):
            _matvec(np.eye(3), np.ones(3), partition_columns(4, 2))
        with pytest.raises(ValueError, match="matrix 0"):
            _matvec(np.ones((2, 3)), np.ones(3), partition_columns(3, 1))
        with pytest.raises(ValueError, match=re.escape("matrix 1 has shape (2,), expected (3, 3) or (3,)")):
            ColumnBlocks([np.eye(3), np.ones(2)], partition_columns(3, 1))


class TestDot:
    def test_matches_numpy(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((4, 31))
        y = rng.standard_normal(31)
        for w in (1, 2, 7):
            out = dist_dot(X, y, partition_columns(31, w), CommStats())
            assert out.shape == (4,)
            np.testing.assert_allclose(out, X @ y, rtol=1e-12)

    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 5])
    def test_small_integers_exact(self, workers):
        # n = 3 leaves some of 4 or 5 workers an empty column range
        rng = np.random.default_rng(workers)
        for n in (3, 13):
            X = rng.integers(-4, 5, size=(5, n)).astype(float)
            y = rng.integers(-5, 6, size=n).astype(float)
            assert np.array_equal(dist_dot(X, y, partition_columns(n, workers), CommStats()), X @ y)

    def test_counts_one_scalar_reduce(self):
        stats = CommStats()
        dist_dot(np.ones((1, 4)), np.ones(4), partition_columns(4, 2), stats)
        assert stats.as_dict() == {"reduce_ops": 1, "scatter_ops": 0, "bytes_reduced": 8, "bytes_scattered": 0}

    def test_counts_one_reduce_of_every_row(self):
        stats = CommStats()
        for _ in range(2):
            dist_dot(np.ones((5, 4)), np.ones(4), partition_columns(4, 3), stats)
        assert stats.as_dict() == {"reduce_ops": 2, "scatter_ops": 0, "bytes_reduced": 2 * 5 * 8, "bytes_scattered": 0}

    def test_shape_mismatch(self):
        # at 2 and 3 workers a wrong length would be cut silently by y[lo:hi]
        cases = [(np.ones(4), np.ones(4)), (np.ones((2, 4, 1)), np.ones(4)),
                 (np.ones((2, 3)), np.ones(4)), (np.ones((2, 5)), np.ones(4)),
                 (np.ones((2, 4)), np.ones(3)), (np.ones((2, 4)), np.ones(5))]
        for workers in (1, 2, 3):
            for X, y in cases:
                with pytest.raises(ValueError):
                    dist_dot(X, y, partition_columns(4, workers), CommStats())


# The ids "csc" and "mixed" name the sparse stacks by the storage that a
# diagonal Hessian's vector replaced.
STACKS = {
    "dense": ("dense", "dense", "dense"),
    "csc": ("diagonal", "diagonal", "diagonal"),
    "mixed": ("diagonal", "dense", "dense", "diagonal", "dense"),
}


def _stack(kinds, n, rng, integer):
    """One Hessian per kind: a Fortran-order ``n x n`` matrix, or a length-``n`` diagonal."""
    shapes = {"dense": (n, n), "diagonal": (n,)}
    if integer:
        return [np.asfortranarray(rng.integers(-4, 5, size=shapes[kind]).astype(float)) for kind in kinds]
    return [np.asfortranarray(rng.standard_normal(shapes[kind])) for kind in kinds]


def _as_square(M):
    """A Hessian as its ``n x n`` matrix."""
    return np.diag(M) if M.ndim == 1 else M


def _address(a):
    return a.__array_interface__["data"][0]


def _off_line_copy(block):
    """A Fortran-order copy of ``block`` with an unpadded leading dimension and
    its base one double past a 64-byte line."""
    rows, cols = block.shape
    flat = np.empty(rows * cols + 9)
    skip = -_address(flat) % 64 // 8 + 1
    copy = flat[skip:skip + rows * cols].reshape((rows, cols), order="F")
    copy[...] = block
    return copy


class TestColumnBlocks:
    """A stack of several matrices against a one-matrix stack per matrix.

    The stack's product is the per-matrix products stacked as rows in matrix order.
    """

    # three dense 8- or 13-column matrices stack into 24 or 39 rows
    @pytest.mark.parametrize("n", [8, 13])
    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("kinds", [STACKS["dense"], STACKS["mixed"]], ids=["dense", "mixed"])
    def test_stacked_blocks_start_on_cache_lines(self, kinds, workers, n):
        rng = np.random.default_rng(300 + 10 * workers + n)
        mats = _stack(kinds, n, rng, integer=False)
        x = rng.standard_normal(n)
        part = partition_columns(n, workers)
        aligned = ColumnBlocks(mats, part)
        rows, blocks = aligned._square
        assert len(blocks) == workers
        for block, (lo, hi) in zip(blocks, part.ranges):
            assert block.shape == (3 * n, hi - lo)
            assert _address(block) % 64 == 0
            assert block.strides[1] % 64 == 0
        # the product bits do not depend on where the blocks sit
        unaligned = ColumnBlocks(mats, part)
        unaligned._square = (rows, [_off_line_copy(block) for block in blocks])
        assert all(_address(block) % 64 == 8 for block in unaligned._square[1])
        out = aligned.matvec(x, CommStats())
        assert out.tobytes() == unaligned.matvec(x, CommStats()).tobytes()
        np.testing.assert_allclose(out, np.stack([_as_square(M) @ x for M in mats]), rtol=1e-13, atol=1e-13)

    # n = 3 leaves some of 4 or 5 workers an empty column range
    @pytest.mark.parametrize("n", [3, 13])
    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("kinds", STACKS.values(), ids=list(STACKS))
    def test_small_integers_exact(self, kinds, workers, n):
        # every partial sum is an integer far below 2**53, so any BLAS sums exactly
        rng = np.random.default_rng(100 * workers + n)
        mats = _stack(kinds, n, rng, integer=True)
        x = rng.integers(-5, 6, size=n).astype(float)
        part = partition_columns(n, workers)
        out = ColumnBlocks(mats, part).matvec(x, CommStats())
        assert out.shape == (len(mats), n)
        assert np.array_equal(out, np.stack([_matvec(M, x, part) for M in mats]))
        assert np.array_equal(out, np.stack([_as_square(M) @ x for M in mats]))

    # n = 3 leaves some of 4 or 5 workers an empty column range
    @pytest.mark.parametrize("n", [3, 13])
    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("kinds", [STACKS["csc"], STACKS["mixed"]], ids=["csc", "mixed"])
    def test_sparse_rows_are_per_worker_csc_products_bitwise(self, kinds, workers, n):
        # random floats, none zero: each diagonal row is np.diag(d) @ x and the
        # tree sum of the per-worker products of d as a CSC matrix, which the
        # kernel computed before diagonals were stored as vectors, bit for bit;
        # the dense rows are the dense stack's
        rng = np.random.default_rng(200 + 10 * workers + n)
        mats = _stack(kinds, n, rng, integer=False)
        x = rng.standard_normal(n)
        part = partition_columns(n, workers)
        dense = [M for M in mats if M.ndim == 2]
        dense_rows = iter(ColumnBlocks(dense, part).matvec(x, CommStats()) if dense else ())
        out = ColumnBlocks(mats, part).matvec(x, CommStats())
        for row, M in zip(out, mats):
            if M.ndim == 2:
                assert row.tobytes() == next(dense_rows).tobytes()
                continue
            csc = sp.csc_matrix(np.diag(M))
            assert row.tobytes() == (np.diag(M) @ x).tobytes()
            assert row.tobytes() == _tree_sum([csc[:, lo:hi] @ x[lo:hi] for lo, hi in part.ranges]).tobytes()

    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("kinds", STACKS.values(), ids=list(STACKS))
    def test_random_floats_agree(self, kinds, workers):
        rng = np.random.default_rng(workers)
        n = 37
        mats = _stack(kinds, n, rng, integer=False)
        x = rng.standard_normal(n)
        part = partition_columns(n, workers)
        out = ColumnBlocks(mats, part).matvec(x, CommStats())
        np.testing.assert_allclose(out, np.stack([_matvec(M, x, part) for M in mats]), rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(out, np.stack([_as_square(M) @ x for M in mats]), rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_comm_one_reduce_scatter_pair_per_call(self, workers):
        rng = np.random.default_rng(7)
        n = 10
        mats = _stack(STACKS["mixed"], n, rng, integer=True)
        blocks = ColumnBlocks(mats, partition_columns(n, workers))
        stats = CommStats()
        for _ in range(2):  # two passes
            blocks.matvec(rng.standard_normal(n), stats)
        k = len(mats)
        assert stats.as_dict() == {
            "reduce_ops": 2,
            "scatter_ops": 2,
            "bytes_reduced": 2 * k * n * 8,
            "bytes_scattered": 2 * k * n * 8,
        }


def _symmetric_stack(kinds, n, rng):
    """One symmetric Hessian per kind: Fortran-order dense, C-order dense or a diagonal."""
    mats = []
    for kind in kinds:
        G = rng.standard_normal((n, n))
        S = G + G.T
        if kind == "diagonal":
            mats.append(np.diagonal(S).copy())
        else:
            mats.append(np.ascontiguousarray(S) if kind == "c-order" else np.asfortranarray(S))
    return mats


# The id "dense-csc" names the dense and diagonal stack by the storage that a
# diagonal Hessian's vector replaced.
SYMMETRIC_STACKS = {
    "dense": ("dense", "c-order", "dense", "dense", "c-order"),
    "dense-csc": ("dense", "diagonal", "c-order", "diagonal"),
}


class TestSymmetricStack:
    """One worker spanning at least LARGE_DENSE_COLS columns multiplies each
    dense matrix by ``dsymv``; everything else is the generic stack."""

    # 600 is not a multiple of 4
    @pytest.mark.parametrize("n", [LARGE_DENSE_COLS, 600])
    @pytest.mark.parametrize("kinds", SYMMETRIC_STACKS.values(), ids=list(SYMMETRIC_STACKS))
    def test_one_worker_matches_per_matrix_products(self, kinds, n):
        rng = np.random.default_rng(n)
        mats = _symmetric_stack(kinds, n, rng)
        x = rng.standard_normal(n)
        stats = CommStats()
        out = ColumnBlocks(mats, partition_columns(n, 1)).matvec(x, stats)
        np.testing.assert_allclose(out, np.stack([_as_square(M) @ x for M in mats]), rtol=1e-12, atol=1e-12)
        rows = len(mats) * n
        assert stats.as_dict() == {"reduce_ops": 1, "scatter_ops": 1,
                                   "bytes_reduced": 8 * rows, "bytes_scattered": 8 * rows}
        # dsymv takes each matrix as stored: a C-order one gives the bits of its Fortran copy
        fortran = ColumnBlocks([np.asfortranarray(M) for M in mats], partition_columns(n, 1)).matvec(x, CommStats())
        assert out.tobytes() == fortran.tobytes()

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("n", [LARGE_DENSE_COLS, 600])
    @pytest.mark.parametrize("kinds", SYMMETRIC_STACKS.values(), ids=list(SYMMETRIC_STACKS))
    def test_partitioned_is_the_generic_stack_bitwise(self, kinds, n, workers):
        # no dsymv: each dense matrix's row is its per-worker products
        # tree-summed, taken in Fortran order as its workers' blocks are, and
        # each diagonal's row is d * x
        rng = np.random.default_rng(n + workers)
        mats = _symmetric_stack(kinds, n, rng)
        x = rng.standard_normal(n)
        part = partition_columns(n, workers)
        out = ColumnBlocks(mats, part).matvec(x, CommStats())
        expected = [M * x if M.ndim == 1 else _tree_sum([M[:, lo:hi] @ x[lo:hi] for lo, hi in part.ranges])
                    for M in (M if M.ndim == 1 else np.asfortranarray(M) for M in mats)]
        assert out.tobytes() == np.stack(expected).tobytes()

    @pytest.mark.parametrize("n, workers, one_triangle", [
        (LARGE_DENSE_COLS, 1, True),
        (LARGE_DENSE_COLS - 1, 1, False),
        (LARGE_DENSE_COLS, 2, False),
    ])
    def test_one_triangle_only_on_one_worker_from_min_cols(self, n, workers, one_triangle):
        # a non-symmetric matrix shows which path ran: dsymv gives the product
        # of one triangle symmetrised, the generic stack the matrix's own product
        rng = np.random.default_rng(11)
        M = np.asfortranarray(rng.standard_normal((n, n)))
        x = rng.standard_normal(n)
        out = _matvec(M, x, partition_columns(n, workers))
        upper = np.triu(M) + np.triu(M, 1).T
        lower = np.tril(M) + np.tril(M, -1).T
        symmetrised = [S @ x for S in (upper, lower)]
        if one_triangle:
            assert any(np.allclose(out, y, rtol=1e-12, atol=1e-12) for y in symmetrised)
        else:
            np.testing.assert_allclose(out, M @ x, rtol=1e-12, atol=1e-12)

    def test_small_solve_does_not_import_scipy_linalg(self):
        # dsymv comes from scipy.linalg, imported only when a stack needs it:
        # importing it raises the peak resident memory of a bare numpy process
        # from 27 to 55 MB
        code = (
            "import sys\n"
            "from qcqpd import RandomQcqpSpec, SolverConfig, gen_random_qcqp, solve\n"
            "solve(gen_random_qcqp(RandomQcqpSpec(n1=160, m1=2, seed=0)), SolverConfig(n_workers=1))\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.linalg')))\n"
        )
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "[]"
