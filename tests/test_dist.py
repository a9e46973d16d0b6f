import os
import re
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from qcqpd import CommStats
from qcqpd.dist import _SINGLE_RANGE, ColumnBlocks, _in_single_range, _packed_upper, _width_runs
from qcqpd.model import LARGE_DENSE_COLS
from reference import held_ranges, reference_dot, reference_products, reference_ranges, worker_order_sum


def _traffic(**counts):
    """A :meth:`CommStats.as_dict` with the report's six keys: ``counts``, and 0 for every other counter."""
    keys = ["reduce_ops", "scatter_ops", "allgather_ops", "bytes_reduced", "bytes_scattered", "bytes_allgathered"]
    return {**dict.fromkeys(keys, 0), **counts}


def _products(blocks, x, stats=None, single=False):
    """The ``(k, n)`` products of a :class:`ColumnBlocks` stack: one run of its plan bound to ``x`` and a new buffer."""
    out = np.empty(blocks._shape)
    blocks.bind(x, out, CommStats() if stats is None else stats, single)()
    return out


def _matvec(M, x, workers, stats=None):
    """``M @ x``: the one row of a one-matrix :class:`ColumnBlocks` stack's product."""
    return _products(ColumnBlocks([M], workers), x, stats)[0]


def _dot(X, y, n, workers, stats=None):
    """``X @ y`` over ``n`` columns: one run of the :meth:`ColumnBlocks.bind_dot` plan bound to ``X``, ``y``
    and a new buffer, from a stack of one zero diagonal, which has nothing to cut."""
    out = np.empty(X.shape[:1])
    ColumnBlocks([np.zeros(n)], workers).bind_dot(X, y, out, CommStats() if stats is None else stats)()
    return out


def _expand(runs):
    """The half-open column range of each worker of the ``(lo, g, c)`` runs, in worker order."""
    return [(lo + j * c, lo + (j + 1) * c) for lo, g, c in runs for j in range(g)]


class TestPartition:
    def test_one_column_each(self):
        assert _width_runs(3, 3) == [(0, 3, 1)]
        assert _expand(_width_runs(3, 3)) == [(0, 1), (1, 2), (2, 3)]

    def test_balanced_split(self):
        assert _width_runs(5, 2) == [(0, 1, 3), (3, 1, 2)]
        assert _expand(_width_runs(5, 2)) == [(0, 3), (3, 5)]

    def test_more_workers_than_columns(self):
        # the workers that hold nothing make no run: the partition is the
        # one-column workers, and with no columns it is empty
        assert _width_runs(2, 4) == [(0, 2, 1)]
        assert _expand(_width_runs(2, 4)) == [(0, 1), (1, 2)]
        assert _width_runs(64, 100_000) == _width_runs(64, 64) == [(0, 64, 1)]
        assert _width_runs(0, 1) == _width_runs(0, 3) == []

    @given(n=st.integers(0, 500), w=st.integers(1, 64))
    @settings(max_examples=200, deadline=None)
    def test_partition_properties(self, n, w):
        runs = _width_runs(n, w)
        assert len(runs) <= 2
        assert all(g > 0 and c > 0 for _, g, c in runs)  # never an empty run
        ranges = _expand(runs)
        sizes = [hi - lo for lo, hi in ranges]
        assert len(sizes) == min(n, w) and sum(sizes) == n
        if sizes:
            assert max(sizes) - min(sizes) <= 1
        pos = 0
        for lo, hi in ranges:
            assert lo == pos
            pos = hi

    def test_runs_expand_to_reference_ranges(self):
        # the ranges of the workers that hold columns, the rest left out
        for n in range(41):
            for w in range(1, 10):
                assert _expand(_width_runs(n, w)) == held_ranges(n, w), (n, w)

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError, match="n_workers"):
            _width_runs(4, 0)
        with pytest.raises(ValueError, match="n_workers"):
            ColumnBlocks([np.eye(4)], 0)


class TestMatvec:
    def test_toy(self):
        M = np.asfortranarray([[1.0, 2.0], [3.0, 4.0]])
        out = _matvec(M, np.array([1.0, 1.0]), 2)
        np.testing.assert_array_equal(out, [3.0, 7.0])

    def test_identity(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(7)
        out = _matvec(np.eye(7), x, 3)
        np.testing.assert_allclose(out, x, rtol=1e-15)

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_matches_single_worker(self, workers):
        rng = np.random.default_rng(1)
        M = np.asfortranarray(rng.standard_normal((64, 64)))
        x = rng.standard_normal(64)
        serial = _matvec(M, x, 1)
        out = _matvec(M, x, workers)
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
        serial = _matvec(M, x, 1)
        np.testing.assert_allclose(serial, (np.diag(M) if sparse else M) @ x, rtol=1e-12, atol=1e-14)
        for w in (2, 7, 32, n1):
            out = _matvec(M, x, w)
            np.testing.assert_allclose(out, serial, rtol=1e-12, atol=1e-14)

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(2)
        M = np.asfortranarray(rng.standard_normal((33, 33)))
        x = rng.standard_normal(33)
        a = _matvec(M, x, 5)
        b = _matvec(M, x, 5)
        assert np.array_equal(a, b)

    def test_comm_accounting(self):
        # one allgather of x; each worker writes its own rows, so nothing is reduced or scattered
        stats = CommStats()
        M = np.asfortranarray(np.eye(6))
        _matvec(M, np.ones(6), 3, stats)
        assert stats.as_dict() == _traffic(allgather_ops=1, bytes_allgathered=6 * 8)

    def test_dimension_mismatch(self):
        # at 2 and 3 workers a wrong length would be cut silently by x[lo:hi]
        for workers in (1, 2, 3):
            for length in (2, 4):
                with pytest.raises(ValueError, match=re.escape(f"vector has shape ({length},), expected (3,)")):
                    _matvec(np.eye(3), np.ones(length), workers)
        # the first matrix gives the column count; a shape it does not fit is its own error
        with pytest.raises(ValueError, match=re.escape("matrix 0 has shape (3, 3, 3), expected (3, 3) or (3,)")):
            _matvec(np.ones((3, 3, 3)), np.ones(3), 2)
        with pytest.raises(ValueError, match="matrix 0"):
            _matvec(np.ones((2, 3)), np.ones(3), 1)
        with pytest.raises(ValueError, match=re.escape("matrix 1 has shape (2,), expected (3, 3) or (3,)")):
            ColumnBlocks([np.eye(3), np.ones(2)], 1)


class TestDot:
    def test_matches_numpy(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((4, 31))
        y = rng.standard_normal(31)
        for w in (1, 2, 7):
            out = _dot(X, y, 31, w)
            assert out.shape == (4,)
            np.testing.assert_allclose(out, X @ y, rtol=1e-12)

    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 5])
    def test_small_integers_exact(self, workers):
        # n = 3 leaves some of 4 or 5 workers an empty column range
        rng = np.random.default_rng(workers)
        for n in (3, 13):
            X = rng.integers(-4, 5, size=(5, n)).astype(float)
            y = rng.integers(-5, 6, size=n).astype(float)
            assert np.array_equal(_dot(X, y, n, workers), X @ y)

    # n = 3 leaves some of 4 or more workers an empty column range, and 13
    # some of 16; 13 and 37 split into two column widths at most worker
    # counts
    @pytest.mark.parametrize("n", [3, 13, 37])
    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 5, 6, 7, 8, 9, 16])
    def test_bound_plan_is_the_per_call_reference_bitwise(self, workers, n):
        # X row-major, as the pass's constraint block is; the plan reads X and
        # y afresh on every run, and sums the partials of six rows in worker order
        rng = np.random.default_rng(500 + 10 * workers + n)
        X, y, out = np.empty((6, n)), np.empty(n), np.empty(6)
        stats, want_stats = CommStats(), CommStats()
        plan = ColumnBlocks([np.zeros(n)], workers).bind_dot(X, y, out, stats)
        for _ in range(2):
            X[:] = rng.standard_normal(X.shape)
            y[:] = rng.standard_normal(n)
            plan()
            assert out.tobytes() == reference_dot(X, y, workers, want_stats).tobytes()
        assert stats == want_stats

    @pytest.mark.parametrize("workers", range(2, 40))
    def test_lone_row_sums_in_worker_order_at_every_worker_count(self, workers):
        # numpy sums one column of eight or more rows in its own blocks, so the
        # partials of a lone row (k = 1) carry a zero second column, and numpy
        # adds the rows one at a time in worker order
        n = 37
        rng = np.random.default_rng(700 + workers)
        X, y, out = np.empty((1, n)), np.empty(n), np.empty(1)
        plan = ColumnBlocks([np.zeros(n)], workers).bind_dot(X, y, out, CommStats())
        for _ in range(20):
            X[:] = rng.standard_normal(X.shape) * 10.0 ** rng.integers(-8, 9, size=X.shape)
            y[:] = rng.standard_normal(n)
            plan()
            assert out.tobytes() == reference_dot(X, y, workers, CommStats()).tobytes()

    def test_counts_one_scalar_reduce(self):
        stats = CommStats()
        _dot(np.ones((1, 4)), np.ones(4), 4, 2, stats)
        assert stats.as_dict() == _traffic(reduce_ops=1, bytes_reduced=8)

    def test_counts_one_reduce_of_every_row(self):
        stats = CommStats()
        for _ in range(2):
            _dot(np.ones((5, 4)), np.ones(4), 4, 3, stats)
        assert stats.as_dict() == _traffic(reduce_ops=2, bytes_reduced=2 * 5 * 8)

    def test_shape_mismatch(self):
        # at 2 and 3 workers a wrong length would be cut silently by y[lo:hi]
        cases = [(np.ones(4), np.ones(4)), (np.ones((2, 4, 1)), np.ones(4)),
                 (np.ones((2, 3)), np.ones(4)), (np.ones((2, 5)), np.ones(4)),
                 (np.ones((2, 4)), np.ones(3)), (np.ones((2, 4)), np.ones(5))]
        for workers in (1, 2, 3):
            for X, y in cases:
                with pytest.raises(ValueError):
                    _dot(X, y, 4, workers)


# The ids "csc" and "mixed" name the sparse stacks by the storage that a
# diagonal Hessian's vector replaced.
STACKS = {
    "dense": ("dense", "dense", "dense"),
    "csc": ("diagonal", "diagonal", "diagonal"),
    "mixed": ("diagonal", "dense", "dense", "diagonal", "dense"),
}


# The bound plans also take a diagonal P0 before dense Hessians, as in the
# kernel-learning instance: the dense rows are one run, written through one view.
BOUND_STACKS = {**STACKS, "diagonal-first": ("diagonal", "dense", "dense")}


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


def _off_line_copy(stack):
    """A copy of a ``(g, rows, cols)`` array of Fortran-order blocks with the same
    leading dimension and its base, so every column, one double past a 64-byte line.

    The leading dimension is kept because the product of a block of one to
    three rows sums in another order when its leading dimension equals its
    rows (OpenBLAS 0.3.31).
    """
    g, rows, cols = stack.shape
    ld = stack.strides[2] // 8
    flat = np.empty(g * ld * cols + 9)
    skip = -_address(flat) % 64 // 8 + 1
    copy = flat[skip:skip + g * ld * cols].reshape((g, cols, ld)).transpose(0, 2, 1)[:, :rows]
    copy[...] = stack
    return copy


def _books(function, stats):
    """Whether a plan step's function is a booking on ``stats``, bound directly or through ``functools.partial``."""
    return getattr(getattr(function, "func", function), "__self__", None) is stats


def _product_calls(plan):
    """The matrix operands of a plan's local products, in order."""
    return [args[0] for f, args in plan.steps if f in (np.dot, np.matmul)]


class TestColumnBlocks:
    """A stack of several matrices against a one-matrix stack per matrix.

    The stack's product is the per-matrix products stacked as rows in matrix order.
    """

    # a worker's rows of three dense 8- or 13-column matrices stack into
    # three times its width, of one into its width; 13 rows split into two
    # widths at 2 to 5 workers, 8 at 3 and 5
    @pytest.mark.parametrize("n", [8, 13])
    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("kinds", [STACKS["dense"], STACKS["mixed"], ("dense",), ("diagonal", "dense")],
                             ids=["dense", "mixed", "one-dense", "diagonal-dense"])
    def test_stacked_blocks_start_on_cache_lines(self, kinds, workers, n):
        rng = np.random.default_rng(300 + 10 * workers + n)
        mats = _stack(kinds, n, rng, integer=False)
        x = rng.standard_normal(n)
        widths = [hi - lo for lo, hi in reference_ranges(n, workers)]
        aligned = ColumnBlocks(mats, workers)
        # one group per run of consecutive dense rows of the products, each
        # with one array per run of equal-width workers, its items their
        # blocks in worker order, each block the worker's rows of the group's
        # matrices
        groups = [list(range(len(mats)))[rows] for rows, _ in aligned._square]
        assert sum(groups, []) == [i for i, kind in enumerate(kinds) if kind == "dense"]
        assert all(group == list(range(group[0], group[-1] + 1)) for group in groups)
        stacks = [stack for _, group_stacks in aligned._square for stack in group_stacks]
        assert [stack.shape[1] for stack in stacks] == [
            len(group) * c for group in groups for c in sorted(set(widths), reverse=True)]
        blocks = [block for stack in stacks for block in stack]
        assert [block.shape for block in blocks] == [(len(group) * c, n) for group in groups for c in widths]
        for block in blocks:
            assert _address(block) % 64 == 0
            assert block.strides[1] % 64 == 0
        # the bound plan runs one product per group and run, reading those
        # arrays, not copies, and writing straight into the products' rows
        out = np.empty((len(mats), n))
        plan = aligned.bind(x, out, CommStats())
        reads = _product_calls(plan)
        assert [_address(a) for a in reads] == [_address(stack) for stack in stacks]
        writes = [args[-1] for f, args in plan.steps if f is np.matmul]
        assert len(writes) == len(stacks) and all(np.shares_memory(a, out) for a in writes)
        # the product bits do not depend on where the blocks sit
        unaligned = ColumnBlocks(mats, workers)
        unaligned._square = [(rows, [_off_line_copy(stack) for stack in group_stacks])
                             for rows, group_stacks in aligned._square]
        assert all(_address(stack) % 64 == 8 for _, group_stacks in unaligned._square for stack in group_stacks)
        plan()
        assert out.tobytes() == _products(unaligned, x).tobytes()
        np.testing.assert_allclose(out, np.stack([_as_square(M) @ x for M in mats]), rtol=1e-13, atol=1e-13)

    # 256 columns give 4 workers one width, 257 two
    @pytest.mark.parametrize("n, calls", [(256, 1), (257, 2)])
    @pytest.mark.parametrize("kinds", [STACKS["dense"], STACKS["mixed"]], ids=["dense", "mixed"])
    def test_one_local_product_per_width_run(self, kinds, n, calls):
        rng = np.random.default_rng(n)
        x, X = rng.standard_normal(n), rng.standard_normal((2, n))
        stats = CommStats()
        hessians = ColumnBlocks(_stack(kinds, n, rng, integer=False), 4)
        plan = hessians.bind(x, np.empty(hessians._shape), stats)
        assert len(_product_calls(plan)) == calls * len(hessians._square)  # per group of consecutive dense rows
        plan = hessians.bind_dot(X, x, np.empty(2), stats)
        assert len(_product_calls(plan)) == calls
        assert stats == CommStats()  # binding books nothing

    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 5, 6, 7, 8, 9, 16])
    @pytest.mark.parametrize("kinds", [STACKS["dense"], STACKS["mixed"]], ids=["dense", "mixed"])
    def test_one_reduce_and_one_booking(self, kinds, workers):
        # the constraint rows are one np.matmul per width run and one
        # np.add.reduce of their partials, no np.add; each collective, the
        # products' allgather included, is booked in one step, the last.
        # 13 columns leave 3 of 16 workers none, and they add nothing
        n = 13
        stats = CommStats()
        hessians = ColumnBlocks(_stack(kinds, n, np.random.default_rng(workers), integer=False), workers)
        plans = [hessians.bind(np.empty(n), np.empty(hessians._shape), stats),
                 hessians.bind_dot(np.empty((2, n)), np.empty(n), np.empty(2), stats)]
        for plan in plans:
            functions = [f for f, _ in plan.steps]
            assert [_books(f, stats) for f in functions] == [False] * (len(functions) - 1) + [True]
        local = [np.dot] if workers == 1 else [np.matmul] * len(_width_runs(n, workers)) + [np.add.reduce]
        assert [f for f, _ in plans[1].steps[:-1]] == local
        if workers > 1:
            assert plans[1].steps[-2][1][0].shape == (min(n, workers), 2)

    def test_more_workers_than_columns_cost_nothing_more(self):
        # 100 000 workers over 64 columns are its 64 one-column workers: the
        # products of each of the two dense-row groups are one batched product
        # of 64 blocks, and the partial stack of the constraint rows has 64 rows
        n, workers = 64, 100_000
        stats = CommStats()
        hessians = ColumnBlocks(_stack(STACKS["mixed"], n, np.random.default_rng(3), integer=False), workers)
        assert [[len(stack) for stack in stacks] for _, stacks in hessians._square] == [[n], [n]]
        plan = hessians.bind_dot(np.empty((2, n)), np.empty(n), np.empty(2), stats)
        (reduce_args,) = [args for f, args in plan.steps if f == np.add.reduce]
        assert reduce_args[0].shape == (n, 2)

    @pytest.mark.parametrize("workers", [2, 3, 4, 7, 16])
    @pytest.mark.parametrize("kinds", BOUND_STACKS.values(), ids=list(BOUND_STACKS))
    def test_products_plan_has_no_reduce(self, kinds, workers):
        # each worker writes its own rows: every step is a local product or the
        # booking of the allgather, and no step adds partials or copies rows
        n = 13
        stats = CommStats()
        hessians = ColumnBlocks(_stack(kinds, n, np.random.default_rng(workers), integer=False), workers)
        plan = hessians.bind(np.empty(n), np.empty(hessians._shape), stats)
        functions = [f for f, _ in plan.steps]
        assert np.add not in functions
        assert {f for f in functions if not _books(f, stats)} <= {np.matmul, np.multiply}

    # 13 columns split into two widths at 2, 3, 4 and 7 workers, one at 1
    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 7])
    @pytest.mark.parametrize("kinds, groups", [
        (("dense", "diagonal", "dense", "diagonal", "dense"), 3),
        (("diagonal", "dense", "dense"), 1),
        (("dense", "dense", "diagonal"), 1),
    ], ids=["interleaved", "diagonal-first", "diagonal-last"])
    def test_one_product_path_at_every_worker_count(self, kinds, groups, workers):
        # serial is the one-worker run: each group of consecutive dense rows is
        # one np.matmul per width run straight into the products, whatever the
        # order of the Hessians, with no np.dot and no row copy
        n = 13
        rng = np.random.default_rng(800 + workers)
        blocks = ColumnBlocks(_stack(kinds, n, rng, integer=False), workers)
        x, out = np.empty(n), np.empty(blocks._shape)
        stats, want_stats = CommStats(), CommStats()
        plan = blocks.bind(x, out, stats)
        functions = [f for f, _ in plan.steps]
        assert _books(functions.pop(), stats)
        products = [np.matmul] * groups * len(_width_runs(n, workers))
        assert functions == products + [np.multiply] * kinds.count("diagonal")
        for _ in range(2):
            x[:] = rng.standard_normal(n)
            plan()
            assert out.tobytes() == reference_products(blocks, x, workers, want_stats).tobytes()
        assert stats == want_stats

    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("kinds", [STACKS["csc"], STACKS["mixed"], BOUND_STACKS["diagonal-first"]],
                             ids=["csc", "mixed", "diagonal-first"])
    def test_each_diagonal_is_one_product_of_its_own_vector(self, kinds, workers):
        # no copy of the diagonals: row i is one 1-D d * x reading P[i] itself
        n = 13
        mats = _stack(kinds, n, np.random.default_rng(workers), integer=False)
        x, out = np.empty(n), np.empty((len(mats), n))
        plan = ColumnBlocks(mats, workers).bind(x, out, CommStats())
        products = [args for f, args in plan.steps if f is np.multiply]
        diagonals = [i for i, kind in enumerate(kinds) if kind == "diagonal"]
        assert len(products) == len(diagonals)
        for (d, v, row), i in zip(products, diagonals):
            assert d is mats[i] and v is x
            assert row.shape == (n,) and _address(row) == _address(out[i])

    # n = 3 leaves some of 4 or 5 workers an empty column range
    @pytest.mark.parametrize("n", [3, 13])
    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("kinds", STACKS.values(), ids=list(STACKS))
    def test_small_integers_exact(self, kinds, workers, n):
        # every partial sum is an integer far below 2**53, so any BLAS sums exactly
        rng = np.random.default_rng(100 * workers + n)
        mats = _stack(kinds, n, rng, integer=True)
        x = rng.integers(-5, 6, size=n).astype(float)
        out = _products(ColumnBlocks(mats, workers), x)
        assert out.shape == (len(mats), n)
        assert np.array_equal(out, np.stack([_matvec(M, x, workers) for M in mats]))
        assert np.array_equal(out, np.stack([_as_square(M) @ x for M in mats]))

    # n = 3 leaves some of 4 or 5 workers an empty column range
    @pytest.mark.parametrize("n", [3, 13])
    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("kinds", [STACKS["csc"], STACKS["mixed"]], ids=["csc", "mixed"])
    def test_sparse_rows_are_per_worker_csc_products_bitwise(self, kinds, workers, n):
        # random floats, none zero: each diagonal row is np.diag(d) @ x and the
        # worker-order sum of the per-worker products of d as a CSC matrix,
        # which the kernel computed before diagonals were stored as vectors,
        # bit for bit; the dense rows are the dense stack's
        rng = np.random.default_rng(200 + 10 * workers + n)
        mats = _stack(kinds, n, rng, integer=False)
        x = rng.standard_normal(n)
        dense = [M for M in mats if M.ndim == 2]
        dense_rows = iter(_products(ColumnBlocks(dense, workers), x) if dense else ())
        out = _products(ColumnBlocks(mats, workers), x)
        for row, M in zip(out, mats):
            if M.ndim == 2:
                assert row.tobytes() == next(dense_rows).tobytes()
                continue
            csc = sp.csc_matrix(np.diag(M))
            assert row.tobytes() == (np.diag(M) @ x).tobytes()
            ranges = reference_ranges(n, workers)
            assert row.tobytes() == worker_order_sum([csc[:, lo:hi] @ x[lo:hi] for lo, hi in ranges], n).tobytes()

    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("kinds", STACKS.values(), ids=list(STACKS))
    def test_random_floats_agree(self, kinds, workers):
        rng = np.random.default_rng(workers)
        n = 37
        mats = _stack(kinds, n, rng, integer=False)
        x = rng.standard_normal(n)
        out = _products(ColumnBlocks(mats, workers), x)
        np.testing.assert_allclose(out, np.stack([_matvec(M, x, workers) for M in mats]), rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(out, np.stack([_as_square(M) @ x for M in mats]), rtol=1e-13, atol=1e-13)

    # n = 3 leaves some of 4 or more workers an empty column range, and 13
    # some of 16; 13 and 37 split into two column widths at most worker
    # counts
    @pytest.mark.parametrize("n", [3, 13, 37])
    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 5, 6, 7, 9, 16])
    @pytest.mark.parametrize("kinds", BOUND_STACKS.values(), ids=list(BOUND_STACKS))
    def test_bound_plan_is_the_per_call_reference_bitwise(self, kinds, workers, n):
        rng = np.random.default_rng(400 + 10 * workers + n)
        mats = _stack(kinds, n, rng, integer=False)
        blocks = ColumnBlocks(mats, workers)
        x, out = np.empty(n), np.empty((len(mats), n))
        stats, want_stats = CommStats(), CommStats()
        plan = blocks.bind(x, out, stats)
        for _ in range(2):  # the plan reads x afresh on every run
            x[:] = rng.standard_normal(n)
            plan()
            assert out.tobytes() == reference_products(blocks, x, workers, want_stats).tobytes()
        assert stats == want_stats

    def test_bind_checks_shapes(self):
        blocks = ColumnBlocks([np.eye(3), np.ones(3)], 2)
        with pytest.raises(ValueError, match=re.escape("vector has shape (4,), expected (3,)")):
            blocks.bind(np.ones(4), np.empty((2, 3)), CommStats())
        for out in (np.empty((3, 3)), np.empty((3, 2)).T):
            with pytest.raises(ValueError, match=re.escape("out must be a C-contiguous (2, 3) array")):
                blocks.bind(np.ones(3), out, CommStats())

    # a stack of no columns (a problem with n1 = 0) still books its allgather, of no bytes
    @pytest.mark.parametrize("n", [10, 0])
    @pytest.mark.parametrize("workers", [1, 3])
    def test_comm_one_allgather_per_call(self, workers, n):
        rng = np.random.default_rng(7)
        mats = _stack(STACKS["mixed"], n, rng, integer=True)
        x = np.empty(n)
        stats = CommStats()
        plan = ColumnBlocks(mats, workers).bind(x, np.empty((len(mats), n)), stats)
        for _ in range(2):  # two passes of one bound plan
            x[:] = rng.standard_normal(n)
            plan()
        assert stats.as_dict() == _traffic(allgather_ops=2, bytes_allgathered=2 * n * 8)


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
        out = _products(ColumnBlocks(mats, 1), x, stats)
        np.testing.assert_allclose(out, np.stack([_as_square(M) @ x for M in mats]), rtol=1e-12, atol=1e-12)
        assert stats.as_dict() == _traffic(allgather_ops=1, bytes_allgathered=8 * n)
        # dsymv takes each matrix as stored: a C-order one gives the bits of its Fortran copy
        fortran = _products(ColumnBlocks([np.asfortranarray(M) for M in mats], 1), x)
        assert out.tobytes() == fortran.tobytes()

    @pytest.mark.parametrize("kinds", SYMMETRIC_STACKS.values(), ids=list(SYMMETRIC_STACKS))
    def test_bound_plan_is_the_per_call_reference_bitwise(self, kinds):
        # dsymv writes each dense row of the products buffer in place
        rng = np.random.default_rng(17)
        n = LARGE_DENSE_COLS
        blocks = ColumnBlocks(_symmetric_stack(kinds, n, rng), 1)
        assert blocks._symmetric
        x = rng.standard_normal(n)
        stats, want_stats = CommStats(), CommStats()
        assert _products(blocks, x, stats).tobytes() == reference_products(blocks, x, 1, want_stats).tobytes()
        assert stats == want_stats

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("n", [LARGE_DENSE_COLS, 600])
    @pytest.mark.parametrize("kinds", SYMMETRIC_STACKS.values(), ids=list(SYMMETRIC_STACKS))
    def test_partitioned_is_the_generic_stack_bitwise(self, kinds, n, workers):
        # no dsymv: each dense matrix's row is its per-worker row products
        # end to end, taken in Fortran order as its workers' blocks are, and
        # each diagonal's row is d * x
        rng = np.random.default_rng(n + workers)
        mats = _symmetric_stack(kinds, n, rng)
        x = rng.standard_normal(n)
        out = _products(ColumnBlocks(mats, workers), x)
        ranges = reference_ranges(n, workers)
        expected = [M * x if M.ndim == 1 else np.concatenate([M[lo:hi] @ x for lo, hi in ranges])
                    for M in (M if M.ndim == 1 else np.asfortranarray(M) for M in mats)]
        assert out.tobytes() == np.stack(expected).tobytes()

    @pytest.mark.parametrize("n, workers, one_triangle", [
        (LARGE_DENSE_COLS, 1, True),
        (LARGE_DENSE_COLS - 1, 1, False),
        (LARGE_DENSE_COLS, 2, False),
    ])
    def test_one_triangle_only_on_one_worker_from_min_cols(self, n, workers, one_triangle):
        # a non-symmetric matrix shows which path ran: dsymv gives the product
        # of one triangle symmetrised, the generic stack the matrix's own
        # product.  The float32 copy exists exactly where dsymv runs, and
        # elsewhere single changes nothing, bit for bit
        rng = np.random.default_rng(11)
        M = np.asfortranarray(rng.standard_normal((n, n)))
        x = rng.standard_normal(n)
        blocks = ColumnBlocks([M], workers)
        out = _products(blocks, x)[0]
        single = _products(blocks, x, single=True)[0]
        upper = np.triu(M) + np.triu(M, 1).T
        lower = np.tril(M) + np.tril(M, -1).T
        symmetrised = [S @ x for S in (upper, lower)]
        assert len(blocks.packed) == one_triangle
        if one_triangle:
            assert any(np.allclose(out, y, rtol=1e-12, atol=1e-12) for y in symmetrised)
            assert out.tobytes() != single.tobytes()
            np.testing.assert_allclose(single, upper @ x, rtol=0, atol=1e-5 * np.abs(out).max())
        else:
            np.testing.assert_allclose(out, M @ x, rtol=1e-12, atol=1e-12)
            assert single.tobytes() == out.tobytes()

    # 600 is not a multiple of 4
    @pytest.mark.parametrize("n", [LARGE_DENSE_COLS, 600])
    @pytest.mark.parametrize("kinds", SYMMETRIC_STACKS.values(), ids=list(SYMMETRIC_STACKS))
    def test_packed_products_are_within_float32_rounding(self, kinds, n):
        # each dense row within 1e-5 of float64 relative to the row's max
        # (about 1e-6 is typical), each diagonal's row the float64 one bit for
        # bit; the allgather is booked once, as in float64
        rng = np.random.default_rng(n + 1)
        mats = _symmetric_stack(kinds, n, rng)
        blocks = ColumnBlocks(mats, 1)
        assert len(blocks.packed) == sum(M.ndim == 2 for M in mats)
        x = rng.standard_normal(n)
        stats = CommStats()
        single, double = _products(blocks, x, stats, single=True), _products(blocks, x)
        assert stats.as_dict() == _traffic(allgather_ops=1, bytes_allgathered=8 * n)
        for M, row, want in zip(mats, single, double):
            if M.ndim == 1:
                assert row.tobytes() == want.tobytes()
            else:
                assert 0 < np.abs(row - want).max() <= 1e-5 * np.abs(want).max()
        assert blocks.packed  # nothing fell back

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_packed_copy_is_the_upper_triangle_column_by_column(self, n):
        # BLAS's packed upper storage: column j holds rows 0..j; of a C-order
        # matrix too
        M = np.arange(n * n, dtype=float).reshape(n, n)
        want = np.concatenate([M[:j + 1, j] for j in range(n)]).astype(np.float32)
        for stored in (M, np.asfortranarray(M)):
            packed = _packed_upper(stored)
            assert packed.dtype == np.float32 and packed.tobytes() == want.tobytes()
            assert packed.tobytes() == stored.T[np.tril_indices(n)].astype(np.float32).tobytes()

    def test_single_range_reads_the_largest_magnitude(self):
        # both ends of the range are in it, the next doubles past them are
        # not; a negative entry counts by its magnitude, a zero matrix is in
        # range and a NaN entry is not.  Reading it casts nothing, so no
        # overflow warning (an error under the suite's filter) is raised
        lo, hi = _SINGLE_RANGE
        assert _in_single_range(np.zeros((3, 3)))
        for largest, inside in [(lo, True), (hi, True), (np.nextafter(lo, 0), False),
                                (np.nextafter(hi, np.inf), False), (1e40, False), (1e160, False), (1.0, True)]:
            for sign in (1.0, -1.0):
                M = np.full((3, 3), 0.5 * lo)
                M[1, 2] = sign * largest
                assert _in_single_range(M) == inside, (largest, sign)
        assert not _in_single_range(np.array([[1.0, np.nan], [np.nan, 1.0]]))

    @pytest.mark.parametrize("scale", [1e40, 1e160, 2.0 ** -110, np.nan])
    def test_one_matrix_out_of_range_keeps_the_stack_float64(self, scale):
        # one out-of-range Hessian keeps every product float64 bit for bit
        rng = np.random.default_rng(23)
        mats = _symmetric_stack(SYMMETRIC_STACKS["dense"], LARGE_DENSE_COLS, rng)
        mats[2] = mats[2] * scale
        blocks = ColumnBlocks(mats, 1)
        assert blocks.packed == []
        x = rng.standard_normal(LARGE_DENSE_COLS)
        with np.errstate(invalid="ignore"):
            assert _products(blocks, x, single=True).tobytes() == _products(blocks, x).tobytes()

    @pytest.mark.parametrize("value", [1e39, np.inf, np.nan])
    def test_product_past_float32_range_is_redone_in_float64(self, value):
        # an x entry past float32's range makes the float32 rows non-finite:
        # the run writes the dsymv rows instead, books the allgather once and
        # drops the copies, so every later run of any plan is float64
        rng = np.random.default_rng(29)
        n = LARGE_DENSE_COLS
        mats = _symmetric_stack(SYMMETRIC_STACKS["dense-csc"], n, rng)
        blocks = ColumnBlocks(mats, 1)
        x = rng.standard_normal(n)
        out, stats = np.empty(blocks._shape), CommStats()
        single = blocks.bind(x, out, stats, single=True)
        x[7] = value
        with np.errstate(over="ignore", invalid="ignore"):
            single()
            assert blocks.packed == []
            assert out.tobytes() == _products(blocks, x).tobytes()
        assert stats.as_dict() == _traffic(allgather_ops=1, bytes_allgathered=8 * n)
        x[7] = 1.0
        single()
        assert out.tobytes() == _products(blocks, x).tobytes()

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
