"""Row-block linear-algebra kernels with communication accounting.

The ``n`` coordinates of ``x`` split across ``n_workers`` execution
contexts in one balanced split: contiguous blocks whose widths differ by
at most one, the wider ones first, so the worker count is the whole
partition and :class:`ColumnBlocks` its one owner.  Worker ``w`` owns the
coordinates ``[lo_w, hi_w)`` and the columns ``[lo_w, hi_w)`` of every
matrix.  The Hessians are symmetric, as :func:`qcqpd.validate` checks,
so a worker's columns ``P[:, lo_w:hi_w]`` are the transpose of its rows
``P[lo_w:hi_w, :]``, the same numbers.  A Hessian product therefore needs
one allgather of ``x`` (``n`` doubles), after which each worker writes its
own rows ``P[lo_w:hi_w, :] @ x`` of the product, and nothing is reduced or
scattered.  The row-wise inner products ``X @ y`` of a partitioned ``y``
with the rows of ``X`` (the constraint values, the equality rows ``A x``)
are per-worker partials ``X[:, lo_w:hi_w] @ y[lo_w:hi_w]`` reduced at a
coordinator: ``len(X)`` doubles.  Products against the transpose
(``A' g``) need no kernel here: each worker's slice of the result only
involves its own columns.

Workers here are simulated: the per-worker local-compute phases run
sequentially in worker order inside one process, separated by the same
collectives a message-passing deployment would have.  The testable
artifact is the communication contract, not the transport: ``CommStats``
books every collective and its byte volume, in one call, exactly as the
distributed run would issue them.  A reduce is one ``np.add.reduce`` over
the partials of the workers that hold columns, which adds them in worker
order, the canonical order of MPI's reduce (see
:meth:`ColumnBlocks.bind_dot` for numpy's one exception), so results are
bitwise reproducible for a fixed worker count.  (Across *different*
worker counts only floating-point-tolerance agreement is possible, since
row blocks of other heights and partial sums of other groupings round
differently.)

The row blocks of the Hessian stack are cut once per solve, not once per
product: :class:`ColumnBlocks` takes the ``m1 + 1`` Hessians, each a
square ``n x n`` matrix or the length-``n`` vector holding a diagonal one,
and for each worker copies the worker's rows of every square matrix, a
lone one included, into one Fortran-order block whose every column starts
on a 64-byte cache line, because the GEMV ran up to twice as long off one
(measured in the CHANGES.md entry "Leaner solver pass").  A diagonal
Hessian is not copied: its row of the product is ``d * x``, and each
worker's part of it comes from its own slice of ``d``.  A product with the
whole stack therefore costs one dense product per worker, one elementwise
product per diagonal and one allgather, and writes the ``(m1 + 1, n)``
array whose row ``i`` is ``P_i x``.

The simulated workers' local phase is batched: the blocks of a run of
equal-width workers are the items of one array, and one ``np.matmul``
computes all their products, which numpy does with the same per-item BLAS
call as the 2-D product of each item, so with the same bits.  The balanced
split has at most two widths, so each collective's local products cost at
most two calls into numpy, not one per worker, because one call took less
time than four (measured in the CHANGES.md entry "Batch the simulated
workers' local products").

Each product is also set up once per solve, as a persistent collective is
in a message-passing deployment: :meth:`ColumnBlocks.bind` and
:meth:`ColumnBlocks.bind_dot` bind the operand and result views, each
run's slices and the partial stack into a :class:`Plan`, a fixed sequence
of ``out=`` calls that each solver pass runs as it is, allocating nothing.
Serial execution is the one-worker case of the same code: its one block
holds every row of every square matrix, multiplied by one stacked GEMV,
and its lone partial of ``X @ y`` is written straight into the result.

One exception applies on one worker: each dense Hessian of at least
:data:`qcqpd.model.LARGE_DENSE_COLS` columns is not stacked but multiplied
on its own, as stored, by the Level-2 BLAS symmetric product ``dsymv``,
which reads one triangle, so half the bytes of the stacked GEMV, and
writes its row of the product in place.  Below that size the aligned stack
is cache-resident and faster, since one call replaces one per matrix
(measured in the CHANGES.md entry "Leaner solver pass").  So small stacks
and every partitioned run take the generic path unchanged.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from .model import LARGE_DENSE_COLS

__all__ = [
    "ColumnBlocks",
    "CommStats",
    "Plan",
]

_FLOAT_BYTES = 8
_LINE_BYTES = 64  # a cache line
_LINE_DOUBLES = _LINE_BYTES // _FLOAT_BYTES


@dataclass
class CommStats:
    """Counters for the modeled traffic of one solve, one :meth:`record` per collective.

    Nothing is scattered, since each worker writes its own rows of the
    Hessian products, so ``scatter_ops`` and ``bytes_scattered`` stay 0;
    they are kept so that readers of a report's ``comm`` find its keys.
    """

    reduce_ops: int = 0
    scatter_ops: int = 0
    allgather_ops: int = 0
    bytes_reduced: int = 0
    bytes_scattered: int = 0
    bytes_allgathered: int = 0

    def record(self, n_reduced: int | None = None, n_gathered: int | None = None):
        """Book a reduce of ``n_reduced`` doubles and an allgather of ``n_gathered`` doubles, each unless None."""
        if n_reduced is not None:
            self.reduce_ops += 1
            self.bytes_reduced += _FLOAT_BYTES * n_reduced
        if n_gathered is not None:
            self.allgather_ops += 1
            self.bytes_allgathered += _FLOAT_BYTES * n_gathered

    def as_dict(self):
        return asdict(self)


class Plan:
    """A fixed sequence of calls, bound once to the arrays they read and write.

    Each step is a ``(function, args)`` pair run as ``function(*args)``:
    mostly a numpy call whose last argument is its ``out`` array, or the
    :class:`CommStats` booking of a collective.  Plans chain in order
    with ``+``; calling a plan runs its steps.
    """

    __slots__ = ("steps",)

    def __init__(self, steps=()):
        self.steps = tuple(steps)

    def __add__(self, other):
        return Plan(self.steps + other.steps)

    def __call__(self):
        for function, args in self.steps:
            function(*args)


def _gemv(A, b, out):
    """The step writing ``A @ b`` into ``out``.

    ``np.dot`` gives the bits of ``@`` at about half its call overhead,
    but copies a matrix that is not one contiguous segment on every call,
    so such a matrix (a column slice of a row-major matrix, a block with a
    padded leading dimension) takes ``np.matmul``.
    """
    one_segment = A.flags.c_contiguous or A.flags.f_contiguous
    return (np.dot if one_segment else np.matmul), (A, b, out)


def _width_runs(n_cols, n_workers):
    """``(lo, g, c)`` of each run of ``g`` consecutive workers of width ``c`` from column ``lo``, in worker order.

    The columns split into contiguous blocks whose widths differ by at most
    one, the first ``n_cols % n_workers`` workers taking the wider ones, so
    there are at most two runs.  Only workers that hold columns make a run:
    with fewer columns than workers the partition is ``n_cols`` one-column
    workers, and with no columns it has no run.
    """
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    base, extra = divmod(n_cols, n_workers)
    runs = [(0, extra, base + 1), (extra * (base + 1), n_workers - extra, base)]
    return [(lo, g, c) for lo, g, c in runs if g and c]


def _rows(indices):
    """Row indices as a ``slice`` when they are one contiguous run, else as the list."""
    if indices == list(range(indices[0], indices[0] + len(indices))):
        return slice(indices[0], indices[0] + len(indices))
    return indices


def _aligned_stack(items, rows, cols):
    """An uninitialised ``(items, rows, cols)`` array of Fortran-order blocks, each column on a 64-byte line.

    The leading dimension is ``rows`` rounded up to a multiple of 8 and the
    blocks follow one another, so each is the ``[:rows]`` view of a padded
    block and the padding rows are never read.  BLAS gives the same product
    bits at any offset, but the stacked GEMV of a block that ``np.empty``
    places off a line runs about twice as long.
    """
    ld = -(-rows // _LINE_DOUBLES) * _LINE_DOUBLES
    flat = np.empty(items * ld * cols + _LINE_DOUBLES)
    skip = -flat.__array_interface__["data"][0] % _LINE_BYTES // _FLOAT_BYTES
    return flat[skip:skip + items * ld * cols].reshape((items, cols, ld)).transpose(0, 2, 1)[:, :rows]


def _cut(matrices, lo, g, c):
    """``g`` blocks of ``c`` rows from row ``lo`` on: an :func:`_aligned_stack` whose item ``j`` stacks
    rows ``[lo + j c, lo + (j + 1) c)`` of every matrix vertically, in Fortran order."""
    stack = _aligned_stack(g, len(matrices) * c, len(matrices[0]))
    for j, block in enumerate(stack):
        start = lo + j * c
        np.concatenate([M[start:start + c] for M in matrices], out=block)
    return stack


class ColumnBlocks:
    """Per-worker row blocks of a Hessian stack, cut once, and the owner of the column split.

    Each of the ``k`` Hessians is an ``n x n`` matrix or the length-``n``
    vector holding a diagonal one, with ``n`` taken from the first.  The
    ``n`` columns split across ``n_workers`` workers into contiguous blocks
    whose widths differ by at most one, the first ``n % n_workers`` workers
    taking the wider ones; the worker count is the whole partition, kept as
    the at most two runs of equal-width workers that :meth:`bind` and
    :meth:`bind_dot` both read.  A worker owns its columns ``cols`` of every
    matrix, and its stored block is their transpose, which for a symmetric
    matrix is its rows ``cols``: each worker has one dense block stacking
    its rows of every square matrix, and the blocks of each run of
    equal-width workers are the items of one :func:`_aligned_stack`,
    however many square matrices there are.  A diagonal is kept as given,
    the caller's vector, not a copy.
    :meth:`bind` binds a vector ``x`` and a ``(k, n)`` products buffer once
    per solve; each run of the bound plan costs one batched dense product
    per width run and one elementwise product per diagonal, and writes the
    ``k`` products.  The product rows of the square matrices are held as a
    ``slice`` when they form one contiguous run (as in the usual stacks:
    every matrix dense, or a diagonal ``P0`` before dense constraint
    Hessians), so they are written through one view, and as an index list
    otherwise.

    The matrices are taken to be symmetric, as Hessians are: on one worker
    and at least :data:`qcqpd.model.LARGE_DENSE_COLS` columns, each square
    matrix is kept whole instead, as stored, and multiplied by ``dsymv``,
    which reads one triangle (of a non-symmetric matrix it gives the
    product of that triangle symmetrised); a matrix not in Fortran order,
    as a :class:`qcqpd.model.QcqpProblem` Hessian always is, is copied on
    each run.
    """

    def __init__(self, matrices, n_workers: int):
        n = len(matrices[0])
        self._shape = (len(matrices), n)
        self._runs = _width_runs(n, n_workers)
        whole = n >= LARGE_DENSE_COLS and n_workers == 1
        square = []  # indices of the stacked square matrices
        self._symmetric = []  # (row of the product, matrix) for dsymv
        self._diagonal = []  # (row of the product, diagonal)
        for i, M in enumerate(matrices):
            if M.shape not in ((n, n), (n,)):
                raise ValueError(f"matrix {i} has shape {M.shape}, expected ({n}, {n}) or ({n},)")
            if M.ndim == 1:
                self._diagonal.append((i, M))
            elif whole:
                self._symmetric.append((i, M))
            else:
                square.append(i)
        if self._symmetric:
            # only here: in a bare numpy process, importing it raises ru_maxrss from 27 to 55 MB
            from scipy.linalg.blas import dsymv

            self._dsymv = dsymv
        # (rows of the product, one (g, k c, n) array of blocks per run of g
        # workers of width c) of the k stacked square matrices
        self._square = None
        if square:
            stacks = [_cut([matrices[i] for i in square], *run) for run in self._runs]
            self._square = (_rows(square), stacks)

    def bind(self, x, out, stats: CommStats) -> Plan:
        """The plan writing ``P_i x`` into row ``i`` of the ``(k, n)`` array ``out``, each worker its own rows.

        ``x`` and ``out`` are bound once, as views: each run reads the
        current ``x`` and overwrites every row of ``out``.  Each worker
        multiplies its block, its rows of the square matrices, by the whole
        ``x``: a run of ``g`` equal-width workers is one ``np.matmul`` of
        the ``(g, k, c, n)`` view of its stack by ``x``, writing the
        ``(g, k, c)`` view of its columns of the products, with no buffer.
        On one worker the block is one stacked GEMV.  The rows are written
        straight into ``out`` when they form one run, else into a buffer
        copied row by row.  The row of a matrix kept whole for ``dsymv`` is
        its one worker's product, written in place, and a diagonal's row is
        one 1-D product ``d * x`` of the diagonal as given, each worker's
        columns of it its own.  Each run books, in one
        :meth:`CommStats.record` step, the allgather of ``x`` that hands
        every worker the whole vector; nothing is reduced or scattered.
        """
        k, n = self._shape
        if x.shape != (n,):
            raise ValueError(f"vector has shape {x.shape}, expected ({n},)")
        if out.shape != (k, n) or not out.flags.c_contiguous:
            raise ValueError(f"out must be a C-contiguous ({k}, {n}) array, got shape {out.shape}")
        steps = []
        for i, M in self._symmetric:
            steps.append((partial(self._dsymv, 1.0, M, x, beta=0.0, y=out[i], overwrite_y=1), ()))
        if self._square:
            rows, stacks = self._square
            whole = type(rows) is slice
            total = out[rows] if whole else np.empty((len(rows), n))
            for stack, (lo, g, c) in zip(stacks, self._runs):
                if c == n:  # one worker holds every row: one stacked GEMV
                    steps.append(_gemv(stack[0], x, total.reshape(-1)))
                else:  # item (j, i): worker j's rows of matrix i
                    own = total[:, lo:lo + g * c].reshape(len(total), g, c).transpose(1, 0, 2)
                    steps.append((np.matmul, (stack.reshape(own.shape + (n,)), x, own)))
            if not whole:
                steps += [(np.copyto, (out[i], row)) for i, row in zip(rows, total)]
        steps += [(np.multiply, (d, x, out[i])) for i, d in self._diagonal]
        steps.append((partial(stats.record, n_gathered=n), ()))
        return Plan(steps)

    def bind_dot(self, X, y, out, stats: CommStats) -> Plan:
        """The plan writing the row-wise products ``X @ y`` over the workers' column slices into ``out``.

        ``X``, ``y`` and ``out`` are bound once, as views, so rows of ``X``
        rewritten between runs are read afresh.  ``X`` has the Hessians'
        ``n`` columns, split across the workers as theirs are.  When one
        worker holds every column, its product is written straight into
        ``out``.  Otherwise each run of ``g`` equal-width workers is one
        ``np.matmul`` of the ``(g, k, c)`` view of its columns of the ``k``
        rows of ``X`` by the ``(g, c, 1)`` view of its slices of ``y``, into
        its rows of a ``(W, k)`` stack of partials, one row per worker that
        holds columns; numpy runs the BLAS product of each item that the 2-D
        product of the block runs, so the partials are those of one call per
        worker, bit for bit.  One ``np.add.reduce`` over the stack writes
        their sum into ``out``, adding the rows one at a time in worker
        order; numpy's one exception is a lone row (``k = 1``) over eight or
        more workers, which it sums in its own fixed blocks.  With no
        columns the stack is empty and ``out`` is zeros.
        Each run books one reduce of ``len(X)`` doubles.
        """
        n = self._shape[1]
        if X.ndim != 2 or X.shape[1:] != (n,) or y.shape != (n,) or out.shape != X.shape[:1]:
            raise ValueError(f"X has shape {X.shape}, y {y.shape} and out {out.shape}, "
                             f"expected a matrix of {n} columns, ({n},) and one entry per row")
        if self._runs == [(0, 1, n)]:  # one worker holds every column
            return Plan([_gemv(X, y, out), (stats.record, (len(X),))])
        parts = np.empty((sum(g for _, g, _ in self._runs), len(X)))
        steps, w = [], 0
        for lo, g, c in self._runs:
            A = X[:, lo:lo + g * c].reshape(len(X), g, c).transpose(1, 0, 2)
            steps.append((np.matmul, (A, y[lo:lo + g * c].reshape(g, c, 1), parts[w:w + g, :, None])))
            w += g
        return Plan(steps + [(np.add.reduce, (parts, 0, None, out)), (stats.record, (len(X),))])
