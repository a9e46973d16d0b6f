"""Column-partitioned linear-algebra kernels with communication accounting.

Matrices are split by columns across ``n_workers`` execution contexts, in
one balanced split: contiguous blocks whose widths differ by at most one,
the wider ones first, so the worker count is the whole partition and
:class:`ColumnBlocks` its one owner.  A matrix-vector product is computed
as a sum of per-worker partials (``M @ x = sum_w M[:, lo_w:hi_w] @
x[lo_w:hi_w]``), reduced at a coordinator, and the result scattered back
so each worker holds its slice.  The row-wise inner products ``X @ y``
of a partitioned ``y`` with the rows of ``X`` (the constraint values, the
equality rows ``A x``) reduce ``len(X)`` doubles and scatter nothing.
Every product is one collective, whatever it stacks.  Products against
the transpose (``A' g``) need no kernel here: each worker's slice of the
result only involves its own columns.

Workers here are simulated: the per-worker local-compute phases run
sequentially in worker order inside one process, separated by the same
reduce / scatter points a message-passing deployment would have.  The
testable artifact is the communication contract, not the transport:
``CommStats`` books every collective and its byte volume, in one call,
exactly as the distributed run would issue them, and the reduction order
is a fixed left-to-right pairwise tree over worker index, one ``np.add``
per level as MPI's binomial-tree reduce has one round per level, so
results are bitwise reproducible for a fixed worker count.  (Across
*different* worker counts only floating-point-tolerance agreement is
possible, since partial sums group differently.)

The column blocks of the Hessian stack are cut once per solve, not once
per product: :class:`ColumnBlocks` takes the ``m1 + 1`` Hessians, each a
square ``n x n`` matrix or the length-``n`` vector holding a diagonal one,
and for each worker copies the worker's columns of every square matrix, a
lone one included, into one Fortran-order block.  A diagonal Hessian is not
copied: its row of the product is ``d * x``, and each worker's columns of
it come from its own slices of ``d`` and ``x`` alone.  A product with the
whole stack therefore costs one dense product per worker, one elementwise
product per diagonal and one reduce, and writes the ``(m1 + 1, n)`` array
whose row ``i`` is ``P_i x``.

The simulated workers' local phase of a collective is batched: the blocks
of a run of equal-width workers are the items of one 3-D array, and one
``np.matmul`` computes all their partials, which numpy does with the same
per-item BLAS call as the 2-D product of each block, so with the same
bits.  The balanced split has at most two widths, so each collective
costs at most two calls into numpy, not one per worker.  With one
OpenBLAS thread on a shared 2-core Xeon, the four ``(512, 64)`` Hessian
partials of a 256-column stack at 4 workers took 14.1 us in one call
against 18.6 us in four, and the four ``(2, 64)`` constraint-row partials
1.4 us against 5.1 us.  The communication contract and the reduction tree
do not change: the partials are the rows of one ``(W, k)`` stack, and
they add level by level in the same pairwise tree.

Each product is also set up once per solve, as a persistent collective is
in a message-passing deployment: :meth:`ColumnBlocks.bind` and
:meth:`ColumnBlocks.bind_dot` bind the operand and result views, each
run's slices of the vector, the partial stack and the reduction tree into
a :class:`Plan`, a fixed sequence of ``out=`` calls that each solver pass
runs as it is, allocating nothing.  Serial execution is the one-worker
case of the same code: the lone partial is written straight into the
result.  Each stacked block, of one square matrix or several, is a copy
that starts every column on a 64-byte cache line: with one OpenBLAS thread
on a shared 2-core Xeon, the ``(800, 160)`` GEMV of the kernel-learning
instance took 9-11 us aligned and 16-24 us at the other seven 8-byte
offsets, with the same product bits at all eight.

One exception applies on one worker: each dense Hessian of at least
:data:`qcqpd.model.LARGE_DENSE_COLS` columns is not stacked but multiplied
on its own, as stored, by the Level-2 BLAS symmetric product ``dsymv``,
which reads one triangle, so half the bytes of the stacked GEMV, and
writes its row of the product in place.  Below that size the aligned stack
is cache-resident and faster, since one call replaces one per matrix: at
``n = 160`` five ``dsymv`` calls took 17-21 us against the stack's 9-11 us.
So small stacks and every partitioned run take the generic path unchanged.
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
    """Counters for the modeled reduce/scatter traffic of one solve, one :meth:`record` per collective."""

    reduce_ops: int = 0
    scatter_ops: int = 0
    bytes_reduced: int = 0
    bytes_scattered: int = 0

    def record(self, n_reduced: int, n_scattered: int | None = None):
        """Book a reduce of ``n_reduced`` doubles and, unless ``n_scattered`` is None, a scatter of that many."""
        self.reduce_ops += 1
        self.bytes_reduced += _FLOAT_BYTES * n_reduced
        if n_scattered is not None:
            self.scatter_ops += 1
            self.bytes_scattered += _FLOAT_BYTES * n_scattered

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
    there are at most two runs.  With fewer columns than workers the last
    run has width 0.
    """
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    base, extra = divmod(n_cols, n_workers)
    wide = [(0, extra, base + 1)] if extra else []
    return wide + [(extra * (base + 1), n_workers - extra, base)]


def _reduce(operands, out):
    """The steps writing the tree sum over workers of ``A_w @ b_w`` into ``out``.

    ``operands`` holds one ``(A, b)`` pair per run of equal-width workers,
    in worker order: ``A`` is the ``(g, k, c)`` array of the run's ``g``
    blocks and ``b`` the ``(g, c, 1)`` view of their slices of the vector.
    One worker's product is written straight into ``out``.  Otherwise each
    run is one ``np.matmul`` into its rows of a ``(W, k)`` partial stack,
    one row per worker; numpy runs the BLAS product of each item that the
    2-D product of the block runs, so the partials are those of one call
    per worker, bit for bit.  The rows add in a fixed pairwise
    left-to-right tree over worker index, one ``np.add`` per level: at
    stride ``s = 1, 2, 4, ...`` row ``w + s`` is added into row ``w`` for
    each ``w`` a multiple of ``2 s``, the last sum written into ``out``.  A
    row left without a partner stays where the next level reads it, so
    the bits do not depend on the run.  numpy may iterate a level of four or
    more pairs through transient buffers of its own.
    """
    if len(operands) == 1 and len(operands[0][0]) == 1:
        (A, b), = operands
        return [_gemv(A[0], b[0, :, 0], out)]
    parts = np.empty((sum(len(A) for A, _ in operands), out.size))
    steps, W = [], 0
    for A, b in operands:
        steps.append((np.matmul, (A, b, parts[W:W + len(A), :, None])))
        W += len(A)
    for s in [2 ** i for i in range((W - 1).bit_length())]:  # ceil(log2 W) levels
        left = parts[0:W - s:2 * s]
        steps.append((np.add, (left, parts[s::2 * s], out[None] if 2 * s >= W else left)))
    return steps


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
    """``g`` blocks of ``c`` columns from column ``lo`` on: an :func:`_aligned_stack` whose item ``j`` stacks
    columns ``[lo + j c, lo + (j + 1) c)`` of every matrix vertically, in Fortran order."""
    stack = _aligned_stack(g, len(matrices) * len(matrices[0]), c)
    for j, block in enumerate(stack):
        start = lo + j * c
        np.concatenate([M[:, start:start + c] for M in matrices], out=block)
    return stack


class ColumnBlocks:
    """Per-worker column blocks of a Hessian stack, cut once, and the owner of the column split.

    Each of the ``k`` Hessians is an ``n x n`` matrix or the length-``n``
    vector holding a diagonal one, with ``n`` taken from the first.  The
    ``n`` columns split across ``n_workers`` workers into contiguous blocks
    whose widths differ by at most one, the first ``n % n_workers`` workers
    taking the wider ones; the worker count is the whole partition, kept as
    the at most two runs of equal-width workers that :meth:`bind` and
    :meth:`bind_dot` both read.  Each worker has one dense block stacking
    its columns of every square matrix, and the blocks of each run of
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
        # (rows of the product, one (g, rows, c) array of blocks per run of
        # equal-width workers) of the stacked square matrices
        self._square = None
        if square:
            stacks = [_cut([matrices[i] for i in square], *run) for run in self._runs]
            self._square = (_rows(square), stacks)

    def bind(self, x, out, stats: CommStats) -> Plan:
        """The plan writing ``P_i x`` into row ``i`` of the ``(k, n)`` array ``out`` from per-worker partials.

        ``x`` and ``out`` are bound once, as views: each run reads the
        current ``x`` and overwrites every row of ``out``.  The square
        matrices' partials, each worker's block times its slice of ``x``,
        are tree-reduced in worker order (see :func:`_reduce`), so every
        product is bitwise what a per-matrix reduction gives whenever the
        local products are; their sum is written straight into its rows
        when they form one run, else into a buffer copied row by row.  The
        row of a matrix kept whole for ``dsymv`` is its one worker's product,
        written in place, and a diagonal's row is one 1-D product ``d * x``
        of the diagonal as given, each worker's columns of it its own.
        Each run books, in one :meth:`CommStats.record` step, one reduce of
        all the rows, the diagonals' included, and one scatter of the same
        volume, which hands the products back to the workers.
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
            total = out[rows].reshape(-1) if whole else np.empty(len(rows) * n)
            operands = [(stack, x[lo:lo + g * c].reshape(g, c, 1))
                        for stack, (lo, g, c) in zip(stacks, self._runs)]
            steps += _reduce(operands, total)
            if not whole:
                steps += [(np.copyto, (out[i], row)) for i, row in zip(rows, total.reshape(len(rows), n))]
        steps += [(np.multiply, (d, x, out[i])) for i, d in self._diagonal]
        steps.append((stats.record, (out.size, out.size)))
        return Plan(steps)

    def bind_dot(self, X, y, out, stats: CommStats) -> Plan:
        """The plan writing the row-wise products ``X @ y`` over the workers' column slices into ``out``.

        ``X``, ``y`` and ``out`` are bound once, as views, so rows of ``X``
        rewritten between runs are read afresh.  ``X`` has the Hessians'
        ``n`` columns, split across the workers as theirs are.  Each worker
        multiplies its columns of ``X`` by its slice of ``y``, the columns
        of a run of equal-width workers viewed as one ``(g, k, c)`` array
        without a copy; the partials are tree-reduced in worker order (see
        :func:`_reduce`).  On one worker this is ``X @ y``.
        Each run books one reduce of ``len(X)`` doubles.
        """
        n = self._shape[1]
        if X.ndim != 2 or X.shape[1:] != (n,) or y.shape != (n,) or out.shape != X.shape[:1]:
            raise ValueError(f"X has shape {X.shape}, y {y.shape} and out {out.shape}, "
                             f"expected a matrix of {n} columns, ({n},) and one entry per row")
        k = len(X)
        operands = [(X[:, lo:lo + g * c].reshape(k, g, c).transpose(1, 0, 2), y[lo:lo + g * c].reshape(g, c, 1))
                    for lo, g, c in self._runs]
        return Plan(_reduce(operands, out) + [(stats.record, (k,))])
