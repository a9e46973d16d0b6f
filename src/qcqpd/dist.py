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
order, the canonical order of MPI's reduce, so results are bitwise
reproducible for a fixed worker count.  (Across *different* worker counts
only floating-point-tolerance agreement is possible, since row blocks of
other heights and partial sums of other groupings round differently.)

The row blocks of the Hessian stack are cut once per solve, not once per
product: :class:`ColumnBlocks` takes the ``m1 + 1`` Hessians, each a
square ``n x n`` matrix or the length-``n`` vector holding a diagonal one,
groups the square matrices into runs of consecutive rows of the product,
and for each group and worker copies the worker's rows of the group's
matrices, a lone one included, into one Fortran-order block whose every
column starts on a 64-byte cache line, because the GEMV ran up to twice as
long off one (measured in the CHANGES.md entry "Leaner solver pass").  A
diagonal Hessian is not copied: its row of the product is ``d * x``, and
each worker's part of it comes from its own slice of ``d``.  A product
with the whole stack therefore costs one dense product per worker and
group, one elementwise product per diagonal and one allgather, and writes
the ``(m1 + 1, n)`` array whose row ``i`` is ``P_i x``.

The simulated workers' local phase is batched: the blocks of a run of
equal-width workers are the items of one array, and one ``np.matmul``
computes all their products, which numpy does with the same per-item BLAS
call as the 2-D product of each item, so with the same bits.  The balanced
split has at most two widths, so each collective's local products cost at
most two calls into numpy per group, not one per worker, because one call
took less time than four (measured in the CHANGES.md entry "Batch the
simulated workers' local products").

Each product is also set up once per solve, as a persistent collective is
in a message-passing deployment: :meth:`ColumnBlocks.bind` and
:meth:`ColumnBlocks.bind_dot` bind the operand and result views, each
run's slices and the partial stack into a :class:`Plan`, a fixed sequence
of ``out=`` calls that each solver pass runs as it is, allocating nothing.
Serial execution is the one-worker case of the same code: one run of one
worker, its block multiplied by the same batched ``np.matmul``, and its
lone partial of ``X @ y`` written straight into the result.

One exception applies on one worker: each dense Hessian of at least
:data:`qcqpd.model.LARGE_DENSE_COLS` columns is not stacked but multiplied
on its own, as stored, by the Level-2 BLAS symmetric product ``dsymv``,
which reads one triangle, so half the bytes of the stacked GEMV, and
writes its row of the product in place.  Below that size the aligned stack
is cache-resident and faster, since one call replaces one per matrix
(measured in the CHANGES.md entry "Leaner solver pass").  So small stacks
and every partitioned run take the generic path unchanged.

These products are bound by memory bandwidth, so in the same class each
such Hessian also gets, once per solve, a float32 copy of its upper
triangle in BLAS's packed storage, ``n (n + 1) / 2`` floats, a quarter of
the matrix's bytes.  A plan bound with ``single`` multiplies the copies by
``sspmv`` and casts the rows back, which the solver does on every pass
between residual checks, where it needs the operator to about 1e-6
relative, far below its tolerance; every check's pass stays ``dsymv``'s.
No copy is made when any such Hessian's largest entry is outside
:data:`_SINGLE_RANGE`, and the first float32 product that is not finite is
redone by ``dsymv`` in the same step and drops the copies, so the rest of
the solve is float64.  Neither changes the booked traffic.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import partial
from itertools import groupby

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

# The largest-entry magnitudes whose matrices get a float32 copy (zero too):
# float32's normal exponents [-126, 127] narrowed by its 24-bit significand at
# the bottom, so every entry within 2^24 of the largest is a normal float32 and
# an entry that underflows changes a product by less than float32's rounding
# of the largest, and mirrored at the top, so a row sum of terms at the largest
# entry stays finite while n |x| < 2^26.  Past that a product overflows and is
# redone in float64.
_SINGLE_RANGE = (2.0 ** -102, 2.0 ** 102)


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


def _in_single_range(M):
    """Whether the largest magnitude of ``M``'s entries is 0 or in :data:`_SINGLE_RANGE`, read
    with no temporary and no cast; not with a NaN entry."""
    largest = max(M.max(), -M.min())
    lo, hi = _SINGLE_RANGE
    return largest == 0.0 or lo <= largest <= hi


def _packed_upper(M):
    """The upper triangle of the square ``M`` as float32, column by column: BLAS's packed storage."""
    n = len(M)
    packed = np.empty(n * (n + 1) // 2, np.float32)
    np.concatenate([M[:j + 1, j] for j in range(n)], out=packed, casting="same_kind")
    return packed


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
    matrix is its rows ``cols``.  The square matrices form groups, each a
    run of consecutive rows of the product (one group in the usual stacks:
    every matrix dense, or a diagonal ``P0`` before dense constraint
    Hessians); each worker has one dense block per group stacking its rows
    of the group's matrices, and the blocks of each run of equal-width
    workers are the items of one :func:`_aligned_stack`, however many
    square matrices the group has.  A diagonal is kept as given, the
    caller's vector, not a copy.
    :meth:`bind` binds a vector ``x`` and a ``(k, n)`` products buffer once
    per solve; each run of the bound plan costs one batched dense product
    per group and width run and one elementwise product per diagonal, and
    writes the ``k`` products.

    The matrices are taken to be symmetric, as Hessians are: on one worker
    and at least :data:`qcqpd.model.LARGE_DENSE_COLS` columns, each square
    matrix is kept whole instead, as stored, and multiplied by ``dsymv``,
    which reads one triangle (of a non-symmetric matrix it gives the
    product of that triangle symmetrised); a matrix not in Fortran order,
    as a :class:`qcqpd.model.QcqpProblem` Hessian always is, is copied on
    each run.  In that case :attr:`packed` also holds, in row order, a
    float32 copy of each one's upper triangle in packed storage, the same
    triangle ``dsymv`` reads, for the plans bound with ``single``; it is
    empty when a largest entry is outside :data:`_SINGLE_RANGE` (tested
    with no cast) and is emptied by the first float32 product that is not
    finite.
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
        self.packed = []
        if self._symmetric:
            # only here: in a bare numpy process, importing it raises ru_maxrss from 27 to 55 MB
            from scipy.linalg.blas import dsymv, sspmv

            self._dsymv, self._sspmv = dsymv, sspmv
            if all(_in_single_range(M) for _, M in self._symmetric):
                self.packed = [_packed_upper(M) for _, M in self._symmetric]
                self._x32 = np.empty(n, np.float32)
                self._y32 = np.zeros(len(self.packed) * n, np.float32)  # finite, so sspmv's beta = 0 reads no NaN
                self._zeros32 = np.zeros_like(self._y32)
        # (rows of the product, one (g, k c, n) array of blocks per run of g
        # workers of width c) of each group of k consecutive stacked rows
        self._square = []
        for _, group in groupby(enumerate(square), lambda pair: pair[1] - pair[0]):
            rows = [i for _, i in group]
            stacks = [_cut([matrices[i] for i in rows], *run) for run in self._runs]
            self._square.append((slice(rows[0], rows[-1] + 1), stacks))

    def bind(self, x, out, stats: CommStats, single: bool = False) -> Plan:
        """The plan writing ``P_i x`` into row ``i`` of the ``(k, n)`` array ``out``, each worker its own rows.

        ``x`` and ``out`` are bound once, as views: each run reads the
        current ``x`` and overwrites every row of ``out``.  Each worker
        multiplies its block of each group, its rows of the group's square
        matrices, by the whole ``x``: a run of ``g`` equal-width workers is
        one ``np.matmul`` of the ``(g, k, c, n)`` view of its stack by
        ``x``, writing the ``(g, k, c)`` view of its columns of the group's
        rows of ``out``, with no buffer; one worker is the run ``g = 1``,
        ``c = n``.  The row of a matrix kept whole for ``dsymv`` is its one
        worker's product, written in place, and a diagonal's row is one 1-D
        product ``d * x`` of the diagonal as given, each worker's columns of
        it its own.  With ``single`` and :attr:`packed` copies, the rows of
        the matrices kept whole are instead one :meth:`_single` step, float32
        products that fall back to the ``dsymv`` steps; without copies
        ``single`` changes nothing.  Each run books, in one
        :meth:`CommStats.record` step, the allgather of ``x`` that hands
        every worker the whole vector, once whichever products ran; nothing
        is reduced or scattered.
        """
        k, n = self._shape
        if x.shape != (n,):
            raise ValueError(f"vector has shape {x.shape}, expected ({n},)")
        if out.shape != (k, n) or not out.flags.c_contiguous:
            raise ValueError(f"out must be a C-contiguous ({k}, {n}) array, got shape {out.shape}")
        steps = []
        for i, M in self._symmetric:
            steps.append((partial(self._dsymv, 1.0, M, x, beta=0.0, y=out[i], overwrite_y=1), ()))
        if single and self.packed:
            pairs = list(zip(self._y32.reshape(-1, n), [out[i] for i, _ in self._symmetric]))
            steps = [(self._single, (Plan(steps), x, pairs))]
        for rows, stacks in self._square:
            group = out[rows]
            for stack, (lo, g, c) in zip(stacks, self._runs):
                # item (j, i): worker j's rows of matrix i
                own = group[:, lo:lo + g * c].reshape(len(group), g, c).transpose(1, 0, 2)
                steps.append((np.matmul, (stack.reshape(own.shape + (n,)), x, own)))
        steps += [(np.multiply, (d, x, out[i])) for i, d in self._diagonal]
        steps.append((partial(stats.record, n_gathered=n), ()))
        return Plan(steps)

    def _single(self, double, x, pairs):
        """Write the products of the matrices kept whole from their :attr:`packed` copies, or run
        ``double``, their ``dsymv`` steps, when there are none.

        ``x`` is cast to float32, each packed copy multiplied by ``sspmv``
        into its float32 row, and each of the ``pairs`` ``(float32 row, row
        of the products)`` cast back.  When a float32 row is not finite (one
        dot of zeros with them is NaN), ``x`` or a row sum having left
        float32's range, the copies are dropped and ``double`` writes the
        rows instead, in this run and every later one of any plan of this
        stack.  A cast that overflows sets numpy's overflow flag, which the
        solve loop ignores.
        """
        if self.packed:
            x32 = self._x32
            np.copyto(x32, x, casting="same_kind")
            for packed, (y, _) in zip(self.packed, pairs):
                self._sspmv(len(x), 1.0, packed, x32, beta=0.0, y=y, overwrite_y=1)
            if self._zeros32.dot(self._y32) == 0.0:
                for y, row in pairs:
                    np.copyto(row, y)
                return
            self.packed = []
        double()

    def bind_dot(self, X, y, out, stats: CommStats) -> Plan:
        """The plan writing the row-wise products ``X @ y`` over the workers' column slices into ``out``.

        ``X``, ``y`` and ``out`` are bound once, as views, so rows of ``X``
        rewritten between runs are read afresh.  ``X`` has the Hessians'
        ``n`` columns, split across the workers as theirs are.  When one
        worker holds every column, its product is one ``np.dot`` written
        straight into ``out`` (which copies an ``X`` that is not one
        contiguous segment on each run).  Otherwise each run of ``g``
        equal-width workers is one ``np.matmul`` of the ``(g, k, c)`` view
        of its columns of the ``k`` rows of ``X`` by the ``(g, c, 1)`` view
        of its slices of ``y``, into its rows of a ``(W, k)`` stack of
        partials, one row per worker that holds columns; numpy runs the
        BLAS product of each item that the 2-D product of the block runs, so
        the partials are those of one call per worker, bit for bit.  One
        ``np.add.reduce`` over the stack sums them, adding the rows one at a
        time in worker order.  A lone row (``k = 1``) gets a zero second
        column, which keeps numpy adding row by row, and its sum is copied
        from the reduce's two entries into ``out``.  With no columns the
        stack is empty and ``out`` is zeros.
        Each run books one reduce of ``len(X)`` doubles.
        """
        n = self._shape[1]
        if X.ndim != 2 or X.shape[1:] != (n,) or y.shape != (n,) or out.shape != X.shape[:1]:
            raise ValueError(f"X has shape {X.shape}, y {y.shape} and out {out.shape}, "
                             f"expected a matrix of {n} columns, ({n},) and one entry per row")
        k = len(X)
        if self._runs == [(0, 1, n)]:  # one worker holds every column
            return Plan([(np.dot, (X, y, out)), (stats.record, (k,))])
        parts = np.zeros((sum(g for _, g, _ in self._runs), 2 if k == 1 else k))
        steps, w = [], 0
        for lo, g, c in self._runs:
            A = X[:, lo:lo + g * c].reshape(k, g, c).transpose(1, 0, 2)
            steps.append((np.matmul, (A, y[lo:lo + g * c].reshape(g, c, 1), parts[w:w + g, :k, None])))
            w += g
        if k == 1:
            total = np.empty(2)
            steps += [(np.add.reduce, (parts, 0, None, total)), (np.copyto, (out, total[:1]))]
        else:
            steps.append((np.add.reduce, (parts, 0, None, out)))
        return Plan(steps + [(stats.record, (k,))])
