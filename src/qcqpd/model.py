"""Problem container for box-constrained convex QCQPs.

The problem solved throughout this package is

    minimize    0.5 x'P0 x + q0'x + c0'u + r0
    subject to  0.5 x'Pi x + qi'x + ci'u + ri <= 0,   i = 1..m1
                A x + B u = b
                0 <= x_j <= x_upper_j

with every Pi symmetric positive semidefinite.  ``u`` is an auxiliary
unconstrained block carrying the linear-only terms; it may be empty.
Upper bounds may be ``+inf``, in which case the box degenerates to the
half-line ``x_j >= 0``.

Matrices are kept column-major (dense Fortran order, or CSC for sparse)
so that per-worker column slices are contiguous.
"""

from __future__ import annotations

import json
import math
import zipfile
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

__all__ = [
    "QcqpProblem",
    "ValidationReport",
    "ProblemFormatError",
    "validate",
    "load_problem",
    "load_point",
    "save_problem",
]

# Relative tolerances for the well-formedness checks.  PSD acceptance tests P + tau*I,
# tau = PSD_RTOL * max(||P||_F, 1), because an exact check is ill-posed in floats.
SYMMETRY_RTOL = 1e-12
PSD_RTOL = 1e-8
# Columns per tile of the dense symmetry test.
SYMMETRY_TILE = 128


class ProblemFormatError(ValueError):
    """Raised when a problem file cannot be parsed into a valid shape."""


def _as_matrix(M, rows, cols, name):
    """Coerce ``M`` to a float64 matrix of the given shape (Fortran-order dense, or canonical CSC)."""
    if sp.issparse(M):
        out = M.tocsc().astype(np.float64)  # a copy, so summing duplicates leaves M as it was
        out.sum_duplicates()
    else:
        out = np.asfortranarray(M, dtype=np.float64)
    if out.shape != (rows, cols):
        raise ValueError(f"{name} has shape {out.shape}, expected {(rows, cols)}")
    return out


def _as_rows(v, rows, cols, name):
    """Coerce ``v`` (an array, or a list of ``rows`` vectors) to a C-contiguous float64 ``(rows, cols)`` array."""
    if not isinstance(v, np.ndarray):  # a list of vectors: name the first that does not fit
        if len(v) != rows:
            raise ValueError(f"expected {rows} {name} vectors, got {len(v)}")
        v = np.array([_as_vector(vi, cols, f"{name}[{i}]") for i, vi in enumerate(v)])
    out = np.ascontiguousarray(v, dtype=np.float64)
    if out.shape != (rows, cols):
        raise ValueError(f"{name} has shape {out.shape}, expected {(rows, cols)}")
    return out


def _as_vector(v, n, name):
    """Coerce ``v`` to a float64 vector of length ``n``."""
    out = np.asarray(v, dtype=np.float64)
    if out.shape != (n,):
        raise ValueError(f"{name} has length {out.shape[0]}, expected {n}" if out.ndim == 1
                         else f"{name} has shape {out.shape}, expected {(n,)}")
    return out


@dataclass
class QcqpProblem:
    """Data of one box-constrained convex QCQP.

    Attributes
    ----------
    n1, n2 : int
        Dimensions of the ``x`` and ``u`` blocks (``n2`` may be 0).
    m1, m2 : int
        Number of quadratic inequality and linear equality constraints.
    P : list of matrices
        ``m1 + 1`` symmetric PSD matrices ``P[0]..P[m1]``, each ``n1 x n1``.
        Dense matrices are stored Fortran-ordered; sparse ones as CSC.
    q : ndarray
        ``(m1 + 1, n1)``, C-contiguous: row ``i`` is ``qi``.  A list of
        ``m1 + 1`` vectors is accepted as input.
    c : ndarray
        ``(m1 + 1, n2)``, C-contiguous: row ``i`` is ``ci``, likewise.
    r : ndarray
        ``m1 + 1`` scalars.
    A, B : matrices
        Equality constraint blocks, ``m2 x n1`` and ``m2 x n2``.
    b : ndarray
        Equality right-hand side, length ``m2``.
    x_upper : ndarray
        Box upper bounds, all > 0, entries may be ``+inf``.

    Instances are immutable by convention after construction and safe to
    share read-only across workers.
    """

    n1: int
    n2: int
    m1: int
    m2: int
    P: list = field(default_factory=list)
    q: np.ndarray = field(default_factory=list)
    c: np.ndarray = field(default_factory=list)
    r: np.ndarray = None
    A: np.ndarray = None
    B: np.ndarray = None
    b: np.ndarray = None
    x_upper: np.ndarray = None

    def __post_init__(self):
        n1, n2, m1, m2 = self.n1, self.n2, self.m1, self.m2
        if min(n1, n2, m1, m2) < 0:
            raise ValueError("dimensions must be nonnegative")
        if len(self.P) != m1 + 1:
            raise ValueError(f"expected {m1 + 1} P matrices, got {len(self.P)}")
        self.P = [_as_matrix(Pi, n1, n1, f"P[{i}]") for i, Pi in enumerate(self.P)]
        self.q = _as_rows(self.q, m1 + 1, n1, "q")
        self.c = _as_rows(self.c, m1 + 1, n2, "c")
        self.r = _as_vector(self.r, m1 + 1, "r")
        self.A = _as_matrix(self.A if self.A is not None else np.zeros((m2, n1)), m2, n1, "A")
        self.B = _as_matrix(self.B if self.B is not None else np.zeros((m2, n2)), m2, n2, "B")
        self.b = _as_vector(self.b if self.b is not None else np.zeros(m2), m2, "b")
        self.x_upper = _as_vector(self.x_upper if self.x_upper is not None else np.full(n1, np.inf), n1, "x_upper")

    def constraint_values(self, x, u):
        """Values of the m1 quadratic constraints at ``(x, u)``."""
        quad = np.array([float(x @ (Pi @ x)) for Pi in self.P[1:]])
        return 0.5 * quad + self.q[1:] @ x + self.c[1:] @ u + self.r[1:]

    def equality_residual(self, x, u):
        """``A x + B u - b`` (length m2)."""
        return self.A @ x + self.B @ u - self.b

    def objective(self, x, u):
        """``0.5 x'P0 x + q0'x + c0'u + r0``."""
        return (
            0.5 * float(x @ (self.P[0] @ x))
            + float(self.q[0] @ x)
            + float(self.c[0] @ u)
            + float(self.r[0])
        )

    def lagrangian_grad_x(self, x, lam, gam):
        """``P0 x + q0 + sum_i lam_i (Pi x + qi) + A' gam``, with serial products.

        The reference for the solver's partitioned evaluation (``qcqpd.core``).
        """
        G = np.array([Pi @ x for Pi in self.P]) + self.q  # row i: Pi x + qi
        return G[0] + lam @ G[1:] + self.A.T @ gam

    def lagrangian_grad_u(self, lam, gam):
        """``c0 + sum_i lam_i ci + B' gam``."""
        return self.c[0] + lam @ self.c[1:] + self.B.T @ gam


@dataclass
class ValidationReport:
    """Outcome of :func:`validate`: a list of violation messages."""

    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations


def _frob(M) -> float:
    """Frobenius norm of a matrix, 2-norm of a vector.

    The entries are squared as they are; only when that overflows (an entry
    above about 1.3e154) is ``M`` rescaled by its largest magnitude first.
    """
    with np.errstate(over="ignore"):
        if sp.issparse(M):
            norm = math.sqrt(M.multiply(M).sum())
        else:
            norm = float(np.linalg.norm(M, "fro")) if M.ndim == 2 else float(np.linalg.norm(M))
    if norm == math.inf:
        scale = float(abs(M).max())
        if scale < math.inf:
            norm = scale * _frob(M / scale)
    return norm


def _asymmetry(M) -> float:
    """``||M - M'||_F`` of a square matrix.

    A dense matrix is summed over column tiles of its lower triangle, each
    off-diagonal tile counted twice, so no ``n x n`` temporary is made.
    """
    if sp.issparse(M):
        return _frob(M - M.T)
    total = 0.0
    for j in range(0, M.shape[0], SYMMETRY_TILE):
        e = j + SYMMETRY_TILE
        for D, weight in ((M[j:e, j:e] - M[j:e, j:e].T, 1.0), (M[e:, j:e] - M[j:e, e:].T, 2.0)):
            d = D.ravel(order="K")
            total += weight * float(d @ d)
    return math.sqrt(total)


def _is_psd(M, tau) -> bool:
    """Whether ``M + tau*I`` (``M`` symmetric) is positive definite, by factorizing it.

    Sparse matrices get an LU that pivots on the diagonal only: when its row
    and column orders agree it is ``LDL'`` of a symmetric permutation, positive
    definite exactly when every pivot (diagonal of ``U``) is positive.  A diagonal
    matrix is its own ``LDL'``: reading its pivots off keeps ``scipy.sparse.linalg``
    (about 9 MB resident) unloaded for the diagonal sparse matrices the generators write.
    """
    n = M.shape[0]
    if sp.issparse(M):
        rows, cols = M.nonzero()
        if (rows == cols).all():
            return bool((M.diagonal() + tau > 0).all())
        try:
            lu = sp.linalg.splu(M + tau * sp.identity(n, format="csc"), permc_spec="MMD_AT_PLUS_A",
                                diag_pivot_thresh=0.0, options={"SymmetricMode": True})
        except RuntimeError:  # exactly singular
            return False
        return bool((lu.perm_r == lu.perm_c).all() and (lu.U.diagonal() > 0).all())
    A = np.array(M, dtype=np.float64)
    A[np.diag_indices(n)] += tau
    try:
        np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        return False
    return True


def _non_finite(name, M):
    """Violation naming the first NaN or infinite entry of ``M``, or ``None``.

    Sparse (CSC) matrices are checked on their stored entries.
    """
    data = M.data if sp.issparse(M) else M
    finite = np.isfinite(data)
    if finite.all():
        return None
    at = np.argwhere(~finite)[0]
    if sp.issparse(M):
        at = (M.indices[at[0]], np.searchsorted(M.indptr, at[0], side="right") - 1)
    return f"{name}[{', '.join(str(int(i)) for i in at)}] is not finite"


def _linear_data(p):
    """``(name, array)`` of the data besides the Hessians and the bounds: ``q``, ``c``, ``r``, ``A``, ``B``, ``b``."""
    return ([(f"q[{i}]", qi) for i, qi in enumerate(p.q)] + [(f"c[{i}]", ci) for i, ci in enumerate(p.c)]
            + [("r", p.r), ("A", p.A), ("B", p.B), ("b", p.b)])


def validate(problem: QcqpProblem) -> ValidationReport:
    """Check well-formedness of a problem; returns a report, never raises.

    Detects NaN or infinite entries in ``P``, ``q``, ``c``, ``r``, ``A``,
    ``B`` and ``b`` (``x_upper`` may be ``+inf``), asymmetric or non-PSD
    constraint matrices (``Pi + 1e-8 * max(||Pi||_F, 1) I`` not positive
    definite, tested after symmetry), and nonpositive box upper bounds.
    Shapes are checked by the :class:`QcqpProblem` constructor.
    """
    v = []
    p = problem
    for i, Pi in enumerate(p.P):
        msg = _non_finite(f"P[{i}]", Pi)
        if msg:
            v.append(msg)
            continue
        nrm = _frob(Pi)
        gap = _asymmetry(Pi)
        if gap > SYMMETRY_RTOL * max(nrm, 1.0):
            v.append(f"P[{i}] is not symmetric (||P - P'||_F = {gap:.3e})")
            continue
        tau = PSD_RTOL * max(nrm, 1.0)
        if not _is_psd(Pi, tau):
            v.append(f"P[{i}] is not PSD (P[{i}] + {tau:.3e} I is not positive definite)")
    for name, M in _linear_data(p):
        msg = _non_finite(name, M)
        if msg:
            v.append(msg)
    bad = np.nonzero(~(p.x_upper > 0))[0]
    if bad.size:
        v.append(f"x_upper must be > 0; offending indices {bad[:5].tolist()}")
    return ValidationReport(v)


# --- serialization ---------------------------------------------------------
#
# A problem file is an uncompressed NumPy ``.npz`` archive: a zip of ``.npy``
# members, one typed array per field (FORMATS.md lists them).  ``np.savez``
# stamps each member with the wall-clock time, so members are written here
# with a fixed timestamp and saving a problem twice gives the same bytes.
_ZIP_DATE = (1980, 1, 1, 0, 0, 0)
_CSC_PARTS = ("data", "indices", "indptr")
# What np.load raises on a damaged or foreign file.  Reading a damaged member
# can also raise OSError (a bad offset), RuntimeError (an "encrypted" flag) or
# MemoryError (a header declaring more data than could ever be allocated).
_ARCHIVE_ERRORS = (ValueError, EOFError, NotImplementedError, zipfile.BadZipFile)
_MEMBER_ERRORS = _ARCHIVE_ERRORS + (OSError, RuntimeError, MemoryError)


def _members(p):
    """``(member name, array)`` of every field of ``p``, in file order."""
    yield "dims", np.array([p.n1, p.n2, p.m1, p.m2], dtype=np.int64)
    for i, Pi in enumerate(p.P):
        if sp.issparse(Pi):
            yield from ((f"P{i}_{part}", getattr(Pi, part)) for part in _CSC_PARTS)
        else:
            yield f"P{i}", Pi
    yield "q", p.q
    yield "c", p.c
    yield "r", p.r
    yield "A", p.A.toarray() if sp.issparse(p.A) else p.A
    yield "B", p.B.toarray() if sp.issparse(p.B) else p.B
    yield "b", p.b
    yield "x_upper", p.x_upper


def save_problem(problem: QcqpProblem, path) -> None:
    """Write a problem to an ``.npz`` archive at ``path`` (no suffix is added).

    A NaN or infinite datum (an upper bound may be ``+inf``) raises
    ``ValueError`` naming it before the file is opened, so a problem that
    cannot be written leaves no file.
    """
    p = problem
    bounds = np.where(p.x_upper == math.inf, 0.0, p.x_upper)
    for name, M in [(f"P[{i}]", Pi) for i, Pi in enumerate(p.P)] + _linear_data(p) + [("x_upper", bounds)]:
        msg = _non_finite(name, M)
        if msg:
            raise ValueError(f"cannot save the problem: {msg}")
    with zipfile.ZipFile(path, "w") as archive:
        for name, arr in _members(p):
            # zip64 because a streamed member's size is not known in advance, as in np.savez
            with archive.open(zipfile.ZipInfo(f"{name}.npy", _ZIP_DATE), "w", force_zip64=True) as fh:
                np.lib.format.write_array(fh, arr, allow_pickle=False)


def _member(archive, path, name, shape, integer=False):
    """Member ``name`` of ``archive``, checked to be float64 (any integer dtype if ``integer``)
    and to have ``shape`` (any 1-D shape if ``None``)."""
    if name not in archive.files:
        raise ProblemFormatError(f"{path}: missing member '{name}'")
    try:
        arr = archive[name]
    except _MEMBER_ERRORS as exc:
        raise ProblemFormatError(f"{path}: member '{name}' is not a readable array ({exc})") from exc
    if not (np.issubdtype(arr.dtype, np.integer) if integer else arr.dtype == np.float64):
        want = "an integer dtype" if integer else "float64"
        raise ProblemFormatError(f"{path}: {name} has dtype {arr.dtype}, expected {want}")
    if arr.shape != shape and not (shape is None and arr.ndim == 1):
        raise ProblemFormatError(f"{path}: {name} has shape {arr.shape}, expected {shape or 'a 1-D array'}")
    return arr


def _hessian(archive, path, i, n1):
    """``P[i]``, stored either dense as ``P{i}`` or as canonical CSC in ``P{i}_data/_indices/_indptr``."""
    csc = [f"P{i}_{part}" for part in _CSC_PARTS]
    if (f"P{i}" in archive.files) == any(name in archive.files for name in csc):
        raise ProblemFormatError(f"{path}: P[{i}] needs exactly one encoding: member 'P{i}' (dense) "
                                 f"or members {', '.join(map(repr, csc))} (CSC)")
    if f"P{i}" in archive.files:
        return _member(archive, path, f"P{i}", (n1, n1))
    data = _member(archive, path, csc[0], None)
    indices = _member(archive, path, csc[1], data.shape, integer=True)
    indptr = _member(archive, path, csc[2], (n1 + 1,), integer=True)
    try:
        Pi = sp.csc_matrix((data, indices, indptr), shape=(n1, n1))
        Pi.check_format(full_check=True)
    except ValueError as exc:
        raise ProblemFormatError(f"{path}: P[{i}]: {exc}") from exc
    if Pi.nnz != data.size:  # csc_matrix silently drops entries past indptr[-1]
        raise ProblemFormatError(f"{path}: P[{i}]: indptr ends at {Pi.nnz}, expected {data.size}")
    if not Pi.has_canonical_format:  # csc_matrix would silently sum a repeated entry
        # entry k breaks the order if it does not rise above entry k-1 of the same column
        bad = np.flatnonzero(np.diff(indices) <= 0) + 1
        k = bad[~np.isin(bad, indptr)][0]
        col = int(np.searchsorted(indptr, k, side="right")) - 1
        raise ProblemFormatError(f"{path}: P[{i}]: column {col}: row indices are not sorted and unique")
    return Pi


def load_problem(path) -> QcqpProblem:
    """Read a problem archive; raises :class:`ProblemFormatError` naming the field on bad input.

    Every member must be present with exactly its dtype and shape, and each
    CSC Hessian must be canonical.  Values are not checked here: ``validate``
    rejects non-finite data and non-PSD Hessians.
    """
    try:
        archive = np.load(path, allow_pickle=False)
    except _ARCHIVE_ERRORS as exc:
        raise ProblemFormatError(f"{path}: not a qcqpd problem archive") from exc
    if not isinstance(archive, np.lib.npyio.NpzFile):
        raise ProblemFormatError(f"{path}: not a qcqpd problem archive (a single .npy array)")
    with archive:
        dims = _member(archive, path, "dims", (4,), integer=True)
        if (dims < 0).any():
            raise ProblemFormatError(f"{path}: dims must be nonnegative, got {dims.tolist()}")
        n1, n2, m1, m2 = (int(d) for d in dims)
        P = [_hessian(archive, path, i, n1) for i in range(m1 + 1)]
        return QcqpProblem(
            n1=n1, n2=n2, m1=m1, m2=m2, P=P,
            q=_member(archive, path, "q", (m1 + 1, n1)),
            c=_member(archive, path, "c", (m1 + 1, n2)),
            r=_member(archive, path, "r", (m1 + 1,)),
            A=_member(archive, path, "A", (m2, n1)),
            B=_member(archive, path, "B", (m2, n2)),
            b=_member(archive, path, "b", (m2,)),
            x_upper=_member(archive, path, "x_upper", (n1,)),
        )


def _read_json_object(path):
    """The JSON object in ``path``; ``NaN``/``Infinity`` literals stay strings."""
    with open(path) as fh:
        try:
            doc = json.load(fh, parse_constant=str)
        except json.JSONDecodeError as exc:
            raise ProblemFormatError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ProblemFormatError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    return doc


def _vector_from_json(obj, n, where):
    """A float64 vector of exactly ``n`` JSON numbers.

    Numbers are checked by type, since numpy converts strings and booleans
    (a bool is an int to isinstance); ``NaN``/``Infinity`` literals arrive
    as strings and fail it.
    """
    if not isinstance(obj, list) or len(obj) != n:
        raise ProblemFormatError(f"{where}: expected a list of {n} numbers")
    for v in obj:
        if type(v) not in (int, float):
            raise ProblemFormatError(f"{where}: {v!r} is not a JSON number")
    try:
        return np.array(obj, dtype=np.float64)
    except OverflowError as exc:
        raise ProblemFormatError(f"{where}: {exc}") from exc


def load_point(path, problem: QcqpProblem):
    """Read a point JSON file for ``problem``; returns ``(x, u, lam, gam)``.

    Each of the lists ``x``, ``u``, ``lambda``, ``gamma`` (empty if absent)
    holds exactly its dimension of finite numbers, ``lambda`` nonnegative;
    raises :class:`ProblemFormatError` naming the field otherwise.
    """
    doc = _read_json_object(path)
    blocks = []
    for name, n in (("x", problem.n1), ("u", problem.n2), ("lambda", problem.m1), ("gamma", problem.m2)):
        v = _vector_from_json(doc.get(name, []), n, f"{path}: {name}")
        msg = _non_finite(name, v)
        if msg:
            raise ProblemFormatError(f"{path}: {msg}")
        blocks.append(v)
    if (blocks[2] < 0).any():
        raise ProblemFormatError(f"{path}: lambda must be nonnegative")
    return tuple(blocks)
