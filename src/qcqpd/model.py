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

Matrices are kept column-major (Fortran order), the order in which one
worker's BLAS ``dsymv`` reads a large Hessian without a copy.  A Hessian
is either a dense ``n1 x n1`` matrix or a length-``n1`` vector holding
the diagonal of a diagonal one.
"""

from __future__ import annotations

import json
import math
import numbers
import zipfile
from dataclasses import dataclass, field

import numpy as np

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
# Columns from which a dense Hessian counts as large: ``validate`` factorizes it in
# place with LAPACK's ``dpotrf``, and a one-worker solve multiplies it with the
# BLAS ``dsymv``, and between residual checks with ``sspmv`` on a packed float32
# copy (``qcqpd.dist``).  512 columns are 2 MiB of float64, the per-core
# L2.  Below it ``scipy.linalg`` stays unloaded: importing it raises a bare numpy
# process's ru_maxrss from 27 to 55 MB.
LARGE_DENSE_COLS = 512


class ProblemFormatError(ValueError):
    """Raised when a problem file cannot be parsed into a valid shape."""


def _check_int(name, value, minimum):
    """``ValueError`` naming the setting ``name`` unless ``value`` is an integer ``>= minimum`` (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def _check_real(name, value, finite=True):
    """``ValueError`` naming the setting ``name`` unless ``value`` is a real number ``> 0``, finite if
    ``finite`` (``+inf`` is allowed otherwise; a bool is not a number)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if not (value > 0 and (math.isfinite(value) or not finite)):
        raise ValueError(f"{name} must be {'finite and ' if finite else ''}> 0, got {value!r}")


def _refuse_sparse(v, name):
    """``v``, unless it is a sparse matrix: numpy cannot convert one, so it is refused by name."""
    if hasattr(v, "toarray"):
        raise ValueError(f"{name} is a sparse matrix; pass {name}.toarray(), or .diagonal() for a diagonal Hessian")
    return v


def _length(v, name):
    """``len(v)``; a sparse matrix or a scalar raises ``ValueError`` naming ``name``."""
    try:
        return len(_refuse_sparse(v, name))
    except TypeError:
        raise ValueError(f"{name} must be an array, got {v!r}") from None


def _floats(convert, v, name):
    """``convert(v, dtype=np.float64)``; a sparse, ragged or non-numeric ``v`` raises ``ValueError`` naming ``name``."""
    v = _refuse_sparse(v, name)
    try:
        return convert(v, dtype=np.float64)
    except (TypeError, ValueError) as err:
        raise ValueError(f"{name} is not a numeric array: {err}") from None


def _as_matrix(M, name, *shapes):
    """Coerce ``M`` to a Fortran-order float64 array of one of ``shapes``."""
    out = _floats(np.asfortranarray, M, name)
    if out.shape not in shapes:
        raise ValueError(f"{name} has shape {out.shape}, expected {' or '.join(map(str, shapes))}")
    return out


def _hessian_product(M, x):
    """``M x`` for a Hessian stored dense or as its diagonal (``d @ x`` would be the scalar ``d'x``)."""
    return M @ x if M.ndim == 2 else M * x


def _as_rows(v, rows, cols, name):
    """Coerce ``v`` (an array, or a list of ``rows`` vectors) to a C-contiguous float64 ``(rows, cols)`` array."""
    if not isinstance(_refuse_sparse(v, name), np.ndarray):  # a list of vectors: name the first that does not fit
        if len(v) != rows:
            raise ValueError(f"expected {rows} {name} vectors, got {len(v)}")
        v = np.array([_as_vector(vi, cols, f"{name}[{i}]") for i, vi in enumerate(v)])
    out = _floats(np.ascontiguousarray, v, name)
    if out.shape != (rows, cols):
        raise ValueError(f"{name} has shape {out.shape}, expected {(rows, cols)}")
    return out


def _as_vector(v, n, name):
    """Coerce ``v`` to a float64 vector of length ``n``."""
    out = _floats(np.asarray, v, name)
    if out.shape != (n,):
        raise ValueError(f"{name} has length {out.shape[0]}, expected {n}" if out.ndim == 1
                         else f"{name} has shape {out.shape}, expected {(n,)}")
    return out


@dataclass(eq=False)
class QcqpProblem:
    """Data of one box-constrained convex QCQP.

    Attributes
    ----------
    P : list of arrays
        ``m1 + 1`` symmetric PSD matrices ``P[0]..P[m1]``, each a
        Fortran-ordered ``(n1, n1)`` array or, for a diagonal matrix, the
        ``(n1,)`` vector of its diagonal.
    q : ndarray
        ``(m1 + 1, n1)``, C-contiguous: row ``i`` is ``qi``.  A list of
        ``m1 + 1`` vectors is accepted as input.
    c : ndarray
        ``(m1 + 1, n2)``, C-contiguous: row ``i`` is ``ci``, likewise.
        Defaults to zeros.
    r : ndarray
        ``m1 + 1`` scalars; defaults to zeros.
    A, B : ndarray
        Equality constraint blocks, ``m2 x n1`` and ``m2 x n2``, dense and
        Fortran-ordered as in a problem archive.
    b : ndarray
        Equality right-hand side, length ``m2``.
    x_upper : ndarray
        Box upper bounds, all > 0, entries may be ``+inf``.
    n1, n2, m1, m2 : int
        Derived attributes, not arguments: the dimensions of the ``x`` and
        ``u`` blocks and the numbers of quadratic inequality and linear
        equality constraints, read from the data.  ``m1 + 1`` is the number
        of Hessians and ``n1`` the length of ``P[0]``; ``n2`` is the number
        of columns of ``c``, else of ``B``, else 0; ``m2`` the number of
        rows of ``A``, else of ``B``, else the length of ``b``, else 0.
        Every field is then checked against them.

    A scipy sparse matrix in any field raises ``ValueError``: pass
    ``.toarray()``, or ``.diagonal()`` for a diagonal Hessian.  Instances are
    immutable by convention after construction and safe to share read-only
    across workers.
    """

    P: list
    q: np.ndarray
    c: np.ndarray = None
    r: np.ndarray = None
    A: np.ndarray = None
    B: np.ndarray = None
    b: np.ndarray = None
    x_upper: np.ndarray = None
    n1: int = field(init=False)
    n2: int = field(init=False)
    m1: int = field(init=False)
    m2: int = field(init=False)

    def __post_init__(self):
        P, c, A, B, b = self.P, self.c, self.A, self.B, self.b
        m1 = self.m1 = _length(P, "P") - 1
        if m1 < 0:
            raise ValueError("P is empty; it holds at least the objective's Hessian P[0]")
        n1 = self.n1 = _length(P[0], "P[0]")
        if c is not None:
            n2 = self.n2 = _length(c[0], "c[0]") if _length(c, "c") else 0
        else:  # the columns of B are the rows of its transpose, which holds them even when B has no rows
            n2 = self.n2 = _length(_floats(np.asarray, B, "B").T, "B") if B is not None else 0
        m2 = self.m2 = next((_length(v, name) for name, v in (("A", A), ("B", B), ("b", b)) if v is not None), 0)
        self.P = [_as_matrix(Pi, f"P[{i}]", (n1, n1), (n1,)) for i, Pi in enumerate(P)]
        self.q = _as_rows(self.q, m1 + 1, n1, "q")
        self.c = _as_rows(c if c is not None else np.zeros((m1 + 1, n2)), m1 + 1, n2, "c")
        self.r = _as_vector(self.r if self.r is not None else np.zeros(m1 + 1), m1 + 1, "r")
        self.A = _as_matrix(A if A is not None else np.zeros((m2, n1)), "A", (m2, n1))
        self.B = _as_matrix(B if B is not None else np.zeros((m2, n2)), "B", (m2, n2))
        self.b = _as_vector(b if b is not None else np.zeros(m2), m2, "b")
        self.x_upper = _as_vector(self.x_upper if self.x_upper is not None else np.full(n1, np.inf), n1, "x_upper")

    def constraint_values(self, x, u):
        """Values of the m1 quadratic constraints at ``(x, u)``."""
        quad = np.array([float(x @ _hessian_product(Pi, x)) for Pi in self.P[1:]])
        return 0.5 * quad + self.q[1:] @ x + self.c[1:] @ u + self.r[1:]

    def equality_residual(self, x, u):
        """``A x + B u - b`` (length m2)."""
        return self.A @ x + self.B @ u - self.b

    def lagrangian_grad_x(self, x, lam, gam):
        """``P0 x + q0 + sum_i lam_i (Pi x + qi) + A' gam``, with serial products.

        The reference for the solver's partitioned evaluation (``qcqpd.core``).
        """
        G = np.array([_hessian_product(Pi, x) for Pi in self.P]) + self.q  # row i: Pi x + qi
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
        norm = float(np.linalg.norm(M))
    if norm == math.inf:
        scale = float(abs(M).max())
        if scale < math.inf:
            norm = scale * _frob(M / scale)
    return norm


def _asymmetry(M) -> float:
    """``||M - M'||_F`` of a square matrix.

    Summed over column tiles of its lower triangle, each off-diagonal tile
    counted twice, so no ``n x n`` temporary is made.
    """
    total = 0.0
    for j in range(0, M.shape[0], SYMMETRY_TILE):
        e = j + SYMMETRY_TILE
        for D, weight in ((M[j:e, j:e] - M[j:e, j:e].T, 1.0), (M[e:, j:e] - M[j:e, e:].T, 2.0)):
            d = D.ravel(order="K")
            total += weight * float(d @ d)
    return math.sqrt(total)


def _is_psd(M, tau, buf) -> bool:
    """Whether ``M + tau*I`` (``M`` symmetric) is positive definite.

    A diagonal ``M``, stored as a vector, is when every ``M_j + tau > 0``.
    A dense matrix is factorized: one of at least :data:`LARGE_DENSE_COLS`
    columns is copied into ``buf``, a Fortran-order scratch matrix of its
    shape, and factorized there by ``dpotrf``; a smaller one is copied and
    passed to ``np.linalg.cholesky`` (``buf`` may then be ``None``).  Both
    read the lower triangle only.
    """
    if M.ndim == 1:
        return bool((M + tau > 0).all())
    n = M.shape[0]
    if n >= LARGE_DENSE_COLS:
        # only here: in a bare numpy process, importing scipy.linalg's BLAS and
        # LAPACK wrappers raises ru_maxrss from 27 to 55 MB
        from scipy.linalg.lapack import dpotrf

        np.copyto(buf, M)
        buf[np.diag_indices(n)] += tau
        _, info = dpotrf(buf, lower=1, clean=0, overwrite_a=1)
        if info < 0:
            raise RuntimeError(f"dpotrf rejected argument {-info}")
        return info == 0
    A = np.array(M, dtype=np.float64)
    A[np.diag_indices(n)] += tau
    try:
        np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        return False
    return True


def _non_finite(name, M):
    """Violation naming the first NaN or infinite entry of ``M``, or ``None``."""
    finite = np.isfinite(M)
    if finite.all():
        return None
    at = np.argwhere(~finite)[0]
    return f"{name}[{', '.join(str(int(i)) for i in at)}] is not finite"


def _linear_data(p):
    """``(name, array)`` of the data besides the Hessians and the bounds: ``q``, ``c``, ``r``, ``A``, ``B``, ``b``."""
    return ([(f"q[{i}]", qi) for i, qi in enumerate(p.q)] + [(f"c[{i}]", ci) for i, ci in enumerate(p.c)]
            + [("r", p.r), ("A", p.A), ("B", p.B), ("b", p.b)])


def validate(problem: QcqpProblem) -> ValidationReport:
    """Check well-formedness of a problem; returns a report, never raises on bad data.

    Detects NaN or infinite entries in ``P``, ``q``, ``c``, ``r``, ``A``,
    ``B`` and ``b`` (``x_upper`` may be ``+inf``), asymmetric or non-PSD
    constraint matrices (``Pi + 1e-8 * max(||Pi||_F, 1) I`` not positive
    definite, tested after symmetry; a diagonal is read off, not
    factorized), and nonpositive box upper bounds.
    Shapes are checked by the :class:`QcqpProblem` constructor.  Only an
    illegal-argument code from LAPACK, a fault of this code, raises
    ``RuntimeError``.
    """
    v = []
    p = problem
    # one scratch matrix for every dense Hessian large enough to factorize in place
    dense = p.n1 >= LARGE_DENSE_COLS and any(Pi.ndim == 2 for Pi in p.P)
    buf = np.empty((p.n1, p.n1), order="F") if dense else None
    for i, Pi in enumerate(p.P):
        msg = _non_finite(f"P[{i}]", Pi)
        if msg:
            v.append(msg)
            continue
        nrm = _frob(Pi)
        gap = _asymmetry(Pi) if Pi.ndim == 2 else 0.0  # a diagonal is symmetric
        if gap > SYMMETRY_RTOL * max(nrm, 1.0):
            v.append(f"P[{i}] is not symmetric (||P - P'||_F = {gap:.3e})")
            continue
        tau = PSD_RTOL * max(nrm, 1.0)
        if not _is_psd(Pi, tau, buf):
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
# What np.load raises on a damaged or foreign file.  Reading a damaged member
# can also raise OSError (a bad offset), RuntimeError (an "encrypted" flag) or
# MemoryError (a header declaring more data than could ever be allocated).
_ARCHIVE_ERRORS = (ValueError, EOFError, NotImplementedError, zipfile.BadZipFile)
_MEMBER_ERRORS = _ARCHIVE_ERRORS + (OSError, RuntimeError, MemoryError)


def _members(p):
    """``(member name, array)`` of every field of ``p``, in file order."""
    yield "dims", np.array([p.n1, p.n2, p.m1, p.m2], dtype=np.int64)
    for i, Pi in enumerate(p.P):
        yield f"P{i}", Pi
    yield "q", p.q
    yield "c", p.c
    yield "r", p.r
    yield "A", p.A
    yield "B", p.B
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


def _member(archive, path, name, *shapes, integer=False):
    """Member ``name`` of ``archive``, checked to be float64 (any integer dtype if ``integer``)
    and to have one of ``shapes``."""
    if name not in archive.files:
        raise ProblemFormatError(f"{path}: missing member '{name}'")
    try:
        arr = archive[name]
    except _MEMBER_ERRORS as exc:
        raise ProblemFormatError(f"{path}: member '{name}' is not a readable array ({exc})") from exc
    if not (np.issubdtype(arr.dtype, np.integer) if integer else arr.dtype == np.float64):
        want = "an integer dtype" if integer else "float64"
        raise ProblemFormatError(f"{path}: {name} has dtype {arr.dtype}, expected {want}")
    if arr.shape not in shapes:
        raise ProblemFormatError(f"{path}: {name} has shape {arr.shape}, expected {' or '.join(map(str, shapes))}")
    return arr


def load_problem(path) -> QcqpProblem:
    """Read a problem archive; raises :class:`ProblemFormatError` naming the field on bad input.

    Every member must be present with exactly its dtype and shape; a Hessian
    member ``P{i}`` is ``(n1, n1)``, or ``(n1,)`` for a diagonal.  Values are
    not checked here: ``validate`` rejects non-finite data and non-PSD Hessians.
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
        P = [_member(archive, path, f"P{i}", (n1, n1), (n1,)) for i in range(m1 + 1)]
        return QcqpProblem(
            P=P,
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
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh, parse_constant=str)
        except UnicodeDecodeError as exc:
            raise ProblemFormatError(f"{path}: not a UTF-8 text file ({exc.reason} at byte {exc.start})") from exc
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
