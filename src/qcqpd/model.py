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
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

__all__ = [
    "QcqpProblem",
    "ProblemNorms",
    "ValidationReport",
    "ProblemFormatError",
    "validate",
    "compute_norms",
    "load_problem",
    "load_point",
    "save_problem",
]

# Relative tolerances for the well-formedness checks.  PSD acceptance tests P + tau*I,
# tau = PSD_RTOL * max(||P||_F, 1), because an exact check is ill-posed in floats.
SYMMETRY_RTOL = 1e-12
PSD_RTOL = 1e-8


class ProblemFormatError(ValueError):
    """Raised when a problem file cannot be parsed into a valid shape."""


def _as_matrix(M, rows, cols):
    """Coerce ``M`` to a float64 matrix of the given shape (Fortran-order dense, or CSC)."""
    if sp.issparse(M):
        out = M.tocsc().astype(np.float64)
    else:
        out = np.asfortranarray(M, dtype=np.float64)
    if out.shape != (rows, cols):
        raise ValueError(f"expected shape {(rows, cols)}, got {out.shape}")
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
    q : list of ndarray
        ``m1 + 1`` vectors of length ``n1``.
    c : list of ndarray
        ``m1 + 1`` vectors of length ``n2``.
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
    q: list = field(default_factory=list)
    c: list = field(default_factory=list)
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
        if len(self.q) != m1 + 1 or len(self.c) != m1 + 1:
            raise ValueError("q and c must both have m1 + 1 entries")
        self.P = [_as_matrix(Pi, n1, n1) for Pi in self.P]
        self.q = [np.asarray(qi, dtype=np.float64).reshape(n1) for qi in self.q]
        self.c = [np.asarray(ci, dtype=np.float64).reshape(n2) for ci in self.c]
        self.r = np.asarray(self.r, dtype=np.float64).reshape(m1 + 1)
        self.A = _as_matrix(self.A if self.A is not None else np.zeros((m2, n1)), m2, n1)
        self.B = _as_matrix(self.B if self.B is not None else np.zeros((m2, n2)), m2, n2)
        self.b = np.asarray(self.b if self.b is not None else np.zeros(m2), dtype=np.float64).reshape(m2)
        if self.x_upper is None:
            self.x_upper = np.full(n1, np.inf)
        self.x_upper = np.asarray(self.x_upper, dtype=np.float64).reshape(n1)

    def constraint_values(self, x, u):
        """Values of the m1 quadratic constraints at ``(x, u)``."""
        vals = np.empty(self.m1)
        for i in range(1, self.m1 + 1):
            vals[i - 1] = (
                0.5 * float(x @ (self.P[i] @ x))
                + float(self.q[i] @ x)
                + float(self.c[i] @ u)
                + self.r[i]
            )
        return vals

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

    def project_box(self, x):
        """Project onto the box ``0 <= x_j <= x_upper_j``."""
        return np.clip(x, 0.0, self.x_upper)

    def lagrangian_grad_x(self, x, lam, gam, Px=None, ATgam=None):
        """``P0 x + q0 + sum_i lam_i (Pi x + qi) + A' gam``.

        ``Px`` may carry precomputed products ``[P0 x, ..., Pm1 x]`` and
        ``ATgam`` a precomputed ``A' gam``.
        """
        if Px is None:
            Px = [self.P[i] @ x for i in range(self.m1 + 1)]
        g = Px[0] + self.q[0]
        for i in range(1, self.m1 + 1):
            li = lam[i - 1]
            if li != 0.0:
                g = g + li * (Px[i] + self.q[i])
        if self.m2:
            g = g + (self.A.T @ gam if ATgam is None else ATgam)
        return g

    def lagrangian_grad_u(self, lam, gam):
        """``c0 + sum_i lam_i ci + B' gam``."""
        g = self.c[0].copy()
        for i in range(1, self.m1 + 1):
            g += lam[i - 1] * self.c[i]
        if self.m2:
            g += self.B.T @ gam
        return g


@dataclass
class ValidationReport:
    """Outcome of :func:`validate`: a list of violation messages."""

    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class ProblemNorms:
    """Frobenius norms used by the adaptive step-size rule.

    ``frob_P_stacked`` is the norm of the vertically stacked constraint
    matrices ``(P1; ...; Pm1)``; ``frob_Q`` / ``frob_C`` stack the
    constraint vectors ``qi`` / ``ci`` (i >= 1) as rows.
    """

    frob_P0: float
    frob_Pi: np.ndarray
    frob_P_stacked: float
    frob_Q: float
    frob_C: float
    frob_A: float
    frob_B: float


def _frob(M) -> float:
    if sp.issparse(M):
        return math.sqrt(M.multiply(M).sum())
    return float(np.linalg.norm(M, "fro")) if M.ndim == 2 else float(np.linalg.norm(M))


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
    ``B`` and ``b`` (``x_upper`` may be ``+inf``), dimension mismatches,
    asymmetric or non-PSD constraint matrices (``Pi + 1e-8 * max(||Pi||_F, 1) I``
    not positive definite, tested after symmetry), and nonpositive box upper bounds.
    """
    v = []
    p = problem
    for i, Pi in enumerate(p.P):
        if Pi.shape != (p.n1, p.n1):
            v.append(f"P[{i}] has shape {Pi.shape}, expected {(p.n1, p.n1)}")
            continue
        msg = _non_finite(f"P[{i}]", Pi)
        if msg:
            v.append(msg)
            continue
        nrm = _frob(Pi)
        gap = _frob(Pi - Pi.T)
        if gap > SYMMETRY_RTOL * max(nrm, 1.0):
            v.append(f"P[{i}] is not symmetric (||P - P'||_F = {gap:.3e})")
            continue
        tau = PSD_RTOL * max(nrm, 1.0)
        if not _is_psd(Pi, tau):
            v.append(f"P[{i}] is not PSD (P[{i}] + {tau:.3e} I is not positive definite)")
    for i, qi in enumerate(p.q):
        if qi.shape != (p.n1,):
            v.append(f"q[{i}] has length {qi.shape[0]}, expected {p.n1}")
    for i, ci in enumerate(p.c):
        if ci.shape != (p.n2,):
            v.append(f"c[{i}] has length {ci.shape[0]}, expected {p.n2}")
    for name, M in _linear_data(p):
        msg = _non_finite(name, M)
        if msg:
            v.append(msg)
    if p.r.shape != (p.m1 + 1,):
        v.append(f"r has length {p.r.shape[0]}, expected {p.m1 + 1}")
    if p.A.shape != (p.m2, p.n1):
        v.append(f"A has shape {p.A.shape}, expected {(p.m2, p.n1)}")
    if p.B.shape != (p.m2, p.n2):
        v.append(f"B has shape {p.B.shape}, expected {(p.m2, p.n2)}")
    if p.b.shape != (p.m2,):
        v.append(f"b has length {p.b.shape[0]}, expected {p.m2}")
    if p.x_upper.shape != (p.n1,):
        v.append(f"x_upper has length {p.x_upper.shape[0]}, expected {p.n1}")
    else:
        bad = np.nonzero(~(p.x_upper > 0))[0]
        if bad.size:
            v.append(f"x_upper must be > 0; offending indices {bad[:5].tolist()}")
    return ValidationReport(v)


def compute_norms(problem: QcqpProblem) -> ProblemNorms:
    """Precompute the Frobenius norms consumed by the step-size rule.

    Empty stacks (m1 = 0, or empty blocks) contribute zero norms.
    """
    p = problem
    frob_Pi = np.array([_frob(p.P[i]) for i in range(1, p.m1 + 1)])
    return ProblemNorms(
        frob_P0=_frob(p.P[0]),
        frob_Pi=frob_Pi,
        frob_P_stacked=math.sqrt(float(np.sum(frob_Pi**2))),
        frob_Q=_frob(np.array([p.q[i] for i in range(1, p.m1 + 1)]).reshape(p.m1, p.n1)),
        frob_C=_frob(np.array([p.c[i] for i in range(1, p.m1 + 1)]).reshape(p.m1, p.n2)),
        frob_A=_frob(p.A),
        frob_B=_frob(p.B),
    )


# --- serialization ---------------------------------------------------------
#
# Problem files are a single JSON document.  Matrices are either
# {"dense": [[...], ...]} with row-major rows, or {"cols": {"j": [[row, val],
# ...]}} column-sparse.  Infinite upper bounds serialize as the string "inf".
# Floats round-trip exactly (Python emits shortest exact repr).  Numbers are
# checked by type, since numpy converts strings and booleans (a bool is an
# int to isinstance); NaN/Infinity literals are read as strings to fail it.
_NUMBER_TYPES = {int, float}


def _matrix_to_json(M):
    if sp.issparse(M):
        M = M.tocsc()
        cols = {}
        for j in range(M.shape[1]):
            start, end = M.indptr[j], M.indptr[j + 1]
            if start == end:
                continue
            cols[str(j)] = [[int(r), float(val)] for r, val in zip(M.indices[start:end], M.data[start:end])]
        return {"cols": cols}
    return {"dense": [[float(v) for v in row] for row in np.asarray(M)]}


def _array_from_json(obj, shape, where):
    """A float64 array of exactly ``shape`` (1-D, or 2-D given as a list of rows) of JSON numbers."""
    rows = obj if len(shape) == 2 and isinstance(obj, list) else [obj]
    for i, row in enumerate(rows):
        if not (isinstance(row, list) and set(map(type, row)) <= _NUMBER_TYPES):
            at = f"{where} row {i}" if rows is obj else where
            if not isinstance(row, list):
                raise ProblemFormatError(f"{at}: not a list of numbers")
            bad = next(v for v in row if type(v) not in _NUMBER_TYPES)
            raise ProblemFormatError(f"{at}: {bad!r} is not a JSON number")
    try:
        out = np.asarray(obj, dtype=np.float64)
    except (OverflowError, ValueError) as exc:
        raise ProblemFormatError(f"{where}: not a nested list of numbers ({exc})") from exc
    # a matrix with no rows is written as []
    if out.shape != shape and not (out.shape == (0,) and shape[0] == 0):
        raise ProblemFormatError(f"{where}: expected shape {shape}, got {out.shape}")
    return out.reshape(shape)


def _matrix_from_json(obj, rows, cols, where):
    if not isinstance(obj, dict) or ("dense" not in obj) == ("cols" not in obj):
        raise ProblemFormatError(f"{where}: matrix must have exactly one of 'dense' or 'cols'")
    if "dense" in obj:
        return np.asfortranarray(_array_from_json(obj["dense"], (rows, cols), f"{where}: dense matrix"))
    entries = obj["cols"]
    if not isinstance(entries, dict):
        raise ProblemFormatError(f"{where}: 'cols' must map column indices to lists of [row, value] pairs")
    data, ri, ci = [], [], []
    seen = set()
    for jstr, pairs in entries.items():
        try:
            j = int(jstr)
        except ValueError:
            j = -1
        if str(j) != jstr:  # int() also reads "0_0", " 0", "+0", "00" and non-ASCII digits
            raise ProblemFormatError(f"{where}: column key {jstr!r} is not a canonical integer")
        if not 0 <= j < cols:
            raise ProblemFormatError(f"{where}: column index {j} out of range")
        if not isinstance(pairs, list):
            raise ProblemFormatError(f"{where}: column {j} must be a list of [row, value] pairs")
        for pair in pairs:
            if not (isinstance(pair, list) and len(pair) == 2 and type(pair[0]) is int
                    and type(pair[1]) in _NUMBER_TYPES):
                raise ProblemFormatError(f"{where}: column {j} entry {pair!r} is not a [row, value] pair")
            row, val = pair[0], float(pair[1])
            if not 0 <= row < rows:
                raise ProblemFormatError(f"{where}: row index {row} out of range")
            # csc_matrix would silently sum a repeated entry
            if (row, j) in seen:
                raise ProblemFormatError(f"{where}: column {j} lists row {row} more than once")
            seen.add((row, j))
            ri.append(row)
            ci.append(j)
            data.append(val)
    return sp.csc_matrix((data, (ri, ci)), shape=(rows, cols))


def _bound_to_json(v):
    return "inf" if math.isinf(v) else float(v)


def _bound_from_json(v, where):
    if v == "inf":
        return math.inf
    if type(v) in _NUMBER_TYPES:
        return float(v)
    raise ProblemFormatError(f"{where}: bound must be a number or 'inf', got {v!r}")


def save_problem(problem: QcqpProblem, path) -> None:
    """Write a problem to a JSON file (see module notes for the format).

    A NaN or infinite datum (an upper bound may be ``+inf``) raises
    ``ValueError`` naming it before the file is opened, so a problem that
    cannot be written leaves no file.  The document is streamed to the
    file rather than encoded whole in memory first: that would hold the
    text of a large instance (119 MB for n1 = 1024, m1 = 4) alongside it.
    """
    p = problem
    bounds = np.where(p.x_upper == math.inf, 0.0, p.x_upper)
    for name, M in [(f"P[{i}]", Pi) for i, Pi in enumerate(p.P)] + _linear_data(p) + [("x_upper", bounds)]:
        msg = _non_finite(name, M)
        if msg:
            raise ValueError(f"cannot save the problem: {msg}")
    doc = {
        "n1": p.n1,
        "n2": p.n2,
        "m1": p.m1,
        "m2": p.m2,
        "P": [_matrix_to_json(Pi) for Pi in p.P],
        "q": [[float(v) for v in qi] for qi in p.q],
        "c": [[float(v) for v in ci] for ci in p.c],
        "r": [float(v) for v in p.r],
        "A": [[float(v) for v in row] for row in np.asarray(p.A.toarray() if sp.issparse(p.A) else p.A)],
        "B": [[float(v) for v in row] for row in np.asarray(p.B.toarray() if sp.issparse(p.B) else p.B)],
        "b": [float(v) for v in p.b],
        "x_upper": [_bound_to_json(v) for v in p.x_upper],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, allow_nan=False)
        fh.write("\n")


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


def load_problem(path) -> QcqpProblem:
    """Read a problem JSON file; raises :class:`ProblemFormatError` on bad input.

    Dimensions are JSON integers and every datum a JSON number; the
    non-standard literals ``NaN``, ``Infinity`` and ``-Infinity`` are
    rejected like strings: problem data is finite, and infinite bounds are
    the string ``"inf"``.
    """
    doc = _read_json_object(path)
    for k in ("n1", "n2", "m1", "m2"):
        if type(doc.get(k)) is not int or doc[k] < 0:
            raise ProblemFormatError(f"{path}: dimension '{k}' must be a nonnegative integer, got {doc.get(k)!r}")
    n1, n2, m1, m2 = (doc[k] for k in ("n1", "n2", "m1", "m2"))
    for name, count in (("P", m1 + 1), ("q", m1 + 1), ("c", m1 + 1), ("r", m1 + 1), ("A", m2), ("B", m2),
                        ("b", m2), ("x_upper", n1)):
        if name not in doc:
            raise ProblemFormatError(f"{path}: missing field '{name}'")
        if not isinstance(doc[name], list):
            raise ProblemFormatError(f"{path}: field '{name}' must be a list, got {type(doc[name]).__name__}")
        if len(doc[name]) != count:
            raise ProblemFormatError(f"{path}: field '{name}' has {len(doc[name])} entries, expected {count}")
    P = [_matrix_from_json(obj, n1, n1, f"{path}: P[{i}]") for i, obj in enumerate(doc["P"])]
    q = [_array_from_json(qi, (n1,), f"{path}: q[{i}]") for i, qi in enumerate(doc["q"])]
    c = [_array_from_json(ci, (n2,), f"{path}: c[{i}]") for i, ci in enumerate(doc["c"])]
    r = _array_from_json(doc["r"], (m1 + 1,), f"{path}: r")
    A = _matrix_from_json({"dense": doc["A"]}, m2, n1, f"{path}: A")
    B = _matrix_from_json({"dense": doc["B"]}, m2, n2, f"{path}: B")
    b = _array_from_json(doc["b"], (m2,), f"{path}: b")
    x_upper = [_bound_from_json(v, f"{path}: x_upper") for v in doc["x_upper"]]
    try:
        problem = QcqpProblem(n1=n1, n2=n2, m1=m1, m2=m2, P=P, q=q, c=c, r=r, A=A, B=B, b=b, x_upper=x_upper)
    except ValueError as exc:
        raise ProblemFormatError(f"{path}: {exc}") from exc
    return problem


def load_point(path, problem: QcqpProblem):
    """Read a point JSON file for ``problem``; returns ``(x, u, lam, gam)``.

    Each of the lists ``x``, ``u``, ``lambda``, ``gamma`` (empty if absent)
    holds exactly its dimension of finite numbers, ``lambda`` nonnegative;
    raises :class:`ProblemFormatError` naming the field otherwise.
    """
    doc = _read_json_object(path)
    blocks = []
    for name, n in (("x", problem.n1), ("u", problem.n2), ("lambda", problem.m1), ("gamma", problem.m2)):
        v = _array_from_json(doc.get(name, []), (n,), f"{path}: {name}")
        msg = _non_finite(name, v)
        if msg:
            raise ProblemFormatError(f"{path}: {msg}")
        blocks.append(v)
    if (blocks[2] < 0).any():
        raise ProblemFormatError(f"{path}: lambda must be nonnegative")
    return tuple(blocks)
