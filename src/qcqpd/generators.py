"""Reproducible test-instance builders.

Three families:

* random dense convex QCQPs with prescribed constraint-matrix condition
  number (each Hessian is ``Q' D Q`` with a Haar-random orthogonal ``Q``
  and controlled diagonal ``D``),
* deliberately pathological instances: an infeasible two-constraint
  problem (one constraint is bounded below by 100 everywhere) and an
  unbounded one (the objective decreases forever along a direction the
  constraint cannot see),
* soft-margin SVM training problems with a learned combination of
  kernels, mapped onto the box-constrained QCQP form.

All randomness flows through PCG64 streams derived from the instance
seed; matrix ``i`` of a random QCQP draws from the child stream
``SeedSequence(seed, spawn_key=(i,))``, so instances are bitwise
reproducible and individual matrices are independent of how many others
exist.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .model import QcqpProblem, _check_int, _check_real

__all__ = [
    "RandomQcqpSpec",
    "MklSpec",
    "Kernel",
    "MklArtifacts",
    "EIGENVALUE_RANGES",
    "gen_random_qcqp",
    "gen_infeasible",
    "gen_unbounded",
    "gram_matrix",
    "build_mkl_qcqp",
    "gen_twonorm",
    "load_csv_dataset",
]

# Benchmark eigenvalue ranges (d_min, d_max) by condition number.
EIGENVALUE_RANGES = {
    1.25: (4.0, 5.0),
    1e2: (0.1, 10.0),
    1e4: (0.003, 30.0),
    1e6: (0.00002, 20.0),
}

# Dimension of the twonorm point cloud (Breiman's two-norm data set).
TWONORM_DIM = 20


@dataclass(frozen=True)
class RandomQcqpSpec:
    """Parameters of one random PSD instance.

    Every Hessian gets eigenvalues in ``[d_min, d_max]`` (both finite) with
    both endpoints attained, so its condition number is exactly
    :attr:`kappa`.  The linear terms ``qi`` are uniform on ``[-1, 1)`` and
    the constants ``ri`` on ``[-1, 0)``, so the origin is feasible for
    every generated constraint.  ``box_upper`` bounds every coordinate;
    ``+inf`` is stored as ``None``, no finite box.
    """

    n1: int
    m1: int
    d_min: float = 4.0
    d_max: float = 5.0
    seed: int = 0
    box_upper: float | None = None

    def __post_init__(self):
        _check_int("n1", self.n1, 1)
        _check_int("m1", self.m1, 0)
        _check_real("d_min", self.d_min)
        _check_real("d_max", self.d_max)
        if self.d_min > self.d_max:
            raise ValueError(f"need d_min <= d_max, got d_min={self.d_min!r}, d_max={self.d_max!r}")
        if self.n1 == 1 and self.kappa != 1.0:
            raise ValueError("kappa > 1 needs n1 >= 2 (both extreme eigenvalues must be attained)")
        if self.box_upper is not None:
            _check_real("box_upper", self.box_upper, finite=False)
            if self.box_upper == np.inf:  # no finite box: one spelling, as when none is given
                object.__setattr__(self, "box_upper", None)

    @property
    def kappa(self) -> float:
        """Condition number of every Hessian, ``d_max / d_min``."""
        return self.d_max / self.d_min


def _stream(seed, index):
    """Child stream ``index`` of ``seed``; ``ValueError`` naming ``seed`` unless it is an integer >= 0."""
    _check_int("seed", seed, 0)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(index,))))


def _haar_orthogonal(rng, n):
    """Haar-distributed orthogonal matrix: QR of a Gaussian with sign-fixed R."""
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    signs = np.where(np.diag(R) >= 0, 1.0, -1.0)
    return Q * signs


def _random_psd(rng, n, d_min, d_max):
    """``Q' D Q`` with eigenvalues exactly spanning ``[d_min, d_max]``."""
    Q = _haar_orthogonal(rng, n)
    d = np.empty(n)
    d[0] = d_max
    if n > 1:
        d[1] = d_min
        d[2:] = rng.uniform(d_min, d_max, size=n - 2)
    P = (Q.T * d) @ Q
    return np.asfortranarray(0.5 * (P + P.T))


def gen_random_qcqp(spec: RandomQcqpSpec) -> QcqpProblem:
    """Random convex QCQP: ``m1`` quadratic constraints, no equalities.

    Matrix ``i`` (0 = objective) draws, in order, the Gaussian entries of
    its orthogonal factor, the interior diagonal entries, then ``qi`` and
    ``ri``, all from child stream ``i`` of the seed.  Without a finite
    ``box_upper`` only ``x >= 0`` binds.
    """
    s = spec
    P, q, r = [], [], []
    for i in range(s.m1 + 1):
        rng = _stream(s.seed, i)
        P.append(_random_psd(rng, s.n1, s.d_min, s.d_max))
        q.append(rng.uniform(-1.0, 1.0, size=s.n1))
        r.append(rng.uniform(-1.0, 0.0))
    upper = None if s.box_upper is None else np.full(s.n1, s.box_upper)
    return QcqpProblem(P=P, q=q, r=np.array(r), x_upper=upper)


def gen_infeasible(n1: int, seed: int = 0) -> QcqpProblem:
    """Two-constraint instance whose second constraint can never hold.

    Constraint 2 is ``0.5 (x + q2)'(x + q2) + (r2 + 1) + 100 <= 0``: a
    nonnegative quadratic plus a nonnegative shift plus 100, so its value
    is at least 100 everywhere.  The objective and first constraint are
    drawn like a random instance, so the problem is well formed (all
    Hessians PSD) yet infeasible.
    """
    _check_int("n1", n1, 2)  # the base instance's d_max / d_min = 1.25 needs two eigenvalues
    base = gen_random_qcqp(RandomQcqpSpec(n1=n1, m1=1, seed=seed))
    rng = _stream(seed, 2)
    q2 = rng.uniform(-1.0, 1.0, size=n1)
    r2 = rng.uniform(-1.0, 0.0)
    P = list(base.P) + [np.ones(n1)]  # the identity, as its diagonal
    q = list(base.q) + [q2]
    r = np.append(base.r, 0.5 * float(q2 @ q2) + (r2 + 1.0) + 100.0)
    return QcqpProblem(P=P, q=q, r=r)


def gen_unbounded(n1: int, seed: int = 0) -> QcqpProblem:
    """Single-constraint instance with an unbounded objective ray.

    The shared Hessian is ``diag(1, ..., 1, 0)``; the objective's linear
    term is ``-1`` on the last coordinate only, while the constraint's
    linear term ignores it.  Along the feasible ray ``x = t * e_last``
    (``t -> +inf``) the objective is ``-t + r0`` but the constraint value
    never changes, so the problem is unbounded below.
    """
    _check_int("n1", n1, 2)
    D0 = np.append(np.ones(n1 - 1), 0.0)  # the diagonal of the shared Hessian
    q0 = np.zeros(n1)
    q0[-1] = -1.0
    q1 = np.ones(n1)
    q1[-1] = 0.0
    rng = _stream(seed, 0)
    r0, r1 = rng.uniform(-1.0, 0.0, size=2)
    return QcqpProblem(P=[D0, D0], q=[q0, q1], r=np.array([r0, r1]))


# --- kernels and SVM instances ----------------------------------------------


@dataclass(frozen=True)
class Kernel:
    """Kernel function descriptor: linear, squared polynomial, or Gaussian."""

    kind: str
    sigma2: float | None = None

    def __post_init__(self):
        if self.kind not in ("linear", "polynomial", "gaussian"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "gaussian":
            _check_real("sigma2", self.sigma2)

    def label(self) -> str:
        """The ``--kernels`` token of this kernel; a Gaussian's ``sigma2`` is
        written short (``:g``) when that parses back to it, in full otherwise."""
        if self.kind != "gaussian":
            return self.kind
        short = f"{self.sigma2:g}"
        return f"gaussian:{short if float(short) == self.sigma2 else repr(float(self.sigma2))}"


def _parse_kernels(text):
    """The kernels of a ``--kernels`` value, one :meth:`Kernel.label` each; a bad one raises naming ``kernels``."""
    kernels = []
    for token in text.split(","):
        token = token.strip()
        if token in ("linear", "polynomial"):
            kernels.append(Kernel(token))
        elif token.startswith("gaussian:"):
            try:
                kernels.append(Kernel("gaussian", float(token.split(":", 1)[1])))
            except ValueError as exc:
                raise ValueError(f"kernels: bad kernel {token!r}: {exc}") from exc
        else:
            raise ValueError(f"kernels: bad kernel {token!r}; use linear, polynomial or gaussian:<sigma2>")
    return tuple(kernels)


DEFAULT_MKL_KERNELS = tuple(Kernel("gaussian", s2) for s2 in (0.01, 0.1, 1.0, 10.0, 100.0))


def gram_matrix(kernel: Kernel, X):
    """Gram matrix ``K[j, j'] = k(X_j, X_j')`` of the rows of ``X``; symmetric, with unit Gaussian diagonal."""
    X = np.asarray(X, dtype=np.float64)
    inner = X @ X.T
    if kernel.kind == "linear":
        K = inner
    elif kernel.kind == "polynomial":
        K = (1.0 + inner) ** 2
    else:
        sq_norms = (X * X).sum(axis=1)
        sq = np.maximum(sq_norms[:, None] + sq_norms[None, :] - 2.0 * inner, 0.0)
        np.fill_diagonal(sq, 0.0)
        K = np.exp(-sq / (2.0 * kernel.sigma2))
    return 0.5 * (K + K.T)


@dataclass(frozen=True)
class MklSpec:
    """Parameters of one kernel-combination SVM training instance.

    The points are drawn from ``csv_path``, a CSV of :func:`load_csv_dataset`
    rows, when it is given, and from :func:`gen_twonorm` when it is
    ``None``.  ``n_t`` test points default to ``max(1, n_tr // 4)``.  The
    kernel-weight budget :attr:`R` multiplies the auxiliary variable in the
    objective.
    """

    csv_path: str | None = None
    n_tr: int = 160
    n_t: int | None = None
    kernels: tuple = DEFAULT_MKL_KERNELS
    svm: str = "sm2"
    margin_c: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.csv_path == "":
            raise ValueError("csv_path must name a file, got ''")
        _check_int("n_tr", self.n_tr, 2)
        if self.n_t is None:
            object.__setattr__(self, "n_t", max(1, self.n_tr // 4))
        _check_int("n_t", self.n_t, 1)
        if self.svm not in ("sm1", "sm2"):
            raise ValueError(f"svm must be 'sm1' or 'sm2', got {self.svm!r}")
        _check_real("margin_c", self.margin_c)
        if not isinstance(self.kernels, (tuple, list)) or not all(isinstance(k, Kernel) for k in self.kernels):
            raise ValueError(f"kernels must be a tuple of Kernel, got {self.kernels!r}")
        if not self.kernels:
            raise ValueError("need at least one kernel")
        object.__setattr__(self, "kernels", tuple(self.kernels))

    @property
    def R(self) -> float:
        """Total kernel-weight bound: the number of unit-trace Gram matrices."""
        return float(len(self.kernels))


@dataclass
class MklArtifacts:
    """Everything needed to score a trained instance on its test split.

    ``generate mkl --meta`` records the settings, ``spec``'s fields, and the
    split, ``train_indices`` and ``test_indices``: the dataset rows of each.
    """

    spec: MklSpec
    labels_train: np.ndarray
    labels_test: np.ndarray
    gram_train: list
    gram_cross: list
    train_indices: np.ndarray
    test_indices: np.ndarray


def gen_twonorm(n_points: int, seed: int = 0):
    """Breiman's two-norm data in :data:`TWONORM_DIM` dimensions, unit
    covariance: ``ceil(n_points / 2)`` points at mean ``(a, ..., a)`` labeled
    +1, then as many at ``(-a, ..., -a)`` labeled -1, ``a = 2 /
    sqrt(TWONORM_DIM)``; the first ``n_points`` rows are returned, so an odd
    count gives the first rows of the next even one."""
    _check_int("n_points", n_points, 0)
    rng = _stream(seed, 0)
    half = -(-n_points // 2)
    a = 2.0 / np.sqrt(TWONORM_DIM)
    X = np.vstack([
        rng.standard_normal((half, TWONORM_DIM)) + a,
        rng.standard_normal((half, TWONORM_DIM)) - a,
    ])
    y = np.concatenate([np.ones(half), -np.ones(half)])
    return X[:n_points], y[:n_points]


def load_csv_dataset(path):
    """Load ``label,feat1,...,featk`` rows; labels must be +-1."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            data = np.loadtxt(path, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    if data.size == 0:
        raise ValueError(f"{path}: no data rows")
    if data.shape[1] < 2:
        raise ValueError(f"{path}: need a label column plus at least one feature")
    y = data[:, 0]
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError(f"{path}: labels must be -1 or +1")
    bad = np.nonzero(~np.isfinite(data[:, 1:]).all(axis=1))[0]
    if bad.size:
        raise ValueError(f"{path}: data row {bad[0] + 1} has a non-finite feature")
    return data[:, 1:], y


def build_mkl_qcqp(spec: MklSpec):
    """Map a soft-margin SVM with learned kernel weights onto the QCQP form.

    The decision variable is the coefficient vector (box ``[0, C]`` for
    the 1-norm margin, ``[0, inf)`` for the 2-norm margin); a scalar
    auxiliary variable carries the kernel-weight budget ``R``.  Each
    kernel contributes one quadratic constraint
    ``0.5 a' G_i a - a0 <= 0`` with ``G_i`` the label-signed training
    Gram block of the trace-normalized kernel; the label-balance equality
    becomes the single equality row.  The weights themselves are the
    multipliers of the quadratic constraints at the solution.

    Returns the problem plus :class:`MklArtifacts` for scoring.
    """
    s = spec
    n_total = s.n_tr + s.n_t
    if s.csv_path is None:
        X, y = gen_twonorm(n_total, seed=s.seed)
    else:
        X, y = load_csv_dataset(s.csv_path)
        if X.shape[0] < n_total:
            raise ValueError(f"dataset has {X.shape[0]} rows, need n_tr + n_t = {n_total}")
    rng = _stream(s.seed, 1)
    perm = rng.permutation(X.shape[0])[:n_total]
    train_idx, test_idx = perm[: s.n_tr], perm[s.n_tr :]
    ltr, lte = y[train_idx], y[test_idx]
    if np.all(ltr == ltr[0]):
        raise ValueError("training split contains a single class; reseed or enlarge n_tr")

    # order points train-first so Gram blocks slice contiguously
    ordered = np.concatenate([train_idx, test_idx])
    Xo = X[ordered]
    gram_train, gram_cross, G = [], [], []
    for kern in s.kernels:
        K = gram_matrix(kern, Xo)
        tr = np.trace(K)
        if tr <= 0:
            raise ValueError(f"kernel {kern.label()} has nonpositive Gram trace; cannot normalize")
        K = K / tr
        Ktr = K[: s.n_tr, : s.n_tr]
        gram_train.append(Ktr)
        gram_cross.append(K[: s.n_tr, s.n_tr :])
        G.append(np.asfortranarray(Ktr * np.outer(ltr, ltr)))

    n_tr, C = s.n_tr, s.margin_c
    if s.svm == "sm1":
        P0 = np.zeros(n_tr)  # the zero matrix, as its diagonal
        upper = np.full(n_tr, C)
    else:
        P0 = np.full(n_tr, 1.0 / C)  # I / C, as its diagonal
        upper = np.full(n_tr, np.inf)
    m = len(s.kernels)
    problem = QcqpProblem(
        P=[P0] + G,
        q=[-np.ones(n_tr)] + [np.zeros(n_tr)] * m,
        c=[np.array([s.R])] + [np.array([-1.0])] * m,
        A=ltr.reshape(1, n_tr),
        x_upper=upper,
    )
    artifacts = MklArtifacts(
        spec=s,
        labels_train=ltr,
        labels_test=lte,
        gram_train=gram_train,
        gram_cross=gram_cross,
        train_indices=train_idx,
        test_indices=test_idx,
    )
    return problem, artifacts
