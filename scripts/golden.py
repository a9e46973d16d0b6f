"""Golden outputs: status, iterations, modeled doubles per pass and sha256
of report JSON + trace CSV, then sha256 of every generated problem file.

Solves a fixed instance set (the toy, random n1=64 seeds 0-2, random n1=600
seed 0, random n1=65 seed 2 with its middle Hessian replaced by its
diagonal, MKL seed 0 with either margin and with 60 training points, the
infeasible and unbounded instances) at 1 and 3 workers, the infeasible
instance also at 7, random n1=66, m1=4 seed 3 with its middle Hessian
replaced by its diagonal at 1 and 4 workers, a dense QP (random n1=257,
m1=0, seed 1) at 1, 4 and 7 workers, random n1=512 seed 0 with its
objective scaled by 1e40 for 300 iterations at 1 worker, and the
infeasible and unbounded instances at n1=256 seed 0 at 4 workers, and
prints one line per solve.  The doubles per pass are the
solve's ``comm`` bytes over 8 and over its ``2k + 1`` passes, as an exact
fraction, so the comparison below also gates the traffic contract.
Then saves one problem file per generator family (random seed 0 with a
box, MKL seed 0 with either margin, infeasible, unbounded) and prints one
line per file.  Two commits whose outputs match line for line
produce byte-identical solves and problem files.
``scripts/golden.txt`` holds the expected output; everything but the
hashes is compared in CI, and the hashes are for comparing two commits on
one machine.  CI also runs the script twice and requires the same output,
hashes included.  Run: ``python3 scripts/golden.py``.
"""

import dataclasses
import hashlib
import os
import sys
import tempfile
from fractions import Fraction

# Pin BLAS to one thread before numpy loads: summation order must not vary.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from qcqpd import (  # noqa: E402
    MklSpec, QcqpProblem, RandomQcqpSpec, SolverConfig, build_mkl_qcqp,
    gen_infeasible, gen_random_qcqp, gen_unbounded, save_problem, solve,
)


def instances():
    """``(name, problem, solver settings, worker counts)`` of every golden instance."""
    toy = QcqpProblem(P=[[[1.0]], [[1.0]]], q=[[-2.0], [0.0]], r=[0.0, -0.5], x_upper=[10.0])
    yield "toy", toy, {"tol": 1e-6}, (1, 3)
    for seed in range(3):
        yield f"random-s{seed}", gen_random_qcqp(RandomQcqpSpec(n1=64, m1=2, seed=seed)), {}, (1, 3)
    # n1 >= qcqpd.model.LARGE_DENSE_COLS = 512: at one worker each dense Hessian is kept whole and
    # multiplied by dsymv at every residual check and by sspmv, on a packed float32 copy of its
    # upper triangle, between checks, so this line's hash at 1 worker follows the float32 path
    yield "random-n600", gen_random_qcqp(RandomQcqpSpec(n1=600, m1=2, seed=0)), {}, (1, 3)
    # P0 and q0 scaled by 1e40: P0's largest entry is past float32's range, so no float32 copy
    # is made and every product of the solve is dsymv's, as before the float32 path
    base = gen_random_qcqp(RandomQcqpSpec(n1=512, m1=2, seed=0))
    q = base.q.copy()
    q[0] *= 1e40
    yield "random-n512", dataclasses.replace(base, P=[1e40 * base.P[0], *base.P[1:]], q=q), {"max_iters": 300}, (1,)
    # a diagonal between two dense Hessians: the stacked rows 0 and 2 are two
    # groups, each multiplied straight into its own row of the products
    base = gen_random_qcqp(RandomQcqpSpec(n1=65, m1=2, seed=2))
    P = [base.P[0], base.P[1].diagonal().copy(), base.P[2]]
    yield "interleaved-n65", dataclasses.replace(base, P=P), {}, (1, 3)
    # two groups of two dense Hessians, rows [0, 2) and [3, 5); 66 columns
    # split 2 x 17 + 2 x 16 at 4 workers, so each group is two batched products
    base = gen_random_qcqp(RandomQcqpSpec(n1=66, m1=4, seed=3))
    P = [base.P[0], base.P[1], base.P[2].diagonal().copy(), base.P[3], base.P[4]]
    yield "two-groups-n66", dataclasses.replace(base, P=P), {}, (1, 4)
    # a dense QP: its lone Hessian is stacked like any other; 257 rows split 65 + 3 x 64 at 4 workers
    # and 5 x 37 + 2 x 36 at 7.  With m1 + m2 = 0 a pass reduces nothing: the seven-worker reduce of the
    # constraint rows over two column widths is the infeasible instance's
    yield "qp-n257", gen_random_qcqp(RandomQcqpSpec(n1=257, m1=0, seed=1)), {}, (1, 4, 7)
    yield "mkl-s0", build_mkl_qcqp(MklSpec(seed=0))[0], {}, (1, 3)
    yield "mkl-sm1-s0", build_mkl_qcqp(MklSpec(svm="sm1", seed=0))[0], {}, (1, 3)
    # five 60-column Gram Hessians stack into 300 rows, not a multiple of 8:
    # the stacked block's leading dimension is padded to 304
    yield "mkl-n60", build_mkl_qcqp(MklSpec(n_tr=60, seed=0))[0], {}, (1, 3)
    # 64 columns split 10 + 6 x 9 at 7 workers, through both collectives of a pass
    yield "infeasible", gen_infeasible(64, seed=0), {"divergence_threshold": 1e4}, (1, 3, 7)
    yield "unbounded", gen_unbounded(64, seed=0), {}, (1, 3)
    # the pathology-4w benchmark's instances at its 4 workers: 64 columns each
    yield "infeasible-n256", gen_infeasible(256, seed=0), {"divergence_threshold": 1e4}, (4,)
    yield "unbounded-n256", gen_unbounded(256, seed=0), {}, (4,)


def generated():
    """``(name, problem)`` of every golden problem file."""
    yield "random-s0-box", gen_random_qcqp(RandomQcqpSpec(n1=64, m1=2, seed=0, box_upper=1.0))
    for svm in ("sm1", "sm2"):
        yield f"mkl-{svm}-s0", build_mkl_qcqp(MklSpec(svm=svm, seed=0))[0]
    yield "infeasible", gen_infeasible(64, seed=0)
    yield "unbounded", gen_unbounded(64, seed=0)


def sha256(*paths):
    digest = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def main():
    with tempfile.TemporaryDirectory() as tmp:
        report, trace = os.path.join(tmp, "report.json"), os.path.join(tmp, "trace.csv")
        for name, problem, settings, worker_counts in instances():
            for workers in worker_counts:
                rep = solve(problem, SolverConfig(n_workers=workers, **settings))
                rep.write_report_json(report)
                rep.write_trace_csv(trace)
                c, passes = rep.comm, 2 * rep.iterations + 1
                doubles = Fraction(c.bytes_reduced + c.bytes_scattered + c.bytes_allgathered, 8 * passes)
                print(f"{name} workers={workers} status={rep.status.value} "
                      f"iterations={rep.iterations} doubles_per_pass={doubles} sha256={sha256(report, trace)}")
        path = os.path.join(tmp, "problem.npz")
        for name, problem in generated():
            save_problem(problem, path)
            print(f"{name} file sha256={sha256(path)}")


if __name__ == "__main__":
    main()
