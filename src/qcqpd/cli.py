"""Command-line front end: solve, generate, check-kkt.

Exit codes for ``solve`` mirror the termination status: 0 converged,
2 iteration budget exhausted, 3 infeasibility suspected, 4 unboundedness
suspected, 5 diverged.  I/O and validation failures exit 1 with a
message naming the offending field.  ``generate`` is deterministic per
seed: identical invocations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .core import SolverConfig, solve
from .diagnostics import TerminationStatus, compute_residuals, kkt_residual_max, serial_operator
from .generators import (
    Kernel,
    MklSpec,
    RandomQcqpSpec,
    _parse_kernels,
    build_mkl_qcqp,
    gen_infeasible,
    gen_random_qcqp,
    gen_unbounded,
)
from .model import ProblemFormatError, load_point, load_problem, save_problem, validate

_EXIT_CODES = {
    TerminationStatus.CONVERGED: 0,
    TerminationStatus.MAX_ITERS_EXCEEDED: 2,
    TerminationStatus.INFEASIBLE_SUSPECTED: 3,
    TerminationStatus.UNBOUNDED_SUSPECTED: 4,
    TerminationStatus.DIVERGED: 5,
}


def build_parser():
    parser = argparse.ArgumentParser(prog="qcqpd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # Solver flags are stored under their SolverConfig field names and only
    # when given, so SolverConfig holds the one copy of every default.
    ps = sub.add_parser("solve", help="solve a problem file", argument_default=argparse.SUPPRESS)
    ps.add_argument("problem", help="problem .npz archive")
    ps.add_argument("--tol", type=float)
    ps.add_argument("--max-iters", type=int)
    ps.add_argument("--workers", type=int, dest="n_workers", metavar="WORKERS")
    ps.add_argument("--divergence-threshold", type=float)
    ps.add_argument("--report", default=None, help="write a solve report JSON here")
    ps.add_argument("--trace", default=None, help="write the residual trace CSV here")

    # Spec flags likewise: RandomQcqpSpec and MklSpec hold every default and check.
    pg = sub.add_parser("generate", help="generate a problem file")
    gsub = pg.add_subparsers(dest="family", required=True)

    pr = gsub.add_parser("random-qcqp", help="random PSD instance", argument_default=argparse.SUPPRESS)
    pr.add_argument("--n1", type=int, required=True)
    pr.add_argument("--m1", type=int, required=True)
    pr.add_argument("--dmin", type=float, dest="d_min", metavar="DMIN", help="smallest Hessian eigenvalue")
    pr.add_argument("--dmax", type=float, dest="d_max", metavar="DMAX", help="largest Hessian eigenvalue")
    pr.add_argument("--seed", type=int)
    pr.add_argument("--box", type=float, dest="box_upper", metavar="BOX", help="finite box upper bound")

    pi = gsub.add_parser("infeasible", help="instance with an unsatisfiable constraint")
    pi.add_argument("--n1", type=int, required=True)
    pi.add_argument("--seed", type=int, default=0)

    pu = gsub.add_parser("unbounded", help="instance with an unbounded objective ray")
    pu.add_argument("--n1", type=int, required=True)
    pu.add_argument("--seed", type=int, default=0)

    pm = gsub.add_parser("mkl", help="kernel-combination SVM instance", argument_default=argparse.SUPPRESS)
    pm.add_argument("--csv", dest="csv_path", metavar="CSV",
                    help="draw the points from this CSV (rows: label,feat1,...), not twonorm")
    pm.add_argument("--ntr", type=int, dest="n_tr", metavar="NTR")
    pm.add_argument("--nt", type=int, dest="n_t", metavar="NT")
    pm.add_argument("--svm", help="sm1 or sm2")
    pm.add_argument("--c", type=float, dest="margin_c", metavar="C")
    pm.add_argument("--kernels", help="e.g. gaussian:0.01,linear")
    pm.add_argument("--seed", type=int)

    for family in (pr, pi, pu, pm):
        family.add_argument("--out", required=True, default=None)
        family.add_argument("--meta", default=None, help="write a sidecar metadata JSON here")

    pk = sub.add_parser("check-kkt", help="evaluate optimality residuals at a point")
    pk.add_argument("problem", help="problem .npz archive")
    pk.add_argument("point", help="point JSON file with x, u, lambda, gamma")

    return parser


def _load_and_validate(path):
    problem = load_problem(path)
    report = validate(problem)
    if not report.ok:
        raise ProblemFormatError(f"{path}: " + "; ".join(report.violations))
    return problem


def _from_flags(cls, args):
    """``cls`` built from the flags given, each stored under its field name."""
    given = vars(args)
    return cls(**{f.name: given[f.name] for f in dataclasses.fields(cls) if f.name in given})


def _run_solve(args) -> int:
    problem = _load_and_validate(args.problem)
    report = solve(problem, _from_flags(SolverConfig, args))
    print(
        f"status={report.status.value} iterations={report.iterations} "
        f"objective={report.objective:.12g} res1={report.res1:.6g} res2={report.res2:.6g}"
    )
    if report.message:
        print(report.message)
    if args.report:
        report.write_report_json(args.report)
    if args.trace:
        report.write_trace_csv(args.trace)
    return _EXIT_CODES[report.status]


def _run_generate(args) -> int:
    extras = {}
    if args.family in ("infeasible", "unbounded"):
        generate = gen_infeasible if args.family == "infeasible" else gen_unbounded
        problem, settings = generate(args.n1, seed=args.seed), {"n1": args.n1, "seed": args.seed}
    else:
        if args.family == "random-qcqp":
            spec = _from_flags(RandomQcqpSpec, args)
            problem = gen_random_qcqp(spec)
        else:
            if "kernels" in args:
                args.kernels = _parse_kernels(args.kernels)
            problem, artifacts = build_mkl_qcqp(_from_flags(MklSpec, args))
            spec = artifacts.spec
            extras = {"train_indices": artifacts.train_indices.tolist(),
                      "test_indices": artifacts.test_indices.tolist()}
        settings = {f.name: getattr(spec, f.name) for f in dataclasses.fields(spec)}
    # the settings, nothing derived from them; built before any file is
    # written, so a sidecar that is not strict JSON is an error, not a file
    meta = json.dumps({"family": args.family, **settings, **extras}, indent=2, sort_keys=True,
                      default=Kernel.label, allow_nan=False)
    save_problem(problem, args.out)
    if args.meta:
        try:
            with open(args.meta, "w") as fh:
                fh.write(meta + "\n")
        except OSError:
            os.remove(args.out)  # a problem file is never left without its sidecar
            raise
    print(f"wrote {args.out}")
    if args.meta:
        print(f"wrote {args.meta}")
    return 0


def _run_check_kkt(args) -> int:
    problem = _load_and_validate(args.problem)
    x, u, lam, gam = load_point(args.point, problem)
    kkt = kkt_residual_max(x, u, lam, gam, problem)
    res1, res2 = compute_residuals(problem, x, lam, serial_operator(problem, x, u, lam, gam))
    print(f"kkt_residual_max={kkt!r}")
    print(f"res1={res1!r} res2={res2!r}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "solve":
            return _run_solve(args)
        if args.command == "generate":
            return _run_generate(args)
        return _run_check_kkt(args)
    except (ProblemFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
