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
import math
import sys

from .core import SolverConfig, solve
from .diagnostics import TerminationStatus, compute_residuals, kkt_residual_max, serial_operator
from .generators import (
    EIGENVALUE_RANGES,
    Kernel,
    MklSpec,
    RandomQcqpSpec,
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


def _parse_kernels(text):
    """The kernels of a ``--kernels`` value; ``ValueError`` naming the flag on a bad one."""
    kernels = []
    for token in text.split(","):
        token = token.strip()
        if token in ("linear", "polynomial"):
            kernels.append(Kernel(token))
        elif token.startswith("gaussian:"):
            try:
                kernels.append(Kernel("gaussian", float(token.split(":", 1)[1])))
            except ValueError as exc:
                raise ValueError(f"--kernels: bad kernel {token!r}: {exc}") from exc
        else:
            raise ValueError(f"--kernels: bad kernel {token!r}; use linear, polynomial or gaussian:<sigma2>")
    return tuple(kernels)


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

    pg = sub.add_parser("generate", help="generate a problem file")
    gsub = pg.add_subparsers(dest="family", required=True)

    pr = gsub.add_parser("random-qcqp", help="random PSD instance")
    pr.add_argument("--n1", type=int, required=True)
    pr.add_argument("--m1", type=int, required=True)
    pr.add_argument("--cond", type=float, help="condition number; known benchmark values pick their eigenvalue range")
    pr.add_argument("--dmin", type=float, help="smallest Hessian eigenvalue; needs --dmax, excludes --cond")
    pr.add_argument("--dmax", type=float, help="largest Hessian eigenvalue; needs --dmin, excludes --cond")
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--box", type=float, help="finite box upper bound (default +inf)")
    pr.add_argument("--out", required=True)
    pr.add_argument("--meta", help="write a sidecar metadata JSON here")

    pi = gsub.add_parser("infeasible", help="instance with an unsatisfiable constraint")
    pi.add_argument("--n1", type=int, required=True)
    pi.add_argument("--seed", type=int, default=0)
    pi.add_argument("--out", required=True)
    pi.add_argument("--meta")

    pu = gsub.add_parser("unbounded", help="instance with an unbounded objective ray")
    pu.add_argument("--n1", type=int, required=True)
    pu.add_argument("--seed", type=int, default=0)
    pu.add_argument("--out", required=True)
    pu.add_argument("--meta")

    pm = gsub.add_parser("mkl", help="kernel-combination SVM instance")
    pm.add_argument("--dataset", choices=("twonorm", "csv"), default="twonorm")
    pm.add_argument("--csv", help="CSV path (rows: label,feat1,...)")
    pm.add_argument("--ntr", type=int, default=160)
    pm.add_argument("--nt", type=int, default=None, help="test points (default ntr // 4)")
    pm.add_argument("--svm", choices=("sm1", "sm2"), default="sm2")
    pm.add_argument("--c", type=float, default=1.0)
    pm.add_argument("--r", type=float, default=None, help="kernel-weight budget (default: #kernels)")
    pm.add_argument("--kernels", default=None, help="e.g. gaussian:0.01,linear")
    pm.add_argument("--dim", type=int, default=20)
    pm.add_argument("--seed", type=int, default=0)
    pm.add_argument("--out", required=True)
    pm.add_argument("--meta")

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


def _run_solve(args) -> int:
    problem = _load_and_validate(args.problem)
    given = vars(args)
    config = SolverConfig(**{f.name: given[f.name] for f in dataclasses.fields(SolverConfig) if f.name in given})
    report = solve(problem, config)
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


def _require_finite(args, *flags):
    """Reject a NaN or infinite value of any of the given ``--flags``, naming it."""
    for flag in flags:
        value = getattr(args, flag)
        if value is not None and not math.isfinite(value):
            raise ValueError(f"--{flag} must be finite, got {value!r}")


def _run_generate(args) -> int:
    meta = None
    if args.family == "random-qcqp":
        _require_finite(args, "cond", "dmin", "dmax")
        if (args.dmin is None) != (args.dmax is None):
            raise ValueError("--dmin and --dmax must be given together")
        if args.dmin is not None and args.cond is not None:
            raise ValueError("--cond cannot be combined with --dmin and --dmax")
        if args.cond is not None and args.cond < 1:
            raise ValueError(f"--cond must be >= 1, got {args.cond!r}")
        if args.box is not None and not args.box > 0:
            raise ValueError(f"--box must be > 0, got {args.box!r}")
        if args.dmin is not None:
            d_min, d_max = args.dmin, args.dmax
        elif args.cond is not None:
            if args.cond in EIGENVALUE_RANGES:
                d_min, d_max = EIGENVALUE_RANGES[args.cond]
            else:
                d_min, d_max = 5.0 / args.cond, 5.0
        else:
            d_min, d_max = EIGENVALUE_RANGES[1.25]
        spec = RandomQcqpSpec(
            n1=args.n1, m1=args.m1, d_min=d_min, d_max=d_max, seed=args.seed, box_upper=args.box
        )
        problem = gen_random_qcqp(spec)
        meta = {
            "family": "random-qcqp",
            "seed": args.seed,
            "n1": spec.n1,
            "m1": spec.m1,
            "d_min": spec.d_min,
            "d_max": spec.d_max,
            "kappa": spec.kappa,
        }
    elif args.family == "infeasible":
        problem = gen_infeasible(args.n1, seed=args.seed)
        meta = {"family": "infeasible", "seed": args.seed, "n1": args.n1}
    elif args.family == "unbounded":
        problem = gen_unbounded(args.n1, seed=args.seed)
        meta = {"family": "unbounded", "seed": args.seed, "n1": args.n1}
    else:
        _require_finite(args, "c", "r")
        spec = MklSpec(
            dataset=args.dataset,
            csv_path=args.csv,
            n_tr=args.ntr,
            n_t=args.nt if args.nt is not None else max(1, args.ntr // 4),
            kernels=_parse_kernels(args.kernels) if args.kernels is not None else MklSpec.kernels,
            svm=args.svm,
            margin_c=args.c,
            R=args.r,
            dim=args.dim,
            seed=args.seed,
        )
        problem, artifacts = build_mkl_qcqp(spec)
        meta = artifacts.sidecar_dict()
    save_problem(problem, args.out)
    print(f"wrote {args.out}")
    if args.meta:
        with open(args.meta, "w") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")
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
