"""The measuring process: set-up and closed-loop solve rounds in a fresh interpreter.

``run.py`` starts it as ``python3 perfbench/child.py MANIFEST`` once the
instance files exist.  It does what ``qcqpd solve`` does for each file —
``load_problem``, ``validate``, ``solve``, ``write_report_json`` and
``write_trace_csv`` — and nothing else, so its peak resident memory is that
of the solver path.  It prints one JSON document on stdout.

Set-up (loading and validating every instance file) is repeated at least
``setup_min_reps`` times and until ``setup_budget_s`` has passed.  Then one
caller solves the instances back to back, one round after another, until
``seconds`` have passed.  Each solve is recorded with the mean of the
yardstick step times measured just before and just after it.  With tracing on,
untraced and traced rounds alternate and the run ends on a traced round.
"""

import sys

import bootstrap

bootstrap.setup()

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import qcqpd.core  # noqa: E402
from qcqpd import SolverConfig, load_problem, validate  # noqa: E402

from envinfo import process_record  # noqa: E402
from tracing import SOLVE_SPAN, Tracer  # noqa: E402
from yardstick import Yardstick  # noqa: E402

MAX_ROUNDS = 500


def _plain(name, fn, *args):
    return fn(*args)


def _setup_once(paths, call):
    problems = []
    for path in paths:
        problem = call("model.load", load_problem, path)
        report = call("model.validate", validate, problem)
        if not report.ok:
            raise SystemExit(f"{path}: " + "; ".join(report.violations))
        problems.append(problem)
    return problems


def main(manifest_path):
    m = json.loads(Path(manifest_path).read_text())
    work = Path(m["work_dir"])
    paths = [inst["problem"] for inst in m["instances"]]
    configs = [SolverConfig(**inst["config"]) for inst in m["instances"]]
    traced_run = bool(m["trace"])

    setup_tracer = Tracer()
    call = setup_tracer.call if traced_run else _plain
    setup_s = []
    problems = None
    start = perf_counter()
    while len(setup_s) < m["setup_min_reps"] or perf_counter() - start < m["setup_budget_s"]:
        problems = None  # drop the previous copy so only one is resident
        t0 = perf_counter()
        problems = _setup_once(paths, call)
        setup_s.append(perf_counter() - t0)

    tracer = Tracer()
    yardsticks = {p.n1: Yardstick(p.n1) for p in problems}
    last_step_s = {n: y.step_seconds() for n, y in yardsticks.items()}
    solves = []
    reports = {}
    report_path = work / "report.json"
    trace_path = work / "trace.csv"
    step = 2 if traced_run else 1
    deadline = perf_counter() + m["seconds"]
    rnd = 0
    while rnd < MAX_ROUNDS and (rnd < step or rnd % step or perf_counter() < deadline):
        traced = traced_run and rnd % 2 == 1
        for k, (problem, config) in enumerate(zip(problems, configs)):
            if traced:
                with tracer.patch(qcqpd.core):
                    t0 = perf_counter()
                    rep = tracer.call(SOLVE_SPAN, qcqpd.core.solve, problem, config)
                    dt = perf_counter() - t0
            else:
                t0 = perf_counter()
                rep = qcqpd.core.solve(problem, config)
                dt = perf_counter() - t0
            n1 = problem.n1
            step_before, last_step_s[n1] = last_step_s[n1], yardsticks[n1].step_seconds()
            t0 = perf_counter()
            rep.write_report_json(report_path)
            rep.write_trace_csv(trace_path)
            write_s = perf_counter() - t0
            report_bytes = report_path.read_bytes()
            digest = hashlib.sha256(report_bytes + b"\0" + trace_path.read_bytes()).hexdigest()
            reports.setdefault(digest, report_bytes.decode())
            solves.append({
                "instance": k,
                "round": rnd,
                "traced": traced,
                "seconds": dt,
                "step_s": 0.5 * (step_before + last_step_s[n1]),
                "write_s": write_s,
                "iterations": rep.iterations,
                "digest": digest,
            })
        rnd += 1

    out = {
        "setup_s": setup_s,
        "setup_layers": setup_tracer.self_s(),
        "solves": solves,
        "reports": reports,
        "layers": tracer.layer_seconds(),
        "calls": tracer.calls(),
        "solve_span_s": tracer.span_s(SOLVE_SPAN),
        "matrix_bytes": tracer.matrix_bytes(),
        "flops": tracer.flops(),
        "absent": tracer.absent,
        "process": process_record(),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main(sys.argv[1])
