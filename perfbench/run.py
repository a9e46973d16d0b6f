"""qcqpd benchmark: one seeded workload, every metric by name and unit, every solve checked.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload dense-1w --seed 0 --seconds 20 --trace 0

Workloads: ``dense-1w``, ``mkl-sweep``, ``pathology-4w`` (see NOTES.md).
The run generates the workload's instances from ``--seed`` and writes each
with ``save_problem`` (untimed preparation), then starts a fresh measuring
process (``child.py``) that loads and validates the files several times and
solves the instances back to back for ``--seconds`` seconds.  Every report
is checked by :func:`workloads.check`.  A fixed numpy step
(``yardstick.py``) is timed around every solve; the result line gives the
solver's cost per iteration in those steps, the record also in microseconds.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics, the tracing
overhead, and whether the traced solves reproduced the untraced ones byte
for byte.  The last line of standard output is the result as one JSON
object; the line before it, prefixed ``record:``, holds the full record
(environment, samples, per-instance outcomes).
"""

import bootstrap

bootstrap.setup()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from qcqpd import save_problem  # noqa: E402

import workloads  # noqa: E402
from envinfo import machine_record  # noqa: E402
from tracing import matrix_bytes  # noqa: E402

HERE = Path(__file__).resolve().parent
WORK_ROOT = bootstrap.ROOT / ".perfbench_work"
SETUP_MIN_REPS = 3
SETUP_BUDGET_S = 2.0
# A run must end within 180 s; the measuring process gets what is left of this.
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "solve_s": "s",
    "iterations": "count",
    "us_per_iter": "us",
    "iter_cost": "step/iter",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# The end-to-end metrics of the result line.  solve_s and iterations are
# printed and recorded but not part of it: they follow the seed's instance
# (on dense-1w its iteration count alone spreads by about 18% between seeds,
# quartile distance over median), so their spread across seeds says nothing
# about the program's speed.  us_per_iter is printed and recorded too; the
# result line carries iter_cost, the same cost in yardstick steps, because
# the host's own speed drifts by more than the bound between runs (NOTES.md).
RESULT_END_TO_END = ("iter_cost", "setup_s", "peak_rss_mb")
PER_LAYER_UNITS = {
    "dist.matvec_s": "s",
    "dist.matvec_calls": "count",
    "dist.dot_s": "s",
    "dist.dot_calls": "count",
    "dist.transpose_matvec_s": "s",
    "dist.transpose_matvec_calls": "count",
    "dist.reduce_ops_per_iter": "count/iter",
    "dist.bytes_per_iter": "B/iter",
    "dist.matrix_bytes_per_iter": "B/iter",
    "dist.flops_per_byte": "flop/B",
    "dist.gemv_gbps": "GB/s",
    "core.step_size_s": "s",
    "core.weights_s": "s",
    "core.updates_s": "s",
    "core.self_s": "s",
    "diagnostics.residuals_s": "s",
    "diagnostics.residual_checks": "count",
    "diagnostics.classify_s": "s",
    "model.load_s": "s",
    "model.validate_s": "s",
    "model.compute_norms_s": "s",
    "model.save_s": "s",
    "generators.build_s": "s",
    "cli.report_write_s": "s",
    "trace.solve_s": "s",
    "trace.overhead_us_per_iter": "us",
}


def high_percentile(values):
    """``(label, value)``: the highest percentile with at least ten samples above it, else the max."""
    n = len(values)
    if n >= 20:
        p = math.floor(100 * (1 - 10 / n))
        return f"p{p}", statistics.quantiles(values, n=100)[p - 1]
    return "max", max(values)


def round_seconds(solves, n_instances, key=lambda s: s["seconds"]):
    """One pass over the instances: the sum of each instance's median solve time (or ``key``)."""
    return sum(statistics.median(key(s) for s in solves if s["instance"] == k) for k in range(n_instances))


def in_steps(solve):
    """Solve time in yardstick steps."""
    return solve["seconds"] / solve["step_s"]


def round_totals(solves):
    totals = {}
    for s in solves:
        totals[s["round"]] = totals.get(s["round"], 0.0) + s["seconds"]
    return list(totals.values())


def prepare(workload, work):
    """Generate and save every instance; returns problems, artifacts, files and timings."""
    problems, artifacts, files = [], [], []
    build_s = save_s = 0.0
    for inst in workload.instances:
        t0 = perf_counter()
        problem, art = inst.build()
        t1 = perf_counter()
        path = work / f"{inst.name}.json"
        save_problem(problem, path)
        build_s += t1 - t0
        save_s += perf_counter() - t1
        problems.append(problem)
        artifacts.append(art)
        files.append(path)
    return problems, artifacts, files, build_s, save_s


def measure(workload, files, seconds, trace, work, deadline):
    """Run the measuring process on the saved files; returns its JSON output."""
    manifest = {
        "work_dir": str(work),
        "trace": trace,
        "seconds": seconds,
        "setup_min_reps": SETUP_MIN_REPS,
        "setup_budget_s": SETUP_BUDGET_S,
        "instances": [
            {"problem": str(path), "config": inst.solver_config()} for inst, path in zip(workload.instances, files)
        ],
    }
    manifest_path = work / "manifest.json"
    manifest_path.write_text(json.dumps(manifest))
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(manifest_path)],
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - perf_counter()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"measuring process exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def gate(workload, problems, artifacts, out):
    """Check every solve; returns per-solve failure lists and per-instance outcomes."""
    verdicts = {}
    reference = {}
    for s in out["solves"]:
        if not s["traced"]:
            reference.setdefault(s["instance"], s["digest"])
    per_solve = []
    outcomes = []
    for k, inst in enumerate(workload.instances):
        report = json.loads(out["reports"][reference[k]])
        outcomes.append({"instance": inst.name, "status": report["status"], "iterations": report["iterations"]})
    for s in out["solves"]:
        k = s["instance"]
        key = (k, s["digest"])
        if key not in verdicts:
            report = json.loads(out["reports"][s["digest"]])
            verdicts[key] = workloads.check(workload.instances[k], problems[k], artifacts[k], report)
        failures = list(verdicts[key])
        if s["digest"] != reference[k]:
            what = "traced solve" if s["traced"] else "repeat solve"
            failures.append(f"{what} report/trace bytes differ from the first untraced solve")
        per_solve.append(failures)
    for k, outcome in enumerate(outcomes):
        outcome["failures"] = sorted({f for s, fs in zip(out["solves"], per_solve) if s["instance"] == k for f in fs})
    return per_solve, outcomes


def end_to_end(solves, n_instances, out, iterations):
    solve_s = round_seconds(solves, n_instances)
    return {
        "solve_s": solve_s,
        "iterations": iterations,
        "us_per_iter": 1e6 * solve_s / iterations,
        "iter_cost": round_seconds(solves, n_instances, in_steps) / iterations,
        "setup_s": statistics.median(out["setup_s"]),
        "peak_rss_mb": out["peak_rss_kb"] / 1024.0,
    }


def per_layer(workload, out, iterations, build_s, save_s, untraced, traced):
    n = len(workload.instances)
    rounds = len({s["round"] for s in traced})
    layers = {name: t / rounds for name, t in out["layers"].items()}
    calls = {name: c / rounds for name, c in out["calls"].items()}
    reports = [json.loads(out["reports"][s["digest"]]) for s in traced if s["round"] == traced[0]["round"]]
    comm_reduce = sum(r["comm"]["reduce_ops"] for r in reports)
    comm_bytes = sum(r["comm"]["bytes_reduced"] + r["comm"]["bytes_scattered"] for r in reports)
    kernel_s = layers.get("dist.matvec", 0.0) + layers.get("dist.transpose_matvec", 0.0)
    mat_bytes = out["matrix_bytes"] / rounds
    setup_reps = len(out["setup_s"])
    return {
        "dist.matvec_s": layers.get("dist.matvec", 0.0),
        "dist.matvec_calls": calls.get("dist_matvec", 0),
        "dist.dot_s": layers.get("dist.dot", 0.0),
        "dist.dot_calls": calls.get("dist_dot", 0),
        "dist.transpose_matvec_s": layers.get("dist.transpose_matvec", 0.0),
        "dist.transpose_matvec_calls": calls.get("dist_transpose_matvec", 0),
        "dist.reduce_ops_per_iter": comm_reduce / iterations,
        "dist.bytes_per_iter": comm_bytes / iterations,
        "dist.matrix_bytes_per_iter": mat_bytes / iterations,
        "dist.flops_per_byte": out["flops"] / out["matrix_bytes"] if out["matrix_bytes"] else 0.0,
        "dist.gemv_gbps": mat_bytes / kernel_s / 1e9 if kernel_s else 0.0,
        "core.step_size_s": layers.get("core.step_size", 0.0),
        "core.weights_s": layers.get("core.weights", 0.0),
        "core.updates_s": layers.get("core.updates", 0.0),
        "core.self_s": layers.get("core.self", 0.0),
        "diagnostics.residuals_s": layers.get("diagnostics.residuals", 0.0),
        "diagnostics.residual_checks": calls.get("compute_residuals", 0),
        "diagnostics.classify_s": layers.get("diagnostics.classify", 0.0),
        "model.load_s": out["setup_layers"].get("model.load", 0.0) / setup_reps,
        "model.validate_s": out["setup_layers"].get("model.validate", 0.0) / setup_reps,
        "model.compute_norms_s": layers.get("model.compute_norms", 0.0),
        "model.save_s": save_s,
        "generators.build_s": build_s,
        "cli.report_write_s": sum(s["write_s"] for s in traced) / rounds,
        "trace.solve_s": out["solve_span_s"] / rounds,
        "trace.overhead_us_per_iter": 1e6 * (round_seconds(traced, n) - round_seconds(untraced, n)) / iterations,
    }


def run(workload, seed, seconds, trace):
    """Run one workload; returns ``(result, record)``."""
    start = perf_counter()
    work = WORK_ROOT / f"{workload.name}-s{seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        problems, artifacts, files, build_s, save_s = prepare(workload, work)
        out = measure(workload, files, seconds, trace, work, start + RUN_LIMIT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            WORK_ROOT.rmdir()

    per_solve, outcomes = gate(workload, problems, artifacts, out)
    n = len(workload.instances)
    iterations = sum(o["iterations"] for o in outcomes)
    untraced = [s for s in out["solves"] if not s["traced"]]
    traced = [s for s in out["solves"] if s["traced"]]
    failed = sum(1 for f in per_solve if f)
    attempted = len(per_solve)
    notes = []

    e2e = end_to_end(untraced, n, out, iterations)
    if trace:
        values = per_layer(workload, out, iterations, build_s, save_s, untraced, traced)
        units = PER_LAYER_UNITS
        # self times of all spans inside solve must add up to the solve spans
        layer_sum = sum(out["layers"].values())
        if not math.isclose(layer_sum, out["solve_span_s"], rel_tol=1e-9, abs_tol=1e-9):
            notes.append(f"layer self times sum to {layer_sum!r} s, solve spans to {out['solve_span_s']!r} s")
    else:
        values = e2e
        units = {name: END_TO_END_UNITS[name] for name in RESULT_END_TO_END}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    llc = machine_record()
    hessian_bytes = max(sum(matrix_bytes(P) for P in p.P) + matrix_bytes(p.A) for p in problems)
    env = {
        **llc,
        **out["process"],
        "hessian_bytes_largest_instance": hessian_bytes,
        "hessian_bytes_over_llc": hessian_bytes / llc["llc_bytes"] if llc["llc_bytes"] else None,
        "gemv_gbps_basis": "computed matrix bytes (array sizes) over measured kernel time; cache hits not modeled",
        "roofline": (
            "omitted: sustainable memory bandwidth is not measured in this run "
            "(needs arrays of at least 4x the last-level cache)"
        ),
    }
    rounds = round_totals(untraced)
    hi_label, hi_value = high_percentile(rounds)
    setup_hi_label, setup_hi = high_percentile(out["setup_s"])
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "env": env,
        "instances": outcomes,
        "failed_frac": {"value": failed / attempted, "unit": "fraction", "failed": failed, "attempted": attempted},
        "end_to_end": {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()},
        "solve_round_s": {"median_estimate": e2e["solve_s"], hi_label: hi_value, "n": len(rounds), "samples": rounds},
        "setup_s": {"median": e2e["setup_s"], setup_hi_label: setup_hi, "n": len(out["setup_s"]), "samples": out["setup_s"]},
        "yardstick_step_s": statistics.median(s["step_s"] for s in untraced),
        "absent_names": out["absent"],
        "wall_s": perf_counter() - start,
        "notes": notes,
    }
    result = {"correct": failed == 0 and not notes, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, record


def print_human(result, record):
    r = record
    print(f"perfbench workload={r['workload']} seed={r['seed']} seconds={r['seconds']} trace={r['trace']}")
    for name, m in result["metrics"].items():
        print(f"  {name:30s} {m['value']!r:>24} {m['unit']}")
    if not r["trace"]:
        for name, m in r["end_to_end"].items():
            if name not in result["metrics"]:
                print(f"  {name:30s} {m['value']!r:>24} {m['unit']} (recorded, not in the result line)")
    ff = r["failed_frac"]
    print(f"  {'failed_frac':30s} {ff['value']!r:>24} fraction ({ff['failed']}/{ff['attempted']} solves)")
    sr = r["solve_round_s"]
    extra = {k: v for k, v in sr.items() if k not in ("samples", "median_estimate", "n")}
    print(f"  solve round: median estimate {sr['median_estimate']:.6g} s, {extra}, n={sr['n']} rounds")
    su = r["setup_s"]
    extra = {k: v for k, v in su.items() if k not in ("samples", "median", "n")}
    print(f"  set-up: median {su['median']:.6g} s, {extra}, n={su['n']}")
    for o in r["instances"]:
        print(f"  {o['instance']}: {o['status']} after {o['iterations']} iterations" + (f"; FAILED {o['failures']}" if o["failures"] else ""))
    for note in r["notes"]:
        print(f"  CHECK FAILED: {note}")
    if r["absent_names"]:
        print(f"  wrapped names absent from qcqpd.core: {r['absent_names']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so subprocess.run kills and reaps the
    # measuring process before this one exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workload = workloads.get(args.workload, args.seed)
    result, record = run(workload, args.seed, args.seconds, args.trace)
    print_human(result, record)
    print("record: " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
