"""Self-test of the benchmark; run ``python3 perfbench/selftest.py`` from a checkout.

* Smoke: every workload, shrunk, in both modes; each emits exactly the
  metrics BENCHMARK.json names, with their units, plus ``failed_frac`` in
  the record, and every solve passes the gate.
* A deliberately wrong expected status raises ``failed_frac``.
* The tracer skips and reports a wrapped name the module lacks.
* In a directory holding only BENCHMARK.json and the benchmark, the run
  exits non-zero without printing a result.
"""

import bootstrap

bootstrap.setup()

import dataclasses  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import WRAPPED, Tracer  # noqa: E402

SMOKE_SECONDS = 0.5


def _declared(kind):
    bench = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


def smoke():
    for name in workloads.NAMES:
        for trace in (0, 1):
            result, record = run.run(workloads.get(name, 0, smoke=True), 0, SMOKE_SECONDS, trace)
            want = _declared("per_layer" if trace else "end_to_end")
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            assert got == want, (name, trace, sorted(set(got) ^ set(want)))
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert record["failed_frac"]["unit"] == "fraction"
            assert {k: m["unit"] for k, m in record["end_to_end"].items()} == run.END_TO_END_UNITS
            assert result["correct"] and result["failed"] == 0, (name, trace, record["instances"], record["notes"])
            print(f"ok smoke {name} trace={trace}: {len(got)} metrics, {result['attempted']} solves")


def wrong_status_counts_as_failed():
    wl = workloads.get("pathology-4w", 0, smoke=True)
    first = dataclasses.replace(wl.instances[0], expect="converged")
    wl = dataclasses.replace(wl, instances=(first,) + wl.instances[1:])
    result, record = run.run(wl, 0, SMOKE_SECONDS, 0)
    assert not result["correct"] and record["failed_frac"]["value"] > 0, record["failed_frac"]
    print(f"ok wrong expected status: failed_frac={record['failed_frac']['value']}")


def absent_name_is_skipped():
    def kernel(M, x):
        return x

    module = types.SimpleNamespace(dist_dot=kernel)
    tracer = Tracer()
    with tracer.patch(module):
        assert module.dist_dot is not kernel
        module.dist_dot(None, 1)
    assert module.dist_dot is kernel
    assert sorted(tracer.absent) == sorted(set(WRAPPED) - {"dist_dot"})
    assert tracer.calls() == {"dist_dot": 1}
    print(f"ok absent names skipped: {len(tracer.absent)}")


def bare_directory_fails():
    bare = run.WORK_ROOT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(bootstrap.ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bootstrap.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "dense-1w", "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, (proc.returncode, proc.stdout)
    print(f"ok bare directory exits {proc.returncode}")


if __name__ == "__main__":
    smoke()
    wrong_status_counts_as_failed()
    absent_name_is_skipped()
    bare_directory_fails()
