"""Check a ``qcqpd check-kkt`` output against the solve report it was run on.

Prints the output, then fails unless ``kkt_residual_max`` is at most
:data:`KKT_BOUND` and the printed ``res1`` and ``res2`` equal the report's to
a relative 1e-9: the check recomputes, serially, the residual pair the solve
measured at the same iterate.

Run: ``qcqpd check-kkt PROBLEM REPORT > OUT && python3 scripts/kkt_gate.py OUT REPORT``.
"""

import json
import math
import sys

# 20 times the default tolerance 1e-3, the bound the benchmark gates solves on.
KKT_BOUND = 2e-2


def main(output_path, report_path):
    with open(output_path) as fh:
        text = fh.read()
    print(text, end="")
    printed = {name: float(value) for name, value in (item.split("=", 1) for item in text.split())}
    with open(report_path) as fh:
        report = json.load(fh)
    failures = []
    if not printed["kkt_residual_max"] <= KKT_BOUND:
        failures.append(f"kkt_residual_max={printed['kkt_residual_max']!r} exceeds {KKT_BOUND:g}")
    for name in ("res1", "res2"):
        if report[name] is None or not math.isclose(printed[name], report[name], rel_tol=1e-9):
            failures.append(f"check-kkt {name}={printed[name]!r}, report {name}={report[name]!r}")
    return "; ".join(failures) or 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
