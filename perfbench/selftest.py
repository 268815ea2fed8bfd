"""Self-test of the benchmark: its checkers catch bad output, and a short run
of every workload prints every metric with its unit.

    python3 perfbench/selftest.py

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

FAILED = []


def expect(label, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    if not ok:
        FAILED.append(label)


def _pass(hpw, workload, requests, check=True):
    job = {"workload": workload, "requests": requests, "trace": False, "check": check,
           "spans_path": None}
    return worker.run_pass(hpw, job)


def checker_tests(hpw):
    sweep = [r for r in workloads.generate("shift_sweep", 0) if r[0] == "pw"][:6]
    good = _pass(hpw, "shift_sweep", sweep)
    expect("clean shift_sweep pass has no failures", run._count_failures([good], sweep)[0] == 0)

    # A corrupted polynomial fails the Bareiss oracle on a checked pass and
    # the digest comparison on an unchecked one.
    honest = hpw.hermite.pseudo_wronskian
    hpw.hermite.pseudo_wronskian = lambda m: honest(m) + 1
    try:
        corrupt_checked = _pass(hpw, "shift_sweep", sweep)
        corrupt_unchecked = _pass(hpw, "shift_sweep", sweep, check=False)
    finally:
        hpw.hermite.pseudo_wronskian = honest
    expect("corrupted polynomial fails the oracle",
           run._count_failures([corrupt_checked], sweep)[0] == len(sweep))
    expect("corrupted polynomial fails the digest comparison",
           run._count_failures([good, corrupt_unchecked], sweep)[0] == len(sweep))

    out = worker.execute(hpw, ["xh", [2, 1], 9])
    from checks import check_xh
    expect("clean xh output passes", check_xh(hpw, [2, 1], 9, *out) == "")
    bad_poly = (out[0] + hpw.polys.IntPoly((0, 1)),) + out[1:]
    expect("corrupted P_n fails the eigen residual",
           "eigen residual" in check_xh(hpw, [2, 1], 9, *bad_poly))
    expect("corrupted P_n fails the min_order_form check",
           check_xh(hpw, [2, 1], 9, *bad_poly, full=False) != "")
    bad_eigen = (out[0], replace(out[1], eigenvalue=out[1].eigenvalue + 2), out[2])
    expect("wrong eigenvalue fails the eigen residual",
           "eigen residual" in check_xh(hpw, [2, 1], 9, *bad_eigen))

    # A wrong catalog digest: the pinned sha256 covers the whole catalog, so a
    # pass over part of it cannot match.
    part = workloads.generate("catalog", 0)[:4]
    partial = _pass(hpw, "catalog", part)
    expect("wrong catalog digest counts as a failure",
           run._count_failures([partial], part)[0] == 1)

    # A raised exception: degree 2 is not admissible for (2, 1).
    raising = [["xh", [2, 1], 9], ["xh", [2, 1], 2]]
    result = _pass(hpw, "xh_ladder", raising)
    failed, reasons = run._count_failures([result], raising)
    expect("raised exception counts as a failure", failed == 1 and "ValueError" in reasons[0])


def missing_name_test(hpw):
    """A wrapped name deleted at some commit reads zero instead of raising."""
    name = "sqrt3_log_derivative_term"
    holders = [m for m in (hpw.polys, hpw.painleve) if hasattr(m, name)]
    saved = [(m, getattr(m, name)) for m in holders]
    for m in holders:
        delattr(m, name)
    try:
        requests = [["piv", "gh", 1, 1, 1]]
        job = {"workload": "catalog", "requests": requests, "trace": True, "check": True,
               "spans_path": None}
        layers = worker.run_pass(hpw, job)["layers"]
    finally:
        for m, fn in saved:
            setattr(m, name, fn)
    expect("missing wrapped name reports zeros",
           layers[f"polys.{name}.calls"] == 0 and layers["painleve.verify_piv.calls"] == 1)


def short_runs():
    per_layer = set(tracer.metric_units()) | {"trace.overhead_frac"}
    for workload in workloads.WORKLOADS:
        for trace, names in ((0, set(run.END_TO_END_UNITS)), (1, per_layer)):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", "7", "--seconds", "1", "--trace", str(trace)],
                capture_output=True, text=True, timeout=170)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                expect(f"{label} exits 0 ({proc.stderr.strip()[-200:]})", False)
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            metrics = result["metrics"]
            expect(f"{label} is correct with no failures",
                   result["correct"] and result["failed"] == 0 and result["attempted"] >= 1)
            expect(f"{label} reports every metric with a unit",
                   set(metrics) == names and all(m["unit"] for m in metrics.values()))
            expect(f"{label} prints fail_frac and provenance",
                   any('"fail_frac"' in line for line in lines)
                   and any('"provenance"' in line for line in lines))
            if trace == 0:
                expect(f"{label} end-to-end metrics are positive",
                       all(m["value"] > 0 for m in metrics.values()))
                prov = json.loads(next(line for line in lines if '"provenance"' in line))
                expect(f"{label} has at least 10 latencies above p90",
                       prov["provenance"]["latency_samples_above_p90"] >= 10)


def main():
    hpw, _ = worker._import_library()
    checker_tests(hpw)
    missing_name_test(hpw)
    short_runs()
    print(f"{len(FAILED)} failed")
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())
