"""Benchmark of hermitepw: seeded workloads through the public API, checked.

    python3 perfbench/run.py --workload catalog|shift_sweep|xh_ladder|all \\
        --seed N --seconds S --trace 0|1

Closed loop, one client, one thread.  A run repeats passes over the
workload's request list until ``--seconds`` are used up.  Each pass is a
fresh interpreter (``worker.py``), so the Hermite tables and any memo start
empty, as on every ``hermitepw`` CLI call; reuse inside a pass is real and
reported as a workload property.  The first pass runs the full output checks
and later passes must reproduce its output digests.

Workloads (``workloads.py``):

* ``catalog``     every defined Painleve IV solution with parameters <= 5 of
  both families, each built and checked with ``verify_piv``; the headline
  product, with time in ``RatFunc`` reduction, ``poly_gcd``, the multiplies
  of ``verify_piv`` and the O family's Z[sqrt 3] path.  The rendered JSON
  must hash to the digest of ``hermitepw --format json piv catalog --max 5``.
* ``shift_sweep`` random partitions of size 10-30 at minimal-girth and at
  raised origins (orders up to 14), plus shift equivalences; bound by the
  Bareiss determinants, where minimal-order evaluation and per-partition
  memos act.  Direct Bareiss on the defining matrix is the oracle.
* ``xh_ladder``   exceptional Hermite families on a sparse ladder of low
  degrees plus four rungs between n = 302 and 336, where the Hermite
  recurrence runs on Kronecker multiplication: low-order determinants of
  high-degree, 1-1.4 kbit polynomials, so ``IntPoly`` multiply dominates;
  also holds the one float computation (norm checks of the even family).

With ``--trace 0`` the last line holds the end-to-end metrics.  ``setup_s``
(fresh interpreter to ``import hermitepw`` done) and ``peak_rss_mb`` are
medians over the run's interpreters.  The latency of a request is its best
time over the run's untraced passes: on a small shared host the same code
runs up to 1.6x slower for seconds to minutes at a time, and the best of
several passes removes the slow stretches that a median keeps.  ``req_ms.p50``
and ``req_ms.p90`` are percentiles of these latencies over the request list
(at least 100 requests, so at least 10 lie above p90), and ``run_s`` is their
sum, the time of one pass over the list.  ``fail_frac`` and the median and
best wall times of whole passes are printed above it.  With ``--trace 1``
untraced and traced passes alternate and the last line holds the per-layer
metrics of ``tracer.py`` plus ``trace.overhead_frac``.  Earlier lines give provenance, the workload
properties and every metric with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC_PACKAGE = os.path.join(ROOT, "src", "hermitepw")
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")

sys.path.insert(0, HERE)
import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_SPAWNS = 4          # import-only interpreters before the passes, and one after each
PASS_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "req_ms.p50": "ms",
    "req_ms.p90": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _worker(mode, job=None):
    """Run worker.py in a fresh interpreter and return its result, with the
    time from spawn to ``import hermitepw`` done and the wall time."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, WORKER, mode], input=json.dumps(job or {}),
                              capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {mode} exceeded {PASS_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {mode} exited {proc.returncode}:\n{proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["imported"] - spawned
    result["wall_s"] = time.perf_counter() - spawned
    return result


def _src_sha256():
    h = hashlib.sha256()
    for name in sorted(os.listdir(SRC_PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(SRC_PACKAGE, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def _git_revision():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _count_failures(passes, requests):
    """Failed requests over all passes, checked against the first pass."""
    reference = passes[0]["digests"]
    failed, reasons = 0, []
    for p in passes:
        bad = dict(p["failures"])
        for i, (got, want) in enumerate(zip(p["digests"], reference)):
            if i not in bad and got != want:
                bad[i] = "output differs from the checked pass"
        if p.get("catalog_sha256") not in (None, checks.CATALOG_SHA256):
            bad[-1] = f"catalog JSON sha256 {p['catalog_sha256'] or 'missing'}"
        failed += len(bad)
        reasons += [f"{requests[i] if i >= 0 else 'catalog'}: {why}" for i, why in bad.items()]
    return failed, reasons


def _time_shares(passes, requests):
    """Share of request time per request kind (per family for "piv")."""
    totals = {}
    for p in passes:
        for req, ms in zip(requests, p["latencies_ms"]):
            key = f"piv:{req[1]}" if req[0] == "piv" else req[0]
            totals[key] = totals.get(key, 0.0) + ms
    whole = sum(totals.values())
    return {key: t / whole for key, t in sorted(totals.items())}


def run_workload(workload, seed, seconds, trace):
    requests = workloads.generate(workload, seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"{workload}.spans.tsv")
    load_before = os.getloadavg()

    _worker("setup")   # first import writes the bytecode caches
    setups = [_worker("setup")["setup_s"] for _ in range(SETUP_SPAWNS)]
    kinds = (False, True) if trace else (False,)
    passes = []
    started = time.perf_counter()
    while True:
        traced = kinds[len(passes) % len(kinds)]
        job = {"workload": workload, "requests": requests, "trace": traced,
               "check": not passes, "spans_path": spans_path if traced else None}
        result = _worker("pass", job)
        result["traced"] = traced
        passes.append(result)
        setups.append(_worker("setup")["setup_s"])
        elapsed = time.perf_counter() - started
        typical = statistics.median(p["wall_s"] for p in passes)
        if len(passes) >= len(kinds) and elapsed + typical > seconds:
            break
    load_after = os.getloadavg()

    failed, reasons = _count_failures(passes, requests)
    attempted = len(requests) * len(passes)
    plain = [p for p in passes if not p["traced"]]
    latencies = [min(p["latencies_ms"][i] for p in plain) for i in range(len(requests))]
    run_s = sum(latencies) / 1e3
    p90 = statistics.quantiles(latencies, n=10)[8]
    e2e = {
        "setup_s": statistics.median(setups + [p["setup_s"] for p in passes]),
        "run_s": run_s,
        "req_ms.p50": statistics.median(latencies),
        "req_ms.p90": p90,
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in plain),
    }
    summary_extra = {}
    if trace:
        traced = [p for p in passes if p["traced"]]
        summary_extra["traced_run_s"] = statistics.median(p["run_s"] for p in traced)
        units = tracer.metric_units()
        values = {name: statistics.median(p["layers"][name] for p in traced) for name in units}
        values["trace.overhead_frac"] = (
            statistics.median(p["run_s"] for p in traced)
            / statistics.median(p["run_s"] for p in plain) - 1)
        units["trace.overhead_frac"] = "ratio"
    else:
        units, values = END_TO_END_UNITS, e2e

    provenance = {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_revision": _git_revision(),
        "src_sha256": _src_sha256(),
        "requests_per_pass": len(requests),
        "passes": len(passes),
        "traced_passes": sum(1 for p in passes if p["traced"]),
        "setup_samples": len(setups) + len(passes),
        "latency_samples": len(latencies),
        "latency_samples_above_p90": sum(1 for ms in latencies if ms > p90),
        "loadavg_before": load_before,
        "loadavg_after": load_after,
    }
    summary = {
        "fail_frac": failed / attempted,
        "attempted": attempted,
        "failed": failed,
        "failures": reasons[:20],
        "properties": workloads.properties(workload, requests),
        "time_share": _time_shares(plain, requests),
        "pass_wall_s": {"median": statistics.median(p["run_s"] for p in plain),
                        "min": min(p["run_s"] for p in plain)},
        "end_to_end": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()},
    }
    summary.update(summary_extra)
    if workload == "catalog":
        summary["catalog_sha256"] = passes[0].get("catalog_sha256")
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({"summary": summary}))
    for name, unit in units.items():
        print(f"{workload:12s} {name:52s} {values[name]:.6g} {unit}")
    print(f"{workload:12s} {'fail_frac':52s} {summary['fail_frac']:.6g} ratio")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC_PACKAGE, "__init__.py")):
        print(f"error: no hermitepw sources at {SRC_PACKAGE}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(w, args.seed, args.seconds, args.trace) for w in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
