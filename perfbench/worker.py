"""One pass of a benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py setup    import hermitepw and report when done
    python3 perfbench/worker.py pass     run the job read from stdin

Every pass starts with empty Hermite tables and memos, as each ``hermitepw``
CLI call does.  A job is a JSON object with ``workload``, ``requests``,
``trace`` (wrap the layers and record spans), ``check`` (also run the costly
Bareiss oracle; other passes are held to the checked one by output digests)
and ``spans_path``.  The result is one JSON line on stdout.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _import_library():
    sys.path.insert(0, SRC)
    import hermitepw
    done = time.perf_counter()
    if not os.path.abspath(hermitepw.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"hermitepw imported from {hermitepw.__file__}, not {SRC}")
    return hermitepw, done


def _diagram(hpw, parts, k):
    return hpw.maya.MayaDiagram.from_partition(hpw.maya.Partition(tuple(parts))).shift(-k)


def execute(hpw, req):
    """Run one request through the public API; returns its raw output."""
    kind = req[0]
    if kind == "piv":
        _, family, p1, p2, branch = req
        pv = hpw.painleve
        sol = (pv.piv_solution_gh if family == "gh" else pv.piv_solution_o)(p1, p2, branch)
        return sol, pv.verify_piv(sol)
    if kind == "pw":
        m = _diagram(hpw, req[1], req[2])
        return m, hpw.hermite.pseudo_wronskian(m)
    if kind == "eq":
        m = _diagram(hpw, req[1], req[2])
        return hpw.hermite.verify_equivalence(m, req[3] - req[2])
    lam = hpw.maya.Partition(tuple(req[1]))
    xh = hpw.xhermite
    if kind == "xh":
        n = req[2]
        return xh.exceptional_hermite(lam, n), xh.eigen_check(lam, n), xh.min_order_form(lam, n)
    if kind == "norm":
        return xh.weight_and_norm_check(lam, req[2], req[3])
    raise ValueError(f"unknown request kind {kind!r}")


def inspect(hpw, req, out, full):
    """(failure reason or "", digest, catalog item or None) of one output.
    The Bareiss oracle of "pw" requests and the eigen residual of "xh"
    requests run only when ``full``."""
    import checks

    kind = req[0]
    if kind == "piv":
        item = checks.catalog_item(*out)
        return checks.check_piv(out[1]), checks.digest(kind, item), item
    if kind == "pw":
        m, poly = out
        reason = checks.check_pw(hpw, m, poly) if full else ""
        return reason, checks.digest(kind, poly), None
    check = {"eq": checks.check_eq, "norm": checks.check_norm,
             "xh": lambda o: checks.check_xh(hpw, req[1], req[2], *o, full=full)}[kind]
    return check(out), checks.digest(kind, out), None


def run_pass(hpw, job):
    import resource

    import checks
    import tracer as tracing

    requests = job["requests"]
    tracer = tracing.Tracer() if job["trace"] else None
    if tracer:
        tracer.install()
    outputs, errors, latencies = [None] * len(requests), {}, []
    clock = time.perf_counter
    started = clock()
    for i, req in enumerate(requests):
        if tracer:
            tracer.request = i
        t0 = clock()
        try:
            outputs[i] = execute(hpw, req)
        except Exception as exc:  # a failed request is counted, the run goes on
            errors[i] = f"{type(exc).__name__}: {exc}"
        latencies.append((clock() - t0) * 1e3)
    run_s = clock() - started
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()

    failures, digests, items = dict(errors), [], []
    for i, req in enumerate(requests):
        if i in errors:
            digests.append("")
            continue
        try:
            reason, dig, item = inspect(hpw, req, outputs[i], job["check"])
        except Exception as exc:  # a check that cannot run is a failed output
            reason, dig, item = f"check raised {type(exc).__name__}: {exc}", "", None
        if reason:
            failures[i] = reason
        digests.append(dig)
        items.append(item)

    result = {"run_s": run_s, "latencies_ms": latencies, "rss_mb": rss_mb,
              "digests": digests, "failures": sorted(failures.items()), "layers": None}
    if job["workload"] == "catalog":
        result["catalog_sha256"] = (checks.catalog_sha256(requests, items)
                                    if not errors else "")
    if tracer:
        result["layers"] = tracer.metrics(
            lambda st: tuple(hpw.maya.MayaDiagram(*st).partition().parts))
        if job.get("spans_path"):
            tracer.write_spans(job["spans_path"])
    return result


def main(argv):
    hpw, imported = _import_library()
    import json

    if argv[1:] == ["setup"]:
        result = {"imported": imported}
    elif argv[1:] == ["pass"]:
        result = run_pass(hpw, json.load(sys.stdin))
        result["imported"] = imported
    else:
        raise SystemExit("usage: worker.py setup|pass")
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
