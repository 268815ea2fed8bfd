"""Output checks and output digests for the benchmark requests.

A check returns an empty string when the output is right and a short reason
when it is not.  The checks run outside the timed region.  ``digest`` reduces
an output to a string so that later passes of a run can be compared with the
fully checked first pass at almost no cost.
"""

from __future__ import annotations

import hashlib
import json

# sha256 of the stdout of `hermitepw --format json piv catalog --max 5`.
CATALOG_SHA256 = "edc43b19b22c0489c528280d2223d312915d8e72a06c30d78f3e9546a1b74c03"


def catalog_item(sol, rep):
    """The catalog entry exactly as the CLI renders it."""
    item = sol.to_json()
    item["verified"] = rep.ok
    return item


def catalog_sha256(requests, items):
    """Digest of the CLI catalog rendering, rebuilt from shuffled requests."""
    order = sorted(range(len(requests)), key=lambda i: requests[i][1:])
    payload = [items[i] for i in order]
    text = json.dumps(payload, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def check_piv(rep):
    return "" if rep.ok else "verify_piv residual is not zero"


def check_pw(hpw, m, poly):
    """Direct Bareiss on the defining matrix is the oracle."""
    h = hpw.hermite
    oracle = hpw.determinant.det_bareiss(h.pseudo_wronskian_matrix(m))
    return "" if poly == oracle else f"pseudo_wronskian{m} differs from Bareiss"


def check_eq(report):
    return "" if report.match else f"shift identity fails for {report.diagram}, k={report.k}"


def check_xh(hpw, parts, n, poly, eigen, form, full=True):
    """The eigen residual T[P_n] - eigenvalue * P_n is recomputed here, and
    only when ``full``: it costs about as much as the request."""
    if poly.degree != n:
        return f"P_{n} has degree {poly.degree}"
    if full:
        lam = hpw.maya.Partition(tuple(parts))
        image = hpw.xhermite.apply_T_lambda(lam, poly)
        if not (image - eigen.eigenvalue * hpw.polys.RatFunc(poly)).is_zero():
            return f"eigen residual of P_{n} is not zero"
    if form.scalar.denominator != 1 or poly != form.scalar.numerator * form.poly:
        return f"P_{n} != scalar * min_order_form poly"
    return ""


def check_norm(report):
    return "" if report.ok else f"norm check ({report.n},{report.m}) rel_error {report.rel_error}"


def _poly(p):
    return ",".join(map(str, p.coeffs))


def digest(kind, out):
    """Short stable fingerprint of a request's output."""
    if kind == "piv":
        text = json.dumps(out, sort_keys=True)
    elif kind == "pw":
        text = _poly(out)
    elif kind == "eq":
        text = f"{out.match}|{out.constant}|{_poly(out.h_m)}|{_poly(out.h_shifted)}"
    elif kind == "xh":
        poly, eigen, form = out
        text = (f"{_poly(poly)}|{eigen.eigenvalue}|{_poly(eigen.residual)}|"
                f"{form.order}|{form.origin}|{form.scalar}|{_poly(form.poly)}")
    elif kind == "norm":
        text = f"{out.ok}|{out.integral}|{out.expected}"
    else:
        raise ValueError(f"unknown request kind {kind!r}")
    return hashlib.sha256(text.encode()).hexdigest()[:24]
