"""Command-line interface.

Subcommands: maya, pw, equiv, minorder, xhermite, piv, selftest.
Every numeric value in JSON output is rendered as an exact decimal (or
p/q) string; output is byte-identical across runs for identical
arguments.  Exit codes: 0 success / verified, 1 computed but a
verification failed, 2 usage error or invalid input (argparse's own
convention; a ValueError from the library counts as invalid input).

Each subcommand computes its result and returns (exit code, JSON payload,
text lines); ``main`` prints it outside the handler that maps a ValueError
to exit 2, so an error while printing is never reported as bad input.
Integers print at any size: the interpreter's limit on int-to-str
conversion is lifted while ``main`` runs and restored when it returns.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from . import hermite, minorder, painleve, xhermite
from .hermite import pseudo_wronskian, verify_equivalence
from .maya import MayaDiagram, Partition


def _emit(args, payload, text_lines):
    if payload is None:
        return
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _diagram_from(args) -> MayaDiagram:
    if args.frobenius is not None:
        m = MayaDiagram.parse(args.frobenius)
    else:
        m = MayaDiagram.from_partition(Partition.parse(args.partition))
    return m.shift(args.shift)


def cmd_maya(args):
    m = _diagram_from(args)
    std, k = m.standardize()
    lam = m.partition()
    conj = lam.conjugate()
    payload = {
        "frobenius": str(m),
        "girth": m.girth,
        "partition": lam.to_json(),
        "partition_size": lam.size,
        "conjugate": conj.to_json(),
        "standard_frobenius": str(std),
        "standard_shift": k,
    }
    return 0, payload, [
        f"frobenius: {m}",
        f"girth: {m.girth}",
        f"partition: {lam} (size {lam.size})",
        f"conjugate: {conj}",
        f"standard form: {std} (diagram = standard + {k})",
    ]


def cmd_pw(args):
    m = _diagram_from(args)
    p = pseudo_wronskian(m)
    payload = {"frobenius": str(m), "degree": p.degree, "poly": p.to_json()}
    return 0, payload, [f"H[{m}] = {p.pretty()}"]


def cmd_equiv(args):
    m = _diagram_from(args)
    report = verify_equivalence(m, args.k)
    return 0 if report.match else 1, report.to_json(), [
        f"H[{m}] = {report.constant} * H[{m.shift(-args.k)}]",
        f"match: {report.match}",
    ]


def cmd_minorder(args):
    lam = Partition.parse(args.partition)
    report = minorder.minimal_girth(lam)
    m = MayaDiagram.from_partition(lam)
    k_best = report.origins[-1]
    small = m.shift(-k_best)
    durfee = minorder.durfee_symbol(small)
    payload = {
        "partition": lam.to_json(),
        "r": report.r,
        "origins": list(report.origins),
        "corners": [list(c) for c in report.corners],
        "durfee": durfee.to_json(),
        "minimal_frobenius": str(small),
    }
    return 0, payload, [
        f"partition: {lam}",
        f"minimal girth: {report.r}",
        f"origins: {', '.join(str(k) for k in report.origins)}",
        f"durfee symbol at origin {k_best}: {durfee}",
        f"minimal frobenius: {small}",
    ]


def cmd_xhermite(args):
    lam = Partition.parse(args.partition)
    n = args.n
    poly = xhermite.exceptional_hermite(lam, n)
    payload = {"partition": lam.to_json(), "n": n, "poly": poly.to_json()}
    lines = [f"P_{n} = {poly.pretty()}"]
    ok = True
    if args.min_order:
        form = xhermite.min_order_form(lam, n)
        same = form.scalar.denominator == 1 and \
            poly == form.scalar.numerator * form.poly
        payload["min_order"] = {**form.to_json(), "n": n, "consistent": same}
        ok = ok and same
        lines.append(f"minimal order {form.order} at origin {form.origin}: "
                     f"P_{n} = {form.scalar} * H[{form.diagram}]")
    if args.verify_ode:
        try:
            rep = xhermite.eigen_check(lam, n)
        except ArithmeticError as exc:
            # a nonzero eigen residual is a failed verification: exit 1
            print(f"hermitepw: verification failed: {exc}", file=sys.stderr)
            return 1, None, None
        payload["eigen"] = rep.to_json()
        lines.append(f"eigenvalue: {rep.eigenvalue} (index N = {rep.shifted_index})")
    return 0 if ok else 1, payload, lines


def cmd_piv(args):
    if args.mode == "catalog":
        entries = painleve.piv_catalog(args.max)
        payload = []
        lines = []
        ok = True
        for sol, rep in entries:
            item = sol.to_json()
            item["verified"] = rep.ok
            payload.append(item)
            ok = ok and rep.ok
            lines.append(f"{sol.family}{sol.params} branch {sol.branch}: "
                         f"a={sol.a}, b={sol.b}, verified={rep.ok}")
        return 0 if ok else 1, payload, lines

    if args.family == "gh":
        if args.m is None or args.ell is None:
            raise ValueError("gh needs --m and --ell")
        sol = painleve.piv_solution_gh(args.m, args.ell, args.branch)
    else:
        if args.l1 is None or args.l2 is None:
            raise ValueError("o needs --l1 and --l2")
        sol = painleve.piv_solution_o(args.l1, args.l2, args.branch)
    payload = sol.to_json()
    num, den = (p.pretty("t") for p in sol.t_form())
    y = num if den == "1" else f"({num}) / ({den})"
    lines = [f"y(t) = {y}", f"a = {sol.a}, b = {sol.b}"]
    code = 0
    if args.verify:
        rep = painleve.verify_piv(sol)
        payload["verified"] = rep.ok
        lines.append(f"verified: {rep.ok}")
        code = 0 if rep.ok else 1
    return code, payload, lines


def _selftest_checks():
    from fractions import Fraction as F

    from .determinant import det

    th = hermite.conj_hermite_poly
    H = hermite.hermite_poly

    d1 = hermite.hermite_wronskian([1, 2, 3, 6])
    d2 = hermite.wronskian([th(1), th(2), th(6)])
    d3 = det([[H(2), H(2).derivative()], [th(3), th(4)]])
    yield "mixed triple 1:48", d1 == 48 * d2
    yield "mixed triple 1:7680", d1 == 7680 * d3

    big = MayaDiagram.from_partition(Partition((4, 4, 3, 1, 1)))
    r6 = verify_equivalence(big, 6)
    yield "shift constant -483840", r6.match and r6.constant == -483840
    r3 = verify_equivalence(big, 3)
    yield "shift constant -1935360", r3.match and r3.constant == -1935360

    m2211 = MayaDiagram.from_partition(Partition((2, 2, 1, 1)))
    yield "shift constant -768", verify_equivalence(m2211, 6).constant == -768
    m4411 = MayaDiagram.from_partition(Partition((4, 4, 1, 1)))
    yield "shift constant 19200", verify_equivalence(m4411, 3).constant == 19200

    rep = minorder.minimal_girth(Partition((2, 2, 1, 1)))
    yield "minimal girth (2,2,1,1)", (rep.r, rep.origins) == (2, (6,))
    rep = minorder.minimal_girth(Partition((4, 4, 1, 1)))
    yield "minimal girth (4,4,1,1)", (rep.r, rep.origins) == (3, (3,))

    golden = [("gh", (2, 4), 1, F(-11), F(-8)), ("gh", (2, 4), 2, F(7), F(-32)),
              ("gh", (2, 4), 3, F(1), F(-72)), ("o", (1, 2), 1, F(3), F(-32, 9)),
              ("o", (1, 2), 2, F(-1), F(-128, 9)), ("o", (1, 2), 3, F(-5), F(-32, 9))]
    for fam, params, branch, a, b in golden:
        build = painleve.piv_solution_gh if fam == "gh" else painleve.piv_solution_o
        sol = build(*params, branch)
        ok = sol.a == a and sol.b == b and painleve.verify_piv(sol).ok
        yield f"piv {fam}{params} branch {branch}", ok


def cmd_selftest(args):
    results = [{"check": name, "pass": bool(ok)} for name, ok in _selftest_checks()]
    lines = [f"[{'PASS' if r['pass'] else 'FAIL'}] {r['check']}" for r in results]
    return 0 if all(r["pass"] for r in results) else 1, results, lines


def build_parser():
    ap = argparse.ArgumentParser(prog="hermitepw",
                                 description="Exact pseudo-Wronskian toolkit")
    ap.add_argument("--format", choices=("text", "json"), default="text")
    sub = ap.add_subparsers(dest="command", required=True)

    def diagram_parser(name, text):
        # a diagram is given by exactly one of its two notations
        p = sub.add_parser(name, help=text)
        given = p.add_mutually_exclusive_group(required=True)
        given.add_argument("--frobenius")
        given.add_argument("--partition")
        return p

    p = diagram_parser("maya", "diagram/partition conversions")
    p.add_argument("--shift", type=int, default=0)
    p.set_defaults(func=cmd_maya)

    p = diagram_parser("pw", "pseudo-Wronskian of a diagram")
    p.add_argument("--shift", type=int, default=0)
    p.set_defaults(func=cmd_pw)

    p = diagram_parser("equiv", "verify the shift-equivalence constant")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_equiv, shift=0)

    p = sub.add_parser("minorder", help="minimal girth, origins, Durfee symbol")
    p.add_argument("--partition", required=True)
    p.set_defaults(func=cmd_minorder)

    p = sub.add_parser("xhermite", help="exceptional Hermite polynomials")
    p.add_argument("--partition", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--min-order", action="store_true")
    p.add_argument("--verify-ode", action="store_true")
    p.set_defaults(func=cmd_xhermite)

    p = sub.add_parser("piv", help="rational Painleve IV solutions")
    p.add_argument("mode", nargs="?", default="solve", choices=("solve", "catalog"))
    p.add_argument("--class", dest="family", choices=("gh", "o"), default="gh")
    p.add_argument("--m", type=int)
    p.add_argument("--ell", type=int)
    p.add_argument("--l1", type=int)
    p.add_argument("--l2", type=int)
    p.add_argument("--branch", type=int, default=1)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--max", type=int, default=3)
    p.set_defaults(func=cmd_piv)

    p = sub.add_parser("selftest", help="run the embedded golden checks")
    p.set_defaults(func=cmd_selftest)
    return ap


@contextlib.contextmanager
def _int_str_unbounded():
    """Lift the interpreter's int-to-str digit limit, restoring it on exit."""
    old = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if old is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if old is not None:
            sys.set_int_max_str_digits(old)


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    with _int_str_unbounded():
        try:
            code, payload, lines = args.func(args)
        except ValueError as exc:
            print(f"{ap.prog}: error: {exc}", file=sys.stderr)
            return 2
        _emit(args, payload, lines)
    return code


if __name__ == "__main__":
    sys.exit(main())
