#!/usr/bin/env python3
"""Shape table of the polynomial multiply: best-of-N times of the
schoolbook loop, of Kronecker substitution and of the dispatch ``_mul`` on
a fixed list of operand shapes, with the path the cost rule picks.

The shapes are those the workloads meet and those around the crossover:
Hermite polynomials H_n times short factors of 20-bit coefficients (the
P_n * W products of exceptional Hermite polynomials), H_n * H_n, square
products of 16- to 5000-bit coefficients, and 300 x 12 at 1400 bits.  Use
it to check or refit the weights of ``polys._schoolbook_cheaper`` on a new
host: the rule should pick the faster path, or one within 15% of it.

Usage: python scripts/mul_crossover.py [max_pairs]

Shapes of more than max_pairs coefficient pairs are skipped (default: none).
"""

import random
import sys
import time

import hermitepw.polys as polys
from hermitepw.hermite import hermite_poly

REPEATS = 5
NEAR = 1.15


def _random(rng, n, bits):
    return tuple(rng.randint(-2 ** bits, 2 ** bits) for _ in range(n - 1)) + (2 ** bits,)


def shapes():
    """(name, a, b) for every shape of the table, built deterministically."""
    rng = random.Random(2016)
    out = []
    for n in (60, 120, 200, 330):
        h = hermite_poly(n).coeffs
        for k in (3, 7, 12, 30):
            out.append((f"H_{n} x {k} @ 20", h, _random(rng, k, 20)))
        out.append((f"H_{n} x H_{n}", h, h))
    for n in (25, 40, 80, 160, 330):
        for bits in (16, 300, 1400, 5000):
            if n * bits <= 400_000:
                out.append((f"{n} x {n} @ {bits}", _random(rng, n, bits), _random(rng, n, bits)))
    out.append(("300 x 12 @ 1400", _random(rng, 300, 1400), _random(rng, 12, 1400)))
    out.append(("300 @ 1400 x 12 @ 20", _random(rng, 300, 1400), _random(rng, 12, 20)))
    return out


def best_ms(fn, a, b):
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn(a, b)
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def rule_pick(a, b):
    """The kernel _mul calls for these operands."""
    if len(a) * len(b) <= polys._SCHOOLBOOK_PAIRS or polys._schoolbook_cheaper(a, b):
        return "schoolbook"
    return "kronecker"


def main():
    max_pairs = int(sys.argv[1]) if len(sys.argv) > 1 else None
    rows = [s for s in shapes() if max_pairs is None or len(s[1]) * len(s[2]) <= max_pairs]
    print(f"{'shape':22s} {'la x lb':>9s} {'school_ms':>10s} {'kron_ms':>10s} {'mul_ms':>10s}"
          f"  {'rule':10s} {'faster':10s} ratio")
    picks = {"schoolbook": 0, "kronecker": 0}
    near, worst = 0, 1.0
    for name, a, b in rows:
        ts = best_ms(polys._mul_schoolbook, a, b)
        tk = best_ms(polys._mul_kronecker, a, b)
        tm = best_ms(polys._mul, a, b)
        pick = rule_pick(a, b)
        picks[pick] += 1
        ratio = (ts if pick == "schoolbook" else tk) / min(ts, tk)
        near += ratio <= NEAR
        worst = max(worst, ratio)
        faster = "schoolbook" if ts <= tk else "kronecker"
        print(f"{name:22s} {len(a):4d} x {len(b):<3d} {ts:10.3f} {tk:10.3f} {tm:10.3f}"
              f"  {pick:10s} {faster:10s} {ratio:.2f}")
    print(f"rule: schoolbook on {picks['schoolbook']}, kronecker on {picks['kronecker']} "
          f"of {len(rows)} shapes")
    print(f"rule within {round((NEAR - 1) * 100)}% of the faster path on {near}/{len(rows)} shapes; "
          f"worst miss {worst:.2f}x")


if __name__ == "__main__":
    main()
