#!/usr/bin/env python3
"""Walk a partition's diagram through every corner origin and print the
chain of proportional determinants with their exact constants.

Usage: python scripts/shift_equivalence_demo.py 4,4,3,1,1
"""

import sys

from hermitepw.hermite import verify_equivalence
from hermitepw.maya import MayaDiagram, Partition
from hermitepw.minorder import minimal_girth


def main():
    lam = Partition.parse(sys.argv[1] if len(sys.argv) > 1 else "4,4,3,1,1")
    m = MayaDiagram.from_partition(lam)
    report = minimal_girth(lam)
    print(f"partition {lam}, standard diagram {m}, degree {lam.size}")
    print(f"minimal girth {report.r} at origins {list(report.origins)}\n")
    for k, g in report.corners:
        # both determinants computed directly at their own orders
        rep = verify_equivalence(m, k)
        check = "ok" if rep.match else "MISMATCH"
        print(f"origin {k:3d}  girth {g}  {str(m.shift(-k)):24s} "
              f"H_std = {rep.constant} * H_shifted   [{check}]")


if __name__ == "__main__":
    main()
