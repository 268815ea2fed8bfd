"""Seeded request lists for the three benchmark workloads.

Everything here is plain data built with the standard library only, so the
inputs do not depend on the code under test: Maya-diagram girths are
recomputed from their definition rather than taken from ``hermitepw``.

A request is a JSON-ready list whose first item names its kind:

* ``["piv", family, p1, p2, branch]``  build one Painleve IV solution and
  verify it (``catalog``);
* ``["pw", parts, k]``                 pseudo-Wronskian of the standard
  diagram of ``parts`` moved to origin ``k`` (``shift_sweep``);
* ``["eq", parts, a, b]``              shift equivalence between origins
  ``a`` and ``b`` of that diagram (``shift_sweep``);
* ``["xh", parts, n]``                 degree-n exceptional Hermite
  polynomial, its eigen relation and minimal-order form (``xh_ladder``);
* ``["norm", parts, n, m]``            numerical orthogonality check of an
  even family (``xh_ladder``).
"""

from __future__ import annotations

import random

WORKLOADS = ("catalog", "shift_sweep", "xh_ladder")

# The catalog box; its JSON rendering is pinned in checks.CATALOG_SHA256.
CATALOG_MAX = 5

SWEEP_PARTITIONS = 120
SWEEP_SIZES = (10, 30)
SWEEP_MAX_GIRTH = 14

# Per family, LADDER_LOW_RUNGS degrees below LADDER_LOW_TOP; then one rung in
# each LADDER_HIGH band (family index, lowest, highest degree), past the
# n = 300 where the Hermite recurrence switches to Kronecker multiplication.
LADDER_LOW_RUNGS = 40
LADDER_LOW_TOP = 150
LADDER_HIGH = ((1, 302, 306), (2, 312, 316), (1, 322, 326), (0, 332, 336))
# One even family (it alone has a norm check) and two odd ones; orders <= 5.
LADDER_FAMILIES = ((2, 2, 1, 1), (2, 1), (3, 1, 1))


def _piv_defined(family, p1, p2, branch):
    """Whether the catalog builds a nonzero solution for these arguments.

    Besides the argument rules of piv_solution_gh/o, GH(0, ell) on branch 1
    and GH(m, 0) on branch 2 pair two diagrams of the empty partition, so
    y = 0 and piv_solution_gh raises ValueError.
    """
    if family == "gh":
        return not ((branch == 1 and p1 == 0) or (branch == 2 and 0 in (p1, p2))
                    or (branch == 3 and p2 == 0))
    return branch != 1 or (p1 >= 1 and p2 >= 1)


def catalog(seed):
    """Every defined catalog entry with parameters <= CATALOG_MAX, in seeded order."""
    requests = [["piv", fam, p1, p2, branch]
                for fam in ("gh", "o")
                for p1 in range(CATALOG_MAX + 1)
                for p2 in range(CATALOG_MAX + 1)
                for branch in (1, 2, 3)
                if _piv_defined(fam, p1, p2, branch)]
    random.Random(seed).shuffle(requests)
    return requests


def standard_elements(parts):
    """Non-negative elements of the standard diagram: lambda_i + length - i."""
    ell = len(parts)
    return {p + ell - i for i, p in enumerate(parts, start=1)}


def girth_at(parts, k):
    """Order of the pseudo-Wronskian of the standard diagram moved to origin k:
    holes of M below k plus elements of M at or above k."""
    elems = standard_elements(parts)
    if k <= 0:
        return len(elems) - k
    return sum(1 for h in range(k) if h not in elems) + sum(1 for e in elems if e >= k)


def girth_walk(parts, slack):
    """{k: girth_at(parts, k)} on a window holding every origin of girth
    <= minimal girth + slack."""
    top = max(standard_elements(parts), default=-1)
    return {k: girth_at(parts, k) for k in range(-slack - 1, top + slack + 2)}


def minimal_girth(parts):
    return min(girth_walk(parts, 0).values())


def _random_partition(rng, size):
    cap = rng.randint(2, size)
    parts = []
    while size:
        p = rng.randint(1, min(size, parts[-1] if parts else cap))
        parts.append(p)
        size -= p
    return tuple(sorted(parts, reverse=True))


def shift_sweep(seed):
    """Random partitions placed at several origins, plus one equivalence each.

    Sizes and minimal girths follow a fixed schedule and only the shapes and
    origins are drawn, so the determinant orders, and with them the cost,
    vary little from seed to seed.  Per partition: two placements at a
    minimal-girth origin, one 2-4 above the minimal girth, one near
    ``SWEEP_MAX_GIRTH``, and ``verify_equivalence`` between the first and, on
    alternate partitions, one or the other raised origin.
    """
    rng = random.Random(seed)
    lo, hi = SWEEP_SIZES
    requests = []
    for j in range(SWEEP_PARTITIONS):
        size = lo + ((hi - lo) * j) // (SWEEP_PARTITIONS - 1)
        r = 2 + j % 3
        while True:
            parts = _random_partition(rng, size)
            if minimal_girth(parts) == r:
                break
        walk = girth_walk(parts, SWEEP_MAX_GIRTH)
        minimal = [k for k, g in walk.items() if g == r]
        placed = [rng.choice(minimal), rng.choice(minimal)]
        for g in (r + 2 + j % 3, SWEEP_MAX_GIRTH - j % 5):
            placed.append(rng.choice([k for k, v in walk.items() if v == g]))
        requests += [["pw", list(parts), k] for k in placed]
        requests.append(["eq", list(parts), placed[0], placed[2 + j % 2]])
    rng.shuffle(requests)
    return requests


def admissible(parts, n):
    """Degree n exists in the family of parts: its insertion position
    n - (size - length) is a hole of the standard diagram."""
    pos = n - (sum(parts) - len(parts))
    return pos >= 0 and pos not in standard_elements(parts)


def _next_admissible(parts, n):
    while not admissible(parts, n):
        n += 1
    return n


def xh_ladder(seed):
    """Each family on a degree ladder that rises past n = 300.

    The low rungs are fixed at LADDER_LOW_TOP * (i/rungs)^2, and low degrees
    that land on the same admissible degree are run once.  Only the high
    rungs are seeded, each within its narrow LADDER_HIGH band: they carry
    most of the time, and the narrow bands keep the cost of a pass nearly
    the same for every seed.  Seeded low rungs moved req_ms.p50 and p90,
    which fall among them, from seed to seed.  The even family also gets
    the norm checks of its two lowest degrees, first in the list.
    """
    rng = random.Random(seed)
    degrees = [(parts, int(LADDER_LOW_TOP * (i / LADDER_LOW_RUNGS) ** 2))
               for parts in LADDER_FAMILIES for i in range(LADDER_LOW_RUNGS)]
    degrees += [(LADDER_FAMILIES[f], rng.randint(lo, hi)) for f, lo, hi in LADDER_HIGH]
    rungs = {(_next_admissible(parts, n), parts) for parts, n in degrees}
    requests = [["xh", list(parts), n] for n, parts in sorted(rungs)]
    even = LADDER_FAMILIES[0]
    d0 = _next_admissible(even, 0)
    d1 = _next_admissible(even, d0 + 1)
    return [["norm", list(even), d0, d0], ["norm", list(even), d0, d1]] + requests


def generate(workload, seed):
    if workload == "catalog":
        return catalog(seed)
    if workload == "shift_sweep":
        return shift_sweep(seed)
    if workload == "xh_ladder":
        return xh_ladder(seed)
    raise ValueError(f"unknown workload {workload!r}")


def reuse_shares(diagrams):
    """Shares of a sequence of (partition, label, girth) diagrams that repeat
    an earlier partition, repeat an earlier labelled diagram, and sit at
    least 2 above their partition's minimal girth."""
    seen_parts, seen_labels, minimal = set(), set(), {}
    repeat_parts = repeat_labels = drop2 = 0
    for parts, label, girth in diagrams:
        if parts not in minimal:
            minimal[parts] = minimal_girth(parts)
        repeat_parts += parts in seen_parts
        repeat_labels += (parts, label) in seen_labels
        drop2 += girth >= minimal[parts] + 2
        seen_parts.add(parts)
        seen_labels.add((parts, label))
    n = max(len(diagrams), 1)
    return {"repeat_partition_frac": repeat_parts / n,
            "repeat_diagram_frac": repeat_labels / n,
            "drop2_frac": drop2 / n}


def properties(workload, requests):
    """Shares of the request list that the optimizations on the roadmap act on.

    These are request-level; the traced run reports the same shares over
    the library calls it recorded.
    """
    props = {"requests": len(requests)}
    if workload == "catalog":
        props["o_family_frac"] = sum(1 for r in requests if r[1] == "o") / len(requests)
        props["max_param"] = max(max(r[2], r[3]) for r in requests)
    elif workload == "shift_sweep":
        diagrams = [(tuple(r[1]), k, girth_at(r[1], k))
                    for r in requests for k in (r[2:3] if r[0] == "pw" else r[2:4])]
        props["diagrams"] = len(diagrams)
        props.update(reuse_shares(diagrams))
    elif workload == "xh_ladder":
        ladder = [r for r in requests if r[0] == "xh"]
        props["n_gt300_frac"] = sum(1 for r in ladder if r[2] > 300) / len(ladder)
        props["max_degree"] = max(r[2] for r in ladder)
    return props
