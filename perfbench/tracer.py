"""Per-layer tracing of ``hermitepw`` from outside the library.

``Tracer.install`` wraps public functions of each layer where their callers
look them up: a module-level function is replaced in every ``hermitepw``
module that holds it (several import by name), and a method is replaced on
its class under every attribute bound to it (``IntPoly.__rmul__`` is
``__mul__``).  Each call records a span (name, start, end, parent span,
request id) in memory; self time is a span's duration minus that of its
direct child spans.  A name missing at some commit is skipped and its
metrics read zero.
"""

from __future__ import annotations

import sys
import time

import workloads

# (metric prefix, module, attribute path) in layer order.
TARGETS = (
    ("maya.MayaDiagram.shift", "maya", "MayaDiagram.shift"),
    ("polys.IntPoly.mul", "polys", "IntPoly.__mul__"),
    ("polys.IntPoly.mul", "polys", "IntPoly.__rmul__"),
    ("polys.IntPoly.divmod", "polys", "IntPoly.divmod"),
    ("polys.poly_gcd", "polys", "poly_gcd"),
    ("polys.RatFunc.init", "polys", "RatFunc.__init__"),
    ("polys.sqrt3_log_derivative_term", "polys", "sqrt3_log_derivative_term"),
    ("determinant.det", "determinant", "det"),
    ("hermite.hermite_poly", "hermite", "hermite_poly"),
    ("hermite.conj_hermite_poly", "hermite", "conj_hermite_poly"),
    ("hermite.pseudo_wronskian", "hermite", "pseudo_wronskian"),
    ("hermite.wronskian", "hermite", "wronskian"),
    ("hermite.equivalence_factor", "hermite", "equivalence_factor"),
    ("hermite.verify_equivalence", "hermite", "verify_equivalence"),
    ("minorder.minimal_girth_of_diagram", "minorder", "minimal_girth_of_diagram"),
    ("minorder.xhermite_min_origin", "minorder", "xhermite_min_origin"),
    ("xhermite.exceptional_hermite", "xhermite", "exceptional_hermite"),
    ("xhermite.eigen_check", "xhermite", "eigen_check"),
    ("xhermite.min_order_form", "xhermite", "min_order_form"),
    ("xhermite.weight_and_norm_check", "xhermite", "weight_and_norm_check"),
    ("painleve.piv_solution_gh", "painleve", "piv_solution_gh"),
    ("painleve.piv_solution_o", "painleve", "piv_solution_o"),
    ("painleve.verify_piv", "painleve", "verify_piv"),
)

NAMES = tuple(dict.fromkeys(name for name, _, _ in TARGETS))

# Extra per-layer counts: metric name -> unit.
EXTRAS = {
    "polys.IntPoly.mul.coeff_pairs": "count",
    "polys.IntPoly.mul.max_bits": "bit",
    "determinant.det.total_s": "s",
    "hermite.hermite_poly.total_s": "s",
    "determinant.det.order_max": "rows",
    "determinant.det.calls_order_le3": "count",
    "determinant.det.calls_order_4_8": "count",
    "determinant.det.calls_order_ge9": "count",
    "hermite.table.max_index": "index",
    "hermite.pseudo_wronskian.repeat_partition_frac": "ratio",
    "hermite.pseudo_wronskian.repeat_diagram_frac": "ratio",
    "hermite.pseudo_wronskian.drop2_frac": "ratio",
    "xhermite.exceptional_hermite.n_gt300_frac": "ratio",
}


def metric_units():
    """Every per-layer metric this module reports, with its unit."""
    units = {}
    for name in NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(EXTRAS)
    return units


def _bits(p):
    if isinstance(p, int):
        return p.bit_length()
    return max(map(int.bit_length, p.coeffs), default=0)


def _resolve(module, path):
    """(owner, attribute, object) or None when the name does not exist."""
    owner = sys.modules.get(f"hermitepw.{module}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    if owner is None:
        return None
    obj = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    return None if obj is None else (owner, attr, obj)


class Tracer:
    def __init__(self):
        self.spans = []      # [name index, start, end, parent index, request id]
        self.stack = []
        self.request = -1
        self.args = {name: [] for name in NAMES}   # recorded arguments
        self.mul_pairs = 0
        self.mul_bits = 0
        self._undo = []

    def _wrap(self, index, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        record = self._recorder(name)

        def traced(*args, **kwargs):
            if record is not None:
                record(args)
            i = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(i)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[i] = (index, start, clock(), parent, self.request)
                stack.pop()

        traced.perfbench_traced = True
        return traced

    def _recorder(self, name):
        """Argument recorder for a wrapped name, or None."""
        if name == "polys.IntPoly.mul":
            return self._record_mul
        pick = {
            "determinant.det": lambda args: len(args[0]),
            "hermite.hermite_poly": lambda args: args[0],
            "hermite.conj_hermite_poly": lambda args: args[0],
            "hermite.pseudo_wronskian": lambda args: (args[0].s, args[0].t),
            "xhermite.exceptional_hermite": lambda args: args[1],
        }.get(name)
        if pick is None:
            return None
        store = self.args[name].append
        return lambda args: store(pick(args))

    def _record_mul(self, args):
        a, b = args
        self.mul_pairs += len(a.coeffs) * (1 if isinstance(b, int) else len(b.coeffs))
        self.mul_bits = max(self.mul_bits, _bits(a), _bits(b))

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "hermitepw" or key.startswith("hermitepw."))]
        for name, module, path in TARGETS:
            found = _resolve(module, path)
            if found is None:
                continue
            owner, attr, fn = found
            if getattr(fn, "perfbench_traced", False):
                continue
            traced = self._wrap(NAMES.index(name), name, fn)
            holders = [owner] if isinstance(owner, type) else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        self._undo.append((holder, key, fn))
                        setattr(holder, key, traced)

    def uninstall(self):
        for holder, key, fn in reversed(self._undo):
            setattr(holder, key, fn)
        self._undo.clear()

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\trequest\n")
            for index, start, end, parent, request in self.spans:
                fh.write(f"{NAMES[index]}\t{start:.9f}\t{end:.9f}\t{parent}\t{request}\n")

    def metrics(self, partition_of):
        """Per-layer metrics of everything recorded; ``partition_of((s, t))``
        gives the partition of a recorded diagram."""
        n = len(NAMES)
        calls, self_s, total_s = [0] * n, [0.0] * n, [0.0] * n
        child = [0.0] * len(self.spans)
        for index, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (index, start, end, _, _) in enumerate(self.spans):
            calls[index] += 1
            total_s[index] += end - start
            self_s[index] += end - start - child[i]
        out = {}
        for i, name in enumerate(NAMES):
            out[f"{name}.calls"] = calls[i]
            out[f"{name}.self_s"] = self_s[i]

        orders = self.args["determinant.det"]
        out["polys.IntPoly.mul.coeff_pairs"] = self.mul_pairs
        out["polys.IntPoly.mul.max_bits"] = self.mul_bits
        out["determinant.det.total_s"] = total_s[NAMES.index("determinant.det")]
        out["hermite.hermite_poly.total_s"] = total_s[NAMES.index("hermite.hermite_poly")]
        out["determinant.det.order_max"] = max(orders, default=0)
        out["determinant.det.calls_order_le3"] = sum(1 for o in orders if o <= 3)
        out["determinant.det.calls_order_4_8"] = sum(1 for o in orders if 4 <= o <= 8)
        out["determinant.det.calls_order_ge9"] = sum(1 for o in orders if o >= 9)
        indices = self.args["hermite.hermite_poly"] + self.args["hermite.conj_hermite_poly"]
        out["hermite.table.max_index"] = max([*indices, self._table_top()])

        diagrams = [(partition_of(st), st, len(st[0]) + len(st[1]))
                    for st in self.args["hermite.pseudo_wronskian"]]
        for key, share in workloads.reuse_shares(diagrams).items():
            out[f"hermite.pseudo_wronskian.{key}"] = share
        degrees = self.args["xhermite.exceptional_hermite"]
        out["xhermite.exceptional_hermite.n_gt300_frac"] = (
            sum(1 for d in degrees if d > 300) / len(degrees) if degrees else 0.0)
        return out

    def _table_top(self):
        """High-water mark of the memoized Hermite tables, when they exist."""
        cache = getattr(sys.modules.get("hermitepw.hermite"), "CACHE", None)
        tables = [getattr(cache, attr, None) for attr in ("_h", "_th")]
        return max((len(t) - 1 for t in tables if isinstance(t, list)), default=0)
