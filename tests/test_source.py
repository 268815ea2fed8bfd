import ast
import importlib
import sys
from pathlib import Path

import pytest

import hermitepw

SRC = Path(hermitepw.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"

# Each module may import only from modules of an earlier layer.
LAYERS = (
    {"maya", "polys"},
    {"minorder", "determinant"},
    {"hermite"},
    {"xhermite", "painleve"},
    {"cli"},
)


def _modules():
    for path in sorted(SRC.glob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so a check that guards a result
    # must raise a real exception instead
    found = []
    for path, tree in _modules():
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert) or _raises_assertion_error(node)]
    assert not found, found


def _raises_assertion_error(node):
    # raising AssertionError by hand looks like a stripped assert to
    # callers; result checks raise ArithmeticError
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def _layer(name):
    return next(i for i, layer in enumerate(LAYERS) if name in layer)


def test_layer_order():
    # the package __init__ re-exports every layer, so it is exempt
    bad = []
    for path, tree in _modules():
        if path.stem == "__init__":
            continue
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.level == 1):
                continue
            # "from .x import y" names x; "from . import x, y" names x and y
            targets = [node.module] if node.module else [a.name for a in node.names]
            bad += [f"{path.stem} imports {t}" for t in targets
                    if _layer(t) >= _layer(path.stem)]
    assert not bad, bad


def test_every_exported_name_resolves():
    missing = []
    for path, _ in _modules():
        name = "hermitepw" if path.stem == "__init__" else f"hermitepw.{path.stem}"
        module = importlib.import_module(name)
        missing += [f"{name}.{n}" for n in getattr(module, "__all__", ())
                    if not hasattr(module, n)]
    assert not missing, missing


def _imports_mpmath(node):
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] == "mpmath" for a in node.names)
    return (isinstance(node, ast.ImportFrom) and node.level == 0
            and node.module.split(".")[0] == "mpmath")


def test_numerics_quarantined_in_xhermite():
    # no module imports mpmath, and the exact kernel of polys holds no
    # float, no float literal and no mpf
    bad = [f"{path.stem}:{node.lineno} imports mpmath" for path, tree in _modules()
           for node in ast.walk(tree) if _imports_mpmath(node)]
    tree = ast.parse((SRC / "polys.py").read_text())
    for node in ast.walk(tree):
        names = [getattr(node, attr, None) for attr in ("id", "attr", "name", "arg")]
        if isinstance(node, ast.alias):
            names.append(node.asname)
        bad += [f"polys:{getattr(node, 'lineno', '?')} names {n}" for n in names
                if isinstance(n, str) and (n == "float" or "mpf" in n.lower())]
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            bad.append(f"polys:{node.lineno} float literal {node.value!r}")
    assert not bad, bad


# math functions that return floats
FLOAT_MATH = {"log", "log2", "log10", "log1p", "exp", "expm1", "sqrt", "pow", "pi", "e",
              "floor", "ceil", "fsum", "hypot"}


def test_only_float_is_the_reported_error():
    # the norm check is exact: the one float the package makes is
    # NormReport.rel_error, float(rel) or 0.0
    calls, literals, bad = [], [], []
    for path, tree in _modules():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in FLOAT_MATH
                    and isinstance(node.value, ast.Name) and node.value.id == "math"):
                bad.append(f"{path.stem}:{node.lineno} math.{node.attr}")
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "float"):
                calls.append((path.stem, ast.unparse(node)))
            elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                literals.append((path.stem, node.value))
    assert not bad, bad
    assert calls == [("xhermite", "float(rel)")]
    assert sorted(literals) == [("xhermite", 0.0)]


def test_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    assert project["dependencies"] == []


_ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb"}


def test_no_setting_is_read_from_the_environment():
    # the library has no knobs: its constants (the determinant's clearing
    # bound, the memo sizes) are fixed in the source, so no module reads
    # os.environ or os.getenv
    found = []
    for path, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in _ENVIRONMENT_NAMES:
                found.append(f"{path.stem}:{node.lineno} .{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                found += [f"{path.stem}:{node.lineno} from os import {a.name}"
                          for a in node.names if a.name in _ENVIRONMENT_NAMES | {"*"}]
    assert not found, found


@pytest.mark.parametrize("source, ok", [
    ("import os\nSEP = os.sep\n", True),
    ("import os\nN = int(os.environ.get('N', 2))\n", False),
    ("import os\nN = os.getenv('N')\n", False),
    ("from os import environ\n", False),
    ("from os import getenv as g\n", False),
], ids=["sep", "environ", "getenv", "import_environ", "import_getenv"])
def test_environment_guard_reads_its_cases(monkeypatch, tmp_path, source, ok):
    (tmp_path / "m.py").write_text(source)
    monkeypatch.setattr(sys.modules[__name__], "SRC", tmp_path)
    if ok:
        test_no_setting_is_read_from_the_environment()
    else:
        with pytest.raises(AssertionError):
            test_no_setting_is_read_from_the_environment()


def test_hermite_stays_in_integer_polynomials():
    # Darboux steps are checked as identities in Z[x]: hermite never
    # builds a rational function
    tree = ast.parse((SRC / "hermite.py").read_text())
    bad = [f"hermite:{node.lineno} imports RatFunc" for node in ast.walk(tree)
           if isinstance(node, (ast.Import, ast.ImportFrom))
           and any(a.name.split(".")[-1] == "RatFunc" for a in node.names)]
    bad += [f"hermite:{node.lineno} names RatFunc" for node in ast.walk(tree)
            if (isinstance(node, ast.Name) and node.id == "RatFunc")
            or (isinstance(node, ast.Attribute) and node.attr == "RatFunc")]
    assert not bad, bad


# What polys.RatFunc may define: the reduced value, and the subtraction
# and integer scaling of the xh_ladder benchmark check; a PIV solution is
# printed from PivSolution.t_form
RATFUNC_NAMES = {
    "__doc__", "__slots__", "__init__", "_reduce", "is_zero", "__eq__", "__hash__",
    "__sub__", "__rmul__", "__repr__",
}


def test_ratfunc_keeps_no_field_arithmetic():
    # the field operations are the test oracle (tests/ratfield.py)
    tree = ast.parse((SRC / "polys.py").read_text())
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "RatFunc")
    defined = set()
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            defined.add("__doc__")
        else:
            defined.add(f"<{type(node).__name__} at line {node.lineno}>")
    assert defined <= RATFUNC_NAMES, sorted(defined - RATFUNC_NAMES)


def test_polys_imports_no_fraction():
    tree = ast.parse((SRC / "polys.py").read_text())
    bad = [f"polys:{node.lineno} imports fractions" for node in ast.walk(tree)
           if (isinstance(node, ast.ImportFrom) and node.module == "fractions")
           or (isinstance(node, ast.Import)
               and any(a.name == "fractions" for a in node.names))]
    bad += [f"polys:{node.lineno} names Fraction" for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == "Fraction"]
    assert not bad, bad


def test_painleve_builds_one_ratfunc_per_solution():
    # y is built in Z[x] and reduced once: both solution builders end in
    # _solution, which calls RatFunc exactly once, and nothing else names
    # it but the import and the annotation of PivSolution.y
    tree = ast.parse((SRC / "painleve.py").read_text())
    allowed, calls = set(), {}
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == "PivSolution":
            allowed.update(id(n) for stmt in node.body if isinstance(stmt, ast.AnnAssign)
                           for n in ast.walk(stmt.annotation))
        if isinstance(node, ast.FunctionDef):
            found = [n.func for n in ast.walk(node) if isinstance(n, ast.Call)
                     and isinstance(n.func, ast.Name) and n.func.id == "RatFunc"]
            if found:
                calls[node.name] = len(found)
                allowed.update(map(id, found))
    assert calls == {"_solution": 1}, calls
    bad = [f"painleve:{node.lineno} names RatFunc" for node in ast.walk(tree)
           if ((isinstance(node, ast.Name) and node.id == "RatFunc")
               or (isinstance(node, ast.Attribute) and node.attr == "RatFunc"))
           and id(node) not in allowed]
    assert not bad, bad


def _functools_uses(tree):
    """(node, name) for each reference to functools.<name>, or to a name
    imported from functools, with a parent map of the tree."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    imported = {a.asname or a.name: a.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "functools"
                for a in node.names}
    uses = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "functools"):
            uses.append((node, node.attr))
        elif isinstance(node, ast.Name) and node.id in imported:
            uses.append((node, imported[node.id]))
    return uses, parents


def _int_constants(tree):
    """Module-level names bound once to an int literal."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            name, value = node.targets[0].id, node.value
            ok = isinstance(value, ast.Constant) and type(value.value) is int
            bound[name] = ok and name not in bound
    return {name for name, ok in bound.items() if ok}


def test_memos_are_bounded():
    # peak memory is gated, so every lru_cache names its bound as a module
    # constant bound once to an integer, where the measured reason for the
    # bound can stand, never as a bare literal; the unbounded functools.cache
    # holds at most one entry: it may only decorate a function of no arguments
    bad = []
    for path, tree in _modules():
        uses, parents = _functools_uses(tree)
        constants = _int_constants(tree)
        for node, name in uses:
            where = f"{path.stem}:{node.lineno}"
            parent = parents.get(node)
            if name == "lru_cache":
                call = parent if isinstance(parent, ast.Call) and parent.func is node else None
                size = None
                if call is not None:
                    size = next((k.value for k in call.keywords if k.arg == "maxsize"),
                                call.args[0] if call.args else None)
                if not (isinstance(size, ast.Name) and size.id in constants):
                    bad.append(f"{where} lru_cache without a named integer maxsize")
            elif name == "cache":
                args = parent.args if isinstance(parent, ast.FunctionDef) else None
                if args is None or node not in parent.decorator_list or any(
                        (args.posonlyargs, args.args, args.kwonlyargs, args.vararg, args.kwarg)):
                    bad.append(f"{where} functools.cache off a zero-argument function")
    assert not bad, bad


@pytest.mark.parametrize("source, ok", [
    ("import functools\n@functools.lru_cache(maxsize=16)\ndef f(n): pass\n", False),
    ("import functools\nN = 8\n@functools.lru_cache(maxsize=N)\ndef f(n): pass\n", True),
    ("import functools\nf = functools.lru_cache(32)(len)\n", False),
    ("import functools\nN = 32\nf = functools.lru_cache(N)(len)\n", True),
    ("import functools\n@functools.cache\ndef f(): pass\n", True),
    ("import functools\n@functools.lru_cache\ndef f(n): pass\n", False),
    ("import functools\n@functools.lru_cache(maxsize=None)\ndef f(n): pass\n", False),
    ("import functools\n@functools.lru_cache()\ndef f(n): pass\n", False),
    ("import functools\nN = 8\nN = 9\n@functools.lru_cache(maxsize=N)\ndef f(n): pass\n", False),
    ("from functools import lru_cache\n@lru_cache(maxsize=None)\ndef f(n): pass\n", False),
    ("import functools\n@functools.cache\ndef f(n): pass\n", False),
    ("from functools import cache\ng = cache(len)\n", False),
], ids=["literal", "constant", "call", "call_constant", "cache", "bare", "none", "default", "rebound",
        "imported", "cache_with_argument", "cache_call"])
def test_memo_guard_reads_its_cases(monkeypatch, tmp_path, source, ok):
    (tmp_path / "m.py").write_text(source)
    monkeypatch.setattr(sys.modules[__name__], "SRC", tmp_path)
    if ok:
        test_memos_are_bounded()
    else:
        with pytest.raises(AssertionError):
            test_memos_are_bounded()


# Names of src/hermitepw that no production code reaches but that state a
# result of the paper, each with the test that checks that result
PAPER_RESULTS = {
    "maya.rim": "tests/test_maya.py::TestRim::test_rim_equals_positive_bent_part",
    "maya.MayaDiagram.bent_point": "tests/test_maya.py::TestBentDiagram::test_step_rule",
    "minorder.inside_corners": "tests/test_minorder.py::TestInsideCorners::test_against_cell_rule",
    "hermite.conjugate_wronskian_identity":
        "tests/test_hermite.py::TestConjugateIdentity::test_all_small_partitions",
    "hermite.one_step_shift_check":
        "tests/test_hermite.py::TestEquivalence::test_step_constants_compose_to_factor",
    "hermite.darboux_step": "tests/test_painleve.py::TestChainSteps::test_random_flips_match_oracle",
    "painleve.three_cycle": "tests/test_painleve.py::TestThreeCycle::test_gh_cycle",
    "painleve.min_order_gh": "tests/test_painleve.py::TestMinOrder::test_orders_match_brute_force",
    "painleve.min_order_o": "tests/test_painleve.py::TestMinOrder::test_orders_match_brute_force",
}


def _references(tree):
    """Each name and each attribute name that a tree reads, with its node."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node


def _definitions():
    """(path, qualified name, node) for each top-level function or class and
    each non-dunder method of the package."""
    for path, tree in _modules():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield path, node.name, node
            if isinstance(node, ast.ClassDef):
                yield from ((path, f"{node.name}.{sub.name}", sub) for sub in node.body
                            if isinstance(sub, ast.FunctionDef)
                            and not (sub.name.startswith("__") and sub.name.endswith("__")))


def _tracer_targets(tree):
    """The dotted parts of the strings in perfbench's ``TARGETS``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            for const in ast.walk(node.value):
                if isinstance(const, ast.Constant) and isinstance(const.value, str):
                    yield from const.value.split(".")


def _unreached():
    """Qualified names of the package's definitions with no production caller."""
    # the package __init__ only re-exports, and __all__ holds strings
    in_src = [(name, path, node.lineno) for path, tree in _modules() if path.stem != "__init__"
              for name, node in _references(tree)]
    outside = set()
    for folder in ("scripts", "perfbench"):
        for path in sorted((ROOT / folder).glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            outside.update(name for name, _ in _references(tree))
            if path.name == "tracer.py":
                outside.update(_tracer_targets(tree))
    unreached = []
    for path, qualname, node in _definitions():
        name = qualname.rpartition(".")[2]
        # a reference inside the definition itself (recursion) is no caller
        called = name in outside or any(
            n == name and not (p == path and node.lineno <= line <= node.end_lineno)
            for n, p, line in in_src)
        if not called:
            unreached.append(f"{path.stem}.{qualname}")
    return unreached


def _test_exists(nodeid):
    path, *names = nodeid.split("::")
    scope = ast.parse((ROOT / path).read_text()).body
    for name in names:
        node = next((n for n in scope if isinstance(n, (ast.FunctionDef, ast.ClassDef))
                     and n.name == name), None)
        if node is None:
            return False
        scope = node.body
    return True


def test_src_names_have_a_production_caller():
    """Every top-level function or class and every non-dunder method of
    src/hermitepw is referenced from production code: from src/ outside its
    own definition, __all__ and the package re-exports, from scripts/, or
    from perfbench/, whose tracer names its targets in "module.attr"
    strings.  A name with no such reference is kept only as a result of the
    paper, listed in PAPER_RESULTS with the test that checks it.

    References are matched by name alone, so an attribute read counts for
    every method of that name: a ``to_json`` called on one class keeps the
    ``to_json`` of every class.
    """
    unreached = _unreached()
    assert sorted(set(unreached) - set(PAPER_RESULTS)) == []
    # an entry whose name gained a caller, or whose test is gone, is stale
    assert sorted(set(PAPER_RESULTS) - set(unreached)) == []
    assert [t for t in PAPER_RESULTS.values() if not _test_exists(t)] == []
