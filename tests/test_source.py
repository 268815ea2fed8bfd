import ast
from pathlib import Path

import hermitepw

SRC = Path(hermitepw.__file__).parent


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so a check that guards a result
    # must raise a real exception instead
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
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
