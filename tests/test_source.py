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
                  if isinstance(node, ast.Assert)]
    assert not found, found
