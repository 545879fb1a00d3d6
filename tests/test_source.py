"""Rules on the package source, checked on its syntax trees."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "psolve"


def test_no_assert_statements():
    """Soundness checks raise: ``python -O`` strips ``assert`` statements,
    and with them any check written as one."""
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
