"""No check in the library is an ``assert`` statement, which ``python -O`` strips."""

import ast
import pathlib

import lctlab

SOURCES = sorted(pathlib.Path(lctlab.__file__).parent.glob("*.py"))


def test_library_has_no_assert_statements():
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
