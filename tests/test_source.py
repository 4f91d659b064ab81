import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "plumbhf"


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so every check in the package
    # raises an exception of its own instead
    files = sorted(SOURCE.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
