import ast
import subprocess
import sys
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


def test_every_error_type_is_raised_in_the_package():
    # an error type that nothing raises is dead code that callers may
    # still try to catch; a base class is raised through its subclasses
    errors = ast.parse((SOURCE / "errors.py").read_text())
    bases = {
        node.name: [b.id for b in node.bases]
        for node in errors.body
        if isinstance(node, ast.ClassDef)
    }
    assert bases
    raised = set()
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", getattr(exc, "attr", None)))
    for name in list(raised):
        while name in bases:
            raised.add(name)
            name = bases[name][0]
    assert sorted(bases.keys() - raised) == []


def test_cli_imports_only_what_a_run_executes():
    # every run pays the CLI's import time, so modules that only some
    # paths use (or none) are imported where they are used
    unwanted = ("dataclasses", "inspect", "logging", "fractions", "decimal", "csv", "random")
    code = (
        f"import sys; sys.path.insert(0, {str(SOURCE.parent)!r}); import plumbhf.cli; "
        f"print(' '.join(m for m in {unwanted!r} if m in sys.modules))"
    )
    # -S: no site hooks, so only the package's own imports count
    run = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == []
