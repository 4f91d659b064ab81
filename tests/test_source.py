import ast
import re
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


# a child's CLI run: stdout captured, so the child prints only what a test reads
RUN_CLI = """
import io
def run_cli(argv):
    sys.stdout = io.StringIO()
    code = plumbhf.cli.main(argv)
    out, sys.stdout = sys.stdout.getvalue(), sys.__stdout__
    assert code == 0, code
    return out
"""


def _child(code: str, *flags: str) -> str:
    """stdout of a child that runs ``code`` with src/ first on its path."""
    prelude = f"import sys\nsys.path.insert(0, {str(SOURCE.parent)!r})\n"
    run = subprocess.run([sys.executable, *flags, "-c", prelude + code],
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return run.stdout


def _loaded_after(argv: list[str] | None, watched: tuple[str, ...]) -> list[str]:
    """The ``watched`` modules a -S child has loaded after ``import plumbhf.cli``
    and, given ``argv``, one CLI run."""
    run = "" if argv is None else f"{RUN_CLI}run_cli({argv!r})\n"
    # -S: no site hooks, so only the package's own imports count
    out = _child(f"import plumbhf.cli\n{run}"
                 f"print(' '.join(m for m in {watched!r} if m in sys.modules))\n", "-S")
    return out.split()


def test_cli_imports_only_what_a_run_executes(tmp_path):
    # every run pays the CLI's import time, so modules that only some
    # paths use (or none) are imported where they are used: sha256 comes
    # without OpenSSL, JSON is decoded only where there is JSON to read,
    # and the S^3 harness loads only for s3
    unwanted = ("dataclasses", "inspect", "logging", "fractions", "decimal", "csv", "random",
                "hashlib", "_hashlib", "json", "plumbhf.s3", "typing")
    assert _loaded_after(None, unwanted) == []
    cache = tmp_path / "cache.jsonl"
    cache.write_bytes(b"")
    survey = ["survey", "--max-a", "7", "--cache", str(cache)]
    assert _loaded_after(["brieskorn", "3", "4", "11"], unwanted) == []
    assert _loaded_after(survey, unwanted) == []  # cold: nothing to decode
    assert cache.read_bytes().count(b"\n") == 8  # one line per coprime triple
    # positive controls: the same check sees a decode and the harness
    graph_file = tmp_path / "g.json"
    graph_file.write_text('{"vertices": [{"id": 0, "weight": -1}], "edges": []}')
    assert _loaded_after(survey, ("json",)) == ["json"]  # warm: eight lines decoded
    assert _loaded_after(["analyze", str(graph_file)], ("json",)) == ["json"]
    assert _loaded_after(["s3", "--bound", "8"], ("plumbhf.s3",)) == ["plumbhf.s3"]


def test_builtin_sha256_and_string_encoder_fall_back_to_the_stdlib():
    # without CPython's builtin _sha2/_sha256 and _json, the hash comes from
    # hashlib and the string encoder from json.encoder, with the same bytes
    code = "import plumbhf.cli\n" + RUN_CLI + """
import plumbhf.graph, plumbhf.report
from plumbhf.seifert import coprime_tuples, sigma_star
print(plumbhf.graph.sha256.__module__, plumbhf.report.encode_basestring_ascii.__module__)
print([sigma_star(t).canonical_hash for rays in (2, 3, 4) for t in coprime_tuples(12, rays)])
print(run_cli(["brieskorn", "9", "17", "19"]))
print(run_cli(["survey", "--max-a", "12"]))
"""
    default, fallback = (
        re.sub(r'"elapsed_ms": \d+', "", _child(block + code)).split("\n", 1)
        for block in ("", "sys.modules.update(_sha2=None, _sha256=None, _json=None)\n")
    )
    assert default[0].split() in (["_sha2", "_json"], ["_sha256", "_json"])
    assert fallback[0].split() == ["_hashlib", "json.encoder"]
    assert len(default[1]) > 30_000  # the hashes and both outputs
    assert fallback[1] == default[1]
