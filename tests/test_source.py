"""Properties of the library source itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "regionknot"


def test_no_assert_statements():
    # python -O strips assert statements, and a bare AssertionError is no
    # contract either: both must be typed raises
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, found
    assert len(list(SRC.glob("*.py"))) >= 9  # the walk saw the package


def test_caches_are_bounded():
    # an unbounded cache keeps every distinct diagram a process has met
    found = []
    decorators = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                for dec in node.decorator_list:
                    text = ast.unparse(dec).removeprefix("functools.")
                    decorators.append(text)
                    if text == "cache" or "maxsize=None" in text or text.startswith("lru_cache(None"):
                        found.append(f"{path.name}:{dec.lineno}")
    assert not found, found
    assert "lru_cache(maxsize=256)" in decorators  # the walk saw the caches


def _reference_imports(tree: ast.AST) -> list[int]:
    """Lines of ``tree`` that import the ``reference`` module or a name
    from it, relatively or absolutely."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            dotted = [base] + [f"{base}.{alias.name}".lstrip(".") for alias in node.names]
        else:
            continue
        if any("reference" in name.split(".") for name in dotted):
            found.append(node.lineno)
    return found


def test_runtime_never_imports_reference():
    # the slow references check the runtime; they must never become part of it
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name != "__init__.py":
            found += [f"{path.name}:{n}" for n in _reference_imports(ast.parse(path.read_text()))]
    assert not found, found
    assert _reference_imports(ast.parse((SRC / "__init__.py").read_text()))  # the walk sees imports


def test_import_loads_no_dataclass_machinery():
    # dataclasses pulls in inspect, ast, dis and tokenize: thousands of lines
    # of stdlib that every process compiles when no bytecode is cached. The
    # check needs a fresh interpreter (pytest has imported them all), and -S
    # keeps site customizations out of it.
    banned = ["dataclasses", "inspect", "ast", "dis", "tokenize"]
    code = f"import sys, regionknot, regionknot.cli; print(*(m for m in {banned!r} if m in sys.modules))"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    run = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout.split() == []
