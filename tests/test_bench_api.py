"""The parts of regionknot that the benchmark under ``bench/`` relies on.

The benchmark imports names from the package, calls functions through their
modules and wraps public functions where their modules hold them. A cleanup
that renames or reshapes one of these breaks the benchmark; this module
fails first.
"""

import ast
import importlib
import inspect
from pathlib import Path

import regionknot
from regionknot import delete_columns, invert_square, rational_diagram, rcc_map

BENCH = Path(__file__).resolve().parents[1] / "bench"
SCRIPTS = ("check.py", "gen.py", "worker.py")

# Functions the traced run wraps at their module globals and reads results of.
TRACED = (
    "boolalg.build_restricted",
    "boolalg.verify_axioms",
    "boolalg.verify_homomorphism",
    "catalog.load_catalog",
    "cli.main",
    "diagram.faces",
    "diagram.parse_pd",
    "rcc.phi",
    "rcc.rcc_map",
    "rcc.solve_avoiding",
    "rcc.solve_for_crossings",
    "rcc.splice_solution",
    "unknotting.jones_normalized",
    "unknotting.kauffman_bracket",
    "unknotting.region_unknotting_number",
    "unknotting.small_unknotting_set",
)


def _used_names() -> set[str]:
    """``name`` for each ``from regionknot import name`` in the scripts, and
    ``module.attr`` for each attribute read through such a name."""
    used = set()
    for script in SCRIPTS:
        tree = ast.parse((BENCH / script).read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "regionknot":
                imported |= {alias.asname or alias.name for alias in node.names}
        used |= imported
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in imported
            ):
                used.add(f"{node.value.id}.{node.attr}")
    return used


# Where callers look those functions up: (calling module, defining module,
# name). The traced run rebinds the name there, so a call that bypasses it
# goes untimed.
CALL_SITES = (
    ("cli", "boolalg", "build_restricted"),
    ("cli", "boolalg", "verify_axioms"),
    ("cli", "boolalg", "verify_homomorphism"),
    ("cli", "unknotting", "region_unknotting_number"),
    ("cli", "unknotting", "small_unknotting_set"),
    ("rcc", "gf2", "right_inverse"),
    ("unknotting", "rcc", "phi"),
    ("unknotting", "rcc", "rcc_map"),
)


def _module(name: str):
    return importlib.import_module(f"regionknot.{name}")


def _resolve(dotted: str):
    """What ``from regionknot import head`` and then ``head.attr`` give."""
    head, _, attr = dotted.partition(".")
    obj = getattr(regionknot, head) if hasattr(regionknot, head) else _module(head)
    return getattr(obj, attr) if attr else obj


def test_benchmark_names_exist():
    used = _used_names()
    assert {"cli", "rcc.solve_avoiding", "parse_pd", "invert_square"} <= used
    for name in sorted(used):
        assert callable(_resolve(name)) or inspect.ismodule(_resolve(name)), name


def test_traced_names_are_module_functions():
    for dotted in TRACED:
        module_name, name = dotted.split(".")
        module = _module(module_name)
        fn = getattr(module, name)
        assert inspect.isfunction(inspect.unwrap(fn)), dotted
        assert fn.__module__ == module.__name__, dotted
    assert callable(_module("unknotting").kauffman_bracket.cache_info)
    for caller, owner, name in CALL_SITES:
        assert getattr(_module(caller), name) is getattr(_module(owner), name), (caller, name)


def test_inverse_rows_are_ints():
    m = rcc_map(rational_diagram([2, 3, 1, 2]))
    b, w = min(m.coloring.black), min(m.coloring.white)
    rows = invert_square(delete_columns(m.matrix, {b, w})).row_bits
    assert isinstance(rows, tuple)
    assert all(type(r) is int for r in rows)
