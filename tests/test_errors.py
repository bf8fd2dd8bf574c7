"""The error classes and the export list are chosen on purpose.

Each kind of bad input has one error class, all of them under
AntimagicError, and no toolkit module raises a builtin exception except
where a Python protocol asks for one. The package exports exactly what it
imports, and everything the benchmark calls on it.
"""

from __future__ import annotations

import ast
import builtins
import inspect
import re
from pathlib import Path

import antimagic
from antimagic import errors

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "antimagic"

ERROR_CLASSES = {
    "AntimagicError",
    "InvalidGraph",
    "ParseError",
    "CertificateError",
    "BadParameters",
    "InvalidLabeling",
    "WrongGraphClass",
    "InvalidTrails",
    "BudgetExceeded",
    "NoSddsFound",
}

# (module, enclosing function, exception): raises that a Python protocol
# asks for, not reports of bad input; argparse's `error` must not return
PROTOCOL_RAISES = {
    ("graph.py", "__setattr__", "AttributeError"),
    ("cli.py", "error", "SystemExit"),
}


def test_errors_defines_exactly_the_ten_classes():
    defined = {
        name
        for name, obj in vars(errors).items()
        if inspect.isclass(obj) and obj.__module__ == errors.__name__
    }
    assert defined == ERROR_CLASSES
    for name in defined:
        assert issubclass(getattr(errors, name), errors.AntimagicError), name


def builtin_raises(path: Path) -> set[tuple[str, str, str]]:
    """(module, enclosing function, exception) for each raise of a builtin
    exception in one source file."""
    found = set()

    def visit(node: ast.AST, func: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = exc.id if isinstance(exc, ast.Name) else None
            if name is not None and isinstance(getattr(builtins, name, None), type):
                found.add((path.name, func, name))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return found


def test_no_builtin_exception_is_raised_outside_protocols():
    raised = set()
    for path in sorted(SRC.glob("*.py")):
        raised |= builtin_raises(path)
    assert raised == PROTOCOL_RAISES


def test_the_scan_sees_builtin_raises(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "def f(x):\n    if x:\n        raise ValueError(x)\n    raise TypeError\n",
        encoding="utf-8",
    )
    assert builtin_raises(path) == {("probe.py", "f", "ValueError"), ("probe.py", "f", "TypeError")}


def imported_names() -> list[str]:
    """Names the package's __init__ imports from its own modules."""
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
    ]


def test_all_lists_each_imported_name_once():
    assert len(set(antimagic.__all__)) == len(antimagic.__all__)
    assert sorted(antimagic.__all__) == sorted(imported_names())


def test_all_covers_every_name_the_benchmark_calls():
    used = set()
    for path in (ROOT / "perfbench").glob("*.py"):
        used |= set(re.findall(r"\bam\.([A-Za-z_]\w*)", path.read_text(encoding="utf-8")))
    used.discard("__file__")
    assert used
    assert used <= set(antimagic.__all__)


def test_trail_steps_stay_in_their_module():
    from antimagic import trails

    for name in ("Trail", "TrailDecomposition", "find_sigma_and_trails", "label_trails"):
        assert name not in antimagic.__all__
        assert callable(getattr(trails, name))
