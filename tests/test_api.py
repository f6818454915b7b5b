"""The public surface: every exported name has a caller outside the tests,
in the library itself, a demo or the benchmark."""

import ast
from pathlib import Path

import lemnizeros

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = [p for p in sorted((ROOT / "src" / "lemnizeros").glob("*.py")) if p.name != "__init__.py"]
CALLERS = sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))


def _names_read(path: Path, skip: str = "") -> set[str]:
    """Names and attributes a module reads, outside its import statements
    and outside the top-level definition called `skip`."""
    out = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == skip:
            continue
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
    return out


def test_every_export_is_used_outside_the_tests():
    called = set().union(*(_names_read(p) for p in CALLERS))
    unused = [
        name
        for name in lemnizeros.__all__
        if name not in called and not any(name in _names_read(p, skip=name) for p in LIBRARY)
    ]
    assert unused == []
