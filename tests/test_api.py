"""The public surface: every exported name, and every public method of an
exported class, has a caller in the library itself or in the benchmark.
The demos show the library; they do not keep code in it."""

import ast
import inspect
from pathlib import Path

import lemnizeros

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = [p for p in sorted((ROOT / "src" / "lemnizeros").glob("*.py")) if p.name != "__init__.py"]
CALLERS = sorted((ROOT / "bench").glob("*.py"))


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


def _public_methods(cls: type) -> list[str]:
    """The public methods and properties a class defines in its own body."""
    return [
        name
        for name, member in vars(cls).items()
        if not name.startswith("_") and (inspect.isfunction(member) or isinstance(member, property))
    ]


def test_every_export_is_used_outside_the_tests():
    called = set().union(*(_names_read(p) for p in CALLERS))
    unused = [
        name
        for name in lemnizeros.__all__
        if name not in called and not any(name in _names_read(p, skip=name) for p in LIBRARY)
    ]
    read = called.union(*(_names_read(p) for p in LIBRARY))
    unused += [
        f"{name}.{method}"
        for name in lemnizeros.__all__
        if inspect.isclass(cls := getattr(lemnizeros, name))
        for method in _public_methods(cls)
        if method not in read
    ]
    assert unused == []
