"""Every name an import binds is used in its module.

`src/tq/__init__.py` is exempt: its imports are the package's public
re-exports.  `from __future__ import ...` binds nothing to use."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src/tq", "tests", "notes")
EXEMPT = {Path("src/tq/__init__.py")}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


def test_no_unused_imports():
    found = []
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            rel = path.relative_to(ROOT)
            if rel not in EXEMPT:
                found += [f"{rel}: {name}" for name in unused_imports(path.read_text())]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_traced_names_exist(monkeypatch):
    """Every function and method that the benchmark's span tracer wraps
    (`TRACED` in perfbench/spans.py, loaded from its file without running
    the benchmark or writing its bytecode) still resolves in `tq`."""
    import importlib
    import importlib.util
    import sys
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for name in spans.TRACED:
        module, *path = name.split(".")
        obj = importlib.import_module(f"tq.{module}")
        for attr in path:
            obj = getattr(obj, attr, None)
        if not callable(obj):
            missing.append(name)
    assert spans.TRACED and not missing, f"traced names missing from tq: {missing}"
