"""Every name an import binds is used in its module
(`from __future__ import ...` binds nothing to use), and the import shape
of the package: the root imports no module, `tq.cli` imports them all."""

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src/tq", "tests", "notes")


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


def test_import_tq_needs_neither_dataclasses_nor_inspect():
    """`import tq` and `import tq.cli` build every record class as a
    `collections.namedtuple` subclass, without `dataclasses`, which would
    pull in `inspect`, or `typing`, and load no `random`; they still
    import every `tq` module.  `-S` keeps `site` from importing any of the
    four first."""
    code = ("import sys\n"
            f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
            "import tq, tq.cli\n"
            "print(sorted({'dataclasses', 'inspect', 'random', 'typing'}\n"
            "             & set(sys.modules)))\n"
            "print(sorted(m for m in sys.modules if m.startswith('tq.')))\n")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, timeout=60, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    found, loaded = proc.stdout.splitlines()
    assert found == "[]"
    modules = sorted(f"tq.{path.stem}" for path in (ROOT / "src" / "tq").glob("*.py")
                     if path.stem != "__init__")
    assert loaded == repr(modules)


def test_import_tq_loads_no_module_and_tq_cli_loads_every_module():
    """`import tq` loads no `tq.*` module; `import tq.cli` then loads every
    one, which `fresh_tq` and `tq_module` in perfbench/workloads.py rely
    on.  `-S` keeps `site` from importing anything first."""
    code = ("import sys\n"
            f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
            "import tq\n"
            "print(sorted(m for m in sys.modules if m.startswith('tq.')))\n"
            "import tq.cli\n"
            "print(sorted(m for m in sys.modules if m.startswith('tq.')))\n")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, timeout=60, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    after_tq, after_cli = proc.stdout.splitlines()
    assert after_tq == "[]"
    modules = sorted(f"tq.{path.stem}" for path in (ROOT / "src" / "tq").glob("*.py")
                     if path.stem != "__init__")
    assert after_cli == repr(modules)
