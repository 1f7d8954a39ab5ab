"""Static checks on the package source (no linter is required)."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "extappell"


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_import_scan_sees_attribute_use():
    assert _unused_imports("import numpy as np\nnp.log(2)\n") == []
    assert _unused_imports("import math\nfrom .x import a, b\na()\n") == ["b", "math"]


def test_no_unused_imports():
    # __init__ imports names in order to re-export them
    unused = {path.name: _unused_imports(path.read_text(encoding="utf-8"))
              for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    assert {name: names for name, names in unused.items() if names} == {}


def _unused_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level ``_name`` definitions that no module reads or imports."""
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, ast.Assign):
                targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                targets = [node.target.id]
            else:
                targets = []
            defined += [f"{module}:{name}" for name in targets
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(a.name for a in node.names)
    return [d for d in defined if d.partition(":")[2] not in used]


def test_unused_private_name_scan():
    sources = {
        "a.py": "_X = 1\n_Y: int = 2\n__all__ = []\ndef _f():\n    return _Y\n"
                "class _C:\n    pass\n",
        "b.py": "from .a import _C\nimport a\na._f()\n",
    }
    assert _unused_private_names(sources) == ["a.py:_X"]


def test_no_unused_private_names():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))}
    assert _unused_private_names(sources) == []


def _unused_public_names(sources: dict[str, str]) -> list[str]:
    """Public module-level functions and classes, and public methods of
    those classes, that no module but ``__init__`` calls, reads or imports."""
    defined, used = [], set()
    for module, source in sources.items():
        if module == "__init__.py":  # re-exports are not uses
            continue
        tree = ast.parse(source)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            defined.append((f"{module}:{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(f"{module}:{node.name}.{item.name}", item.name)
                            for item in node.body
                            if isinstance(item, ast.FunctionDef) and item.name[0] != "_"]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(a.name for a in node.names)
    return [label for label, name in defined if name not in used]


def test_unused_public_name_scan():
    sources = {
        "__init__.py": "from .a import g, C\n",
        "a.py": "def f():\n    return 1\ndef g():\n    return f()\n"
                "class C:\n    def m(self):\n        pass\n"
                "    def n(self):\n        pass\n"
                "    def _p(self):\n        pass\n",
        "b.py": "from .a import C\nC().m()\n",
    }
    assert _unused_public_names(sources) == ["a.py:g", "a.py:C.n"]


def test_no_unused_public_names():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))}
    assert _unused_public_names(sources) == []


_ENVIRONMENT = ("environ", "getenv")


def _environment_reads(source: str) -> list[str]:
    """Lines that use or import ``os.environ`` or ``os.getenv``: settings
    arrive only as arguments."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in _ENVIRONMENT
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            found.add((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found.update((node.lineno, a.name) for a in node.names if a.name in _ENVIRONMENT)
    return [f"{line}: os.{name}" for line, name in sorted(found)]


def test_environment_read_scan():
    source = ("import os\na = os.environ.get('X')\nb = os.getenv('Y')\nc = os.path.sep\n"
              "from os import getenv, sep\n")
    assert _environment_reads(source) == ["2: os.environ", "3: os.getenv", "5: os.getenv"]


def test_no_environment_reads():
    reads = {path.name: _environment_reads(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert {name: found for name, found in reads.items() if found} == {}


def _private_imports(source: str) -> list[str]:
    """Relative imports of another module's ``_name``: a name two modules
    share is public and carries no underscore."""
    return [f"{node.lineno}: .{node.module or ''} {a.name}"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level > 0
            for a in node.names if a.name.startswith("_") and not a.name.startswith("__")]


def test_private_import_scan():
    source = ("from .a import b, _c\nfrom . import _d\nfrom .e import __version__\n"
              "from os import _exit\n")
    assert _private_imports(source) == ["1: .a _c", "2: . _d"]


def test_no_private_imports():
    found = {path.name: _private_imports(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}


def _converged_reads(source: str) -> list[str]:
    """Lines that read a ``.converged`` flag: callers that need a settled
    value take it from ``QuadratureResult.converged_value``, the one check."""
    return [f"{node.lineno}: .converged"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr == "converged"
            and isinstance(node.ctx, ast.Load)]


def test_converged_read_scan():
    source = ("res = f()\nif not res.converged:\n    pass\nv = res.converged_value('x')\n"
              "converged = True\n")
    assert _converged_reads(source) == ["2: .converged"]


def test_no_converged_reads_outside_quadrature():
    found = {path.name: _converged_reads(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py")) if path.name != "quadrature.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


_RECORD_BUILDERS = ("VerificationRecord", "make_record")


def _record_builds(source: str) -> list[str]:
    """Lines that construct a ``VerificationRecord`` or call ``make_record``:
    a module computes the sides of a check, and ``suites`` judges it."""
    calls = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)]
    names = [(call.lineno, call.func.id if isinstance(call.func, ast.Name)
              else getattr(call.func, "attr", None)) for call in calls]
    return [f"{line}: {name}" for line, name in names if name in _RECORD_BUILDERS]


def test_record_build_scan():
    source = ("from .report import make_record\nrec = make_record('s', 'c', {}, 1, 1, 0.1, 'm')\n"
              "r = report.VerificationRecord(*fields)\nkind = VerificationRecord\n")
    assert _record_builds(source) == ["2: make_record", "3: VerificationRecord"]


def test_records_are_built_only_by_suites_and_report():
    found = {path.name: _record_builds(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))
             if path.name not in ("suites.py", "report.py")}
    assert {name: lines for name, lines in found.items() if lines} == {}
