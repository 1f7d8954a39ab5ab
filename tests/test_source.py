"""Static checks on the package source (no linter is required)."""

import ast
import pathlib
import types

import extappell

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


_MASK_OPS = {ast.Gt: ">", ast.LtE: "<="}


def _live_masks(source: str) -> list[str]:
    """Lines that compare a value with ``-ENDPOINT_CUTOFF`` by ``>`` (live)
    or ``<=`` (dead): the node mask of an integrand, which
    ``extbeta.euler_integrand`` alone builds."""
    return [f"{node.lineno}: {_MASK_OPS[type(op)]} -ENDPOINT_CUTOFF"
            for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Compare)
            for op, right in zip(node.ops, node.comparators)
            if type(op) in _MASK_OPS and isinstance(right, ast.UnaryOp)
            and isinstance(right.op, ast.USub) and isinstance(right.operand, ast.Name)
            and right.operand.id == "ENDPOINT_CUTOFF"]


def test_live_mask_scan():
    source = ("live = re > -ENDPOINT_CUTOFF\nok = x > ENDPOINT_CUTOFF\n"
              "dead = re <= -ENDPOINT_CUTOFF\nm = (a > -ENDPOINT_CUTOFF) & b\n"
              "n = re < -ENDPOINT_CUTOFF\n")
    assert _live_masks(source) == ["1: > -ENDPOINT_CUTOFF", "3: <= -ENDPOINT_CUTOFF",
                                   "4: > -ENDPOINT_CUTOFF"]


def test_one_live_mask_in_the_package():
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             for line in _live_masks(path.read_text(encoding="utf-8"))]
    assert len(found) == 1, found


def _kernel_calls(source: str) -> list[str]:
    """Lines that call ``….scaled_values(…)``: the Bessel kernel, which
    ``extbeta.euler_integrand`` alone evaluates, once per call at every
    live node."""
    return [f"{node.lineno}: .scaled_values(" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "scaled_values"]


def test_kernel_call_scan():
    source = ("v = kernel.scaled_values(w)\ndef scaled_values(self, w):\n    pass\n"
              "f = kernel.scaled_values\nu = self.kernel.scaled_values(w[own])[live]\n"
              "x = scaled_values(w)\n")
    assert _kernel_calls(source) == ["1: .scaled_values(", "5: .scaled_values("]


def test_one_kernel_call_in_the_package():
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             for line in _kernel_calls(path.read_text(encoding="utf-8"))]
    assert [entry.partition(":")[0] for entry in found] == ["extbeta.py"], found


def _identity_calls(source: str) -> list[str]:
    """Calls ``id(…)``, each as "line: owner": the module-level function or
    ``Class.method`` it sits in, nested functions included, or
    ``<module>``.  No module keys a value on an object's identity, which
    a new object may take once the old one is freed."""
    found = []
    for top in ast.parse(source).body:
        for node in top.body if isinstance(top, ast.ClassDef) else [top]:
            owner = "<module>"
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = node.name if node is top else f"{top.name}.{node.name}"
            found += [f"{call.lineno}: {owner}" for call in ast.walk(node)
                      if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                      and call.func.id == "id"]
    return found


def test_identity_call_scan():
    source = ("key = id(x)\nclass A:\n    def f(self, t):\n        def g(u):\n"
              "            return id(u)\n        return g\n"
              "def h(t):\n    return ids(t), t.id(1), id, [id(v) for v in t]\n")
    assert _identity_calls(source) == ["1: <module>", "5: A.f", "8: h"]


def test_no_identity_call_in_the_package():
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             for line in _identity_calls(path.read_text(encoding="utf-8"))]
    assert found == []


def _tobytes_calls(source: str) -> list[str]:
    """Lines that call a ``.tobytes()`` method: no module keys a value on
    an array's bytes, as a store of samples per node array would."""
    return [f"{node.lineno}: .tobytes(" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "tobytes"]


def test_tobytes_call_scan():
    source = ("key = ps.tobytes()\nf = ps.tobytes\ndef g(t):\n"
              "    return {t[1:].tobytes(): t}, tobytes(t), t.tostring()\n")
    assert _tobytes_calls(source) == ["1: .tobytes(", "4: .tobytes("]


def test_no_tobytes_call_in_the_package():
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             for line in _tobytes_calls(path.read_text(encoding="utf-8"))]
    assert found == []


def _hypot_calls(source: str) -> list[str]:
    """Lines that name numpy's ``hypot``, as ``np.hypot`` or imported from
    numpy: stack rows take numpy's own complex ``abs``, not a modulus
    built to round as one complex's ``abs`` does.  ``math.hypot`` of two
    floats is not flagged."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr == "hypot"
                and _name_of(node.value) in ("np", "numpy")):
            found.add(node.lineno)
        elif (isinstance(node, ast.ImportFrom) and node.module == "numpy"
              and any(a.name == "hypot" for a in node.names)):
            found.add(node.lineno)
    return [f"{line}: hypot" for line in sorted(found)]


def test_hypot_scan():
    source = ("m = np.hypot(z.real, z.imag)\nr = math.hypot(1.0, x)\n"
              "from numpy import hypot\nf = numpy.hypot\nhypot = 1\nnp.abs(z)\n")
    assert _hypot_calls(source) == ["1: hypot", "3: hypot", "4: hypot"]


def test_no_numpy_hypot_in_the_package():
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             for line in _hypot_calls(path.read_text(encoding="utf-8"))]
    assert found == []


def _name_of(node) -> str | None:
    """``v`` of a name ``v`` or of an attribute ``….v``."""
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def _real_part_of(node, name: str) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "real"
            and _name_of(node.value) == name)


def _euler_domains(source: str) -> list[str]:
    """Lines that compare ``….c1.real > ….b1.real > 0.0``: the Euler
    integral's domain, which ``hyper.check_euler_domain`` alone writes."""
    return [f"{node.lineno}: c1.real > b1.real > 0.0"
            for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Compare)
            and [type(op) for op in node.ops] == [ast.Gt, ast.Gt]
            and _real_part_of(node.left, "c1") and _real_part_of(node.comparators[0], "b1")
            and isinstance(node.comparators[1], ast.Constant)
            and node.comparators[1].value == 0.0]


def test_euler_domain_scan():
    source = ("ok = c1.real > b1.real > 0.0\nif not (a.c1.real > a.b1.real > 0.0):\n    pass\n"
              "no = c1.real > b1.real\nnor = c1.imag > b1.imag > 0.0\n"
              "neither = (c1 - b1).real > 0.0\n")
    assert _euler_domains(source) == ["1: c1.real > b1.real > 0.0",
                                      "2: c1.real > b1.real > 0.0"]


def test_one_euler_domain_in_the_package():
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             for line in _euler_domains(path.read_text(encoding="utf-8"))]
    assert len(found) == 1, found


def _is_euler_beta(node) -> bool:
    """Whether ``node`` is a call ``beta(….b1, ….c1 - ….b1)``."""
    if not (isinstance(node, ast.Call) and _name_of(node.func) == "beta"
            and len(node.args) == 2):
        return False
    first, second = node.args
    return (_name_of(first) == "b1" and isinstance(second, ast.BinOp)
            and isinstance(second.op, ast.Sub)
            and _name_of(second.left) == "c1" and _name_of(second.right) == "b1")


def _found_in_functions(source: str, matches) -> list[str]:
    """Nodes for which ``matches(node)`` holds, each as "line: function",
    the innermost function it sits in or ``<module>``."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if matches(child):
                found.append(f"{child.lineno}: {where}")
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def _euler_betas(source: str) -> list[str]:
    """Calls ``beta(….b1, ….c1 - ….b1)``, each with the function it sits
    in: B(b1, c1-b1) is the F1 normaliser, which ``hyper.euler_beta``
    alone takes."""
    return _found_in_functions(source, _is_euler_beta)


def test_euler_beta_scan():
    source = ("def euler_beta(b1, c1):\n    return beta(b1, c1 - b1)\n"
              "def f(a):\n    return 1 / scalar.beta(a.b1, a.c1 - a.b1)\n"
              "def g(a, s):\n    return beta(a.b1 + s, a.c1 - a.b1 + s), beta(b1, c1 - b2)\n"
              "norm = beta(b1, c1 - b1)\n")
    assert _euler_betas(source) == ["2: euler_beta", "4: f", "7: <module>"]


def test_one_euler_beta_in_the_package():
    found = [f"{path.name} {line.split(': ')[1]}" for path in sorted(SRC.glob("*.py"))
             for line in _euler_betas(path.read_text(encoding="utf-8"))]
    assert found == ["hyper.py euler_beta"]


def _is_unit_disc_test(node) -> bool:
    """Whether ``node`` compares ``abs(…)`` with the constant 1."""
    return (isinstance(node, ast.Compare) and len(node.ops) == 1
            and isinstance(node.left, ast.Call) and _name_of(node.left.func) == "abs"
            and isinstance(node.comparators[0], ast.Constant)
            and node.comparators[0].value == 1)


def _unit_disc_tests(source: str) -> list[str]:
    """Comparisons ``abs(…) >= 1.0`` (or any other operator), each with the
    function it sits in: the unit-disc test of a power series.  The F1
    double series' is ``hyper.check_series_domain``'s; pFq's |z| < 1 in
    ``hyper.pfq`` is the one other series with such a test."""
    return _found_in_functions(source, _is_unit_disc_test)


def test_unit_disc_scan():
    source = ("def check(a):\n    if abs(a.x) >= 1.0 and not t(a.b2):\n        pass\n"
              "def route(x):\n    return abs(x) <= 0.9 or abs(x) < 1\n"
              "ok = abs(z) >= 1.0\nno = x.real >= 1.0\nnor = abs(x) >= 2.0\n")
    assert _unit_disc_tests(source) == ["2: check", "5: route", "6: <module>"]


def test_one_series_domain_in_the_package():
    found = [f"{path.name} {line.split(': ')[1]}" for path in sorted(SRC.glob("*.py"))
             for line in _unit_disc_tests(path.read_text(encoding="utf-8"))]
    assert found == ["hyper.py pfq", "hyper.py check_series_domain"]


def _is_strip_test(node) -> bool:
    """Whether ``node`` is ``….s.real - ….nu`` or ``(….s - ….nu).real``."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
        return _real_part_of(node.left, "s") and _name_of(node.right) == "nu"
    return (isinstance(node, ast.Attribute) and node.attr == "real"
            and isinstance(node.value, ast.BinOp) and isinstance(node.value.op, ast.Sub)
            and _name_of(node.value.left) == "s" and _name_of(node.value.right) == "nu")


def _strip_tests(source: str) -> list[str]:
    """Re(s - nu) as ``s.real - nu`` or ``(s - nu).real``, each with the
    function it sits in: the Mellin strip, which ``mellin.check_mellin_point``
    alone tests."""
    return _found_in_functions(source, _is_strip_test)


def test_strip_scan():
    source = ("def check(s, nu):\n    if not s.real - nu > 0.0:\n        pass\n"
              "def f(a):\n    return (a.s - a.nu).real > 0\n"
              "g = gamma((s - nu) / 2.0)\nh = s.real + nu\nk = s.imag - nu\n")
    assert _strip_tests(source) == ["2: check", "5: f"]


def test_one_mellin_strip_in_the_package():
    found = [f"{path.name} {line.split(': ')[1]}" for path in sorted(SRC.glob("*.py"))
             for line in _strip_tests(path.read_text(encoding="utf-8"))]
    assert found == ["mellin.py check_mellin_point"]


def _compares_with_zero(node, name: str) -> bool:
    """Whether ``node`` compares ``….name`` or ``….name.real`` with the
    constant 0, on either side of any link of a chained comparison."""
    if not isinstance(node, ast.Compare):
        return False

    def named(n):
        return _name_of(n) == name or _real_part_of(n, name)

    def zero(n):
        return isinstance(n, ast.Constant) and type(n.value) in (int, float) and n.value == 0

    operands = [node.left, *node.comparators]
    return any(named(a) and zero(b) or zero(a) and named(b)
               for a, b in zip(operands, operands[1:]))


def _p_rules(source: str) -> list[str]:
    """Comparisons of ``p`` or ``p.real`` with 0, each with the function it
    sits in: the rule Re(p) > 0, which ``extbeta.ExtensionParams`` alone
    writes."""
    return _found_in_functions(source, lambda node: _compares_with_zero(node, "p"))


def test_p_rule_scan():
    source = ("def check(self):\n    if not (isfinite(self.p) and self.p.real > 0.0):\n"
              "        pass\ndef f(p):\n    return 0 < p\n"
              "ok = p.imag > 0.0\nno = p > 1.0\nnor = ps > 0.0\nneither = q.real > 0\n")
    assert _p_rules(source) == ["2: check", "5: f"]


def test_one_p_rule_in_the_package():
    found = [f"{path.name} {line.split(': ')[1]}" for path in sorted(SRC.glob("*.py"))
             for line in _p_rules(path.read_text(encoding="utf-8"))]
    assert found == ["extbeta.py __post_init__"]


def _nu_rules(source: str) -> list[str]:
    """Comparisons of ``nu`` or ``nu.real`` with 0, each with the function it
    sits in: the rule nu >= 0, which ``bessel.check_extension_order`` alone
    writes for the package, and ``oracles._int_nu`` for the independent
    oracle, whose kernel also needs an integer nu."""
    return _found_in_functions(source, lambda node: _compares_with_zero(node, "nu"))


def test_nu_rule_scan():
    source = ("def rule(order):\n    nu = complex(order)\n"
              "    if not (nu.imag == 0.0 and 0.0 <= nu.real < inf):\n        pass\n"
              "def f(a):\n    return a.nu < 0\n"
              "ok = nu > 0.05\nno = mu >= 0.0\nnor = nu.imag == 0.0\nneither = nu == False\n")
    assert _nu_rules(source) == ["3: rule", "6: f"]


def test_one_nu_rule_in_the_package():
    found = [f"{path.name} {line.split(': ')[1]}" for path in sorted(SRC.glob("*.py"))
             for line in _nu_rules(path.read_text(encoding="utf-8"))]
    assert found == ["bessel.py check_extension_order", "oracles.py _int_nu"]


def _cumprods(source: str) -> list[str]:
    """Lines that take a ``cumprod``: the power weights t^k w of the
    moments, which ``quadrature`` alone builds, once per node table."""
    return [f"{node.lineno}: cumprod" for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Name, ast.Attribute)) and _name_of(node) == "cumprod"]


def test_cumprod_scan():
    source = ("a = np.cumprod(x, axis=0)\nb = x.cumprod()\nc = np.cumsum(x)\n"
              "from numpy import cumprod\nd = cumprod(y)\ncumprods = 1\n")
    assert _cumprods(source) == ["1: cumprod", "2: cumprod", "5: cumprod"]


def test_one_cumprod_in_the_package():
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             for line in _cumprods(path.read_text(encoding="utf-8"))]
    assert [entry.partition(":")[0] for entry in found] == ["quadrature.py"], found


def test_star_import_binds_no_submodule():
    modules = [name for name in extappell.__all__
               if isinstance(getattr(extappell, name), types.ModuleType)]
    assert modules == []
    assert "extended_beta" in extappell.__all__


def _number_checks(source: str) -> list[str]:
    """Comparisons that read an ``….imag`` and calls of ``….isfinite(…)``,
    each as "line: what": the checks on a number, which ``cli`` leaves to
    the library types but for the value it prints."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare) and any(
                isinstance(n, ast.Attribute) and n.attr == "imag"
                for part in (node.left, *node.comparators) for n in ast.walk(part)):
            found.append((node.lineno, ".imag compared"))
        elif isinstance(node, ast.Call) and _name_of(node.func) == "isfinite":
            found.append((node.lineno, f"isfinite({', '.join(map(ast.unparse, node.args))})"))
    return [f"{line}: {what}" for line, what in sorted(found)]


def test_number_check_scan():
    source = ("if v[k].imag != 0.0:\n    pass\nok = cmath.isfinite(value)\n"
              "bad = [k for k in keys if not cmath.isfinite(params[k])]\n"
              "real = z.imag == 0.0 and z.real > 0\nshown = z.imag\nn = np.isfinite\n")
    assert _number_checks(source) == ["1: .imag compared", "3: isfinite(value)",
                                      "4: isfinite(params[k])", "5: .imag compared"]


def test_cli_checks_no_number_but_the_printed_value():
    found = _number_checks((SRC / "cli.py").read_text(encoding="utf-8"))
    assert [entry.partition(": ")[2] for entry in found] == ["isfinite(value)"]


_TABLE_PACKAGES = ("numpy.polynomial", "mpmath", "scipy")


def _hermite_tables(source: str) -> list[str]:
    """Imports from ``numpy.polynomial``, ``mpmath`` or ``scipy`` and uses
    of ``polynomial``, ``hermgauss`` or ``taylor``, each as "line: name":
    the Bessel kernel's Gauss-Hermite nodes and Temme's 1/Gamma series are
    literal tables, since building them at import or first use would add
    to every start-up, and mpmath and scipy are test extras."""
    def listed(name):
        return any(name == p or name.startswith(p + ".") for p in _TABLE_PACKAGES)

    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update((node.lineno, a.name) for a in node.names if listed(a.name))
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.update((node.lineno, f"{node.module}.{a.name}") for a in node.names
                         if listed(f"{node.module}.{a.name}"))
        elif _name_of(node) in ("polynomial", "hermgauss", "taylor"):
            found.add((node.lineno, _name_of(node)))
    return [f"{line}: {name}" for line, name in sorted(found)]


def test_hermite_table_scan():
    source = ("import numpy.polynomial.hermite as H\nx, w = H.hermgauss(96)\n"
              "from numpy.polynomial.hermite import hermgauss\nfrom numpy import polynomial\n"
              "y = np.polynomial.legendre.leggauss(8)\nhermite = 1\nimport numpy as np\n"
              "from numpy import pi\nimport mpmath\nc = mpmath.taylor(f, 0, 20)\n"
              "from scipy import special\nimport scipy.special as sc\nfrom mpmath import mp\n"
              "import mpmathx\nfrom scipyx import special\ntaylored = 1\nfrom .bessel import gamma\n")
    assert _hermite_tables(source) == ["1: numpy.polynomial.hermite", "2: hermgauss",
                                       "3: numpy.polynomial.hermite.hermgauss",
                                       "4: numpy.polynomial", "5: polynomial", "9: mpmath",
                                       "10: taylor", "11: scipy.special", "12: scipy.special",
                                       "13: mpmath.mp"]


def test_no_gauss_hermite_table_is_built_at_run_time():
    found = {path.name: _hermite_tables(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def _errstates(source: str) -> list[str]:
    """Lines that name ``errstate``: numpy's switch for floating-point
    errors, which the Bessel kernel does without, because the order
    recurrence's guard refuses every K that overflows before any route
    computes it."""
    return [f"{node.lineno}: errstate" for node in ast.walk(ast.parse(source))
            if _name_of(node) == "errstate"]


def test_errstate_scan():
    source = ("with np.errstate(over='ignore'):\n    pass\nfrom numpy import errstate\n"
              "with errstate(all='ignore'):\n    pass\nerrstates = 1\nnp.seterr\n")
    assert _errstates(source) == ["1: errstate", "4: errstate"]


def test_no_errstate_in_the_bessel_kernel():
    assert _errstates((SRC / "bessel.py").read_text(encoding="utf-8")) == []


# caches keyed on no input of the package's functions: node tables, their
# blocks and weights
_NODE_TABLE_CACHES = {"_unit_level", "_semi_level", "_line_level", "_block",
                      "_block_moment_weights"}


def _is_cache(node) -> bool:
    """Whether ``node`` is ``cache`` or ``lru_cache``, bare or called, as
    ``lru_cache(maxsize=8)`` and ``lru_cache(maxsize=8)(f)`` are."""
    while isinstance(node, ast.Call):
        node = node.func
    return _name_of(node) in ("cache", "lru_cache")


def _module_caches(source: str) -> list[str]:
    """The module-level functions wrapped in ``functools.cache`` or
    ``lru_cache``, by decorator or by assignment.  A cache made inside a
    function, as a suite trial's, lives as long as that call."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and any(map(_is_cache, node.decorator_list)):
            found.append(node.name)
        elif isinstance(node, ast.Assign) and _is_cache(node.value):
            found += [t.id for t in node.targets if isinstance(t, ast.Name)]
    return found


def _cleared_caches(source: str, fixture: str) -> set[str]:
    """Names ``f`` of the ``….f.cache_clear()`` calls in function ``fixture``."""
    body = next(node for node in ast.parse(source).body
                if isinstance(node, ast.FunctionDef) and node.name == fixture)
    return {_name_of(node.func.value) for node in ast.walk(body)
            if isinstance(node, ast.Call) and _name_of(node.func) == "cache_clear"}


def test_cache_scan():
    source = ("@functools.cache\ndef _a(n):\n    pass\n@functools.lru_cache(maxsize=8)\n"
              "def b(x):\n    pass\n@lru_cache\ndef c(x):\n    pass\n"
              "@staticmethod\ndef d(x):\n    v = functools.cache(lambda: x)\n"
              "e = functools.lru_cache(maxsize=2)(d)\n")
    assert _module_caches(source) == ["_a", "b", "c", "e"]
    fixture = "def fresh():\n    mod._a.cache_clear()\n    b.cache_clear()\n    c.clear()\n"
    assert _cleared_caches(fixture, "fresh") == {"_a", "b"}


def test_every_input_cache_is_cleared_between_tests():
    # a cache keyed on inputs could hand a test a value an earlier test
    # computed; conftest's fixture clears every one that is not a table
    caches = {name for path in sorted(SRC.glob("*.py"))
              for name in _module_caches(path.read_text(encoding="utf-8"))}
    conftest = (pathlib.Path(__file__).parent / "conftest.py").read_text(encoding="utf-8")
    cleared = _cleared_caches(conftest, "fresh_input_caches")
    assert caches - _NODE_TABLE_CACHES == cleared
