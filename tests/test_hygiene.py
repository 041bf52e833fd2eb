"""Source hygiene: no module in the package or the tests imports a name it
never uses, every function, class and method of the package is referenced
somewhere, only a named few are referenced by tests alone, every field
of a package dataclass is read somewhere, and every defaulted parameter is
passed by some call, and only a named few by tests alone.  Plain AST
scans, so no linter is needed.  Also: the suite's warning filters let a
failing property test fail alone."""

import ast
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "revext").glob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))
# every file that may reference a package definition
READERS = sorted((ROOT / "src").rglob("*.py")) + \
    sorted((ROOT / "tests").glob("*.py")) + \
    sorted((ROOT / "perfbench").glob("*.py"))
# the program's own readers: the package, the benchmark and the acceptance
# criteria
PROGRAM_READERS = sorted((ROOT / "src").rglob("*.py")) + \
    sorted((ROOT / "perfbench").glob("*.py")) + \
    [ROOT / "tests" / "test_acceptance.py"]


def _exported(tree: ast.AST) -> set:
    return {name for node in ast.walk(tree) if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets)
            for name in ast.literal_eval(node.value)}


def unused_imports(source: str) -> list:
    """Names bound by an import and never read.  ``from __future__``
    imports are exempt, and so are the names a module lists in its
    ``__all__`` (the package's re-exports)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in imported.items()
                  if name not in used | _exported(tree))


def unreferenced_definitions(modules: dict, readers: list) -> list:
    """Functions, classes and methods defined in ``modules`` (label ->
    source) that no source in ``readers`` references.  A method counts as
    referenced only by an attribute of its name (a local variable of the
    same name does not reach it); any other definition also by a name or
    an imported name.  Dunder methods are exempt; a name listed in
    ``__all__`` is not, since a re-export alone reaches nothing."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    defined = []
    for label, source in modules.items():
        tree = ast.parse(source)
        methods = {id(node) for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef)
                   for node in cls.body if isinstance(node, defs)}
        defined += [(label, node.lineno, node.name, id(node) in methods)
                    for node in ast.walk(tree) if isinstance(node, defs)]
    names, attrs = set(), set()
    for source in readers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.alias):
                names.add(node.name)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    return [f"{label} line {line}: {name}"
            for label, line, name, method in sorted(defined)
            if name not in (attrs if method else names | attrs)
            and not (name.startswith("__") and name.endswith("__"))]


def _is_dataclass(decorator: ast.expr) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return (isinstance(target, ast.Name) and target.id == "dataclass"
            or isinstance(target, ast.Attribute)
            and target.attr == "dataclass")


def unread_fields(modules: dict, readers: list) -> list:
    """Fields of the dataclasses defined in ``modules`` (label -> source)
    that no source in ``readers`` reads as an attribute.  A dataclass is a
    class decorated with ``dataclass``, called or not; its fields are the
    annotated names of its body."""
    fields = []
    for label, source in modules.items():
        for cls in ast.walk(ast.parse(source)):
            if isinstance(cls, ast.ClassDef) and any(
                    _is_dataclass(d) for d in cls.decorator_list):
                fields += [(label, node.lineno, cls.name, node.target.id)
                           for node in cls.body
                           if isinstance(node, ast.AnnAssign)
                           and isinstance(node.target, ast.Name)]
    read = {node.attr for source in readers
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    return [f"{label} line {line}: {cls}.{name}"
            for label, line, cls, name in sorted(fields) if name not in read]


def test_scan_finds_unused_imports():
    src = ("from __future__ import annotations\n"
           "import math\nimport os.path\nimport numpy as np\n"
           "from json import dumps, loads\n"
           "__all__ = ['loads']\n"
           "np.zeros(os.path.sep.count(''))\n")
    assert unused_imports(src) == ["line 2: math", "line 5: dumps"]


@pytest.mark.parametrize("path", SOURCES,
                         ids=[str(p.relative_to(ROOT)) for p in SOURCES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_finds_unreferenced_definitions():
    module = ("__all__ = ['exported']\n"
              "def exported(): pass\n"
              "def imported(): pass\n"
              "def called(): pass\n"
              "def dead(): called()\n"
              "class Canvas:\n"
              "    def __repr__(self): return ''\n"
              "    def draw(self): pass\n"
              "    def dot(self): pass\n"
              "class Orphan: pass\n")
    reader = ("from m import imported as im\n"
              "Canvas().draw()\n"
              "dot = None\n")
    assert unreferenced_definitions({"m": module}, [module, reader]) == [
        "m line 2: exported", "m line 5: dead", "m line 9: dot",
        "m line 10: Orphan"]


def test_every_definition_is_referenced():
    modules = {str(p.relative_to(ROOT)): p.read_text() for p in PACKAGE}
    assert unreferenced_definitions(
        modules, [p.read_text() for p in READERS]) == []


def test_scan_finds_unread_dataclass_fields():
    module = ("import dataclasses\n"
              "from dataclasses import dataclass, field\n"
              "@dataclass(frozen=True)\n"
              "class Report:\n"
              "    value: float\n"
              "    count: int\n"
              "    notes: list = field(default_factory=list)\n"
              "    def ok(self): return self.value < 1\n"
              "@dataclasses.dataclass\n"
              "class Pair:\n"
              "    left: int\n"
              "    right: int\n"
              "class Plain:\n"
              "    hidden: int\n")
    reader = ("r = Report(1.0, 2)\n"
              "r.notes.append(Pair(1, 2).left)\n"
              "Pair(3, 4).right = 5\n")
    assert unread_fields({"m": module}, [module, reader]) == [
        "m line 6: Report.count", "m line 12: Pair.right"]


def test_every_dataclass_field_is_read():
    modules = {str(p.relative_to(ROOT)): p.read_text() for p in PACKAGE}
    assert unread_fields(modules, [p.read_text() for p in READERS]) == []


def _called(func: ast.expr):
    """The name a call reaches: a plain name or an attribute's."""
    return getattr(func, "id", getattr(func, "attr", None))


def _calls(readers: list) -> dict:
    """Per called name (a plain name or an attribute), the most positional
    arguments any call passes and the set of keywords any call names; a
    ``*args`` call passes every position and a ``**kwargs`` call every
    keyword (None).  ``partial(f, ...)`` counts as a call of f."""
    calls = {}
    for source in readers:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            name, args = _called(node.func), node.args
            if name == "partial" and args:
                name, args = _called(args[0]), args[1:]
            if name is None:
                continue
            npos, kws = calls.get(name, (0, set()))
            npos = max(npos, math.inf if any(
                isinstance(a, ast.Starred) for a in args) else len(args))
            if kws is not None:
                names = [k.arg for k in node.keywords]
                kws = None if None in names else kws | set(names)
            calls[name] = (npos, kws)
    return calls


def uncalled_defaults(modules: dict, readers: list) -> list:
    """Defaulted parameters of the functions and methods defined in
    ``modules`` (label -> source) that no call in ``readers`` passes, by
    position or by keyword: each is a setting no caller varies.  A call
    reaches every definition of its name; a method's positions start after
    ``self`` (a staticmethod's at its first parameter)."""
    calls = _calls(readers)
    found = []
    for label, source in modules.items():
        tree = ast.parse(source)
        bound = {id(node) for cls in ast.walk(tree)
                 if isinstance(cls, ast.ClassDef) for node in cls.body
                 if isinstance(node, ast.FunctionDef) and not any(
                     getattr(d, "id", "") == "staticmethod"
                     for d in node.decorator_list)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            a = node.args
            pos = [p.arg for p in a.posonlyargs + a.args]
            skip = 1 if id(node) in bound else 0
            npos, kws = calls.get(node.name, (0, set()))
            defaulted = [(pos.index(p), p) for p in
                         pos[len(pos) - len(a.defaults):]]
            defaulted += [(math.inf, p.arg) for p, d in
                          zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            found += [f"{label} line {node.lineno}: {node.name}({p})"
                      for i, p in defaulted
                      if not (i - skip < npos or kws is None or p in kws)]
    return sorted(found)


def test_scan_finds_uncalled_defaults():
    module = ("def f(a, b=1, c=2, *, d=3, e=4): pass\n"
              "def g(x=0): pass\n"
              "def h(y=0): pass\n"
              "class C:\n"
              "    def m(self, u=1, v=2): pass\n"
              "    @staticmethod\n"
              "    def s(u=1, v=2): pass\n")
    reader = ("f(0, 5, d=6)\n"
              "g(*[1])\n"
              "C().m(1)\n"
              "C.s(1)\n"
              "partial(h, 1)\n")
    assert uncalled_defaults({"m": module}, [module, reader]) == [
        "m line 1: f(c)", "m line 1: f(e)", "m line 5: m(v)",
        "m line 7: s(v)"]


def test_every_default_has_a_caller():
    modules = {str(p.relative_to(ROOT)): p.read_text() for p in PACKAGE}
    assert uncalled_defaults(modules, [p.read_text() for p in READERS]) == []


# Definitions that only tests reach, each with the reason it stays.
TEST_ONLY = {
    "stratum_to_json": "stratum serialization; callers to come",
    "stratum_from_json": "stratum serialization; callers to come",
}


def test_only_the_named_definitions_are_reached_by_tests_alone():
    # a new definition that only the other tests reach must be named in
    # TEST_ONLY
    modules = {str(p.relative_to(ROOT)): p.read_text() for p in PACKAGE}
    found = unreferenced_definitions(
        modules, [p.read_text() for p in PROGRAM_READERS])
    assert sorted(f.rsplit(": ", 1)[1] for f in found) == sorted(TEST_ONLY)


# Defaulted parameters that only tests vary (file: name(param)), each with
# the reason it stays.
TEST_VARIED = {
    "src/revext/circle.py": {
        "rotation_number(seed)": "the orbit's start; a test checks that "
                                 "the number does not depend on it",
        "extension_shape(cluster_eps)": "the limit set's clustering "
                                        "tolerance; tests compare several "
                                        "with a pairwise oracle",
        "extension_shape(limit_iters)": "the limit set's orbit length; tests "
                                        "shorten it for the pairwise oracle",
        "classify(max_den)": "the largest period searched; a test raises it "
                             "to reach a period-89 orbit",
        "perturbed_rotation(offset)": "the lift's integer shift; tests "
                                      "check lifts of every shift",
    },
    "src/revext/extension.py": {
        "chain_distance(space)": "the circle metric; only tests measure "
                                 "chains on the circle",
        "hausdorff(space)": "the circle metric; only tests measure chains "
                            "on the circle",
    },
    "src/revext/operator_model.py": {
        "constant_model(n_points)": "the Y grid's size; tests vary it and "
                                    "refuse grids that hit p",
        "build_model(a_funcs)": "the A generators; a test passes none to "
                                "check the report without them",
        "build_model(size_cap)": "the closure's size refusal; a test lowers "
                                 "it to reach it cheaply",
    },
}


def test_only_the_named_defaults_are_varied_by_tests_alone():
    # a new defaulted parameter that only the other tests pass must be
    # named in TEST_VARIED
    modules = {str(p.relative_to(ROOT)): p.read_text() for p in PACKAGE}
    found = {}
    for f in uncalled_defaults(modules,
                               [p.read_text() for p in PROGRAM_READERS]):
        label, param = f.split(" line ")[0], f.rsplit(": ", 1)[1]
        found.setdefault(label, set()).add(param)
    assert found == {label: set(params)
                     for label, params in TEST_VARIED.items()}


def test_failing_property_test_does_not_abort_the_session(tmp_path):
    # hypothesis reports a failure from inside a pytest hook, where it
    # trips a DeprecationWarning; under filterwarnings = ["error"] that
    # aborted the session (exit code 3) and the later tests never ran
    (tmp_path / "test_probe.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n < 5\n\n\n"
        "def test_after():\n"
        "    pass\n")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-rA",
         "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "PASSED test_probe.py::test_after" in done.stdout
