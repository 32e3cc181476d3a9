"""Source hygiene: no module imports a name it never uses.

Checked: the package, the tests and the demos.  The package root is
exempt, since its imports are its re-exports.  Also checked: the text
rule of every text file the package writes stays in ``data.write_lines``
(no function of the package but it and ``data.save_dataset``, the one
binary writer, opens a file to write, and no module imports ``csv``), no
package module can unpickle (none imports ``pickle`` or passes
``allow_pickle=True``), every rng of the package is built in ``net.py``, every
range check of a real value is ``net.require_real``, no training code
names a true label, and the test settings let the session go on past a
failing property test.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "protosemi"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
MODULES += sorted((REPO / "tests").glob("*.py")) + sorted((REPO / "demos").glob("*.py"))


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}  # bound name -> line
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_detects_an_unused_import():
    source = "import os\nimport numpy as np\nfrom .a import b, c\n\nnp.zeros(c)\n"
    assert unused_imports(source) == [(1, "os"), (3, "b")]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(module):
    assert unused_imports(module.read_text()) == []


def opens_to_write(source: str) -> list:
    """Lines that call ``open`` with a mode that writes, or with a mode not spelled out."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "open":
            mode = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "mode"), ast.Constant("r"))
            if not (isinstance(mode, ast.Constant) and set(mode.value).isdisjoint("wax+")):
                lines.append(node.lineno)
    return lines


def imports_csv(source: str) -> bool:
    return any(isinstance(node, ast.Import) and any(a.name == "csv" for a in node.names)
               or isinstance(node, ast.ImportFrom) and node.module == "csv"
               for node in ast.walk(ast.parse(source)))


def test_detects_a_write_open_and_a_csv_import():
    source = ("import csv\nopen(p)\nopen(p, 'rb')\nopen(p, 'w')\n"
              "open(p, mode='a')\nopen(p, 'r+')\nopen(p, m)\n")
    assert opens_to_write(source) == [4, 5, 6, 7]
    assert imports_csv(source) and imports_csv("from csv import writer\n")
    assert not imports_csv("import csvkit\n")


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_the_text_layer_writes_files(module):
    source = module.read_text()
    writers = [node.name for node in ast.parse(source).body
               if isinstance(node, ast.FunctionDef) and opens_to_write(ast.unparse(node))]
    expected = ["save_dataset", "write_lines"] if module.name == "data.py" else []
    assert writers == expected and len(opens_to_write(source)) == len(expected)


def pickle_uses(source: str) -> list:
    """Lines that import ``pickle`` or pass ``allow_pickle`` anything but a literal False."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Import) and any(a.name == "pickle" for a in node.names)
            or isinstance(node, ast.ImportFrom) and node.module == "pickle"
            or isinstance(node, ast.keyword) and node.arg == "allow_pickle"
            and not (isinstance(node.value, ast.Constant) and node.value.value is False)]


def test_detects_a_pickle_import_and_an_allow_pickle():
    source = ("import pickle\nfrom pickle import loads\nimport pickletools\n"
              "np.load(p, allow_pickle=True)\nnp.load(p, allow_pickle=False)\n"
              "write_array(fh, a, allow_pickle=flag)\nnp.load(p)\n")
    assert pickle_uses(source) == [1, 2, 4, 6]


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_can_unpickle(module):
    # a dataset file is data: no package code may turn its bytes into objects
    assert pickle_uses(module.read_text()) == []


def calls_default_rng(source: str) -> list:
    """Lines that call numpy's ``default_rng``, by attribute or by imported name."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and (isinstance(node.func, ast.Attribute) and node.func.attr == "default_rng"
                 or isinstance(node.func, ast.Name) and node.func.id == "default_rng")]


def test_detects_a_default_rng_call():
    source = "np.random.default_rng(0)\ndefault_rng([1, 2])\nrng.random()\nseeded_rng(0)\n"
    assert calls_default_rng(source) == [1, 2]


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_net_builds_generators(module):
    # one table of rng streams: every seeded generator comes from net.py
    calls = calls_default_rng(module.read_text())
    assert bool(calls) == (module.name == "net.py")


def is_real_scopes(source: str) -> list:
    """The qualified name of the class or function around each use of ``is_real``."""
    scopes = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name) and child.id == "is_real" \
                    or isinstance(child, ast.Attribute) and child.attr == "is_real":
                scopes.append(scope)
            inner = isinstance(child, (ast.ClassDef, ast.FunctionDef))
            visit(child, f"{scope}.{child.name}".lstrip(".") if inner else scope)

    visit(ast.parse(source), "")
    return scopes


def test_detects_an_is_real_use():
    source = ("x = is_real(1)\n"
              "class A:\n"
              "    def f(self, v):\n"
              "        return net.is_real(v) and all(map(is_real, v))\n"
              "def g(v):\n"
              "    def h():\n"
              "        return is_real(v)\n")
    assert is_real_scopes(source) == ["", "A.f", "A.f", "g.h"]


# the type checks that are no range check: a config field's type, and a rule over two keys
_IS_REAL_USERS = {"pipeline.py": {"ConfigField.normal"}, "select.py": {"Thresholds.__post_init__"}}


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_real_ranges_are_checked_in_net(module):
    # one range check of real values: net.require_real
    if module.name != "net.py":
        assert set(is_real_scopes(module.read_text())) <= _IS_REAL_USERS.get(module.name, set())


@pytest.mark.parametrize("module", MODULES + [PACKAGE / "__init__.py"], ids=lambda p: p.name)
def test_no_module_imports_csv(module):
    assert not imports_csv(module.read_text())


def true_label_reads(node) -> list:
    """Lines under ``node`` that name ``true_labels`` or call ``correction_stats``."""
    return [n.lineno for n in ast.walk(node)
            if isinstance(n, ast.Name) and n.id == "true_labels"
            or isinstance(n, ast.Attribute) and n.attr == "true_labels"
            or isinstance(n, ast.Call) and "correction_stats" in (
                getattr(n.func, "id", None), getattr(n.func, "attr", None))]


def functions(source: str) -> dict:
    """Every function and method of a module, by name."""
    return {node.name: node for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.FunctionDef)}


def schedule_loops(function) -> list:
    """The ``for ... in schedule`` loops of a function."""
    return [node for node in ast.walk(function) if isinstance(node, ast.For)
            and isinstance(node.iter, ast.Name) and node.iter.id == "schedule"]


def test_detects_a_true_label_read():
    source = ("def run(ds, schedule):\n"
              "    for epoch in schedule:\n"
              "        y = ds.true_labels\n"
              "        true_labels = y\n"
              "        s = select.correction_stats(log, ds)\n"
              "        correction_stats(log, ds)\n"
              "        ds.working_labels\n"
              "    return correction_stats(log, ds), ds.true_labels\n")
    [loop] = schedule_loops(functions(source)["run"])
    assert true_label_reads(loop) == [3, 4, 5, 6]
    assert true_label_reads(functions(source)["run"]) == [3, 4, 5, 6, 8, 8]


def test_training_names_no_true_label():
    # the held-out labels are read by pipeline.evaluate alone; the
    # corrections are scored after the epoch loop, from its logs
    [loop] = schedule_loops(functions((PACKAGE / "pipeline.py").read_text())["run_with_artifacts"])
    assert true_label_reads(loop) == []
    select = functions((PACKAGE / "select.py").read_text())
    for name in ("split_by_agreement", "build_prototypes", "repartition", "cosine_to_rows",
                 "correction_probability"):
        assert true_label_reads(select[name]) == [], name
    for module in ("mixmatch.py", "net.py"):
        for name, function in functions((PACKAGE / module).read_text()).items():
            assert true_label_reads(function) == [], f"{module}: {name}"


FAILING_PROPERTY_THEN_PASSING = """\
from hypothesis import given, settings
from hypothesis import strategies as st


@given(st.integers())
@settings(max_examples=5, database=None)
def test_fails(n):
    assert n != n


def test_passes():
    pass
"""


def test_a_failing_property_test_does_not_end_the_session(tmp_path):
    # hypothesis reports a failure through an import that warns; the
    # warnings-as-errors setting must not turn that into an internal error
    path = tmp_path / "test_two.py"
    path.write_text(FAILING_PROPERTY_THEN_PASSING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(REPO / "pyproject.toml"), "--rootdir", str(tmp_path), str(path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
