"""Every name a module imports is used in it, so a stale import fails
tier-1 without a linter; every analytic name is imported from
xnesim.analytic, and the only aliases of one are those that perfbench
and the acceptance test read; and the packages the code imports are
the ones pyproject.toml declares."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from test_perfbench_names import REEXPORTS

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in ("src/xnesim", "tests", "perfbench")
                 for p in (ROOT / d).glob("*.py") if p.name != "__init__.py")
# import names of the distributions whose names differ from them
IMPORT_NAMES = {"pyyaml": "yaml"}


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_imported_names_are_used(path):
    # `from m import name as name` marks an explicit re-export, as in
    # PEP 484 stubs, and needs no use
    tree = ast.parse(path.read_text())
    imported = {(a.asname or a.name).split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for a in node.names if a.asname != a.name}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert sorted(imported - used) == []


def _defined(path: Path) -> set[str]:
    """Top-level names the module at *path* defines: its classes,
    functions and assigned names."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    return names


ANALYTIC = _defined(ROOT / "src/xnesim/analytic.py")
# the modules whose analytic imports are checked: test_acceptance.py
# pins the old paths as the benchmark reads them, and stays as it is
ONE_PATH = [p for p in MODULES if p.parent.name != "perfbench"
            and p.name not in ("analytic.py", "test_acceptance.py")]


def _xnesim_module(node: ast.ImportFrom) -> str | None:
    """The xnesim module a from-import reads, or None for another
    package; relative imports are the package's own."""
    if node.level:
        return ".".join(filter(None, ("xnesim", node.module)))
    if node.module.split(".")[0] == "xnesim":
        return node.module
    return None


@pytest.mark.parametrize("path", ONE_PATH,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_analytic_names_have_one_import_path(path):
    # an analytic name is imported from xnesim.analytic, and read as an
    # attribute of another xnesim module only where that module keeps
    # it as an alias (REEXPORTS)
    tree = ast.parse(path.read_text())
    kept = {(m.__name__, n) for m, n in REEXPORTS}
    modules, wrong = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = _xnesim_module(node)
            for a in node.names if source else ():
                full = f"{source}.{a.name}"
                if a.name in ANALYTIC and source != "xnesim.analytic":
                    wrong.append(f"{full} (line {node.lineno})")
                modules[a.asname or a.name] = full
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.attr in ANALYTIC):
            source = modules.get(node.value.id)
            if (source not in (None, "xnesim.analytic")
                    and (source, node.attr) not in kept):
                wrong.append(f"{source}.{node.attr} (line {node.lineno})")
    assert wrong == []


def test_aliases_are_the_kept_reexports():
    # `from .analytic import name as name` marks an alias kept for an
    # outside reader; REEXPORTS lists them, and no other may exist
    aliases = {(f"xnesim.{p.stem}", a.name)
               for p in (ROOT / "src/xnesim").glob("*.py")
               for node in ast.walk(ast.parse(p.read_text()))
               if isinstance(node, ast.ImportFrom) and node.level
               and node.module == "analytic"
               for a in node.names if a.asname == a.name}
    assert aliases == {(m.__name__, n) for m, n in REEXPORTS}


def _declared(table: str, key: str) -> set[str]:
    """Import names of the requirements in array *key* of *table* in
    pyproject.toml. Read by pattern: tomllib is not in Python 3.10."""
    text = (ROOT / "pyproject.toml").read_text()
    body = re.search(rf"^\[{re.escape(table)}\]\n(.*?)(?=^\[|\Z)", text,
                     re.M | re.S).group(1)
    array = re.search(rf"^{key}\s*=\s*\[(.*?)\]", body, re.M | re.S).group(1)
    return {IMPORT_NAMES.get(n.lower(), n.lower().replace("-", "_"))
            for n in re.findall(r'"\s*([A-Za-z0-9][\w.-]*)', array)}


def _imported(directory: str) -> set[str]:
    """Top-level modules imported under *directory*, outside the
    standard library; relative imports are the package's own."""
    names = set()
    for path in (ROOT / directory).rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names |= {a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names.add(node.module.split(".")[0])
    return names - sys.stdlib_module_names


def test_imports_are_declared_dependencies():
    deps = _declared("project", "dependencies")
    assert _imported("src/xnesim") - {"xnesim"} == deps
    # a test module may import another: REEXPORTS is shared
    allowed = (deps | _declared("project.optional-dependencies", "test")
               | {"xnesim"} | {p.stem for p in (ROOT / "tests").glob("*.py")})
    assert _imported("tests") <= allowed


def _fresh(code: str) -> str:
    """Run *code* in a fresh interpreter that imports the simulator
    from src/; its stdout, failing on a non-zero exit."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_yaml_is_imported_only_where_yaml_is_read():
    # the package and its CLI load without yaml
    _fresh("import sys, xnesim, xnesim.cli; "
           "assert 'yaml' not in sys.modules, 'yaml imported at load'")


def test_analytic_commands_import_no_numpy():
    # `import xnesim` loads only the numpy-free modules; report over
    # every network and run net print their rows without numpy
    out = _fresh(
        "import sys, xnesim\n"
        "assert sorted(m for m in sys.modules if 'xnesim' in m) == "
        "['xnesim', 'xnesim.analytic', 'xnesim.errors'], sys.modules\n"
        "from xnesim.cli import main\n"
        "assert main(['report', 'resnet18', 'resnet34', 'mvgg-1', 'mvgg-2',"
        " 'mvgg-4', 'mvgg-8', 'mvgg-f']) == 0\n"
        "assert main(['run', 'net', 'resnet34', '--mode', 'hyperram']) == 0\n"
        "assert 'numpy' not in sys.modules, 'numpy imported'\n")
    assert out.count("network ") == 8 and "8.72 inference/s" in out


def test_ucode_commands_import_no_numpy(tmp_path):
    # the microcode codec needs no numpy; only the walk imports it
    listing, blob = tmp_path / "walk.yaml", tmp_path / "walk.bin"
    out = _fresh(
        "import sys\n"
        "from xnesim.cli import main\n"
        f"assert main(['ucode', 'ref', '-o', {str(listing)!r}]) == 0\n"
        f"assert main(['ucode', 'asm', {str(listing)!r}, '-o', {str(blob)!r},"
        " '--hex']) == 0\n"
        f"assert main(['ucode', 'dis', {str(blob)!r}]) == 0\n"
        "assert 'numpy' not in sys.modules, 'numpy imported'\n")
    assert len(blob.read_bytes()) == 28
    assert out.startswith(f"{blob.read_bytes().hex()}\ncode:\n"), out
