"""Every module-level import in the package is read in its own module, and
the package's export table names each public name's defining module.

A deletion that leaves an import behind (a special function whose only
caller went, say) fails here.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rcmwalk

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rcmwalk"


def _unread_imports(source: str) -> list[str]:
    """The names bound by the module body's imports that nothing in the module reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]  # "import a.b" binds "a"
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1]) if name not in read]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_are_read(path):
    assert _unread_imports(path.read_text()) == []


def test_an_unread_import_is_found():
    source = "import math\nfrom scipy.special import gammaln, stdtrit\n\nx = gammaln(math.pi)\n"
    assert _unread_imports(source) == ["line 2: stdtrit"]


def test_exports_are_their_defining_modules_objects():
    # the package keeps no copy: a name rebound in its module is rebound for ``rcmwalk.X`` too
    for module, names in rcmwalk._EXPORTS.items():
        owner = importlib.import_module(f"rcmwalk.{module}")
        for name in names:
            obj = getattr(rcmwalk, name)
            assert obj is getattr(owner, name), name
            assert getattr(obj, "__module__", owner.__name__) == owner.__name__, name
            assert name not in vars(rcmwalk), name
    assert rcmwalk.__all__ == [name for names in rcmwalk._EXPORTS.values() for name in names]
    assert len(set(rcmwalk.__all__)) == len(rcmwalk.__all__)


def test_export_table_drives_dir_star_and_unknown_names():
    assert set(rcmwalk.__all__) <= set(dir(rcmwalk))
    namespace = {}
    exec("from rcmwalk import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(rcmwalk.__all__)
    with pytest.raises(AttributeError, match="'no_such_name'"):
        rcmwalk.no_such_name


def test_submodule_import_gets_past_getattr():
    # in a fresh interpreter the package has no attribute ``heatkernel``, so the
    # import system asks ``__getattr__`` first and imports the submodule on its AttributeError
    code = "import sys\nfrom rcmwalk import heatkernel\nassert heatkernel is sys.modules['rcmwalk.heatkernel']"
    path = os.pathsep.join(p for p in (str(PACKAGE.parent), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
