"""Every module-level import in the package is read in its own module.

A deletion that leaves an import behind (a special function whose only
caller went, say) fails here.  ``__init__.py`` is exempt: its imports are
the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

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


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name
)
def test_module_imports_are_read(path):
    assert _unread_imports(path.read_text()) == []


def test_an_unread_import_is_found():
    source = "import math\nfrom scipy.special import gammaln, stdtrit\n\nx = gammaln(math.pi)\n"
    assert _unread_imports(source) == ["line 2: stdtrit"]
