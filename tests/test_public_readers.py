"""Every public function, method and property of the package has a reader.

A reader is a name or attribute read in ``src/``, ``demos/``,
``perfbench/`` or the acceptance criteria.  The other tests do not count:
a public name that only its own tests read is code kept for its tests.
The few such names that are test oracles are listed, each with a reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rcmwalk"

# read only by tests, which check the package against them
TEST_ORACLES = {
    "BoxGeometry.site_index": "the inverse of site_coords, through which tests place sites by their coordinates",
    "BoxGeometry.bond_axis": "with bond_u and bond_v, the bond list the tests assemble the grid tables from",
    "BoxGeometry.bond_id_table": "the bond of (site, +e_i), through which tests set one conductance",
    "Environment.bond_conductance": "one bond's conductance by its two sites, which tests sum by hand",
}


def _public_definitions(source: str) -> list[str]:
    """Module-level functions and class-level methods and properties whose names do not start with ``_``."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            found.append(node.name)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            found += [
                f"{node.name}.{f.name}"
                for f in node.body
                if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")
            ]
    return found


def _read_names(sources) -> set[str]:
    """Every name and attribute read in ``sources``; a definition or an import alone reads nothing."""
    read = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def _unread(package_sources, reader_sources) -> list[str]:
    read = _read_names(reader_sources)
    return sorted(
        name
        for source in package_sources
        for name in _public_definitions(source)
        if name.rsplit(".", 1)[-1] not in read and name not in TEST_ORACLES
    )


def _reader_files() -> list[Path]:
    return [
        *(ROOT / "src").rglob("*.py"),
        *(ROOT / "demos").glob("*.py"),
        *(ROOT / "perfbench").rglob("*.py"),
        ROOT / "tests" / "test_acceptance.py",
    ]


def test_every_public_definition_has_a_reader():
    package = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    assert _unread(package, [p.read_text() for p in _reader_files()]) == []


def test_every_oracle_is_still_defined_and_unread():
    # an oracle that gained a reader, or was deleted, leaves the list
    package = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    defined = {name for source in package for name in _public_definitions(source)}
    read = _read_names(p.read_text() for p in _reader_files())
    assert sorted(name for name in TEST_ORACLES if name not in defined or name.rsplit(".", 1)[-1] in read) == []


def test_an_unread_definition_is_found():
    package = (
        "def used():\n    pass\n\n"
        "def unused():\n    pass\n\n"
        "def _private():\n    pass\n\n"
        "class Report:\n"
        "    def exceeds_at(self, n):\n        return n\n"
        "    @property\n    def size(self):\n        return 1\n"
    )
    readers = ["from pkg import unused\n\nused()\nreport.size\n"]
    assert _unread([package], readers) == ["Report.exceeds_at", "unused"]
