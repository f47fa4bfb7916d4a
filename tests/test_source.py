"""Checks on the package's source text, read with ast and not imported."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "graphstates"
# __init__.py imports to re-export, so only the other modules are checked
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """The names that source imports and never reads, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_unused_imports_are_found():
    source = "import os\nimport a.b as c\nfrom x import y, z as w\nprint(os, w)\n"
    assert unused_imports(source) == ["c", "y"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_imported_name_is_read(path):
    assert unused_imports(path.read_text()) == []


def unread_names(sources, readers=(), public=False):
    """The top-level functions and classes of sources, the private ones or
    else the public ones, that neither sources nor readers read outside
    their own definition, sorted."""
    defined, read = set(), set()
    texts = [(source, True) for source in sources] + [(source, False) for source in readers]
    for source, defines in texts:
        for top in ast.parse(source).body:
            own = None
            if (defines and isinstance(top, (ast.FunctionDef, ast.ClassDef))
                    and top.name.startswith("_") != public and not top.name.endswith("__")):
                own = top.name
                defined.add(own)
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    name = node.attr
                else:
                    continue
                if name != own:
                    read.add(name)
    return sorted(defined - read)


def test_unread_private_names_are_found():
    sources = [
        "def _used():\n    pass\ndef _recursive():\n    return _recursive()\n"
        "class _Base:\n    pass\ndef __getattr__(name):\n    pass\n",
        "from m import _used, _imported\nclass C(_Base):\n    x = _used()\n"
        "def _unused():\n    _stored = 1\n",
    ]
    assert unread_names(sources) == ["_recursive", "_unused"]


def test_unread_public_names_are_found():
    sources = [
        "def used():\n    pass\ndef recursive():\n    return recursive()\n"
        "class Base:\n    pass\ndef _private():\n    pass\n",
        "from m import used, imported\nclass Child(Base):\n    pass\n"
        "def unused():\n    stored = 1\n",
    ]
    readers = ["import m\nm.used()\nChild\ndef recursive():\n    pass\n"]
    assert unread_names(sources, readers, public=True) == ["recursive", "unused"]


def test_every_private_name_is_read():
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    assert unread_names(sources) == []


def test_every_public_name_is_read():
    """Public API that nothing in src/, tests/ or perfbench/ reads is dead."""
    root = SRC.parent.parent
    readers = [(SRC / "__init__.py").read_text()]
    readers += [p.read_text() for d in ("tests", "perfbench")
                for p in sorted((root / d).rglob("*.py"))]
    assert unread_names([p.read_text() for p in MODULES], readers, public=True) == []
