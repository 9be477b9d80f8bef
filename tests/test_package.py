"""The package surface: the names `import spectramono` exports."""

import ast
from pathlib import Path

import spectramono


def test_all_lists_every_import_once():
    """Every name in __all__ resolves on the package and is listed once,
    and every public name that __init__ imports is listed, so a name
    removed from a module cannot leave a stale export behind."""
    listed = spectramono.__all__
    assert len(listed) == len(set(listed))
    assert [name for name in listed if not hasattr(spectramono, name)] == []
    tree = ast.parse(Path(spectramono.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert sorted(name for name in imported - set(listed) if not name.startswith("_")) == []
