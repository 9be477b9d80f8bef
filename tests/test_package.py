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


# imported only so that bench/tracing.py can rebind them (# noqa: F401)
REBOUND = {
    ("classify", "substructure"),
    ("constructions", "char_poly"),
    ("monomorphy", "char_poly"),
    ("monomorphy", "substructure"),
}


def test_no_module_imports_a_name_it_never_uses():
    """Every name a module of the package imports is read in it, apart
    from the four that bench/tracing.py rebinds. __init__ imports to
    export, which test_all_lists_every_import_once checks."""
    unused = set()
    for path in sorted(Path(spectramono.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
        imported = {
            alias.asname or alias.name.split(".")[0]
            for node in imports
            if getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused |= {(path.stem, name) for name in imported - read}
    assert unused == REBOUND
