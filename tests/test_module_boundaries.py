"""No smx module imports an underscore-prefixed name from another smx module:
a module's private names are its own to change, and a helper two modules
share is public in the one that owns it. No smx module imports a name it
never reads, so a deletion cannot leave an import behind."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "smx"


def private_imports() -> list[str]:
    """``<module> imports <name> from <module>`` for each private name one
    smx module imports from another."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "smx"):
                source = "." * node.level + (node.module or "")
                found += [f"{path.stem} imports {a.name} from {source}" for a in node.names if a.name.startswith("_")]
    return found


def test_no_module_imports_a_private_name_of_another():
    found = private_imports()
    assert not found, "\n".join(found)


def unused_imports() -> list[str]:
    """``<module> imports <name> and never reads it`` for each name an smx
    module binds by an import and no expression in that module reads."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        bound = [
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
        ]
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.stem} imports {name} and never reads it" for name in bound if name not in read]
    return found


def test_no_module_has_an_unused_import():
    found = unused_imports()
    assert not found, "\n".join(found)
