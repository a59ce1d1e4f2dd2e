"""No smx module imports an underscore-prefixed name from another smx module:
a module's private names are its own to change, and a helper two modules
share is public in the one that owns it."""

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
