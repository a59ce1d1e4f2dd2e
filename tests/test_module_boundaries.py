"""No smx module imports an underscore-prefixed name from another smx module:
a module's private names are its own to change, and a helper two modules
share is public in the one that owns it. No smx module imports a name it
never reads, so a deletion cannot leave an import behind. Every refusal
of an external model or of what it sent is built by one helper, and the
CLI decides in one place which file a refusal of a run's inputs names."""

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


# The ModelErrors about smx's caller or the OS, not about an external model or
# what it sent, which keep their own text: each by the function that raises it.
# _check_width is module-level; ExternalModel._query calls it.
OWN_TEXT_REFUSALS = ("ExternalModel.__init__", "ExternalModel._query", "_check_width")


def _raised_model_errors(function: ast.FunctionDef) -> list[ast.Name]:
    """The ``ModelError`` names ``function`` calls in ``raise ModelError(...)``."""
    return [
        node.exc.func
        for node in ast.walk(function)
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
        and isinstance(node.exc.func, ast.Name) and node.exc.func.id == "ModelError"
    ]


def refusals_not_built_by_the_helper() -> list[str]:
    """``ExternalModel.<method> line <n>`` for each ``ModelError`` an
    ``ExternalModel`` method names outside ``_refused``, but for the one
    ``raise ModelError(...)`` of each method in ``OWN_TEXT_REFUSALS``."""
    tree = ast.parse((SRC / "models.py").read_text())
    cls = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "ExternalModel")
    found = []
    for method in cls.body:
        if not isinstance(method, ast.FunctionDef) or method.name == "_refused":
            continue
        where = f"ExternalModel.{method.name}"
        named = [node for node in ast.walk(method) if isinstance(node, ast.Name) and node.id == "ModelError"]
        if where in OWN_TEXT_REFUSALS:
            named = [node for node in named if node not in _raised_model_errors(method)[:1]]
        found += [f"{where} line {line}" for line in sorted(node.lineno for node in named)]
    return found


def test_external_model_refusals_are_built_by_one_helper():
    found = refusals_not_built_by_the_helper()
    assert not found, "ModelError not built by ExternalModel._refused:\n" + "\n".join(found)


def test_own_text_refusals_are_listed_by_name():
    """Each function ``OWN_TEXT_REFUSALS`` names exists and raises one
    ``ModelError`` of its own text, so the list cannot go stale."""
    tree = ast.parse((SRC / "models.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        functions.update({f"{cls.name}.{node.name}": node for node in cls.body if isinstance(node, ast.FunctionDef)})
    assert [len(_raised_model_errors(functions[name])) for name in OWN_TEXT_REFUSALS] == [1, 1, 1]


def _calls(tree: ast.AST, owner: str, attr: str) -> list[ast.Call]:
    """The calls of ``<owner>.<attr>(...)`` in ``tree``."""
    return [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == attr
        and isinstance(node.func.value, ast.Name) and node.func.value.id == owner
    ]


def test_cli_checks_and_names_a_run_s_inputs_in_one_place():
    """``cli.py`` checks the engine settings against the data once, in
    ``_load_data``, and neither ``cmd_explain`` nor ``cmd_evaluate`` opens a
    ``dataio.naming`` scope: ``_load_manifest`` and ``_load_data`` alone
    decide which file a refusal of a manifest's entry or setting names."""
    tree = ast.parse((SRC / "cli.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    callers = [name for name, function in functions.items() for _ in _calls(function, "pipeline", "explain_setting")]
    assert callers == ["_load_data"] and len(_calls(tree, "pipeline", "explain_setting")) == 1
    assert [name for name in ("cmd_explain", "cmd_evaluate") if _calls(functions[name], "dataio", "naming")] == []
