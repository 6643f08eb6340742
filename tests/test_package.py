"""Package hygiene: every public name resolves, and no module imports a
name it never uses.  A dependency-free stand-in for a linter."""

import ast
from pathlib import Path

import afterimage

SRC = Path(afterimage.__file__).parent


def test_public_names_resolve():
    missing = [name for name in afterimage.__all__
               if not hasattr(afterimage, name)]
    assert missing == []


def _unused_imports(path):
    """``file:line: name`` for each imported name the module never reads;
    ``__future__`` imports and names in the module's ``__all__`` pass."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return [f"{path.name}:{line}: {name}"
            for name, line in sorted(imported.items()) if name not in used]


def test_no_module_imports_an_unused_name():
    unused = [problem for path in sorted(SRC.glob("*.py"))
              for problem in _unused_imports(path)]
    assert unused == []
