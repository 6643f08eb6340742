"""Package hygiene: every public name resolves, no module imports a name
it never uses, no private definition or attribute goes unread, no public
definition is reached only by tests, and no module touches another
module's private names.  A dependency-free stand-in for a linter."""

import ast
import collections
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


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def test_every_private_definition_is_referenced():
    # a private function, class or method that no line names is dead
    defined, referenced = {}, set()
    for fname, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) and _private(node.name):
                defined[node.name] = f"{fname}:{node.lineno}"
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    dead = [f"{where}: {name}" for name, where in sorted(defined.items())
            if name not in referenced]
    assert dead == []


def test_every_private_attribute_assigned_is_read():
    # an attribute that is stored but never loaded keeps state nothing uses
    stored, loaded = {}, set()
    for fname, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and _private(node.attr):
                if isinstance(node.ctx, ast.Store):
                    stored.setdefault(node.attr, f"{fname}:{node.lineno}")
                else:
                    loaded.add(node.attr)
    unread = [f"{where}: {name}" for name, where in sorted(stored.items())
              if name not in loaded]
    assert unread == []


def _defined_private_names(tree):
    """The private names a module defines: functions, classes, methods,
    module and class variables, and attributes it stores."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                            ast.Store):
            names.add(node.attr)
    bodies = [tree.body] + [node.body for node in ast.walk(tree)
                            if isinstance(node, ast.ClassDef)]
    for body in bodies:
        for node in body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign)
                       else [])
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return {name for name in names if _private(name)}


def test_no_module_reaches_into_another_modules_private_names():
    # a private name is its module's own decision: another module that
    # imports it or reads it as an attribute holds a second copy of it
    trees = _trees()
    defined = {fname: _defined_private_names(tree)
               for fname, tree in trees.items()}
    leaks = []
    for fname, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                used = [(alias.name, alias.lineno) for alias in node.names]
            elif (isinstance(node, ast.Attribute)
                  and not isinstance(node.ctx, ast.Store)):
                used = [(node.attr, node.lineno)]
            else:
                continue
            for name, line in used:
                owners = sorted(other for other, names in defined.items()
                                if other != fname and name in names)
                if _private(name) and name not in defined[fname] and owners:
                    leaks.append(f"{fname}:{line}: {name} "
                                 f"({', '.join(owners)})")
    assert leaks == []


#: the argparse hook that the standard library calls by name
_CALLED_BY_LIBRARY = {"_Parser.error"}

#: public method names of the containers the package keeps its state in:
#: ``self.owner.clear()`` calls a dict's method, not a class's own
_CONTAINER_METHODS = {name for kind in (dict, list, set,
                                        collections.OrderedDict)
                      for name in dir(kind) if not name.startswith("_")}


def _names(tree):
    """Every name a tree reads, imports or spells as a dotted string,
    the form in which perfbench names the functions it wraps.  An
    attribute named like a container method counts only on ``self``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            if (node.attr not in _CONTAINER_METHODS
                    or isinstance(node.value, ast.Name)
                    and node.value.id == "self"):
                names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and all(part.isidentifier() for part in node.value.split("."))):
            names.update(node.value.split("."))
    return names


def _unreached_public_definitions():
    """``Class.method`` or ``function`` for each public definition in
    the package that no code in the package or the benchmark names.
    ``__init__.py`` only re-exports, so a name it exports counts as
    reached only when a module or the benchmark names it too."""
    trees = _trees()
    named = set()
    for fname, tree in trees.items():
        if fname != "__init__.py":
            named |= _names(tree)
    for path in sorted((SRC.parents[1] / "perfbench").glob("*.py")):
        named |= _names(ast.parse(path.read_text(encoding="utf-8")))
    unreached = set()
    for tree in trees.values():
        scopes = [("", tree)] + [(node.name + ".", node)
                                 for node in ast.walk(tree)
                                 if isinstance(node, ast.ClassDef)]
        for prefix, scope in scopes:
            unreached |= {prefix + node.name for node in scope.body
                          if isinstance(node, (ast.FunctionDef,
                                               ast.AsyncFunctionDef,
                                               ast.ClassDef))
                          and not node.name.startswith("_")
                          and node.name not in named}
    return unreached


def test_every_public_definition_is_reached():
    # a public function, class or method that only tests reach is dead
    # code
    assert _unreached_public_definitions() - _CALLED_BY_LIBRARY == set()
