"""Package hygiene: every public name resolves, no module imports a name
it never uses, no private definition or attribute goes unread, no public
definition is reached only by tests, no module touches another module's
private names, no cache key is tested for truth, every library call
the README shows binds to its signature, and importing the package loads
no ``dataclasses``.  A dependency-free stand-in for a linter."""

import ast
import collections
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import afterimage

SRC = Path(afterimage.__file__).parent


def test_public_names_resolve():
    missing = [name for name in afterimage.__all__
               if not hasattr(afterimage, name)]
    assert missing == []


def test_importing_the_package_loads_no_dataclasses():
    # importing dataclasses, and the inspect it pulls in, slows every
    # CLI start; pytest and Hypothesis load it themselves, so a fresh
    # interpreter imports the package
    code = ("import sys, afterimage, afterimage.cli, afterimage.oracle; "
            "sys.exit('dataclasses' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    assert subprocess.run([sys.executable, "-c", code], env=env,
                          timeout=60).returncode == 0


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


def _truth_tested(tree):
    """Every expression whose truth value a tree takes: a test of
    ``if``, ``while``, a conditional expression, ``assert`` or a
    comprehension, the operand of ``not`` and each operand of ``and``
    and ``or``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.If, ast.While, ast.IfExp, ast.Assert)):
            yield node.test
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            yield node.operand
        elif isinstance(node, ast.BoolOp):
            yield from node.values
        elif isinstance(node, ast.comprehension):
            yield from node.ifs


def test_no_cache_key_is_tested_for_truth():
    # a key is slice << set_bits | set, so key 0 (slice 0, set 0) is a
    # real placement that reads false: a missing key is tested with
    # ``is None`` or ``is not None``
    tested = [f"{fname}:{node.lineno}: {name}"
              for fname, tree in _trees().items()
              for node in _truth_tested(tree)
              for name in [node.id if isinstance(node, ast.Name)
                           else node.attr if isinstance(node, ast.Attribute)
                           else ""]
              if name.endswith("key")]
    assert tested == []


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


def _bench_trees():
    return [ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted((SRC.parents[1] / "perfbench").glob("*.py"))]


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
    for tree in _bench_trees():
        named |= _names(tree)
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


#: defaulted parameters that no call in the package or the benchmark
#: sets, each kept for a reason; the list may only shrink
_UNSET_KEPT = {
    # tests/test_uarch.py compares the TLB with a stamp-scan reference
    # over drawn capacities, and a property strategy is never narrowed
    "Tlb.__init__.capacity",
}


def _defaults(fn):
    """(name, default node) of each defaulted parameter, positional
    ones first."""
    args = fn.args
    positional = args.posonlyargs + args.args
    pairs = list(zip(positional[len(positional) - len(args.defaults):],
                     args.defaults))
    pairs += [(arg, default)
              for arg, default in zip(args.kwonlyargs, args.kw_defaults)
              if default is not None]
    return [(arg.arg, default) for arg, default in pairs]


def _equals_default(value, default):
    """True when a call passes a literal equal to the default."""
    try:
        return ast.literal_eval(value) == ast.literal_eval(default)
    except ValueError:
        return False


def _dispatch_tables(trees):
    """Name -> function names, for each module-level name bound to a
    dict display whose values are all plain names."""
    tables = {}
    for tree in trees:
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Dict)
                    and all(isinstance(v, ast.Name)
                            for v in node.value.values)):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        tables[target.id] = [v.id for v in node.value.values]
    return tables


def _callees(call, tables):
    """The definition names a call can reach: its function's name or
    method attribute, or each function of a dispatch table it indexes."""
    func = call.func
    if isinstance(func, ast.Name):
        return [func.id]
    if isinstance(func, ast.Attribute):
        return [func.attr]
    if (isinstance(func, ast.Subscript) and isinstance(func.value, ast.Name)
            and func.value.id in tables):
        return tables[func.value.id]
    return []


def _unset_defaults():
    """``Class.method.param`` or ``function.param`` for each defaulted
    parameter in the package that no call in the package or the
    benchmark sets.  A call sets a parameter when it binds it, by
    position or by keyword, to anything but a literal equal to its
    default.  Calls match a definition by function name, by method
    attribute, or by class name for ``__init__``; a call through a
    dispatch table, ``NAME[...](...)`` with ``NAME`` bound at module
    level to a dict display of function names, matches each function
    in it.  A ``*`` or ``**`` argument sets every parameter of what it
    matches, and a keyword at a call that names no definition sets that
    parameter everywhere."""
    trees = _trees()
    definitions = collections.defaultdict(list)
    for tree in trees.values():
        methods = {id(node): scope.name for scope in ast.walk(tree)
                   if isinstance(scope, ast.ClassDef) for node in scope.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            cls = methods.get(id(node))
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in node.decorator_list)
            params = [a.arg for a in node.args.posonlyargs + node.args.args]
            bound_self = cls is not None and not static
            entry = (f"{cls}.{node.name}" if cls else node.name,
                     params[bound_self:], _defaults(node))
            # ``super().__init__`` reaches a library class: an
            # ``__init__`` matches only by its class's name
            definitions[cls if node.name == "__init__" else node.name
                        ].append(entry)
    unset = {f"{where}.{name}" for entries in definitions.values()
             for where, _params, defaults in entries
             for name, _default in defaults}
    every_tree = [*trees.values(), *_bench_trees()]
    tables = _dispatch_tables(every_tree)
    calls = [node for tree in every_tree
             for node in ast.walk(tree) if isinstance(node, ast.Call)]
    for call in calls:
        callees = [c for c in _callees(call, tables) if c in definitions]
        if not callees:
            named = {kw.arg for kw in call.keywords}
            unset = {p for p in unset if p.rsplit(".", 1)[1] not in named}
            continue
        spread = (any(isinstance(a, ast.Starred) for a in call.args)
                  or any(kw.arg is None for kw in call.keywords))
        for where, params, defaults in (entry for callee in callees
                                        for entry in definitions[callee]):
            default_of = dict(defaults)
            bound = [*zip(params, call.args),
                     *((kw.arg, kw.value) for kw in call.keywords)]
            unset -= {f"{where}.{name}" for name, value in bound
                      if name in default_of
                      and not _equals_default(value, default_of[name])}
            if spread:
                unset -= {f"{where}.{name}" for name in default_of}
    return unset


def test_every_default_is_set_by_some_call():
    # a default that no call overrides is a constant spelt as an option
    assert _unset_defaults() == _UNSET_KEPT


# --------------------------------------------------------------------------
# the README's library calls
# --------------------------------------------------------------------------


README = SRC.parents[1] / "README.md"


def _readme_calls(text):
    """(name, positional count, keyword names) for each call that the
    ``python`` block under ``## Library use`` makes to a name it imports
    from ``afterimage``, then for each ``rev_*(...)`` signature that the
    paragraph below the block names, whose parameters bind by name."""
    section = text.split("## Library use\n", 1)[1]
    code, rest = section.split("```python\n", 1)[1].split("```", 1)
    paragraph = rest.strip().split("\n\n", 1)[0]
    tree = ast.parse(code)
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and node.module == "afterimage" for alias in node.names}
    calls = [(node.func.id, len(node.args),
              [kw.arg for kw in node.keywords])
             for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id in imported]
    for name, params in re.findall(r"`(rev_\w+)\(([^)]*)\)`", paragraph):
        calls.append((name, 0, [p.strip() for p in params.split(",")]))
    return calls


def _binding_errors(calls):
    """``name: reason`` for each call whose arguments do not bind; the
    values are placeholders, so nothing runs."""
    errors = []
    for name, n_positional, keywords in calls:
        try:
            inspect.signature(getattr(afterimage, name)).bind(
                *[None] * n_positional, **dict.fromkeys(keywords))
        except TypeError as exc:
            errors.append(f"{name}: {exc}")
    return errors


def test_readme_library_calls_bind():
    calls = _readme_calls(README.read_text(encoding="utf-8"))
    # the paragraph names every bench's signature
    assert {name for name, *_ in calls if name.startswith("rev_")} == {
        name for name in afterimage.__all__ if name.startswith("rev_")}
    assert _binding_errors(calls) == []


def test_readme_check_rejects_a_stale_signature():
    text = README.read_text(encoding="utf-8").replace(
        "`rev_entries(cache_config)`", "`rev_entries(n_ips)`")
    errors = _binding_errors(_readme_calls(text))
    assert len(errors) == 1 and errors[0].startswith("rev_entries: ")
