"""Every parameter of a package function is read by its body, every
parameter with a default is passed by some call, and some call passes it a
value other than its default; no required parameter is passed one literal
by every call; every function, class and method of the package is loaded by
some code other than its own definition that a pipeline, a script, the
benchmark or an acceptance criterion runs.

A parameter no body reads, one no caller sets, one every caller sets to its
default or to one literal, and a member nothing loads are options that
change nothing.
Module-level functions and the methods of module-level classes are checked;
``self`` and ``cls`` are exempt, and so are functions nested in a function
body, since callbacks follow the signature of the protocol they are handed
to.  Calls are matched to a parameter by the callee's name alone, anywhere in
``src/``, ``scripts/``, ``tests/`` and ``perfbench/``.  A member is loaded
only by a load in ``src/``, ``scripts/``, ``perfbench/`` or
``tests/test_acceptance.py``, or by a name the benchmark's tracer patches: a
member that only unit tests load adds code to keep and no behaviour to the
tool.
"""

import ast
import functools
from collections import defaultdict
from pathlib import Path

import diffusepde

PACKAGE = Path(diffusepde.__file__).parent


def _checked_functions(tree):
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{item.name}", item) for item in node.body
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node


def _unread_parameters(fn):
    args = fn.args
    params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
    read = {node.id for stmt in fn.body for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [p for p in params if p not in {"self", "cls"} | read]


def test_every_parameter_is_read():
    unread = [f"{path.name}: {name}({param})"
              for path in sorted(PACKAGE.glob("*.py"))
              for name, fn in _checked_functions(ast.parse(path.read_text()))
              for param in _unread_parameters(fn)]
    assert unread == []


ROOT = PACKAGE.parent.parent
CALLER_DIRS = ("src", "scripts", "tests", "perfbench")
READER_DIRS = ("src", "scripts", "perfbench")
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"
TRACING = ROOT / "perfbench" / "tracing.py"


@functools.cache
def _caller_trees():
    """Path -> parsed module of every Python file that may call the package."""
    return {path: ast.parse(path.read_text())
            for d in CALLER_DIRS for path in sorted((ROOT / d).rglob("*.py"))}


def _package_trees():
    return {path: tree for path, tree in _caller_trees().items() if path.parent == PACKAGE}


def _is_static(fn):
    return any(isinstance(d, ast.Name) and d.id == "staticmethod"
               for d in fn.decorator_list)


def _parameters(fn, bound):
    """(name, position, default) of each parameter a call writes; the
    default is ``None`` for a required parameter.

    The position counts the arguments a call writes, so it skips the bound
    ``self``/``cls``; it is ``None`` for a keyword-only parameter.
    """
    args = fn.args
    positional = args.posonlyargs + args.args
    skip = int(bound)
    defaults = [None] * (len(positional) - len(args.defaults)) + args.defaults
    yield from ((a.arg, i - skip, d) for i, (a, d) in enumerate(zip(positional, defaults))
                if i >= skip)
    yield from ((a.arg, None, d) for a, d in zip(args.kwonlyargs, args.kw_defaults))


def _package_parameters():
    for path, tree in _package_trees().items():
        for qualname, fn in _checked_functions(tree):
            cls = qualname.rpartition(".")[0]
            callee = cls if fn.name == "__init__" else fn.name
            bound = bool(cls) and not _is_static(fn)
            for param in _parameters(fn, bound):
                yield path, qualname, callee, param


def _package_defaults():
    return ((path, qualname, callee, param)
            for path, qualname, callee, param in _package_parameters()
            if param[2] is not None)


def _calls():
    """(path, call, callee name) of every call of a named function or attribute."""
    for path, tree in _caller_trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name is not None:
                    yield path, node, name


def _calls_by_callee():
    """Per callee name: the most positional arguments a call passes, the
    keywords passed, and the names some call splats a mapping of unknown keys to."""
    n_pos, keywords, any_key = defaultdict(int), defaultdict(set), set()
    for _, node, name in _calls():
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        n_pos[name] = max(n_pos[name], float("inf") if starred else len(node.args))
        for kw in node.keywords:
            if kw.arg is not None:
                keywords[name].add(kw.arg)
            elif isinstance(kw.value, ast.Dict) and all(
                    isinstance(k, ast.Constant) and isinstance(k.value, str)
                    for k in kw.value.keys):
                keywords[name].update(k.value for k in kw.value.keys)
            else:
                any_key.add(name)
    return n_pos, keywords, any_key


def test_every_defaulted_parameter_is_passed_by_some_call():
    """A parameter with a default that no call passes is a constant in disguise."""
    n_pos, keywords, any_key = _calls_by_callee()
    unset = [f"{path.name}: {qualname}({param})"
             for path, qualname, callee, (param, position, _) in _package_defaults()
             if not (callee in any_key or param in keywords[callee]
                     or (position is not None and position < n_pos[callee]))]
    assert unset == []


def _module_constants():
    """(module, name, value expression) of each upper-case name a package
    module assigns at its top level."""
    for path, tree in _package_trees().items():
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            yield from ((path.stem, t.id, node.value) for t in targets
                        if isinstance(t, ast.Name) and t.id.isupper())


def _names_read_from(tree, module):
    """Top-level names of the package module ``module`` that ``tree`` reads:
    names imported from it and read bare, and attributes read off the module."""
    imported, aliases = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = (node.module or "").rpartition(".")[2]
            for alias in node.names:
                if source == module:
                    imported[alias.asname or alias.name] = alias.name
                elif alias.name == module:
                    aliases.add(alias.asname or module)
        elif isinstance(node, ast.Import):
            aliases.update(alias.asname or alias.name for alias in node.names
                           if alias.name == f"diffusepde.{module}")
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(imported.get(node.id))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            owner = node.value
            if ((isinstance(owner, ast.Name) and owner.id in aliases)
                    or (isinstance(owner, ast.Attribute) and owner.attr == module)):
                read.add(node.attr)
    return read


def test_every_module_constant_is_read():
    """A module-level constant that neither its module nor an importer reads
    is a setting that changes nothing."""
    trees = _caller_trees()
    unread = []
    for module, name, _ in _module_constants():
        own = trees[PACKAGE / f"{module}.py"]
        if any(isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
               and node.id == name for node in ast.walk(own)):
            continue
        if not any(name in _names_read_from(tree, module) for tree in trees.values()):
            unread.append(f"{module}.{name}")
    assert unread == []


UNKNOWN = object()


@functools.cache
def _constant_values():
    """module -> {name: value} of the package constants assigned a literal."""
    values = defaultdict(dict)
    for module, name, node in _module_constants():
        value = _literal(node)
        if value is not UNKNOWN:
            values[module][name] = value
    return dict(values)


def _literal(node):
    try:
        return ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError):
        return UNKNOWN


@functools.cache
def _constants_in_scope(path):
    """(bare, modules) for the file at ``path``: package constants it reads by
    a bare name, with their values, and its names of package modules."""
    constants = _constant_values()
    bare = dict(constants.get(path.stem, {})) if path.parent == PACKAGE else {}
    modules = {}
    for node in ast.walk(_caller_trees()[path]):
        if isinstance(node, ast.ImportFrom):
            source = (node.module or "").rpartition(".")[2]
            for alias in node.names:
                if alias.name in constants.get(source, {}):
                    bare[alias.asname or alias.name] = constants[source][alias.name]
                elif alias.name in constants:
                    modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Import):
            modules.update((alias.asname or alias.name, alias.name.rpartition(".")[2])
                           for alias in node.names if alias.name.startswith("diffusepde."))
    return bare, modules


def _value(node, path):
    """The value of a literal or of a package constant read in the file at
    ``path``; ``UNKNOWN`` for any other expression."""
    value = _literal(node)
    if value is not UNKNOWN:
        return value
    bare, modules = _constants_in_scope(path)
    if isinstance(node, ast.Name):
        return bare.get(node.id, UNKNOWN)
    if isinstance(node, ast.Attribute):
        owner = node.value
        module = (modules.get(owner.id) if isinstance(owner, ast.Name)
                  else owner.attr if isinstance(owner, ast.Attribute) else None)
        return _constant_values().get(module, {}).get(node.attr, UNKNOWN)
    return UNKNOWN


def _passed(call, param, position):
    """The expression ``call`` passes to ``param``: ``None`` when it passes
    none, and the call itself when a splat may hide it."""
    if position is not None:
        head = call.args[:position + 1]
        if any(isinstance(arg, ast.Starred) for arg in head):
            return call
        if len(head) > position:
            return head[position]
    for kw in call.keywords:
        if kw.arg == param:
            return kw.value
        if kw.arg is None:
            keys = getattr(kw.value, "keys", [None])
            if not all(isinstance(k, ast.Constant) and isinstance(k.value, str) for k in keys):
                return call
            values = dict(zip((k.value for k in keys), kw.value.values))
            if param in values:
                return values[param]
    return None


def test_no_defaulted_parameter_is_passed_only_its_default():
    """A parameter every call passes its default is a constant in disguise.

    A literal, or a package constant, equal to the default counts as the
    default; any other expression counts as another value.
    """
    params = defaultdict(list)
    for path, qualname, callee, (param, position, default) in _package_defaults():
        value = _value(default, path)
        if value is not UNKNOWN:
            params[callee].append((f"{path.name}: {qualname}({param})", param, position, value))
    passed, varied = set(), set()
    for path, call, name in _calls():
        for label, param, position, default in params.get(name, ()):
            arg = _passed(call, param, position)
            if arg is None:
                continue
            passed.add(label)
            value = UNKNOWN if arg is call else _value(arg, path)
            if value is UNKNOWN or value != default:
                varied.add(label)
    assert sorted(passed - varied) == []


def _package_members():
    """(label, name, definition, is method) of each module-level function and
    class of the package and each method of such a class, dunders aside."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for path, tree in _package_trees().items():
        for node in tree.body:
            if isinstance(node, defs + (ast.ClassDef,)):
                yield f"{path.name}: {node.name}", node.name, node, False
            if isinstance(node, ast.ClassDef):
                yield from ((f"{path.name}: {node.name}.{item.name}", item.name, item, True)
                            for item in node.body if isinstance(item, defs)
                            and not (item.name.startswith("__") and item.name.endswith("__")))


def _loads(node):
    """Counts of the names ``node`` loads bare and as attributes."""
    bare, attrs = defaultdict(int), defaultdict(int)
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            bare[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            attrs[sub.attr] += 1
    return bare, attrs


def _reader_trees():
    """Parsed modules whose loads keep a member alive: the package, the
    scripts, the benchmark and the acceptance criteria, but no unit test."""
    return [tree for path, tree in _caller_trees().items()
            if path.relative_to(ROOT).parts[0] in READER_DIRS or path == ACCEPTANCE]


def _traced_attributes():
    """Attribute names the benchmark's tracer passes to ``Tracer.patch``; it
    binds them by name, so a member it names is loaded."""
    tree = _caller_trees()[TRACING]
    aliases = {target.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
               and isinstance(node.value, ast.Attribute) and node.value.attr == "patch"
               for target in node.targets if isinstance(target, ast.Name)}
    return {node.args[1].value for node in ast.walk(tree)
            if isinstance(node, ast.Call) and len(node.args) > 1
            and ((isinstance(node.func, ast.Name) and node.func.id in aliases)
                 or (isinstance(node.func, ast.Attribute) and node.func.attr == "patch"))
            and isinstance(node.args[1], ast.Constant)}


def test_every_package_member_is_loaded():
    """A function, class or method that no reader (:func:`_reader_trees`,
    :func:`_traced_attributes`) loads by name outside its own definition is
    dead; a method counts only when loaded as an attribute."""
    bare, attrs = defaultdict(int), defaultdict(int)
    for tree in _reader_trees():
        tree_bare, tree_attrs = _loads(tree)
        for name, count in tree_bare.items():
            bare[name] += count
        for name, count in tree_attrs.items():
            attrs[name] += count
    for name in _traced_attributes():
        attrs[name] += 1
    unloaded = []
    for label, name, node, is_method in _package_members():
        own_bare, own_attrs = _loads(node)
        outside = attrs[name] - own_attrs[name]
        if not is_method:
            outside += bare[name] - own_bare[name]
        if outside <= 0:
            unloaded.append(label)
    assert unloaded == []


def test_no_required_parameter_is_passed_only_one_value():
    """A required parameter that every call passes the same literal, or
    package constant, is a constant in disguise too.  A call that passes it
    any other expression, or none (another callee of the same name), counts
    as another value."""
    params = defaultdict(list)
    for path, qualname, callee, (param, position, default) in _package_parameters():
        if default is None:
            params[callee].append((f"{path.name}: {qualname}({param})", param, position))
    values = defaultdict(list)
    for path, call, name in _calls():
        for label, param, position in params.get(name, ()):
            arg = _passed(call, param, position)
            values[label].append(UNKNOWN if arg is None or arg is call else _value(arg, path))
    fixed = [label for label, passed in values.items()
             if all(v is not UNKNOWN and v == passed[0] for v in passed)]
    assert sorted(fixed) == []
