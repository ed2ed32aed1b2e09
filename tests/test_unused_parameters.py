"""Every parameter of a package function is read by its body, and every
parameter with a default is passed by some call.

A parameter no body reads, or one no caller sets, is an option that changes
nothing.  Module-level functions and the methods of module-level classes are
checked; ``self`` and ``cls`` are exempt, and so are functions nested in a
function body, since callbacks follow the signature of the protocol they are
handed to.  Calls are matched to a parameter by the callee's name alone,
anywhere in ``src/``, ``scripts/``, ``tests/`` and ``perfbench/``.
"""

import ast
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


def _is_static(fn):
    return any(isinstance(d, ast.Name) and d.id == "staticmethod"
               for d in fn.decorator_list)


def _defaulted_parameters(fn, bound):
    """(name, position) of each parameter with a default.

    The position counts the arguments a call writes, so it skips the bound
    ``self``/``cls``; it is ``None`` for a keyword-only parameter.
    """
    args = fn.args
    positional = args.posonlyargs + args.args
    skip = int(bound)
    first = len(positional) - len(args.defaults)
    yield from ((a.arg, i - skip) for i, a in enumerate(positional) if i >= first)
    yield from ((a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                if d is not None)


def _package_defaults():
    for path in sorted(PACKAGE.glob("*.py")):
        for qualname, fn in _checked_functions(ast.parse(path.read_text())):
            cls = qualname.rpartition(".")[0]
            callee = cls if fn.name == "__init__" else fn.name
            bound = bool(cls) and not _is_static(fn)
            for param in _defaulted_parameters(fn, bound):
                yield path.name, qualname, callee, param


def _calls_by_callee():
    """Per callee name: the most positional arguments a call passes, the
    keywords passed, and the names some call splats a mapping of unknown keys to."""
    n_pos, keywords, any_key = defaultdict(int), defaultdict(set), set()
    for path in (p for d in CALLER_DIRS for p in sorted((ROOT / d).rglob("*.py"))):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is None:
                continue
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
    unset = [f"{module}: {qualname}({param})"
             for module, qualname, callee, (param, position) in _package_defaults()
             if not (callee in any_key or param in keywords[callee]
                     or (position is not None and position < n_pos[callee]))]
    assert unset == []


def _module_constants():
    """(module, name) of each upper-case name a package module assigns at its top level."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            yield from ((path.stem, t.id) for t in targets
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
    trees = {path: ast.parse(path.read_text())
             for d in CALLER_DIRS for path in sorted((ROOT / d).rglob("*.py"))}
    unread = []
    for module, name in _module_constants():
        own = trees[PACKAGE / f"{module}.py"]
        if any(isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
               and node.id == name for node in ast.walk(own)):
            continue
        if not any(name in _names_read_from(tree, module) for tree in trees.values()):
            unread.append(f"{module}.{name}")
    assert unread == []
