"""Every parameter of a package function is read by its body.

A parameter no body reads is an option that changes nothing.  Module-level
functions and the methods of module-level classes are checked; ``self`` and
``cls`` are exempt, and so are functions nested in a function body, since
callbacks follow the signature of the protocol they are handed to.
"""

import ast
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
