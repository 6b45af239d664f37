"""Static checks on the package source, in place of a linter: every import
is used, every private module-level name is referenced somewhere in the
package, every module-level constant is read or exported, every error type
is used outside errors.py, no module imports
scipy (numpy is the one runtime dependency), and every flag a CLI
subcommand defines is read for that subcommand."""

import argparse
import ast
from pathlib import Path

import pytest

from matrixbs.cli import _build_parser

SRC = Path(__file__).resolve().parent.parent / "src" / "matrixbs"
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
         for path in sorted(SRC.glob("*.py"))}


def _exported(tree):
    """Names listed in the module's __all__."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def _read(tree):
    """Identifiers a module reads: loaded names and attribute names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _named(tree):
    """Identifiers a module reads or imports by name."""
    return _read(tree) | {alias.name for node in ast.walk(tree)
                          if isinstance(node, ast.ImportFrom) for alias in node.names}


@pytest.mark.parametrize("module", sorted(TREES))
def test_no_unused_imports(module):
    tree = TREES[module]
    used = _read(tree) | _exported(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append(f"line {node.lineno}: {bound}")
    assert unused == []


def test_private_module_names_referenced():
    referenced = set().union(*map(_named, TREES.values()))
    unreferenced = []
    for module, tree in TREES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            unreferenced += [f"{module}: {name}" for name in names
                             if name.startswith("_") and not name.startswith("__")
                             and name not in referenced]
    assert unreferenced == []


def test_every_constant_is_read():
    # a module-level UPPER_CASE name that no module reads and none exports is
    # left over from the code that read it
    wanted = set().union(*map(_read, TREES.values()), *map(_exported, TREES.values()))
    unread = [f"{module}: {target.id}" for module, tree in TREES.items() for node in tree.body
              if isinstance(node, ast.Assign) for target in node.targets
              if isinstance(target, ast.Name) and target.id.isupper() and target.id not in wanted]
    assert unread == []


def test_every_error_type_is_used():
    # an error or warning type that no other module names is left over from
    # the code that raised it
    used = set().union(*(_named(tree) for module, tree in TREES.items()
                         if module != "errors.py"))
    defined = [node.name for node in TREES["errors.py"].body if isinstance(node, ast.ClassDef)]
    assert [name for name in defined if name not in used] == []


@pytest.mark.parametrize("module", sorted(TREES))
def test_no_scipy_optimize(module):
    imported = []
    for node in ast.walk(TREES[module]):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported += [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
    assert not [name for name in imported if name.split(".")[0] == "scipy"]


def _args_reads(name, functions, seen):
    """Flags read from args in cli function name and in every cli function
    it passes args to: args.<dest>, getattr(args, "<dest>", ...) and
    _require(args, "<dest>", ...)."""
    seen.add(name)
    reads = set()
    for node in ast.walk(functions[name]):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "args"):
            reads.add(node.attr)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and any(
                isinstance(arg, ast.Name) and arg.id == "args" for arg in node.args):
            callee = node.func.id
            if callee in ("getattr", "_require"):
                reads |= {arg.value for arg in node.args[1:]
                          if isinstance(arg, ast.Constant) and isinstance(arg.value, str)}
            elif callee in functions and callee not in seen:
                reads |= _args_reads(callee, functions, seen)
    return reads


def test_every_cli_flag_is_read():
    functions = {node.name: node for node in TREES["cli.py"].body
                 if isinstance(node, ast.FunctionDef)}
    common = _args_reads("main", functions, set())  # --config, through _merge_config
    subparsers = next(action for action in _build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    unread = []
    for command, parser in subparsers.choices.items():
        reads = common | _args_reads(f"_cmd_{command}", functions, set())
        unread += [f"{command} --{action.dest.replace('_', '-')}" for action in parser._actions
                   if action.dest != "help" and action.dest not in reads]
    assert not unread, "flags never read: " + ", ".join(unread)
