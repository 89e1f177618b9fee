"""Source hygiene, checked with the standard-library `ast` module: every
top-level import of a package module is used, every `Config` field is
read somewhere in the package, and `eval_array` stays the one numeric
evaluator of the expression classes."""

import ast
import dataclasses
from pathlib import Path

from smoothparam.config import Config

SRC = Path(__file__).resolve().parent.parent / "src" / "smoothparam"


def _modules():
    return {p.name: ast.parse(p.read_text(), filename=str(p))
            for p in sorted(SRC.glob("*.py"))}


def _unused_imports(tree):
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_no_unused_top_level_imports():
    unused = {name: _unused_imports(tree)
              for name, tree in _modules().items() if name != "__init__.py"}
    assert {k: v for k, v in unused.items() if v} == {}


def test_every_config_field_is_read():
    read = {n.attr for name, tree in _modules().items() if name != "config.py"
            for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    fields = [f.name for f in dataclasses.fields(Config)]
    assert [f for f in fields if f not in read] == []


def test_eval_complex_only_on_the_base_and_branch_classes():
    # FunctionExpr's is the one-point case of eval_array; BranchExpr's
    # continues the branch from its seed.  No other class grows a second,
    # per-point evaluator.
    tree = _modules()["funcs.py"]
    owners = [c.name for c in tree.body if isinstance(c, ast.ClassDef)
              and any(isinstance(d, ast.FunctionDef) and d.name == "eval_complex"
                      for d in c.body)]
    assert owners == ["FunctionExpr", "BranchExpr"]
