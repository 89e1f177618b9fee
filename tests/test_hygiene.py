"""Source hygiene, checked with the standard-library `ast` module: every
top-level import of a package module is used, every top-level function and
class is read by the package or exported, every module-level constant is
read by the package, every error class is raised, every method is named
outside its own body, every parameter is read, and `eval_array` stays the
one numeric evaluator of the expression classes."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "smoothparam"
TESTS = Path(__file__).resolve().parent


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


def _names(node):
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_top_level_def_is_read_or_exported():
    modules = _modules()
    exported = {a.asname or a.name for n in modules["__init__.py"].body
                if isinstance(n, ast.ImportFrom) for a in n.names}
    named = sum((_names(tree) for tree in modules.values()), Counter())
    unread = [f"{mod}:{d.name}" for mod, tree in modules.items()
              for d in tree.body
              if isinstance(d, (ast.FunctionDef, ast.ClassDef))
              and d.name not in exported
              and named[d.name] == _names(d)[d.name]]
    assert unread == []


def test_every_method_is_named_outside_its_own_body():
    # a method that neither the package nor the tests name, other than in
    # its own body, is one nothing calls; dunders are called by Python
    modules = _modules()
    named = sum((_names(tree) for tree in modules.values()), Counter())
    for path in sorted(TESTS.glob("*.py")):
        named += _names(ast.parse(path.read_text(), filename=str(path)))
    unnamed = [f"{mod}:{c.name}.{d.name}" for mod, tree in modules.items()
               for c in tree.body if isinstance(c, ast.ClassDef)
               for d in c.body if isinstance(d, ast.FunctionDef)
               and not d.name.startswith("__")
               and named[d.name] == _names(d)[d.name]]
    assert unnamed == []


def test_every_module_level_constant_is_read():
    modules = _modules()
    read = set()
    for tree in modules.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
    unread = [f"{mod}:{t.id}" for mod, tree in modules.items()
              for s in tree.body if isinstance(s, (ast.Assign, ast.AnnAssign))
              for t in (s.targets if isinstance(s, ast.Assign) else [s.target])
              if isinstance(t, ast.Name) and not t.id.startswith("__")
              and t.id not in read]
    assert unread == []


def test_every_error_class_is_raised():
    # an error type that no code constructs or raises is a failure no caller
    # can meet; the branch tracker builds its errors first and raises later
    modules = _modules()
    classes = [c.name for c in modules["errors.py"].body
               if isinstance(c, ast.ClassDef) and c.name != "SmoothParamError"]
    made = Counter()
    for tree in modules.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Raise) and n.exc is not None:
                made.update(_names(n.exc))
            elif isinstance(n, ast.Call):
                made.update(_names(n.func))
    assert [c for c in classes if not made[c]] == []


def _functions(tree):
    """(name, node) of every module-level function and method; functions
    nested inside them (callbacks) are not listed."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for d in node.body:
                if isinstance(d, ast.FunctionDef):
                    yield f"{node.name}.{d.name}", d


def _only_raises_not_implemented(fn):
    body = [s for s in fn.body if not (isinstance(s, ast.Expr)
                                       and isinstance(s.value, ast.Constant))]
    return (len(body) == 1 and isinstance(body[0], ast.Raise)
            and "NotImplementedError" in ast.unparse(body[0]))


def test_every_parameter_is_read():
    unread = []
    for mod, tree in _modules().items():
        for name, fn in _functions(tree):
            if _only_raises_not_implemented(fn):
                continue
            a = fn.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs
                      + [a.vararg, a.kwarg] if p is not None]
            read = {n.id for n in ast.walk(fn)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [f"{mod}:{name}({p})" for p in params
                       if p not in read and p not in ("self", "cls")]
    assert unread == []


def test_eval_complex_only_on_the_base_class():
    # FunctionExpr's eval_complex and eval are the one-point cases of
    # eval_array, which continues a branch along each row from its seed.  No
    # class grows a second, per-point evaluator, and bivar.py's rationals
    # evaluate through __call__ at complex points too.
    modules = _modules()
    for name in ("eval_complex", "eval"):
        owners = [c.name for c in modules["funcs.py"].body
                  if isinstance(c, ast.ClassDef)
                  and any(isinstance(d, ast.FunctionDef) and d.name == name
                          for d in c.body)]
        assert owners == ["FunctionExpr"], name
    assert not [n for n in ast.walk(modules["bivar.py"])
                if isinstance(n, ast.FunctionDef) and n.name == "eval_complex"]
