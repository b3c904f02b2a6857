"""No dead code: every top-level function and class of src/ runs from the
product surface, every public method is called from somewhere other than
its own body, every attribute a class sets in `__init__` is read, and no
module or function imports a name it never reads.

Reachability follows name references between top-level definitions (a
class carries the references of its methods, a module-level assignment
those of its value).  The roots are the manifest ops (`report.OPS`), the
command-line front end (`cli`) and the functions the benchmark tracer
wraps (`bench/tracer.py`'s `TARGETS`).  Names are matched without their
module, so a clash can only hide dead code, never report live code; an
attribute of a standard-library module, such as `math.exp`, is not a
reference.
"""

import ast
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "engelkit"


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _ref_names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute) and not (
                isinstance(sub.value, ast.Name)
                and sub.value.id in sys.stdlib_module_names):
            yield sub.attr


def _refs(node):
    return set(_ref_names(node))


def _definitions():
    """name -> referenced names, over every top-level definition in src/."""
    graph = {}
    for path in SRC.glob("*.py"):
        for node in _tree(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets
                         if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                graph.setdefault(name, set()).update(_refs(node))
    return graph


def _tracer_names():
    """Every name on an attribute path the benchmark tracer wraps."""
    for node in _tree(ROOT / "bench" / "tracer.py").body:
        if isinstance(node, ast.Assign) and \
                getattr(node.targets[0], "id", None) == "TARGETS":
            return {part for _, path in ast.literal_eval(node.value).values()
                    for part in path.split(".")}
    return set()


def _roots():
    roots = {"OPS"} | _tracer_names()
    roots.update(node.name for node in _tree(SRC / "cli.py").body
                 if isinstance(node, ast.FunctionDef))
    return roots


def _reachable():
    graph = _definitions()
    seen = set()
    todo = list(_roots())
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        todo.extend(graph.get(name, ()))
    return seen


def unreachable_functions():
    """Public top-level functions and classes of any src/ module that no
    root reaches."""
    seen = _reachable()
    return [f"{path.stem}.{node.name}" for path in sorted(SRC.glob("*.py"))
            for node in _tree(path).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and node.name not in seen]


def unreachable_private_functions():
    """Private top-level functions of any src/ module that no root reaches,
    such as a helper orphaned by a deletion."""
    seen = _reachable()
    return [f"{path.stem}.{node.name}" for path in sorted(SRC.glob("*.py"))
            for node in _tree(path).body
            if isinstance(node, ast.FunctionDef)
            and node.name.startswith("_") and node.name not in seen]


def uncalled_methods():
    """Public methods whose name is read nowhere in src/ but in their own
    body, and that the tracer does not wrap.  Dunder and private methods
    are exempt."""
    trees = [_tree(path) for path in sorted(SRC.glob("*.py"))]
    reads = Counter(name for tree in trees for name in _ref_names(tree))
    traced = _tracer_names()
    out = []
    for tree in trees:
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, ast.FunctionDef) or \
                        node.name.startswith("_") or node.name in traced:
                    continue
                own = sum(1 for name in _ref_names(node) if name == node.name)
                if reads[node.name] == own:
                    out.append(f"{cls.name}.{node.name}")
    return out


def write_only_attributes():
    """Attributes that a src/ class sets on self in __init__ and that no
    src/ code reads as `.name`."""
    trees = [_tree(path) for path in sorted(SRC.glob("*.py"))]
    read = {sub.attr for tree in trees for sub in ast.walk(tree)
            if isinstance(sub, ast.Attribute)
            and isinstance(sub.ctx, ast.Load)}
    return [f"{cls.name}.{sub.attr}" for tree in trees for cls in tree.body
            if isinstance(cls, ast.ClassDef)
            for init in cls.body
            if isinstance(init, ast.FunctionDef) and init.name == "__init__"
            for sub in ast.walk(init)
            if isinstance(sub, ast.Attribute)
            and isinstance(sub.ctx, ast.Store)
            and getattr(sub.value, "id", None) == "self"
            and sub.attr not in read]


def _own_nodes(scope):
    """The nodes of a module or function body outside its nested
    functions."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, ast.FunctionDef):
            todo.extend(ast.iter_child_nodes(node))


def unused_imports(path):
    """Imported names never read: a module-level import anywhere in its
    module, an import inside a function within that function, so a stale
    lazy import cannot pass on a read elsewhere."""
    tree = _tree(path)
    scopes = [tree] + [node for node in ast.walk(tree)
                       if isinstance(node, ast.FunctionDef)]
    out = []
    for scope in scopes:
        read = {sub.id for sub in ast.walk(scope)
                if isinstance(sub, ast.Name)}
        for node in _own_nodes(scope):
            if isinstance(node, ast.Import):
                names = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [a.asname or a.name for a in node.names]
            else:
                continue
            out += [f"{name} (line {node.lineno})" for name in names
                    if name not in read]
    return sorted(out)


def test_every_analysis_function_is_reachable():
    assert unreachable_functions() == []


def test_every_private_function_is_reachable():
    assert unreachable_private_functions() == []


def test_every_public_method_is_called():
    assert uncalled_methods() == []


def test_every_attribute_set_in_init_is_read():
    assert write_only_attributes() == []


def test_no_unused_imports():
    paths = sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    found = {p.relative_to(ROOT).as_posix(): unused_imports(p)
             for p in paths}
    assert {k: v for k, v in found.items() if v} == {}
