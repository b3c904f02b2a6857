"""No dead code: every analysis function runs from the product surface, and
no module imports a name it never reads.

Reachability follows name references between top-level definitions (a
class carries the references of its methods, a module-level assignment
those of its value).  The roots are the manifest ops (`report.OPS`), the
command-line front end (`cli`) and the functions the benchmark tracer
wraps (`bench/tracer.py`'s `TARGETS`).  Names are matched without their
module, so a clash can only hide dead code, never report live code.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "engelkit"
ANALYSIS = ("engel", "kengel", "contact", "metric", "bundles", "catalog")


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _refs(node):
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


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


def _roots():
    roots = {"OPS"}
    roots.update(node.name for node in _tree(SRC / "cli.py").body
                 if isinstance(node, ast.FunctionDef))
    for node in _tree(ROOT / "bench" / "tracer.py").body:
        if isinstance(node, ast.Assign) and \
                getattr(node.targets[0], "id", None) == "TARGETS":
            for _, path in ast.literal_eval(node.value).values():
                roots.update(path.split("."))
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
    seen = _reachable()
    out = []
    for module in ANALYSIS:
        for node in _tree(SRC / f"{module}.py").body:
            if isinstance(node, ast.FunctionDef) and \
                    not node.name.startswith("_") and node.name not in seen:
                out.append(f"{module}.{node.name}")
    return out


def unused_imports(path):
    tree = _tree(path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = \
                    node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in read)


def test_every_analysis_function_is_reachable():
    assert unreachable_functions() == []


def test_no_unused_imports():
    paths = sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    found = {p.relative_to(ROOT).as_posix(): unused_imports(p)
             for p in paths}
    assert {k: v for k, v in found.items() if v} == {}
