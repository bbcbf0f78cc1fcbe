"""The package's own imports: relative imports, those inside functions
included, form no cycle, and every imported name is read."""

import ast
from pathlib import Path

import tropcurve

PACKAGE = Path(tropcurve.__file__).parent


def import_graph() -> dict[str, set[str]]:
    """Each module of the package to the package modules it imports."""
    names = {p.stem for p in PACKAGE.glob("*.py")}
    graph = {}
    for name in names:
        tree = ast.parse((PACKAGE / f"{name}.py").read_text())
        deps = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                if node.module:
                    deps.add(node.module.split(".")[0])
                else:
                    deps.update(a.name for a in node.names)
        graph[name] = deps & names
    return graph


def find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """A cycle of the graph as a closed path of names, or None."""
    state: dict[str, str] = {}  # "open" on the DFS path, then "done"
    path: list[str] = []

    def visit(u):
        state[u] = "open"
        path.append(u)
        for v in sorted(graph[u]):
            if state.get(v) == "open":
                return path[path.index(v):] + [v]
            if v not in state:
                found = visit(v)
                if found:
                    return found
        path.pop()
        state[u] = "done"
        return None

    for u in sorted(graph):
        if u not in state:
            found = visit(u)
            if found:
                return found
    return None


def test_import_graph_has_no_cycle():
    graph = import_graph()
    assert "curve" in graph["newton"]  # the scan sees the package's imports
    assert find_cycle(graph) is None, " -> ".join(find_cycle(graph))


def test_find_cycle():
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert find_cycle({"a": {"b"}, "b": set(), "c": {"a", "b"}}) is None


# The bindings that perfbench's tracer and its tests patch by name, and that
# the module itself never reads (tests/test_benchmark_lookups.py).
PATCHED = {("intersect", "items"), ("params", "validate"), ("jacobian", "stable_intersection")}


def unused_imports(name: str) -> set[str]:
    """The names the module imports and never reads."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
    return bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_every_imported_name_is_used():
    unused = {
        (p.stem, n)
        for p in PACKAGE.glob("*.py")
        if p.stem != "__init__"
        for n in unused_imports(p.stem)
    }
    assert unused == PATCHED
