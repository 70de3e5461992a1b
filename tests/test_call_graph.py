"""No function in ``src/chorus`` reaches itself through calls by name, so
no input's nesting depth meets the interpreter's recursion limit."""
import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "chorus"

# The generator's recursion is bounded by ``GenParams``, not by any input.
BOUNDED = {"_gen_expr", "_gen_bexpr", "_gen_chor"}
# Methods that call a builtin method of the same name (``dict.get``,
# ``dict.items``, ``super().__init__``, ``type.__new__``), which a graph
# keyed by name cannot tell apart.
COLLISIONS = {"get", "items", "__init__", "__new__"}


def _call_graph():
    """Each function's name, to the names of the functions its body calls,
    nested functions' calls counted under their own names."""
    graph = {}
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                called = graph.setdefault(node.name, set())
                stack = list(node.body) + list(node.args.defaults)
                while stack:
                    inner = stack.pop()
                    if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                        continue
                    if isinstance(inner, ast.Call):
                        func = inner.func
                        called.add(func.id if isinstance(func, ast.Name)
                                   else func.attr if isinstance(func, ast.Attribute) else None)
                    stack.extend(ast.iter_child_nodes(inner))
    return {name: called & graph.keys() for name, called in graph.items()}


def _cycles(graph):
    """The strongly connected components with a cycle (Tarjan, with an explicit stack)."""
    index, low, on_stack, order, found = {}, {}, set(), [], []
    for root in sorted(graph):
        if root in index:
            continue
        work = [(root, iter(sorted(graph[root])))]
        index[root] = low[root] = len(index)
        order.append(root)
        on_stack.add(root)
        while work:
            name, targets = work[-1]
            target = next(targets, None)
            if target is not None:
                if target not in index:
                    index[target] = low[target] = len(index)
                    order.append(target)
                    on_stack.add(target)
                    work.append((target, iter(sorted(graph[target]))))
                elif target in on_stack:
                    low[name] = min(low[name], index[target])
                continue
            work.pop()
            if work:
                low[work[-1][0]] = min(low[work[-1][0]], low[name])
            if low[name] == index[name]:
                component = []
                while True:
                    member = order.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == name:
                        break
                if len(component) > 1 or name in graph[name]:
                    found.append(sorted(component))
    return found


def test_the_census_finds_a_cycle():
    assert _cycles({"a": {"b"}, "b": {"a"}, "c": {"c"}, "d": {"a"}}) == [["a", "b"], ["c"]]


def test_no_function_reaches_itself():
    graph = _call_graph()
    assert BOUNDED <= graph.keys() and "fold" in graph and "write" in graph
    cycles = [cycle for cycle in _cycles(graph) if not set(cycle) & (BOUNDED | COLLISIONS)]
    assert cycles == []
