"""Values, expressions, and per-process stores.

The value domain is natural numbers plus nested pairs.  Expressions and
Boolean expressions are small first-order trees evaluated against a
per-process variable environment.  Evaluation is total: an operation that
receives a value of the "wrong" shape coerces it (see ``leftmost_nat``)
instead of failing.
"""
from __future__ import annotations

from enum import Enum
from functools import partial
from json import dumps
from operator import attrgetter
from sys import getrefcount
from typing import Callable, Iterable, Mapping, Tuple, Union

ProcessName = str
VarName = str
ProcName = str
# Procedure copies in projected code are addressed per process: (ProcName, ProcessName).
TargetProcName = Tuple[str, str]

# A natural number, or a pair of two values.
Value = Union[int, tuple]

DEFAULT_VALUE: Value = 0


class SelLabel(Enum):
    """The two selection labels used to propagate the outcome of a choice."""

    LEFT = "left"
    RIGHT = "right"


# --------------------------------------------------------------------------
# Syntax-tree nodes

class _Kind(type):
    """Builds a syntax-tree kind from its table, ``FIELDS``: each field, in
    constructor order, mapped to the path step into it if it holds a
    subtree of the same syntax, else to None.  A ``Branch`` offer is None
    or an (annotation, subtree) pair.  A kind may also name ``DERIVED``
    slots, each with a function of the new node, set in order once the
    fields are; a field listed there is made canonical by its function.

    The constructor returns the live node of the kind with equal fields
    (leaves by ``==``, subtrees by identity) from ``_NODES``, if there is
    one, so equal trees are one object and ``==`` and ``hash`` are
    identity.  A kind made with ``shared=False`` (the labels) builds a new
    record each time, compared field by field and hashed once.  The kind
    also gets its slots, ``__match_args__``, ``SUBTREES`` (path step to
    field), ``leaves``, which reads the fields that hold no subtree,
    ``rebuild``, which makes the node again over new subtrees, given in
    field order, and ``children``, the (path step, subtree) pairs ``fold``
    takes, unless the kind writes its own.
    """

    def __new__(meta, name, bases, namespace, shared=True):
        fields = namespace.get("FIELDS")
        if fields is None:  # the base
            return super().__new__(meta, name, bases, namespace)
        derived = namespace.get("DERIVED", {})
        slots = (*fields, *(slot for slot in derived if slot not in fields))
        namespace["__slots__"] = slots if shared else (*slots, "_hash")
        namespace["__match_args__"] = tuple(fields)
        namespace["SUBTREES"] = {step: field for field, step in fields.items() if step}
        leaves = [field for field, step in fields.items() if not step]
        namespace["leaves"] = attrgetter(*leaves) if leaves else staticmethod(lambda node: ())
        scope = {"_new": object.__new__, "_get": _NODES.get, "_add": _interned,
                 **{f"_{slot}": make for slot, make in derived.items()}}
        sets = "".join(f"    node.{field} = {field}\n" for field in fields) + "".join(
            f"    node.{slot} = _{slot}(node)\n" for slot in derived if slot not in fields)
        if shared:
            code = (f"def __new__(_cls, {', '.join(fields)}):\n"
                    + "".join(f"    {field} = _{field}({field})\n" for field in derived if field in fields)
                    + f"    key = (_kind, {''.join(f'{field}, ' for field in fields)})\n"
                    + "    node = _get(key)\n    if node is not None:\n        return node\n"
                    + "    node = _new(_kind)\n" + sets + "    return _add(key, node)\n")
        else:
            code = (f"def __init__(node, {', '.join(fields)}):\n{sets}    node._hash = None\n"
                    "def __eq__(self, other):\n    return self is other or type(other) is _kind"
                    + "".join(f" and self.{field} == other.{field}" for field in fields)
                    + "\ndef __hash__(self):\n    if self._hash is None:\n        self._hash = hash("
                    + f"(_kind, {''.join(f'self.{field}, ' for field in fields)}))\n"
                    + "    return self._hash\n")
        trees = tuple(namespace["SUBTREES"].values())
        code += (f"def rebuild(self, {', '.join(trees)}):\n    return _kind("
                 + ", ".join(field if step else f"self.{field}" for field, step in fields.items())
                 + ")\n")
        if "children" not in namespace:
            code += ("def children(self):\n    return ["
                     + "".join(f"({step!r}, self.{field}), " for field, step in fields.items() if step)
                     + "]\n")
        exec(code, scope, namespace)
        scope["_kind"] = kind = super().__new__(meta, name, bases, namespace)
        return kind


class Node(metaclass=_Kind):
    """Base of every syntax-tree kind and of the transition labels.  Nodes
    are immutable: only the constructors the kind builds set a slot."""

    __slots__ = ()

    def __repr__(self) -> str:
        """``Kind(field=repr, ...)`` over ``FIELDS``, by ``write``."""
        return write(self, _repr_parts)


# Every live syntax node, under its kind and fields.  A key holds the
# node's subtrees, each entered before it.  Nothing locks the table, so
# nodes are built from one thread at a time.
_NODES: dict = {}
# The table's size at which the next node entered sweeps it first.
_SWEEP_AT = [4096]


def _interned(key: tuple, node: Node) -> Node:
    """Enter the new ``node`` under ``key``, first sweeping the table if it
    has doubled since the last sweep."""
    if len(_NODES) >= _SWEEP_AT[0]:
        _sweep()
    _NODES[key] = node
    return node


def _sweep() -> None:
    """Drop each entry whose node only the table holds (the count's other
    reference is the call's).  Keys are visited newest first and each is
    let go of once visited, so a parent dropped frees its subtrees for the
    same pass."""
    keys = list(_NODES)
    while keys:
        key = keys.pop()
        if getrefcount(_NODES[key]) == 2:
            del _NODES[key]
    _SWEEP_AT[0] = max(2 * len(_NODES), 4096)


def _repr_parts(item) -> list:
    """``write``'s parts of a node, or of a ``Branch`` offer: (annotation, subtree)."""
    if not isinstance(item, Node):
        return [f"({item[0]!r}, ", item[1], ")"]
    parts = [f"{type(item).__name__}("]
    for index, name in enumerate(item.FIELDS):
        value = getattr(item, name)
        opened = isinstance(value, Node) or (item.FIELDS[name] and value is not None)
        parts += f"{', ' if index else ''}{name}=", value if opened else repr(value)
    return parts + [")"]


class Failure(Exception):
    """Stops a ``fold``: ``path`` leads from the item that raised it to the
    fault, and the fold puts the steps from its root to that item before it."""

    def __init__(self, reason: str = "", path: Tuple[str, ...] = ()):
        super().__init__(reason)
        self.reason, self.path = reason, path


def fold(root, open, close):
    """The post-order fold of every syntax-directed function, with an
    explicit stack, over trees, pairs of trees or values.  ``open(item)``
    returns the item's result, or a list of (path step, child) to fold
    first; ``close(item, results)`` then makes it from theirs.  An only child
    given as (step, child, None) passes its result up unclosed.  A child is
    followed in place while its item waits in a frame: its step alone if it
    passes the result up, (item, step) on a chain, else [item, children,
    results].  A ``Failure`` from ``open`` or ``close`` leaves with the steps
    from the root to its item put before its path; a step may be a tuple
    of steps."""
    frames, item = [], root
    push, pop = frames.append, frames.pop
    try:
        while True:
            result = open(item)
            while type(result) is list:
                if len(result) == 1:
                    child = result[0]
                    push((item, child[0]) if len(child) == 2 else child[0])
                elif result:
                    push([item, result, []])
                    child = result[0]
                else:
                    result = close(item, result)
                    break
                item = child[1]
                result = open(item)
            while frames:
                frame = frames[-1]
                if type(frame) is not list:
                    pop()
                    if type(frame) is tuple:
                        result = close(frame[0], (result,))
                    continue
                item, children, results = frame
                results.append(result)
                if len(results) < len(children):
                    item = children[len(results)][1]
                    break
                pop()
                result = close(item, results)
            else:
                return result
    except Failure as failure:
        steps = [frame if type(frame) is str else frame[1] if type(frame) is tuple
                 else frame[1][len(frame[2])][0] for frame in frames]
        failure.path = (*(part for step in steps
                          for part in (step if type(step) is tuple else (step,))), *failure.path)
        raise


def write(root, parts) -> str:
    """The text of ``root``, written pre-order with an explicit stack:
    ``parts(item)`` lists the item's texts and child items, in order, and
    the stack holds the parts still to write of each item open."""
    out, stack = [], [iter(parts(root))]
    while stack:
        for part in stack[-1]:
            if type(part) is str:
                out.append(part)
            else:
                stack.append(iter(parts(part)))
                break
        else:
            stack.pop()
    return "".join(out)


# --------------------------------------------------------------------------
# Expressions

class Lit(Node):
    FIELDS = {"value": None}


class Var(Node):
    FIELDS = {"name": None}


class Succ(Node):
    FIELDS = {"arg": "arg"}


class Plus(Node):
    FIELDS = {"left": "left", "right": "right"}


class Pair(Node):
    FIELDS = {"left": "left", "right": "right"}


class Fst(Node):
    FIELDS = {"arg": "arg"}


class Snd(Node):
    FIELDS = {"arg": "arg"}


Expr = Union[Lit, Var, Succ, Plus, Pair, Fst, Snd]


# --------------------------------------------------------------------------
# Boolean expressions

class Eq(Node):
    FIELDS = {"left": None, "right": None}


class Leq(Node):
    FIELDS = {"left": None, "right": None}


class Not(Node):
    FIELDS = {"arg": "arg"}


class And(Node):
    FIELDS = {"left": "left", "right": "right"}


class BLit(Node):
    FIELDS = {"value": None}


BExpr = Union[Eq, Leq, Not, And, BLit]

BTRUE = BLit(True)
BFALSE = BLit(False)


def leftmost_nat(value: Value) -> int:
    """Numeric coercion: a pair stands for its leftmost leaf."""
    while isinstance(value, tuple):
        value = value[0]
    return value


def eval_expr(expr: Expr, env: Callable[[VarName], Value]) -> Value:
    """Evaluate ``expr`` under ``env`` (``_evaluate``); a literal or a
    variable is read at once.  Total; never raises on value shapes."""
    kind = type(expr)
    if kind is Lit:
        return expr.value
    if kind is Var:
        return env(expr.name)
    return _evaluate(expr, env, _operand, _combine, (Succ, Fst, Snd))


def _operand(node, env) -> Union[Value, list]:
    kind = type(node)
    return node.value if kind is Lit else env(node.name) if kind is Var else node.children()


def _combine(node, values: list) -> Value:
    kind = type(node)
    if kind is Pair:
        return tuple(values)
    if kind is Plus:
        return leftmost_nat(values[0]) + leftmost_nat(values[1])
    if kind is Succ:
        return leftmost_nat(values[0]) + 1
    value = values[0]  # fst or snd
    return value[kind is Snd] if isinstance(value, tuple) else value


def eval_bexpr(bexpr: BExpr, env: Callable[[VarName], Value]) -> bool:
    """Evaluate a Boolean expression (``_evaluate``); ``==`` is structural
    value equality."""
    return _evaluate(bexpr, env, _truth, _decide, (Not,))


def _truth(node, env) -> Union[bool, list]:
    """A comparison's or a literal's truth, else the node's children."""
    kind = type(node)
    if kind is Eq:
        return eval_expr(node.left, env) == eval_expr(node.right, env)
    if kind is Leq:
        return leftmost_nat(eval_expr(node.left, env)) <= leftmost_nat(eval_expr(node.right, env))
    return node.value if kind is BLit else node.children()


def _decide(node, values: list) -> bool:
    return values[0] and values[-1] if type(node) is And else not values[0]


def _evaluate(node, env, leaf, combine, unary: tuple):
    """``fold`` of ``leaf(node, env)``, a leaf's value or else the node's
    children, and ``combine``, entered below a chain of the ``unary`` kinds,
    walked in a loop, only if an operand of the node there is no leaf."""
    chain = []
    while type(node) in unary:
        chain.append(node)
        node = node.arg
    value = leaf(node, env)
    if type(value) is list:
        values = [leaf(child, env) for _, child in value]
        value = (fold(node, partial(leaf, env=env), combine) if list in map(type, values)
                 else combine(node, values))
    for node in reversed(chain):
        value = combine(node, (value,))
    return value


# --------------------------------------------------------------------------
# Total maps and states

class TotalMap:
    """Immutable total map: keys without an entry read as the class's ``DEFAULT``.

    Entries holding the default are pruned on construction and by ``put``,
    so extensionally equal maps are also structurally equal and ``==``
    decides extensional equality.  Maps of different classes never compare
    equal, even with the same entries.  The hash is computed on first use,
    so building a map never hashes its values.
    """

    __slots__ = ("_entries", "_hash")
    DEFAULT = None

    def __init__(self, entries: Union[Mapping, Iterable] = ()):
        default = self.DEFAULT
        self._entries = {key: value for key, value in dict(entries).items() if value != default}
        self._hash = None

    def get(self, key):
        return self._entries.get(key, self.DEFAULT)

    def put(self, key, value):
        """A copy of the map with ``key`` mapped to ``value``."""
        entries = dict(self._entries)
        if value == self.DEFAULT:
            entries.pop(key, None)
        else:
            entries[key] = value
        fresh = object.__new__(type(self))
        fresh._entries = entries
        fresh._hash = None
        return fresh

    def support(self) -> tuple:
        """The keys with an explicit entry, sorted."""
        return tuple(sorted(self._entries))

    def items(self) -> list:
        return sorted(self._entries.items())

    def differs(self, other: "TotalMap") -> set:
        """The keys whose entries here and in ``other`` are not one object."""
        mine, theirs = self._entries, other._entries
        return {key for key in mine.keys() | theirs.keys() if mine.get(key) is not theirs.get(key)}

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._entries == other._entries

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._entries.items()))
        return self._hash

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self.items())!r})"


class State(TotalMap):
    """Total store from (process, variable) to values; unmapped keys read as 0."""

    __slots__ = ()
    DEFAULT = DEFAULT_VALUE

    def lookup(self, process: ProcessName, var: VarName) -> Value:
        return self._entries.get((process, var), DEFAULT_VALUE)

    def update(self, process: ProcessName, var: VarName, value: Value) -> "State":
        return self.put((process, var), value)

    def env_for(self, process: ProcessName) -> Callable[[VarName], Value]:
        return lambda var: self.lookup(process, var)


EMPTY_STATE = State()


def eval_on_state(expr: Expr, state: State, process: ProcessName) -> Value:
    return eval_expr(expr, state.env_for(process))


def eval_bexpr_on_state(bexpr: BExpr, state: State, process: ProcessName) -> bool:
    return eval_bexpr(bexpr, state.env_for(process))


# --------------------------------------------------------------------------
# Serialisation

def value_to_json(value: Value):
    """Naturals render as numbers, pairs as two-element arrays, by ``fold``."""
    return fold(value, lambda item: [(0, item[0]), (1, item[1])] if isinstance(item, tuple)
                else item, lambda pair, values: values)


def value_from_json(data) -> Value:
    def leaf(data):
        if isinstance(data, list):
            if len(data) != 2:
                raise ValueError(f"pair values need exactly two components: {data!r}")
            return [(0, data[0]), (1, data[1])]
        if isinstance(data, int) and not isinstance(data, bool) and data >= 0:
            return data
        raise ValueError(f"not a value: {data!r}")

    return fold(data, leaf, lambda data, values: tuple(values))


def value_text(value: Value, brackets: str = "()") -> str:
    """``(a, b)`` for a pair, by ``write``.  With ``brackets="[]"``, of a
    value or of its ``value_to_json``, it is the text ``json.dumps`` gives
    ``value_to_json(value)``."""
    def parts(item) -> list:
        if isinstance(item, (tuple, list)):
            return [brackets[0], item[0], ", ", item[1], brackets[1]]
        return [str(item) if type(item) is int or brackets == "()" else dumps(item)]

    return write(value, parts)


def state_to_json(state: State) -> dict:
    return {f"{p}.{x}": value_to_json(v) for (p, x), v in state.items()}


def state_from_json(data) -> State:
    if not isinstance(data, dict):
        raise ValueError("a state is a JSON object with 'process.var' keys")
    entries = {}
    for key, raw in data.items():
        process, _, var = key.partition(".")
        if not process or not var:
            raise ValueError(f"state keys look like 'process.var', got {key!r}")
        entries[(process, var)] = value_from_json(raw)
    return State(entries)
