"""Values, expressions, and per-process stores.

The value domain is natural numbers plus nested pairs.  Expressions and
Boolean expressions are small first-order trees evaluated against a
per-process variable environment.  Evaluation is total: an operation that
receives a value of the "wrong" shape coerces it (see ``leftmost_nat``)
instead of failing.
"""
from __future__ import annotations

from enum import Enum
from operator import attrgetter
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
    fields are; a field listed there is replaced.

    The kind gets its slots, ``__match_args__``, ``SUBTREES`` (path step to
    field), an ``__init__`` by slot assignment, ``leaves``, which reads the
    fields that hold no subtree, and, when no field holds one, an ``__eq__``
    that compares field by field.
    """

    def __new__(meta, name, bases, namespace):
        fields = namespace.get("FIELDS")
        if fields is None:  # the base
            return super().__new__(meta, name, bases, namespace)
        derived = namespace.get("DERIVED", {})
        namespace["__slots__"] = (*fields, *(slot for slot in derived if slot not in fields))
        namespace["__match_args__"] = tuple(fields)
        namespace["SUBTREES"] = {step: field for field, step in fields.items() if step}
        kind = super().__new__(meta, name, bases, namespace)
        scope = {"_kind": kind, **{f"_{slot}": make for slot, make in derived.items()}}
        exec(f"def __init__(self, {', '.join(fields)}):\n"
             + "".join(f"    self.{field} = {field}\n" for field in fields)
             + "".join(f"    self.{slot} = _{slot}(self)\n" for slot in derived)
             + "    self._hash = None\n", scope)
        kind.__init__ = scope["__init__"]
        leaves = [field for field, step in fields.items() if not step]
        kind.leaves = attrgetter(*leaves) if leaves else staticmethod(lambda node: ())
        kind._values = attrgetter(*fields) if fields else staticmethod(lambda node: ())
        # For ``==``: the first subtree, followed in place, and the others, stacked.
        trees = tuple(kind.SUBTREES.values())
        kind._first, kind._rest = (attrgetter(trees[0]), trees[1:]) if trees else (None, ())
        if not trees:
            exec("def __eq__(self, other):\n    return self is other or type(other) is _kind"
                 + "".join(f" and self.{field} == other.{field}" for field in fields), scope)
            kind.__eq__ = scope["__eq__"]
        return kind


class Node(metaclass=_Kind):
    """Base of every syntax-tree kind and of the transition labels.  Nodes
    are immutable by convention: only ``__init__`` and the cached hash set
    a slot.  ``_hash`` stays None until the node is first hashed."""

    __slots__ = ("_hash",)

    def subtrees(self) -> list:
        """The subtrees, in field order; an empty offer has none."""
        trees = [getattr(self, name) for name in self.SUBTREES.values()]
        return [tree[1] if type(tree) is tuple else tree for tree in trees if tree is not None]

    def __hash__(self) -> int:
        """The hash of the kind and the fields, computed once.  The unset
        slots below are filled first, bottom-up in a loop."""
        if self._hash is None:
            stack = [self]
            while stack:
                top = stack.pop()
                unhashed = top is not None and type(top)._first is not None and [
                    tree for tree in top.subtrees() if tree._hash is None]
                if unhashed:  # come back to top, under the None, once they are hashed
                    stack += (top, None, *unhashed)
                    continue
                if top is None:
                    top = stack.pop()
                top._hash = hash((type(top), type(top)._values(top)))
        return self._hash

    def __eq__(self, other) -> bool:
        """Structural equality in a loop.  Identical subtrees count as equal
        without a look inside, and two nodes whose hashes are both filled
        and differ are unequal at once."""
        if self is other:
            return True
        kind = type(self)
        if type(other) is not kind:
            return False
        mine, theirs = self._hash, other._hash
        if mine != theirs and mine is not None and theirs is not None:
            return False
        stack = [(self, other)]
        while stack:
            mine, theirs = stack.pop()
            while mine is not theirs:
                kind = type(mine)
                if kind is not type(theirs):
                    return False
                if kind is tuple:  # a Branch offer
                    if mine[0] != theirs[0]:
                        return False
                    mine, theirs = mine[1], theirs[1]
                    continue
                leaves, first = kind.leaves, kind._first
                if leaves(mine) != leaves(theirs):
                    return False
                if first is None:
                    break
                for name in kind._rest:
                    stack.append((getattr(mine, name), getattr(theirs, name)))
                mine, theirs = first(mine), first(theirs)
        return True

    def __repr__(self) -> str:
        """``Kind(field=repr, ...)`` over ``FIELDS``, in a loop: the stack holds
        texts still to write, nodes still to open and ``Branch`` offers."""
        out, stack = [], [self]
        while stack:
            item = stack.pop()
            if type(item) is str:
                out.append(item)
            elif isinstance(item, Node):
                parts = [f"{type(item).__name__}("]
                for index, name in enumerate(item.FIELDS):
                    value = getattr(item, name)
                    opened = isinstance(value, Node) or (item.FIELDS[name] and value is not None)
                    parts += f"{', ' if index else ''}{name}=", value if opened else repr(value)
                stack += reversed((*parts, ")"))
            else:  # an offer: (annotation, subtree)
                stack += ")", item[1], f"({item[0]!r}, "
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


def left_spine(tree, kind) -> Tuple[object, list]:
    """The leftmost operand of a chain of ``kind`` nodes nested on the left,
    as the parser builds ``a + b + c`` and ``a && b && c``, and the right
    operands from the left: read in a loop."""
    rights = []
    while type(tree) is kind:
        rights.append(tree.right)
        tree = tree.left
    return tree, rights[::-1]


def eval_expr(expr: Expr, env: Callable[[VarName], Value]) -> Value:
    """Evaluate ``expr`` under ``env``.  Total; never raises on value shapes."""
    if isinstance(expr, Lit):
        return expr.value
    if isinstance(expr, Var):
        return env(expr.name)
    if isinstance(expr, Succ):
        return leftmost_nat(eval_expr(expr.arg, env)) + 1
    if isinstance(expr, Plus):
        first, rights = left_spine(expr, Plus)
        return leftmost_nat(eval_expr(first, env)) + sum(
            leftmost_nat(eval_expr(right, env)) for right in rights)
    if isinstance(expr, Pair):
        return (eval_expr(expr.left, env), eval_expr(expr.right, env))
    if isinstance(expr, Fst):
        value = eval_expr(expr.arg, env)
        return value[0] if isinstance(value, tuple) else value
    if isinstance(expr, Snd):
        value = eval_expr(expr.arg, env)
        return value[1] if isinstance(value, tuple) else value
    raise TypeError(f"not an expression: {expr!r}")


def eval_bexpr(bexpr: BExpr, env: Callable[[VarName], Value]) -> bool:
    """Evaluate a Boolean expression; ``==`` is structural value equality.
    A run of negations is counted in a loop."""
    negated = False
    while isinstance(bexpr, Not):
        bexpr, negated = bexpr.arg, not negated
    if isinstance(bexpr, BLit):
        value = bexpr.value
    elif isinstance(bexpr, Eq):
        value = eval_expr(bexpr.left, env) == eval_expr(bexpr.right, env)
    elif isinstance(bexpr, Leq):
        value = leftmost_nat(eval_expr(bexpr.left, env)) <= leftmost_nat(eval_expr(bexpr.right, env))
    elif isinstance(bexpr, And):
        first, rights = left_spine(bexpr, And)
        value = eval_bexpr(first, env) and all(eval_bexpr(right, env) for right in rights)
    else:
        raise TypeError(f"not a boolean expression: {bexpr!r}")
    return value != negated


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
    """Naturals render as numbers, pairs as two-element arrays."""
    if isinstance(value, tuple):
        return [value_to_json(value[0]), value_to_json(value[1])]
    return value


def value_from_json(data) -> Value:
    if isinstance(data, list):
        if len(data) != 2:
            raise ValueError(f"pair values need exactly two components: {data!r}")
        return (value_from_json(data[0]), value_from_json(data[1]))
    if isinstance(data, int) and not isinstance(data, bool) and data >= 0:
        return data
    raise ValueError(f"not a value: {data!r}")


def value_text(value: Value) -> str:
    if isinstance(value, tuple):
        return f"({value_text(value[0])}, {value_text(value[1])})"
    return str(value)


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
