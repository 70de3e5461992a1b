"""Values, expressions, and per-process stores.

The value domain is natural numbers plus nested pairs.  Expressions and
Boolean expressions are small first-order trees evaluated against a
per-process variable environment.  Evaluation is total: an operation that
receives a value of the "wrong" shape coerces it (see ``leftmost_nat``)
instead of failing.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
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
# Expressions

@dataclass(frozen=True, slots=True)
class Lit:
    value: int


@dataclass(frozen=True, slots=True)
class Var:
    name: VarName


@dataclass(frozen=True, slots=True)
class Succ:
    arg: "Expr"


@dataclass(frozen=True, slots=True)
class Plus:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True, slots=True)
class Pair:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True, slots=True)
class Fst:
    arg: "Expr"


@dataclass(frozen=True, slots=True)
class Snd:
    arg: "Expr"


Expr = Union[Lit, Var, Succ, Plus, Pair, Fst, Snd]


# --------------------------------------------------------------------------
# Boolean expressions

@dataclass(frozen=True, slots=True)
class Eq:
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Leq:
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Not:
    arg: "BExpr"


@dataclass(frozen=True, slots=True)
class And:
    left: "BExpr"
    right: "BExpr"


@dataclass(frozen=True, slots=True)
class BLit:
    value: bool


BExpr = Union[Eq, Leq, Not, And, BLit]

BTRUE = BLit(True)
BFALSE = BLit(False)


def leftmost_nat(value: Value) -> int:
    """Numeric coercion: a pair stands for its leftmost leaf."""
    while isinstance(value, tuple):
        value = value[0]
    return value


def eval_expr(expr: Expr, env: Callable[[VarName], Value]) -> Value:
    """Evaluate ``expr`` under ``env``.  Total; never raises on value shapes."""
    if isinstance(expr, Lit):
        return expr.value
    if isinstance(expr, Var):
        return env(expr.name)
    if isinstance(expr, Succ):
        return leftmost_nat(eval_expr(expr.arg, env)) + 1
    if isinstance(expr, Plus):
        return leftmost_nat(eval_expr(expr.left, env)) + leftmost_nat(eval_expr(expr.right, env))
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
    """Evaluate a Boolean expression; ``==`` is structural value equality."""
    if isinstance(bexpr, BLit):
        return bexpr.value
    if isinstance(bexpr, Eq):
        return eval_expr(bexpr.left, env) == eval_expr(bexpr.right, env)
    if isinstance(bexpr, Leq):
        return leftmost_nat(eval_expr(bexpr.left, env)) <= leftmost_nat(eval_expr(bexpr.right, env))
    if isinstance(bexpr, Not):
        return not eval_bexpr(bexpr.arg, env)
    if isinstance(bexpr, And):
        return eval_bexpr(bexpr.left, env) and eval_bexpr(bexpr.right, env)
    raise TypeError(f"not a boolean expression: {bexpr!r}")


# --------------------------------------------------------------------------
# Cached hashes of syntax trees, total maps and states

# Each syntax-tree kind with a cached hash: (its compared fields, its
# subtrees), as functions of a node; ``choreography`` and ``processes`` fill
# it in.
HASH_PARTS: dict = {}


def cached_hash(node) -> int:
    """``__hash__`` of the kinds in ``HASH_PARTS``: the ``_hash`` slot, which
    constructors leave unset.  An unset slot gets the hash of the node's kind
    and fields once its subtrees' slots are set: one tuple hash if they are,
    else the unset slots below are filled first, bottom-up in a loop."""
    try:
        return node._hash
    except AttributeError:
        stack = [node]
    while stack:
        top = stack.pop()
        unhashed = top is not None and [tree for tree in HASH_PARTS[type(top)][1](top)
                                        if type(tree) in HASH_PARTS and not hasattr(tree, "_hash")]
        if unhashed:  # come back to top, under the None, once they are hashed
            stack += (top, None, *unhashed)
            continue
        if top is None:
            top = stack.pop()
        object.__setattr__(top, "_hash", hash((type(top), HASH_PARTS[type(top)][0](top))))
    return node._hash


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
