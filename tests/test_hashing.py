"""Shared syntax trees: building a node returns the live node of the same
kind and fields, so equal trees are one object and compare and hash as
themselves, deep ones included; labels compare field by field and hash
once; and the table of live nodes stays bounded."""
import ast
from dataclasses import make_dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from chorus import (
    And, BCall, BCond, BFALSE, BLit, BTRUE, Branch, Call, Choose, ComEta, Cond, DefSet, END, Eq,
    Fst, End, Interaction, Leq, Lit, Not, Pair, Plus, RTCall, Recv, SelEta, SelLabel, Send, Snd,
    Succ, Var, B_END, EMPTY_STATE, bproj, cc_step, epp, gen_program, merge, parse_cc, parse_sp,
    print_behaviour, print_cc,
)
from chorus.choreography import CCProgram, PROCESS_BIT, initial
from chorus.cli import main
from chorus.labels import RCall, RCom, RCond, RSel, TCom, TSel, TTau
from chorus.values import Node, _NODES, _sweep

from helpers import cc_enabled_unpruned, eq_reference, rebuild

# Every syntax-tree kind and transition label kind, read from the base.
KINDS = set(Node.__subclasses__())
LABEL_KINDS = {RCom, RSel, RCond, RCall, TCom, TSel, TTau}

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"
SOURCES = Path(__file__).resolve().parent.parent / "src" / "chorus"


def _is_hashed(label) -> bool:
    return label._hash is not None


def test_separately_built_equal_trees_hash_equal():
    for seed in range(60):
        first, second = gen_program(seed), gen_program(seed)
        assert first.main == second.main and hash(first.main) == hash(second.main)
        left, right = epp(first).network, epp(second).network
        for process, behaviour in left.items():
            assert behaviour == right.get(process)
            assert hash(behaviour) == hash(right.get(process))
    text = (PROGRAMS / "authentication.cc").read_text()
    assert hash(parse_cc(text).main) == hash(parse_cc(text).main)


def test_bits_stay_out_of_the_hash():
    # The key is the kind and the fields: a derived slot is set once, when
    # the node is first built, and a second build finds the node there.
    eta = ComEta("bits_p", Lit(1), "bits_q", "x")
    plain = Interaction(eta, "", END)
    assert plain.bits == PROCESS_BIT["bits_p"] | PROCESS_BIT["bits_q"]
    object.__setattr__(plain, "bits", 0)
    try:
        assert Interaction(eta, "", END) is plain and plain.bits == 0
        assert hash(plain) == object.__hash__(plain)
    finally:
        object.__setattr__(plain, "bits", PROCESS_BIT["bits_p"] | PROCESS_BIT["bits_q"])
    # A pending list is made canonical before the lookup.
    assert RTCall("X", ("q", "p", "q"), END) is RTCall("X", ["p", "q"], END)
    assert RTCall("X", ("q", "p"), END).pending == ("p", "q")


def test_hash_tells_kinds_and_fields_apart():
    eta = ComEta("p", Lit(1), "q", "x")
    chors = [Interaction(eta, "", END), Interaction(eta, "a", END),
             RTCall("X", ("p",), END), RTCall("X", ("q",), END),
             Cond("p", BTRUE, END, END)]
    assert len({hash(chor) for chor in chors}) == len(chors)


_ETA = ComEta("p", Lit(1), "q", "x")

_CALL = BCall(("X", "p"))

# One way to nest each kind with subtrees, from its innermost node, and a
# second innermost node that differs from the first.
_NESTINGS = [
    (lambda chor: Interaction(_ETA, "", chor), END, Call("X")),
    (lambda chor: Cond("p", BTRUE, chor, END), END, Call("X")),
    (lambda chor: RTCall("X", ("p",), chor), END, Call("X")),
    (lambda behaviour: Send("q", Lit(1), "", behaviour), B_END, _CALL),
    (lambda behaviour: Branch("q", ("", behaviour), None), B_END, _CALL),
    (lambda behaviour: BCond(BTRUE, B_END, behaviour), B_END, _CALL),
    (lambda behaviour: Recv("q", "x", "", behaviour), B_END, _CALL),
    (lambda behaviour: Choose("q", SelLabel.LEFT, "", behaviour), B_END, _CALL),
    (lambda behaviour: Branch("q", None, ("", behaviour)), B_END, _CALL),
    (Succ, Lit(0), Lit(1)),
    (lambda expr: Plus(expr, Lit(1)), Lit(0), Lit(1)),
    (lambda expr: Plus(Lit(1), expr), Lit(0), Lit(1)),
    (lambda expr: Pair(Lit(1), expr), Lit(0), Lit(1)),
    (Fst, Lit(0), Lit(1)),
    (Snd, Lit(0), Lit(1)),
    (Not, BTRUE, BFALSE),
    (lambda bexpr: And(bexpr, BTRUE), BTRUE, BFALSE),
]


def _chain(depth, nest, node, *_other):
    for _ in range(depth):
        node = nest(node)
    return node


def _nodes(node):
    """Every node in ``node``'s fields, subtrees or not, ``node`` included."""
    stack, out = [node], []
    while stack:
        top = stack.pop()
        if isinstance(top, tuple):
            stack += top
        elif isinstance(top, Node):
            out.append(top)
            stack += [getattr(top, field) for field in top.FIELDS]
    return out


def test_constructors_leave_the_slot_unset():
    roots = [_chain(3, nest, other) for nest, _, other in _NESTINGS]
    roots += [Cond("p", And(Leq(Var("x"), Lit(1)), Eq(Lit(0), Lit(1))), END, END),
              Interaction(SelEta("p", "q", SelLabel.LEFT), "", END)]
    roots += _LABELS
    nodes = [node for root in roots for node in _nodes(root)]
    assert {type(node) for node in nodes} == KINDS
    # A syntax node has no hash slot: built again from its fields, it is
    # the same object.  A label is a new record whose hash slot stays unset.
    for node in nodes:
        kind = type(node)
        assert ("_hash" in kind.__slots__) is (kind in LABEL_KINDS)
        if kind in LABEL_KINDS:
            twin = rebuild(node)
            assert twin is not node and twin == node and not _is_hashed(twin)
        else:
            assert rebuild(node) is node and kind.__hash__ is object.__hash__


# One label of each kind, with a pair value and a procedure copy, and its fields.
_LABEL_FIELDS = [
    (RCom("p", (1, 2), "q", "x"), ("sender", "value", "receiver", "var")),
    (RSel("p", "q", SelLabel.LEFT), ("sender", "receiver", "label")),
    (RCond("p"), ("proc",)),
    (RCall(("X", "p"), "p"), ("name", "proc")),
    (TCom("p", (1, 2), "q"), ("sender", "value", "receiver")),
    (TSel("p", "q", SelLabel.RIGHT), ("sender", "receiver", "label")),
    (TTau("p"), ("proc",)),
]
_LABELS = [label for label, _ in _LABEL_FIELDS]


def test_labels_compare_by_kind_and_fields():
    for label, fields in _LABEL_FIELDS:
        assert type(label).__match_args__ == fields
        twin = type(label)(**{field: getattr(label, field) for field in fields})
        assert twin is not label and twin == label and not twin != label
        # Comparing leaves the slots unset; the first hash fills one.
        assert not _is_hashed(twin) and not _is_hashed(label)
        assert hash(twin) == hash(label) and _is_hashed(twin)
        # The repr of the frozen dataclass each label kind was.
        record = make_dataclass(type(label).__name__, fields, frozen=True, slots=True)
        assert repr(label) == repr(record(*(getattr(label, field) for field in fields)))
    assert repr(_LABELS[0]) == "RCom(sender='p', value=(1, 2), receiver='q', var='x')"
    assert repr(_LABELS[3]) == "RCall(name=('X', 'p'), proc='p')"
    assert RCom("p", (1, 2), "q", "y") != _LABELS[0] and RCond("q") != RCond("p")
    # A label never equals a node of another kind with the same fields.
    same = [kind("p", "q", SelLabel.LEFT) for kind in (RSel, TSel, SelEta)]
    for first, second in [(0, 1), (0, 2), (1, 2)]:
        assert same[first] != same[second] and not same[first] == same[second]
    assert RCond("p") != TTau("p") and RCom("p", 1, "q", "x") != ComEta("p", 1, "q", "x")


def test_deep_chains_hash_in_a_loop():
    chains = [_chain(20000, *nesting) for nesting in _NESTINGS]
    assert len(set(map(hash, chains))) == len(chains)
    # A chain built again is the same object, so its hash is the object's.
    assert all(_chain(20000, *nesting) is chain for nesting, chain in zip(_NESTINGS, chains))
    assert all(hash(chain) == object.__hash__(chain) for chain in chains)
    assert _chain(20000, *_NESTINGS[0][::2]) is not chains[0]


@pytest.mark.parametrize("nesting", range(len(_NESTINGS)))
def test_deep_chains_compare_in_a_loop(nesting):
    nest, leaf, other = _NESTINGS[nesting]
    chain = _chain(20000, nest, leaf)
    assert chain == _chain(20000, nest, leaf) and not chain != _chain(20000, nest, leaf)
    assert chain != _chain(20000, nest, other) and not chain == _chain(20000, nest, other)
    # With both hashes filled, equal chains still compare equal.
    twin = _chain(20000, nest, leaf)
    assert hash(chain) == hash(twin) and chain == twin


def _counted_hashes(monkeypatch):
    """Count every call of every label kind's ``__hash__``."""
    calls = []
    for kind in LABEL_KINDS:
        def counting(node, _hash=kind.__hash__):
            calls.append(type(node))
            return _hash(node)
        monkeypatch.setattr(kind, "__hash__", counting)
    return calls


def _wide(pairs, rounds):
    steps = "".join(f"a{i}.{r} -> b{i}.x; " for r in range(rounds) for i in range(pairs))
    return f"main {{ {steps}end }}\n"


@pytest.mark.parametrize("name", ["authentication.cc", "file_transfer.cc", "wide"])
def test_run_hashes_nothing(monkeypatch, tmp_path, capsys, name):
    """``run`` calls no ``__hash__`` in Python: a syntax node hashes as the
    object, and no label is hashed.  Each move's successor is the node the
    step builds from the same label, and the one the reference step builds."""
    path = PROGRAMS / name
    if name == "wide":
        path = tmp_path / "wide.cc"
        path.write_text(_wide(64, 1), encoding="utf-8")
    defs = parse_cc(path.read_text()).defs
    assert all(kind.__hash__ is object.__hash__ for kind in KINDS - LABEL_KINDS)
    calls = _counted_hashes(monkeypatch)
    built = []
    import chorus.cli

    moves = chorus.cli.cc_moves

    def built_by(move, chor, state):
        def recording():
            transition = move()
            built.append((chor, state, transition))
            return transition
        return recording

    # Record the successor of every move that run calls, and only those.
    monkeypatch.setattr(chorus.cli, "cc_moves", lambda defs, chor, state: [
        built_by(move, chor, state) for move in moves(defs, chor, state)])
    for scheduler in ("first", "random"):
        before = len(built)
        assert main(["run", str(path), "--max-steps", "1000", "--scheduler", scheduler]) == 0
        steps = capsys.readouterr().out.count("\n") - 1
        assert steps > 0 and len(built) - before == steps
    assert calls == []
    for chor, state, (label, succ, succ_state) in built:
        assert cc_step(defs, chor, state, label)[0] is succ
        assert any(other is succ for rich, other, _ in cc_enabled_unpruned(defs, chor, state)
                   if rich == label)


# --------------------------------------------------------------------------
# Equality against the recursive reference, on random shallow trees of every kind

_NAMES = st.sampled_from(["p", "q"])
_ANNS = st.sampled_from(["", "a"])
_PROCS = st.sampled_from(["X", "Y"])
_EXPRS = st.recursive(
    st.builds(Lit, st.integers(0, 1)) | st.builds(Var, _NAMES),
    lambda inner: (st.builds(Succ, inner) | st.builds(Plus, inner, inner)
                   | st.builds(Pair, inner, inner) | st.builds(Fst, inner) | st.builds(Snd, inner)),
    max_leaves=4)
_BEXPRS = st.recursive(
    st.builds(BLit, st.booleans()) | st.builds(Eq, _EXPRS, _EXPRS) | st.builds(Leq, _EXPRS, _EXPRS),
    lambda inner: st.builds(Not, inner) | st.builds(And, inner, inner), max_leaves=3)
_ETAS = (st.builds(ComEta, _NAMES, _EXPRS, _NAMES, _NAMES)
         | st.builds(SelEta, _NAMES, _NAMES, st.sampled_from(SelLabel)))
_CHORS = st.recursive(
    st.just(END) | st.builds(Call, _PROCS),
    lambda inner: (st.builds(Interaction, _ETAS, _ANNS, inner)
                   | st.builds(Cond, _NAMES, _BEXPRS, inner, inner)
                   | st.builds(RTCall, _PROCS, st.lists(_NAMES, max_size=2).map(tuple), inner)),
    max_leaves=4)
_BEHAVIOURS = st.recursive(
    st.just(B_END) | st.builds(BCall, st.tuples(_PROCS, _NAMES)),
    lambda inner: (st.builds(Send, _NAMES, _EXPRS, _ANNS, inner)
                   | st.builds(Recv, _NAMES, _NAMES, _ANNS, inner)
                   | st.builds(Choose, _NAMES, st.sampled_from(SelLabel), _ANNS, inner)
                   | st.builds(Branch, _NAMES, st.none() | st.tuples(_ANNS, inner),
                               st.none() | st.tuples(_ANNS, inner))
                   | st.builds(BCond, _BEXPRS, inner, inner)),
    max_leaves=4)
_TREES = _EXPRS | _BEXPRS | _ETAS | _CHORS | _BEHAVIOURS


def _changed(data, value):
    """``value`` with one field changed, at a random depth."""
    if isinstance(value, Node):
        kind = type(value)
        if not kind.FIELDS:
            return Call("X") if kind is End else BCall(("X", "p"))
        values = [getattr(value, field) for field in kind.FIELDS]
        at = data.draw(st.integers(0, len(values) - 1))
        values[at] = _changed(data, values[at])
        return kind(*values)
    if isinstance(value, tuple) and value and isinstance(value[-1], Node):  # an offer
        ann, tree = value
        return (ann + "'", tree) if data.draw(st.booleans()) else (ann, _changed(data, tree))
    if isinstance(value, tuple):  # a pending list or a procedure copy
        return value + ("r",)
    if value is None:  # an empty offer
        return ("", B_END)
    if isinstance(value, SelLabel):
        return SelLabel.RIGHT if value is SelLabel.LEFT else SelLabel.LEFT
    if isinstance(value, bool):
        return not value
    return value + 1 if isinstance(value, int) else value + "'"


def _agree(first, second):
    """``==`` and ``!=`` agree with the reference, before and after both are
    hashed, and equal trees hash equal."""
    expected = eq_reference(first, second)
    assert (first == second) is expected and (first != second) is not expected
    if expected:
        assert hash(first) == hash(second)
    hash(first), hash(second)
    assert (first == second) is expected and (second == first) is expected


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_TREES)
def test_trees_built_apart_are_equal(tree):
    copy = rebuild(tree)
    assert eq_reference(tree, copy)
    _agree(tree, copy)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_TREES, _TREES)
def test_equality_agrees_with_the_reference(first, second):
    _agree(first, second)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_TREES, st.data())
def test_one_changed_field_makes_trees_unequal(tree, data):
    changed = _changed(data, tree)
    assert not eq_reference(tree, changed)
    _agree(tree, changed)
    _agree(rebuild(tree), changed)


# --------------------------------------------------------------------------
# Sharing against the recursive reference: on the nodes the parsers, the
# step, projection, merge and ``rebuild`` build, ``is`` holds exactly when
# the trees are equal field by field.  Keys compare leaves with ``==``
# (``True == 1``), so ``BLit`` is drawn from Booleans and ``Lit`` from
# naturals only.

_DEFS = DefSet({"X": (("p", "q"), Interaction(_ETA, "", END))})


def _built(chor, first, second) -> list:
    """Trees built from ``chor`` and two behaviours by every constructor path."""
    built = [chor, rebuild(chor), first, second, rebuild(second)]
    if initial(chor):  # a runtime term has no text
        built.append(parse_cc(print_cc(CCProgram(_DEFS, chor))).main)
    built.append(parse_sp(f"p[{print_behaviour(first)}]").network.get("p"))
    built += [cc_step(_DEFS, chor, EMPTY_STATE, label)[0]
              for label, _, _ in cc_enabled_unpruned(_DEFS, chor, EMPTY_STATE)]
    results = [bproj(_DEFS, chor, process) for process in "pq"] + [merge(first, second)]
    return built + [result.behaviour for result in results if result.ok]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_CHORS, _BEHAVIOURS, _BEHAVIOURS)
def test_equal_trees_are_one_object(chor, first, second):
    nodes = list({id(node): node for tree in _built(chor, first, second)
                  for node in _nodes(tree)}.values())
    for index, node in enumerate(nodes):
        assert eq_reference(node, node)
        assert not any(eq_reference(node, other) for other in nodes[index + 1:])


def test_the_table_keeps_what_a_long_random_run_leaves_live(tmp_path, capsys):
    """A 5,000-step random run of 128 pairs for 8 rounds: each sweep drops a
    spent spine with its subtrees in one pass, so the table stays within a
    small multiple of what is live.  A sweep that kept each key it visited
    until the pass ended would free one level a sweep and leave ~108,000."""
    path = tmp_path / "wide.cc"
    path.write_text(_wide(128, 8), encoding="utf-8")
    _sweep()
    live = len(_NODES)
    assert main(["run", str(path), "--scheduler", "random", "--max-steps", "5000"]) == 0
    assert capsys.readouterr().out.count("\n") == 1025
    # The program is 2,056 nodes, and the table at most twice what a sweep left.
    assert len(_NODES) <= 2 * (live + 2056) + 4096
    _sweep()
    assert len(_NODES) <= live


def test_a_library_loop_leaves_the_table_bounded():
    """100,000 distinct chains of three nodes, each dropped at once.  The
    sweep above would keep ~405,000."""
    for index in range(100000):
        Interaction(ComEta("p", Succ(Lit(index)), "q", "x"), "", END)
    assert len(_NODES) <= 8192


# --------------------------------------------------------------------------
# Nodes accept assignment; only the base sets a node's slots.

class _SlotWrites(ast.NodeVisitor):
    """Every write to an attribute named like a node slot, and every
    ``setattr``, outside the base.  A class may set the slots its own
    ``__slots__`` declares (``TotalMap`` has a ``_hash`` of its own)."""

    def __init__(self, slots):
        self.slots, self.own, self.found = slots, [set()], []

    def visit_ClassDef(self, node):
        if node.name == "Node":
            return
        declared = [stmt.value for stmt in node.body if isinstance(stmt, ast.Assign)
                    and [ast.unparse(target) for target in stmt.targets] == ["__slots__"]]
        self.own.append(set(ast.literal_eval(declared[0])) if declared else set())
        self.generic_visit(node)
        self.own.pop()

    def visit_Attribute(self, node):
        if (not isinstance(node.ctx, ast.Load) and node.attr in self.slots
                and node.attr not in self.own[-1]):
            self.found.append(ast.unparse(node))
        self.generic_visit(node)

    def visit_Call(self, node):
        if "setattr" in ast.unparse(node.func):
            self.found.append(ast.unparse(node))
        self.generic_visit(node)


def test_only_the_base_assigns_node_slots():
    slots = {slot for kind in KINDS for slot in kind.__slots__} | set(Node.__slots__)
    assert {"cont", "bits", "pending", "_hash"} <= slots
    for path in sorted(SOURCES.glob("*.py")):
        writes = _SlotWrites(slots)
        writes.visit(ast.parse(path.read_text(encoding="utf-8")))
        assert writes.found == [], path.name
