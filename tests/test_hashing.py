"""Cached node hashes: equal nodes hash equal, ``bits`` stays out, deep
trees hash in a loop, and nothing hashes a node unless asked to."""
from pathlib import Path

import pytest

from chorus import (
    BCond, BTRUE, Branch, Choose, ComEta, Cond, END, Interaction, Lit, RTCall,
    Recv, SelLabel, Send, B_END, epp, gen_program, parse_cc,
)
from chorus.choreography import walk
from chorus.cli import main
from chorus.values import HASH_PARTS

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"


def _is_hashed(node) -> bool:
    try:
        node._hash
    except AttributeError:
        return False
    return True


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
    eta = ComEta("p", Lit(1), "q", "x")
    plain, marked = Interaction(eta, "", END), Interaction(eta, "", END)
    object.__setattr__(marked, "bits", 0)
    assert marked.bits != plain.bits
    assert marked == plain and hash(marked) == hash(plain)
    assert hash(Cond("p", BTRUE, marked, END)) == hash(Cond("p", BTRUE, plain, END))


def test_hash_tells_kinds_and_fields_apart():
    eta = ComEta("p", Lit(1), "q", "x")
    chors = [Interaction(eta, "", END), Interaction(eta, "a", END),
             RTCall("X", ("p",), END), RTCall("X", ("q",), END),
             Cond("p", BTRUE, END, END)]
    assert len({hash(chor) for chor in chors}) == len(chors)


_ETA = ComEta("p", Lit(1), "q", "x")

# One way to nest each kind with a cached hash, from its innermost node.
_NESTINGS = [
    (lambda chor: Interaction(_ETA, "", chor), END),
    (lambda chor: Cond("p", BTRUE, chor, END), END),
    (lambda chor: RTCall("X", ("p",), chor), END),
    (lambda behaviour: Send("q", Lit(1), "", behaviour), B_END),
    (lambda behaviour: Branch("q", ("", behaviour), None), B_END),
    (lambda behaviour: BCond(BTRUE, B_END, behaviour), B_END),
]


def _chain(depth, nest, node):
    for _ in range(depth):
        node = nest(node)
    return node


def test_constructors_leave_the_slot_unset():
    nodes = [_chain(3, *nesting) for nesting in _NESTINGS]
    nodes += [Recv("p", "x", "", B_END), Choose("p", SelLabel.LEFT, "", B_END)]
    assert {type(node) for node in nodes} == set(HASH_PARTS)
    assert not any(map(_is_hashed, nodes))


def test_deep_chains_hash_in_a_loop():
    chains = [_chain(20000, *nesting) for nesting in _NESTINGS]
    assert len(set(map(hash, chains))) == len(chains)
    # Hashing a chain fills every slot below it, and equal chains hash equal.
    assert all(_is_hashed(node) for node in walk(chains[1]) if node != END)
    assert hash(chains[0]) == hash(_chain(20000, *_NESTINGS[0]))


def _counted_hashes(monkeypatch):
    """Count every call of the cached-hash kinds' ``__hash__``."""
    calls = []
    for kind in HASH_PARTS:
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
    path = PROGRAMS / name
    if name == "wide":
        path = tmp_path / "wide.cc"
        path.write_text(_wide(64, 1), encoding="utf-8")
    # Constructors leave the slot unset.
    assert not any(map(_is_hashed, walk(parse_cc(path.read_text()).main)))
    calls = _counted_hashes(monkeypatch)
    built = []
    import chorus.cli

    moves = chorus.cli.cc_moves

    def built_by(move):
        def recording():
            transition = move()
            built.append(transition[1])
            return transition
        return recording

    # Record the successor of every move that run calls, and only those.
    monkeypatch.setattr(chorus.cli, "cc_moves",
                        lambda *args: [built_by(move) for move in moves(*args)])
    for scheduler in ("first", "random"):
        before = len(built)
        assert main(["run", str(path), "--max-steps", "1000", "--scheduler", scheduler]) == 0
        steps = capsys.readouterr().out.count("\n") - 1
        assert steps > 0 and len(built) - before == steps
    assert calls == []
    assert built and not any(map(_is_hashed, built))
