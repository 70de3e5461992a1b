"""Shared builders and seeded random generators for the test suite."""
from __future__ import annotations

import json
import random

from chorus import (
    B_END, BCall, BCond, BLit, Branch, Behaviour, CCProgram, Call, Choose,
    ComEta, Cond, DefSet, END, Eq, Fst, Interaction, Leq, Lit, Network,
    Pair, RCall, RCom, RCond, RSel, Recv, RTCall, SelEta, SelLabel, Send, Snd,
    State, Var, bproj, cc_step, eval_on_state, more_branches,
)
from chorus.choreography import eta_processes
from chorus.labels import label_processes
from chorus.surface import ParseError, Span
from chorus.values import Node, eval_bexpr_on_state

LEFT, RIGHT = SelLabel.LEFT, SelLabel.RIGHT


def seq(*parts):
    """Chain interactions onto a final choreography (last argument)."""
    *etas, tail = parts
    for eta in reversed(etas):
        tail = Interaction(eta, "", tail)
    return tail


# --------------------------------------------------------------------------
# The authentication example: ip checks c's credentials and tells s and c.

CREDS = Var("creds")
CHECK = Eq(Var("x"), Var("secret"))
TOKEN = Var("tok")


def auth_choreography():
    happy = seq(SelEta("ip", "s", LEFT), SelEta("ip", "c", LEFT),
                ComEta("s", TOKEN, "c", "t"), END)
    sad = seq(SelEta("ip", "s", RIGHT), SelEta("ip", "c", RIGHT), END)
    return Interaction(ComEta("c", CREDS, "ip", "x"), "",
                       Cond("ip", CHECK, happy, sad))


def auth_program() -> CCProgram:
    return CCProgram(DefSet(), auth_choreography())


def auth_state(good: bool) -> State:
    return State({("c", "creds"): 7 if good else 5,
                  ("ip", "secret"): 7,
                  ("s", "tok"): 99})


def auth_expected_network() -> Network:
    behaviour_c = Send("ip", CREDS, "",
                       Branch("ip", ("", Recv("s", "t", "", B_END)), ("", B_END)))
    behaviour_s = Branch("ip", ("", Send("c", TOKEN, "", B_END)), ("", B_END))
    behaviour_ip = Recv("c", "x", "", BCond(
        CHECK,
        Choose("s", LEFT, "", Choose("c", LEFT, "", B_END)),
        Choose("s", RIGHT, "", Choose("c", RIGHT, "", B_END))))
    return Network({"c": behaviour_c, "s": behaviour_s, "ip": behaviour_ip})


# --------------------------------------------------------------------------
# The file-transfer example: s sends (file, checksum), c checks and retries.

FT_PAYLOAD = Pair(Var("file"), Var("chk"))
FT_GUARD = Eq(Fst(Var("x")), Snd(Var("x")))


def file_transfer_body():
    return Interaction(
        ComEta("s", FT_PAYLOAD, "c", "x"), "",
        Cond("c", FT_GUARD,
             seq(SelEta("c", "s", LEFT), END),
             Interaction(SelEta("c", "s", RIGHT), "", Call("FileTransfer"))))


def file_transfer_program() -> CCProgram:
    defs = DefSet({"FileTransfer": (("c", "s"), file_transfer_body())})
    return CCProgram(defs, Call("FileTransfer"))


# A conditional whose branches the receiver cannot tell apart.
def unmended_program() -> CCProgram:
    branch = Interaction(ComEta("q", Lit(1), "p", "y"), "", END)
    return CCProgram(DefSet(), Cond("p", BLit(True), branch, END))


def deadlock_network() -> Network:
    return Network({"p": Recv("q", "x", "", B_END),
                    "q": Recv("p", "y", "", B_END)})


# --------------------------------------------------------------------------
# Random behaviours and order-related pairs

_ANNS = ("", "note", "mark")
_BVARS = ("x", "y")


def gen_behaviour(rng: random.Random, depth: int, peers=("a", "b", "c"),
                  procs=("P", "Q")) -> Behaviour:
    if depth <= 0 or rng.random() < 0.15:
        if rng.random() < 0.2:
            return BCall((rng.choice(procs), rng.choice(peers)))
        return B_END
    kind = rng.randrange(6)
    if kind == 0:
        return Send(rng.choice(peers), Lit(rng.randrange(3)), rng.choice(_ANNS),
                    gen_behaviour(rng, depth - 1, peers, procs))
    if kind == 1:
        return Recv(rng.choice(peers), rng.choice(_BVARS), rng.choice(_ANNS),
                    gen_behaviour(rng, depth - 1, peers, procs))
    if kind == 2:
        return Choose(rng.choice(peers), rng.choice((LEFT, RIGHT)), rng.choice(_ANNS),
                      gen_behaviour(rng, depth - 1, peers, procs))
    if kind == 3:
        slots = []
        for _ in range(2):
            if rng.random() < 0.7:
                slots.append((rng.choice(_ANNS), gen_behaviour(rng, depth - 1, peers, procs)))
            else:
                slots.append(None)
        return Branch(rng.choice(peers), slots[0], slots[1])
    if kind == 4:
        guard = Leq(Var(rng.choice(_BVARS)), Lit(rng.randrange(3)))
        return BCond(guard, gen_behaviour(rng, depth - 1, peers, procs),
                     gen_behaviour(rng, depth - 1, peers, procs))
    return BCall((rng.choice(procs), rng.choice(peers)))


def weaken(rng: random.Random, behaviour: Behaviour) -> Behaviour:
    """A behaviour below the argument in the branching order, by construction."""
    if isinstance(behaviour, Send):
        return Send(behaviour.peer, behaviour.expr, behaviour.ann,
                    weaken(rng, behaviour.cont))
    if isinstance(behaviour, Recv):
        return Recv(behaviour.peer, behaviour.var, behaviour.ann,
                    weaken(rng, behaviour.cont))
    if isinstance(behaviour, Choose):
        return Choose(behaviour.peer, behaviour.label, behaviour.ann,
                      weaken(rng, behaviour.cont))
    if isinstance(behaviour, Branch):
        slots = []
        for slot in (behaviour.left, behaviour.right):
            if slot is None or rng.random() < 0.4:
                slots.append(None)
            else:
                slots.append((slot[0], weaken(rng, slot[1])))
        return Branch(behaviour.peer, slots[0], slots[1])
    if isinstance(behaviour, BCond):
        return BCond(behaviour.guard, weaken(rng, behaviour.then_branch),
                     weaken(rng, behaviour.else_branch))
    return behaviour  # BEnd, BCall


def strengthen(rng: random.Random, behaviour: Behaviour, depth: int = 2) -> Behaviour:
    """A behaviour above the argument in the branching order, by construction."""
    if isinstance(behaviour, Send):
        return Send(behaviour.peer, behaviour.expr, behaviour.ann,
                    strengthen(rng, behaviour.cont, depth))
    if isinstance(behaviour, Recv):
        return Recv(behaviour.peer, behaviour.var, behaviour.ann,
                    strengthen(rng, behaviour.cont, depth))
    if isinstance(behaviour, Choose):
        return Choose(behaviour.peer, behaviour.label, behaviour.ann,
                      strengthen(rng, behaviour.cont, depth))
    if isinstance(behaviour, Branch):
        slots = []
        for slot in (behaviour.left, behaviour.right):
            if slot is not None:
                slots.append((slot[0], strengthen(rng, slot[1], depth)))
            elif rng.random() < 0.5:
                slots.append((rng.choice(_ANNS), gen_behaviour(rng, depth)))
            else:
                slots.append(None)
        return Branch(behaviour.peer, slots[0], slots[1])
    if isinstance(behaviour, BCond):
        return BCond(behaviour.guard, strengthen(rng, behaviour.then_branch, depth),
                     strengthen(rng, behaviour.else_branch, depth))
    return behaviour


# --------------------------------------------------------------------------
# Independent well-formedness oracle: iterative scans, no shared code with
# the recursive predicates under test.

def _all_nodes(chor):
    stack = [chor]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Interaction):
            stack.append(node.cont)
        elif isinstance(node, Cond):
            stack.append(node.else_branch)
            stack.append(node.then_branch)
        elif isinstance(node, RTCall):
            stack.append(node.body)


def _pn_oracle(chor, vars_of) -> set:
    out = set()
    for node in _all_nodes(chor):
        if isinstance(node, Interaction):
            out |= {node.eta.sender, node.eta.receiver}
        elif isinstance(node, Cond):
            out.add(node.proc)
        elif isinstance(node, Call):
            out |= set(vars_of(node.name))
        elif isinstance(node, RTCall):
            out |= set(node.pending)
    return out


def wf_oracle(program: CCProgram) -> bool:
    defs = program.defs
    for node in _all_nodes(program.main):
        if isinstance(node, Interaction) and node.eta.sender == node.eta.receiver:
            return False
        if isinstance(node, RTCall):
            if not node.pending or not set(node.pending) <= set(defs.vars(node.name)):
                return False
    for name in defs.support():
        body = defs.body(name)
        procs = defs.vars(name)
        if not procs:
            return False
        for node in _all_nodes(body):
            if isinstance(node, Interaction) and node.eta.sender == node.eta.receiver:
                return False
            if isinstance(node, RTCall):
                return False
        if not _pn_oracle(body, defs.vars) <= set(procs):
            return False
    return True


def walk_reference(chor, path=()):
    """The recursive walk that ``chorus.choreography.walk`` replaced: every
    (path, node) pair, pre-order, left to right."""
    yield path, chor
    if isinstance(chor, Interaction):
        yield from walk_reference(chor.cont, path + ("cont",))
    elif isinstance(chor, Cond):
        yield from walk_reference(chor.then_branch, path + ("then",))
        yield from walk_reference(chor.else_branch, path + ("else",))
    elif isinstance(chor, RTCall):
        yield from walk_reference(chor.body, path + ("body",))


# --------------------------------------------------------------------------
# Reference strong projectability: the literal definition, which projects
# every conditional on its own.  ``chorus.str_proj`` projects the whole
# choreography once instead.

def str_proj_reference(defs, chor, process) -> bool:
    for node in _all_nodes(chor):
        if isinstance(node, Cond) and not bproj(defs, node, process).ok:
            return False
        if isinstance(node, RTCall):
            for joiner in node.pending:
                from_def = bproj(defs, defs.body(node.name), joiner)
                from_body = bproj(defs, node.body, joiner)
                if not (from_def.ok and from_body.ok
                        and more_branches(from_def.behaviour, from_body.behaviour)):
                    return False
    return True


# --------------------------------------------------------------------------
# Reference equality of syntax trees, recursive and without the nodes' own
# ``==``, which is identity: the oracle for sharing.

def eq_reference(first, second) -> bool:
    """Same kind and, field by field, equal values; a tuple (an offer, a
    pending list, a procedure copy) compares item by item."""
    if isinstance(first, Node) or isinstance(second, Node):
        return type(first) is type(second) and all(
            eq_reference(getattr(first, field), getattr(second, field))
            for field in first.__match_args__)
    if isinstance(first, tuple) or isinstance(second, tuple):
        return (type(first) is type(second) and len(first) == len(second)
                and all(map(eq_reference, first, second)))
    return first == second


def rebuild(tree):
    """The tree built again from its fields, kind by kind: the same object
    for syntax, which is shared, and a new record for a label."""
    if isinstance(tree, tuple):
        return tuple(map(rebuild, tree))
    if isinstance(tree, Node):
        return type(tree)(*(rebuild(getattr(tree, field)) for field in tree.__match_args__))
    return tree


# --------------------------------------------------------------------------
# Reference enumerator: every transition of the whole tree, then filtered by
# the delay rules at each level.  ``chorus.cc_enabled`` must return the same
# list, in the same order, while skipping subtrees whose processes are all
# blocked.

def cc_enabled_unpruned(defs, chor, state):
    out = []
    if isinstance(chor, Interaction):
        eta = chor.eta
        if isinstance(eta, ComEta):
            value = eval_on_state(eta.expr, state, eta.sender)
            out.append((RCom(eta.sender, value, eta.receiver, eta.var), chor.cont,
                        state.put((eta.receiver, eta.var), value)))
        else:
            out.append((RSel(eta.sender, eta.receiver, eta.label), chor.cont, state))
        blocked = eta_processes(eta)
        for label, cont, succ_state in cc_enabled_unpruned(defs, chor.cont, state):
            if label_processes(label).isdisjoint(blocked):
                out.append((label, Interaction(eta, chor.ann, cont), succ_state))
    elif isinstance(chor, Cond):
        if eval_bexpr_on_state(chor.guard, state, chor.proc):
            out.append((RCond(chor.proc), chor.then_branch, state))
        else:
            out.append((RCond(chor.proc), chor.else_branch, state))
        for label, then_cont, succ_state in cc_enabled_unpruned(defs, chor.then_branch, state):
            if chor.proc not in label_processes(label):
                other = cc_step(defs, chor.else_branch, state, label)
                if other is not None and other[1] == succ_state:
                    out.append((label,
                                Cond(chor.proc, chor.guard, then_cont, other[0]),
                                succ_state))
    elif isinstance(chor, Call):
        procs = defs.vars(chor.name)
        body = defs.body(chor.name)
        for process in procs:
            if len(procs) == 1:
                succ = body
            else:
                succ = RTCall(chor.name, tuple(p for p in procs if p != process), body)
            out.append((RCall(chor.name, process), succ, state))
    elif isinstance(chor, RTCall):
        for process in chor.pending:
            if len(chor.pending) == 1:
                succ = chor.body
            else:
                succ = RTCall(chor.name,
                              tuple(p for p in chor.pending if p != process), chor.body)
            out.append((RCall(chor.name, process), succ, state))
        for label, body_cont, succ_state in cc_enabled_unpruned(defs, chor.body, state):
            if label_processes(label).isdisjoint(chor.pending):
                out.append((label, RTCall(chor.name, chor.pending, body_cont), succ_state))
    return out


# --------------------------------------------------------------------------
# Reference scanner: ``chorus.surface.tokenize`` must give the same tokens,
# or raise the same ParseError (message, span and ``expected``).

_REFERENCE_SYMBOLS = ("(+)", "->", "==", "<=", "&&", "!", "?", "@", ";", ":", ",",
                      ".", "{", "}", "(", ")", "[", "]", "+", "|", "&")


def tokenize_reference(text: str):
    """The character-loop scanner that ``chorus.surface.tokenize`` replaced."""
    tokens = []
    line, col, i = 1, 1, 0
    length = len(text)
    while i < length:
        ch = text[i]
        if ch == "\n":
            i, line, col = i + 1, line + 1, 1
            continue
        if ch in " \t\r":
            i, col = i + 1, col + 1
            continue
        if ch == "#":
            while i < length and text[i] != "\n":
                i += 1
            continue
        if ch == '"':
            start_line, start_col = line, col
            j = i + 1
            while j < length and text[j] != '"':
                j += 2 if text[j] == "\\" and j + 1 < length else 1
            if j >= length:
                raise ParseError("unterminated string", Span(start_line, start_col, line, col))
            literal = text[i:j + 1]
            try:
                value = json.loads(literal)
            except json.JSONDecodeError:
                raise ParseError(f"bad string literal {literal}",
                                 Span(start_line, start_col, line, col)) from None
            tokens.append(("string", value, start_line, start_col, start_col + len(literal)))
            col += j + 1 - i
            i = j + 1
            continue
        if ch.isdigit():
            j = i
            while j < length and text[j].isdigit():
                j += 1
            tokens.append(("nat", text[i:j], line, col, col + j - i))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < length and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], line, col, col + j - i))
            col += j - i
            i = j
            continue
        for sym in _REFERENCE_SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(("sym", sym, line, col, col + len(sym)))
                col += len(sym)
                i += len(sym)
                break
        else:
            raise ParseError(f"stray character {ch!r}", Span(line, col, line, col + 1))
    tokens.append(("eof", "", line, col, col + 1))
    return tokens
