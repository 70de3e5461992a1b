"""Recursive definitions of evaluation, the step relation, projection,
merge, the branching order and the printers, one case per syntax kind as
the paper states them.  ``chorus`` computes each of them by loops and an
explicit-stack fold or writer; the tests check the two agree on shallow
trees, where recursion is safe."""
from __future__ import annotations

import json

from chorus import (
    And, B_END, BCall, BCond, BEnd, BLit, Branch, Call, Choose, ComEta, Cond, End, Eq, Fst,
    Interaction, Leq, Lit, Not, Pair, Plus, RCall, RCom, RCond, RSel, Recv, RTCall, SelEta,
    SelLabel, Send, Snd, Succ, Var,
)
from chorus.labels import label_processes
from chorus.projection import _DIFFER, Diagnostic, ProjectionResult
from chorus.surface import ParseError, Span, print_bexpr, print_expr, tokenize
from chorus.values import leftmost_nat


def eval_expr_reference(expr, env):
    kind = type(expr)
    if kind is Lit:
        return expr.value
    if kind is Var:
        return env(expr.name)
    if kind is Succ:
        return leftmost_nat(eval_expr_reference(expr.arg, env)) + 1
    if kind is Plus:
        return (leftmost_nat(eval_expr_reference(expr.left, env))
                + leftmost_nat(eval_expr_reference(expr.right, env)))
    if kind is Pair:
        return (eval_expr_reference(expr.left, env), eval_expr_reference(expr.right, env))
    value = eval_expr_reference(expr.arg, env)
    if not isinstance(value, tuple):
        return value
    return value[0] if kind is Fst else value[1]


def eval_bexpr_reference(bexpr, env):
    kind = type(bexpr)
    if kind is BLit:
        return bexpr.value
    if kind is Eq:
        return eval_expr_reference(bexpr.left, env) == eval_expr_reference(bexpr.right, env)
    if kind is Leq:
        return (leftmost_nat(eval_expr_reference(bexpr.left, env))
                <= leftmost_nat(eval_expr_reference(bexpr.right, env)))
    if kind is Not:
        return not eval_bexpr_reference(bexpr.arg, env)
    return eval_bexpr_reference(bexpr.left, env) and eval_bexpr_reference(bexpr.right, env)


def cc_step_reference(defs, chor, state, label):
    """The step by ``label``, or None: the head rules of each kind, the
    joins of a call and of a runtime term, and the delay rules past an
    interaction, a conditional (both branches step, to one state) and a
    runtime term whose pending processes the label does not name."""
    processes = label_processes(label)
    kind = type(chor)
    if kind is Interaction:
        eta = chor.eta
        if type(eta) is ComEta and type(label) is RCom and (
                label.sender, label.receiver, label.var) == (eta.sender, eta.receiver, eta.var):
            value = eval_expr_reference(eta.expr, lambda var: state.lookup(eta.sender, var))
            if label.value != value:
                return None
            return chor.cont, state.update(eta.receiver, eta.var, value)
        if type(eta) is SelEta and type(label) is RSel and (
                label.sender, label.receiver, label.label) == (eta.sender, eta.receiver, eta.label):
            return chor.cont, state
        if {eta.sender, eta.receiver} & processes:
            return None
        stepped = cc_step_reference(defs, chor.cont, state, label)
        return stepped and (Interaction(eta, chor.ann, stepped[0]), stepped[1])
    if kind is Cond:
        if type(label) is RCond and label.proc == chor.proc:
            guard = eval_bexpr_reference(chor.guard, lambda var: state.lookup(chor.proc, var))
            return (chor.then_branch if guard else chor.else_branch), state
        if chor.proc in processes:
            return None
        then_step = cc_step_reference(defs, chor.then_branch, state, label)
        else_step = cc_step_reference(defs, chor.else_branch, state, label)
        if then_step is None or else_step is None or then_step[1] != else_step[1]:
            return None
        return Cond(chor.proc, chor.guard, then_step[0], else_step[0]), then_step[1]
    if kind is End:
        return None
    procs, body = ((defs.vars(chor.name), defs.body(chor.name)) if kind is Call
                   else (chor.pending, chor.body))
    if type(label) is RCall and label.name == chor.name and label.proc in procs:
        rest = tuple(p for p in procs if p != label.proc)
        return (RTCall(chor.name, rest, body) if rest else body), state
    if kind is Call or set(chor.pending) & processes:
        return None
    stepped = cc_step_reference(defs, chor.body, state, label)
    return stepped and (RTCall(chor.name, chor.pending, stepped[0]), stepped[1])


def _fail(reason, path=()):
    return ProjectionResult(None, Diagnostic(reason, path))


def _under(step, result):
    """``result`` with ``step`` put before its failure's path."""
    if result.ok:
        return result
    return _fail(result.failure.reason, (step, *result.failure.path))


def bproj_reference(defs, chor, process):
    kind = type(chor)
    if kind is End:
        return ProjectionResult(B_END)
    if kind is Call:
        return ProjectionResult(BCall((chor.name, process)) if process in defs.vars(chor.name)
                                else B_END)
    if kind is RTCall:
        if process in chor.pending:
            return ProjectionResult(BCall((chor.name, process)))
        return _under("body", bproj_reference(defs, chor.body, process))
    if kind is Cond:
        then_proj = _under("then", bproj_reference(defs, chor.then_branch, process))
        if not then_proj.ok:
            return then_proj
        else_proj = _under("else", bproj_reference(defs, chor.else_branch, process))
        if not else_proj.ok:
            return else_proj
        if process == chor.proc:
            return ProjectionResult(BCond(chor.guard, then_proj.behaviour, else_proj.behaviour))
        merged = merge_reference(then_proj.behaviour, else_proj.behaviour)
        if not merged.ok:
            return _fail(f"conditional at {chor.proc} is ambiguous for {process}: "
                         f"{merged.failure.reason}")
        return merged
    cont = _under("cont", bproj_reference(defs, chor.cont, process))
    if not cont.ok:
        return cont
    eta, behaviour = chor.eta, cont.behaviour
    if process == eta.sender:
        behaviour = (Send(eta.receiver, eta.expr, chor.ann, behaviour) if type(eta) is ComEta
                     else Choose(eta.receiver, eta.label, chor.ann, behaviour))
    elif process == eta.receiver:
        if type(eta) is ComEta:
            behaviour = Recv(eta.sender, eta.var, chor.ann, behaviour)
        else:
            offer = (chor.ann, behaviour)
            behaviour = (Branch(eta.sender, offer, None) if eta.label is SelLabel.LEFT
                         else Branch(eta.sender, None, offer))
    return ProjectionResult(behaviour)


def merge_reference(first, second):
    kind = type(first)
    if kind is not type(second):
        return _fail(f"{kind.__name__} cannot merge with {type(second).__name__}")
    if kind.leaves(first) != kind.leaves(second):
        return _fail(f"{_DIFFER[kind]} differ")
    if kind is BEnd or kind is BCall:
        return ProjectionResult(first)
    if kind is BCond:
        merged = []
        for step, mine, theirs in (("then", first.then_branch, second.then_branch),
                                   ("else", first.else_branch, second.else_branch)):
            result = _under(step, merge_reference(mine, theirs))
            if not result.ok:
                return result
            merged.append(result.behaviour)
        return ProjectionResult(BCond(first.guard, *merged))
    if kind is Branch:
        offers = []
        for step, mine, theirs in (("left", first.left, second.left),
                                   ("right", first.right, second.right)):
            if mine is None or theirs is None:
                offers.append(mine or theirs)
                continue
            if mine[0] != theirs[0]:
                return _fail("offer annotations differ", (step,))
            result = _under(step, merge_reference(mine[1], theirs[1]))
            if not result.ok:
                return result
            offers.append((mine[0], result.behaviour))
        return ProjectionResult(Branch(first.peer, *offers))
    result = _under("cont", merge_reference(first.cont, second.cont))
    return result if not result.ok else ProjectionResult(kind(*kind.leaves(first), result.behaviour))


def more_branches_reference(first, second) -> bool:
    kind = type(first)
    if kind is not type(second) or kind.leaves(first) != kind.leaves(second):
        return False
    if kind is Branch:
        for mine, theirs in ((first.left, second.left), (first.right, second.right)):
            if theirs is not None and (mine is None or mine[0] != theirs[0]
                                       or not more_branches_reference(mine[1], theirs[1])):
                return False
        return True
    return all(more_branches_reference(getattr(first, name), getattr(second, name))
               for name in kind.SUBTREES.values())


def _ann_text(ann):
    return f" @ {json.dumps(ann)}" if ann else ""


def chor_lines_reference(chor, indent=0):
    pad = "  " * indent
    kind = type(chor)
    if kind is Interaction:
        eta = chor.eta
        text = (f"{eta.sender}.{print_expr(eta.expr)} -> {eta.receiver}.{eta.var}"
                if type(eta) is ComEta else f"{eta.sender} -> {eta.receiver}[{eta.label.value}]")
        return [pad + text + _ann_text(chor.ann) + ";", *chor_lines_reference(chor.cont, indent)]
    if kind is End or kind is Call:
        return [pad + ("end" if kind is End else f"call {chor.name}")]
    if kind is Cond:
        return [pad + f"if {chor.proc}.{print_bexpr(chor.guard)} then {{",
                *chor_lines_reference(chor.then_branch, indent + 1), pad + "} else {",
                *chor_lines_reference(chor.else_branch, indent + 1), pad + "}"]
    return [pad + f"rt_call {chor.name} [{', '.join(chor.pending)}] {{",
            *chor_lines_reference(chor.body, indent + 1), pad + "}"]


def print_behaviour_reference(behaviour) -> str:
    kind = type(behaviour)
    if kind is Send or kind is Recv or kind is Choose:
        action = (f"!{print_expr(behaviour.expr)}" if kind is Send else f"?{behaviour.var}"
                  if kind is Recv else f"(+){behaviour.label.value}")
        return (f"{behaviour.peer}{action}{_ann_text(behaviour.ann)}; "
                + print_behaviour_reference(behaviour.cont))
    if kind is BEnd:
        return "end"
    if kind is BCall:
        return f"call {behaviour.name[0]}@{behaviour.name[1]}"
    if kind is BCond:
        return (f"if {print_bexpr(behaviour.guard)} "
                f"then {{ {print_behaviour_reference(behaviour.then_branch)} }} "
                f"else {{ {print_behaviour_reference(behaviour.else_branch)} }}")
    slots = [f"{label.value}{_ann_text(slot[0])}: {print_behaviour_reference(slot[1])}"
             for label, slot in ((SelLabel.LEFT, behaviour.left), (SelLabel.RIGHT, behaviour.right))
             if slot is not None]
    return f"{behaviour.peer} & {{{' | '.join(slots)}}}"


_KEYWORDS = {"def", "main", "if", "then", "else", "call", "end", "left", "right",
             "true", "false", "succ", "fst", "snd", "pair", "rt_call"}
_CALLS = {"succ": Succ, "fst": Fst, "snd": Snd, "pair": Pair}


class FormulaReader:
    """The recursive reader of expressions and Boolean expressions over
    ``tokenize``'s tokens, one method per nonterminal.  ``bterm_atom`` tries
    a parenthesised Boolean expression first and reads a comparison where
    that fails, so a parenthesis may be read many times."""

    def __init__(self, text):
        self.tokens = tokenize(text)
        self.pos = 0

    def _fail(self, message, expected=()):
        token = self.tokens[self.pos]
        raise ParseError(message, Span(token[2], token[3], token[2], token[4]), expected)

    def _accept(self, text):
        token = self.tokens[self.pos]
        if token[1] == text and token[0] in ("sym", "ident"):
            self.pos += 1
            return True
        return False

    def _expect(self, text):
        if not self._accept(text):
            kind, found = self.tokens[self.pos][:2]
            self._fail(f"found {found!r}" if kind != "eof" else "unexpected end of input", (text,))

    def expr(self):
        out = self.expr_atom()
        while self._accept("+"):
            out = Plus(out, self.expr_atom())
        return out

    def expr_atom(self):
        kind, text = self.tokens[self.pos][:2]
        if kind == "ident" and text not in _KEYWORDS:
            self.pos += 1
            return Var(text)
        if kind == "nat":
            try:
                value = int(text)
            except ValueError as err:
                self._fail(str(err) if text.isdecimal() else f"{text!r} is not a decimal number")
            self.pos += 1
            return Lit(value)
        if self._accept("("):
            inner = self.expr()
            self._expect(")")
            return inner
        if kind == "ident" and text in _CALLS:
            self.pos += 1
            self._expect("(")
            args = [self.expr()]
            if text == "pair":
                self._expect(",")
                args.append(self.expr())
            self._expect(")")
            return _CALLS[text](*args)
        self._fail(f"found {text!r} where an expression was needed", ("expression",))

    def bexpr(self):
        out = self.bterm()
        while self._accept("&&"):
            out = And(out, self.bterm())
        return out

    def bterm(self):
        if self._accept("!"):
            return Not(self.bterm())
        return self.bterm_atom()

    def bterm_atom(self):
        if self._accept("true"):
            return BLit(True)
        if self._accept("false"):
            return BLit(False)
        saved = self.pos
        if self._accept("("):
            try:
                inner = self.bexpr()
                self._expect(")")
                return inner
            except ParseError:
                self.pos = saved
        left = self.expr()
        if self._accept("=="):
            return Eq(left, self.expr())
        if self._accept("<="):
            return Leq(left, self.expr())
        self._fail("comparison needs '==' or '<='", ("==", "<="))
