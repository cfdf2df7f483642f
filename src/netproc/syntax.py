"""Concrete ASCII syntax: parsing and printing.

Grammar (parallel composition is right-associative and binds loosest):

    process  :=  unit { "|" unit }
    unit     :=  "new" IDENT "." process            restriction, body runs
               |  factor                             to the end of the group
    factor   :=  "(" process ")"
               |  "0"
               |  "lose" IDENT | "dup" IDENT | "duplose" IDENT
               |  IDENT "!" IDENT                    send
               |  IDENT "?" IDENT "." unit           receive, body ends at "|"
               |  IDENT "?*" IDENT "." unit          repeating receive
               |  IDENT "=>" "[" [IDENT {"," IDENT}] "]"
               |  IDENT "->" IDENT                   one-hop forwarder
               |  IDENT "<->" IDENT                  forwarders both ways

A receive body ends at the first `|`; a restriction body extends to the
end of the enclosing parenthesized group.  Binders are resolved to
indices during parsing, so printed terms re-parse to structurally equal
terms no matter which binder names the printer invents.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ParseError, ScopeError
from .semantics import Action, ReceiveAct, SendAct, Tau
from .terms import (
    Atom,
    ChanVar,
    Channel,
    Distribute,
    Name,
    Parallel,
    Process,
    Receive,
    RepeatReceive,
    Restrict,
    Send,
    STOP,
    Stop,
    ValVar,
    Value,
    atoms_used,
    free_channel_names,
)

_KEYWORDS = {"new", "lose", "dup", "duplose"}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<zero>0)
  | (?P<qstar>\?\*)
  | (?P<biarrow><->)
  | (?P<darrow>=>)
  | (?P<arrow>->)
  | (?P<punct>[!?.|,()\[\]])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    out: list[_Token] = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup or ""
        tok = m.group()
        if kind != "ws":
            if kind == "ident" and tok in _KEYWORDS:
                kind = tok
            elif kind == "punct":
                kind = tok
            out.append(_Token(kind, tok, line, col))
        newlines = tok.count("\n")
        if newlines:
            line += newlines
            col = len(tok) - tok.rfind("\n")
        else:
            col += len(tok)
        pos = m.end()
    out.append(_Token("eof", "", line, col))
    return out


class _Parser:
    def __init__(self, text: str) -> None:
        self.tokens = _tokenize(text)
        self.pos = 0
        self.chan_binders: list[str] = []
        self.val_binders: list[str] = []

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok.line, tok.col)
        return tok

    # -- scope resolution ---------------------------------------------------

    def channel(self, tok: _Token) -> Channel:
        name = tok.text
        if name in self.chan_binders:
            # distance from the innermost binder is the de Bruijn index
            return ChanVar(self.chan_binders[::-1].index(name))
        if name in self.val_binders:
            raise ScopeError(f"line {tok.line} col {tok.col}: value {name!r} used as a channel")
        return Name(name)

    def value(self, tok: _Token) -> Value:
        name = tok.text
        if name in self.val_binders:
            return ValVar(self.val_binders[::-1].index(name))
        if name in self.chan_binders:
            raise ScopeError(
                f"line {tok.line} col {tok.col}: channel {name!r} used as a value (no mobility)"
            )
        return Atom(name)

    # -- grammar ------------------------------------------------------------

    def process(self) -> Process:
        parts = [self.unit()]
        while self.peek().kind == "|":
            self.next()
            parts.append(self.unit())
        out = parts[-1]
        for part in reversed(parts[:-1]):
            out = Parallel(part, out)
        return out

    def unit(self) -> Process:
        if self.peek().kind == "new":
            self.next()
            binder = self.expect("ident")
            self.expect(".")
            self.chan_binders.append(binder.text)
            body = self.process()
            self.chan_binders.pop()
            # occurrences were resolved against the stacked binder already
            return Restrict(body)
        return self.factor()

    def factor(self) -> Process:
        tok = self.next()
        match tok.kind:
            case "(":
                inner = self.process()
                self.expect(")")
                return inner
            case "zero":
                return STOP
            case "lose":
                return Distribute(self.channel(self.expect("ident")), ())
            case "dup":
                c = self.channel(self.expect("ident"))
                return Distribute(c, (c, c))
            case "duplose":
                c = self.channel(self.expect("ident"))
                return Parallel(Distribute(c, ()), Distribute(c, (c, c)))
            case "ident":
                return self.after_channel(tok)
        raise ParseError(f"unexpected {tok.text or 'end of input'!r}", tok.line, tok.col)

    def after_channel(self, tok: _Token) -> Process:
        op = self.next()
        match op.kind:
            case "!":
                return Send(self.channel(tok), self.value(self.expect("ident")))
            case "?" | "qstar":
                binder = self.expect("ident")
                self.expect(".")
                chan = self.channel(tok)
                self.val_binders.append(binder.text)
                body = self.unit()
                self.val_binders.pop()
                cls = Receive if op.kind == "?" else RepeatReceive
                return cls(chan, body)
            case "arrow":
                return Distribute(self.channel(tok), (self.channel(self.expect("ident")),))
            case "biarrow":
                a = self.channel(tok)
                b = self.channel(self.expect("ident"))
                return Parallel(Distribute(a, (b,)), Distribute(b, (a,)))
            case "darrow":
                self.expect("[")
                targets: list[Channel] = []
                if self.peek().kind != "]":
                    targets.append(self.channel(self.expect("ident")))
                    while self.peek().kind == ",":
                        self.next()
                        targets.append(self.channel(self.expect("ident")))
                self.expect("]")
                return Distribute(self.channel(tok), tuple(targets))
        raise ParseError(f"expected an operator after channel, found {op.text!r}", op.line, op.col)


def parse(text: str) -> Process:
    """Parse a closed process term; raises ParseError or ScopeError."""
    parser = _Parser(text)
    out = parser.process()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input starting at {tok.text!r}", tok.line, tok.col)
    return out


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

_VALUE_NAMES = ("x", "y", "z", "w")
_CHANNEL_NAMES = ("t", "u", "s", "r")


def _pick(candidates: tuple[str, ...], taken: set[str]) -> str:
    for c in candidates:
        if c not in taken:
            return c
    i = 1
    while f"{candidates[0]}{i}" in taken:
        i += 1
    return f"{candidates[0]}{i}"


def pretty(p: Process) -> str:
    """Canonical text for a term; parsing it back yields an equal term."""
    taken = free_channel_names(p) | atoms_used(p)
    return _pp(p, [], [], taken, group=True)


def _pp(p: Process, chans: list[str], vals: list[str], taken: set[str], group: bool) -> str:
    match p:
        case Stop():
            return "0"
        case Send(channel=c, payload=v):
            return f"{_pc(c, chans)}!{_pv(v, vals)}"
        case Receive(channel=c, body=b) | RepeatReceive(channel=c, body=b):
            op = "?" if isinstance(p, Receive) else "?*"
            name = _pick(_VALUE_NAMES, taken | set(vals) | set(chans))
            vals.append(name)
            parens = isinstance(b, (Parallel, Restrict))
            inner = _pp(b, chans, vals, taken, group=parens)
            vals.pop()
            if parens:
                inner = f"({inner})"
            return f"{_pc(c, chans)}{op}{name}. {inner}"
        case Distribute(source=s, targets=ts):
            inner = ", ".join(_pc(t, chans) for t in ts)
            return f"{_pc(s, chans)} => [{inner}]"
        case Parallel():
            parts: list[str] = []
            cur: Process = p
            while isinstance(cur, Parallel):
                parts.append(_component(cur.left, chans, vals, taken, last=False))
                cur = cur.right
            parts.append(_component(cur, chans, vals, taken, last=True))
            text = " | ".join(parts)
            return text if group else f"({text})"
        case Restrict(body=b):
            name = _pick(_CHANNEL_NAMES, taken | set(chans) | set(vals))
            chans.append(name)
            inner = _pp(b, chans, vals, taken, group=True)
            chans.pop()
            text = f"new {name}. {inner}"
            return text if group else f"({text})"
    raise TypeError(f"not a process: {p!r}")


def _component(p: Process, chans: list[str], vals: list[str], taken: set[str], last: bool) -> str:
    # a trailing restriction may stay bare: its body runs to the group end
    if isinstance(p, Restrict) and last:
        return _pp(p, chans, vals, taken, group=True)
    return _pp(p, chans, vals, taken, group=False)


def _pc(c: Channel, chans: list[str]) -> str:
    if isinstance(c, Name):
        return c.text
    return chans[len(chans) - 1 - c.index]


def _pv(v: Value, vals: list[str]) -> str:
    if isinstance(v, Atom):
        return v.text
    return vals[len(vals) - 1 - v.index]


def pretty_action(a: Action) -> str:
    match a:
        case Tau():
            return "tau"
        case SendAct(channel=c, payload=v):
            return f"{c.text}!{v.text}"
        case ReceiveAct(channel=c, payload=v):
            return f"{c.text}?{v.text}"
    raise TypeError(f"not an action: {a!r}")
