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
from itertools import chain, count

from .errors import ParseError, ScopeError
from .normalform import compose_parallel
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


def is_identifier(text: str) -> bool:
    """Whether `text` reads back as one identifier, such as a value name."""
    m = _TOKEN_RE.fullmatch(text)
    return m is not None and m.lastgroup == "ident" and text not in _KEYWORDS


class _Token:
    # a plain slotted record: a frozen dataclass's __init__ costs three
    # times as much, and the tokenizer makes one per token of every parsed term
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int) -> None:
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


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
        # groups and prefixes being read; see `process`
        self.stack: list = [[None, []]]

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
        # Read on an explicit stack, so nesting is bounded by memory, not
        # by the recursion limit.  A group, [opening token or None, the
        # `|` list read so far], ends at ")" if a parenthesis opened it,
        # else where the group around it ends.  A binder, (its names
        # list, constructor, fields before the body), waits for its body:
        # a restriction's is a group, a receive prefix's is one unit.
        stack = self.stack
        while True:
            if self.peek().kind == "new":
                self.next()
                self.chan_binders.append(self.expect("ident").text)
                self.expect(".")
                stack += [(self.chan_binders, Restrict), [None, []]]
                continue
            unit = self.factor()
            while unit is not None:
                top = stack.pop()
                if type(top) is tuple:
                    # occurrences were resolved against the stacked binder already
                    top[0].pop()
                    unit = top[1](*top[2:], unit)
                    continue
                opener, parts = top
                parts.append(unit)
                if self.peek().kind == "|":
                    self.next()
                    stack.append(top)
                    break
                unit = compose_parallel(parts)
                if opener is not None:
                    self.expect(")")
                elif not stack:
                    return unit

    def factor(self) -> Process | None:
        """A leaf, or None after the opening of a group or a prefix,
        which `process` then reads."""
        tok = self.next()
        match tok.kind:
            case "(":
                self.stack.append([tok, []])
                return None
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

    def after_channel(self, tok: _Token) -> Process | None:
        op = self.next()
        match op.kind:
            case "!":
                return Send(self.channel(tok), self.value(self.expect("ident")))
            case "?" | "qstar":
                binder = self.expect("ident")
                self.expect(".")
                chan = self.channel(tok)
                self.val_binders.append(binder.text)
                self.stack.append((self.val_binders, Receive if op.kind == "?" else RepeatReceive, chan))
                return None
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


def _bind(candidates: tuple[str, ...], used: set[str], root: Process, around: list[str]) -> str:
    """Name a binder: its first candidate not in `used` (the free names
    and atoms of the `root` being printed, read at its first binder, and
    the binders around it), else the first free base1, base2, ... of its
    first candidate.  `around` lists the binders of its sort around it.
    Binders are released innermost first, and a numbered name is taken
    only when every candidate is in use, so at least len(around) -
    len(candidates) numbered names are in use, the least ones that are
    not names in the root: the search starts after that many."""
    if not used:
        used |= free_channel_names(root) | atoms_used(root)
    numbered = (f"{candidates[0]}{i}" for i in count(max(1, len(around) - len(candidates) + 1)))
    name = next(n for n in chain(candidates, numbered) if n not in used)
    used.add(name)
    return name


def pretty(p: Process) -> str:
    """Canonical text for a term; parsing it back yields an equal term.
    Raises ScopeError for an index that refers to no enclosing binder."""
    used: set[str] = set()
    chans: list[str] = []
    vals: list[str] = []
    out: list[str] = []
    # The text is written left to right from a stack of pending items: a
    # term and whether it is alone in its group (if not, a composition or
    # restriction takes parentheses), or, with None in its place, a piece
    # of text or a binder list to pop.
    todo: list[tuple] = [(p, True)]
    while todo:
        x, group = todo.pop()
        kind = type(x)
        if group is None:
            if kind is str:
                out.append(x)
            else:
                used.discard(x.pop())
        elif kind is Parallel:
            items = []
            while type(x) is Parallel:
                items += [(x.left, False), (" | ", None)]
                x = x.right
            # a trailing restriction may stay bare: its body runs to the group end
            items += [(x, True), ("" if group else ")", None)]
            out.append("" if group else "(")
            todo += reversed(items)
        elif kind is Restrict:
            name = _bind(_CHANNEL_NAMES, used, p, chans)
            out.append(f"new {name}. " if group else f"(new {name}. ")
            chans.append(name)
            todo += [("" if group else ")", None), (chans, None), (x.body, True)]
        elif kind is Receive or kind is RepeatReceive:
            name = _bind(_VALUE_NAMES, used, p, vals)
            b = x.body
            parens = type(b) is Parallel or type(b) is Restrict
            out.append(f"{_pc(x.channel, chans)}{'?' if kind is Receive else '?*'}{name}. {'(' if parens else ''}")
            vals.append(name)
            todo += [(vals, None), (")" if parens else "", None), (b, parens)]
        elif kind is Send:
            out.append(f"{_pc(x.channel, chans)}!{_pv(x.payload, vals)}")
        elif kind is Distribute:
            out.append(f"{_pc(x.source, chans)} => [{', '.join([_pc(t, chans) for t in x.targets])}]")
        elif kind is Stop:
            out.append("0")
        else:
            raise TypeError(f"not a process: {x!r}")
    return "".join(out)


def _pc(c: Channel, chans: list[str]) -> str:
    return c.text if isinstance(c, Name) else _bound(c.index, chans, "channel")


def _pv(v: Value, vals: list[str]) -> str:
    return v.text if isinstance(v, Atom) else _bound(v.index, vals, "value")


def _bound(index: int, names: list[str], sort: str) -> str:
    # a dangling index must not borrow a name from the end of the list
    if not 0 <= index < len(names):
        raise ScopeError(f"{sort} index {index} refers to no enclosing binder")
    return names[len(names) - 1 - index]


def pretty_action(a: Action) -> str:
    match a:
        case Tau():
            return "tau"
        case SendAct(channel=c, payload=v):
            return f"{c.text}!{v.text}"
        case ReceiveAct(channel=c, payload=v):
            return f"{c.text}?{v.text}"
    raise TypeError(f"not an action: {a!r}")
