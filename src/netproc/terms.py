"""Process terms for an asynchronous channel calculus without mobility.

Channels and values are distinct sorts with independent de Bruijn index
spaces: restriction binds channels, receive prefixes bind values.  Because
the sorts never mix (a value cannot be used as a channel), crossing a
receive binder leaves channel indices untouched and vice versa.

Process nodes are hash-consed (Filliâtre & Conchon, "Type-safe modular
hash-consing", 2006): building a node with the same constructor and the
same fields as a live node returns that node, so structurally equal terms
are the same object.  Equality is identity, and each node computes its
structural hash once, from its children's stored hashes.  Each node
also carries a channel mask, set when it is built from its children's
masks: bit i is set when the bound channel `ChanVar(i)` occurs free in
the node, so which enclosing binders a term uses is read off its top
node without a walk.  The intern table holds nodes weakly, so a term is
dropped once nothing else refers to it.  Terms must be built through
their constructors; copying and pickling go through them too.  The
channel and value leaves are small frozen dataclasses with structural
equality.  All operations here are pure.

The term facts that scope and language checks ask for (the value-side
twin of the channel mask, whether any index is negative, the
constructors, the atoms and the free channel names) are kept as one
summary per node, built from the children's summaries the first time a
query asks for it, so `well_scoped`, `free_channel_names`, `atoms_used`
and `constructs_used` are reads after that.  Equal sets are shared
between a node and its children.  The summary is not built when a node
is interned: most nodes are step targets that no query ever reaches,
and a term nested deeper than the recursion limit still fails at its
first query, where a summary built at intern time would let it through
to a check that runs for minutes.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from typing import Callable, Iterable, Union

from .errors import FreshnessViolation

# ---------------------------------------------------------------------------
# Channels and values
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Name:
    """Free channel, identified globally by its name."""

    text: str


@dataclass(frozen=True, slots=True)
class ChanVar:
    """Channel bound by an enclosing restriction; index 0 is the nearest one."""

    index: int


Channel = Union[Name, ChanVar]


@dataclass(frozen=True, slots=True)
class Atom:
    """Concrete value drawn from a finite, per-session universe."""

    text: str


@dataclass(frozen=True, slots=True)
class ValVar:
    """Value bound by an enclosing receive prefix; index 0 is the nearest one."""

    index: int


Value = Union[Atom, ValVar]


# ---------------------------------------------------------------------------
# Hash-consing
# ---------------------------------------------------------------------------


class _Ref(weakref.ref):
    """Weak reference to an interned node; knows the node's table key."""

    __slots__ = ("key",)


# (constructor, *fields) -> weak reference to the live node with that structure
_TABLE: dict[tuple, _Ref] = {}
# Held while an entry is inserted or replaced, so that of two threads that
# built a node for one key, both return the one that went in.  Re-entrant
# because a node freed while it is held runs _drop in the same thread.
_LOCK = threading.RLock()


def _drop(ref: _Ref, table: dict = _TABLE, lock=_LOCK) -> None:
    with lock:
        # a dead entry may already have been replaced by a newer node
        if table.get(ref.key) is ref:
            del table[ref.key]


def _intern(key: tuple) -> "Process":
    """The live node for `key`, which is (constructor, *fields), built
    if there is none.  A miss hashes the key twice: in the lock-free get
    and in the setdefault under the lock."""
    ref = _TABLE.get(key)
    node = None if ref is None else ref()
    if node is not None:
        return node
    cls, fields = key[0], key[1:]
    node = object.__new__(cls)
    for put, value in zip(cls._put_fields, fields):
        put(node, value)
    # the same value the field-tuple hash of a plain dataclass would give
    _put_hash(node, hash(fields))
    _put_term_key(node, None)
    _put_chan_mask(node, node._mask())
    ref = _Ref(node, _drop)
    ref.key = key
    with _LOCK:
        # another thread may have built the same node since the get above
        held = _TABLE.setdefault(key, ref)
        if held is not ref:
            live = held()
            if live is not None:
                return live
            _TABLE[key] = ref
    return node


def _bit(c: Channel) -> int:
    # a negative index refers to no binder (well_scoped rejects it)
    return 1 << c.index if type(c) is ChanVar and c.index >= 0 else 0


def _negative(x: Channel | Value) -> bool:
    return type(x) in (ChanVar, ValVar) and x.index < 0


def _join(a: frozenset, b: frozenset) -> frozenset:
    # share a set that already holds the other
    return a if b <= a else b if a <= b else a | b


_EMPTY: frozenset[str] = frozenset()


def _prefix_facts(p: Receive | RepeatReceive) -> tuple:
    # the body's value index 0 is this prefix's binder
    mask, negative, constructs, atoms, names = _facts_of(p.body)
    c = p.channel
    if type(c) is Name and c.text not in names:
        names = names | {c.text}
    return (mask >> 1, negative or _negative(c), _join(constructs, p._tag), atoms, names)


class _Node:
    """Base of the process constructors: interned, hashed once.

    `_term_key` is the node's sort key, filled in on first use by
    `normalform.term_key`.  `_chan_mask` is set when the node is built:
    bit i is set when `ChanVar(i)` occurs free in the node, counting
    binders from the node itself.  `_mask` computes it from the fields,
    whose own masks are already set.  `_facts` is left unset until
    `_facts_of` first asks for it; `_summarize` computes it from the
    fields' summaries as the tuple (value mask, negative index,
    constructors, atoms, free channel names).  The value mask is the
    value-side twin of the channel mask, counting receive binders.
    """

    __slots__ = ("_hash", "_term_key", "_chan_mask", "_facts", "__weakref__")

    def __hash__(self) -> int:
        return self._hash

    def _mask(self) -> int:
        return 0

    def _summarize(self) -> tuple:
        return (0, False, self._tag, _EMPTY, _EMPTY)

    def __reduce__(self) -> tuple:
        # copy, deepcopy and unpickling rebuild through the constructor,
        # so they return the interned node rather than a twin
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)


# Slot setters, which write a frozen node's slots without the attribute
# lookup of object.__setattr__ (half its cost)
_put_hash = _Node._hash.__set__
_put_term_key = _Node._term_key.__set__
_put_chan_mask = _Node._chan_mask.__set__
_put_facts = _Node._facts.__set__


def _process(cls: type) -> type:
    # identity equality comes from object; the generated __init__ is
    # replaced by each constructor's __new__, which returns the interned node
    cls = dataclass(frozen=True, slots=True, eq=False, init=False)(cls)
    cls._put_fields = tuple(getattr(cls, name).__set__ for name in cls.__match_args__)
    cls._tag = frozenset((cls.__name__,))
    return cls


# ---------------------------------------------------------------------------
# Process constructors
# ---------------------------------------------------------------------------


@_process
class Stop(_Node):
    """The inert process."""

    def __new__(cls) -> Stop:
        return _intern((cls,))


@_process
class Send(_Node):
    """Asynchronous output of one value on one channel."""

    channel: Channel
    payload: Value

    def __new__(cls, channel: Channel, payload: Value) -> Send:
        return _intern((cls, channel, payload))

    def _mask(self) -> int:
        return _bit(self.channel)

    def _summarize(self) -> tuple:
        c, v = self.channel, self.payload
        return (
            1 << v.index if type(v) is ValVar and v.index >= 0 else 0,
            _negative(c) or _negative(v),
            self._tag,
            frozenset((v.text,)) if type(v) is Atom else _EMPTY,
            frozenset((c.text,)) if type(c) is Name else _EMPTY,
        )


@_process
class Receive(_Node):
    """One-shot input prefix; the body has one bound value (index 0)."""

    channel: Channel
    body: "Process"

    def __new__(cls, channel: Channel, body: Process) -> Receive:
        return _intern((cls, channel, body))

    def _mask(self) -> int:
        return _bit(self.channel) | self.body._chan_mask

    _summarize = _prefix_facts


@_process
class RepeatReceive(_Node):
    """Input prefix that re-arms itself after every receipt.

    Kept folded as a first-class node; it only unfolds one step at a time
    during transition enumeration.
    """

    channel: Channel
    body: "Process"

    def __new__(cls, channel: Channel, body: Process) -> RepeatReceive:
        return _intern((cls, channel, body))

    def _mask(self) -> int:
        return _bit(self.channel) | self.body._chan_mask

    _summarize = _prefix_facts


@_process
class Parallel(_Node):
    """Binary parallel composition."""

    left: "Process"
    right: "Process"

    def __new__(cls, left: Process, right: Process) -> Parallel:
        return _intern((cls, left, right))

    def _mask(self) -> int:
        return self.left._chan_mask | self.right._chan_mask

    def _summarize(self) -> tuple:
        lm, ln, lc, la, lf = _facts_of(self.left)
        rm, rn, rc, ra, rf = _facts_of(self.right)
        return (lm | rm, ln or rn, _join(_join(lc, rc), self._tag), _join(la, ra), _join(lf, rf))


@_process
class Restrict(_Node):
    """Channel restriction; the body has one bound channel (index 0)."""

    body: "Process"

    def __new__(cls, body: Process) -> Restrict:
        return _intern((cls, body))

    def _mask(self) -> int:
        # the body's index 0 is this binder; its index i+1 is our index i
        return self.body._chan_mask >> 1

    def _summarize(self) -> tuple:
        mask, negative, constructs, atoms, names = _facts_of(self.body)
        return (mask, negative, _join(constructs, self._tag), atoms, names)


@_process
class Distribute(_Node):
    """Network-language forwarder: every value received on `source` is
    re-sent on each channel in `targets` (possibly none, possibly repeats).
    """

    source: Channel
    targets: tuple[Channel, ...]

    def __new__(cls, source: Channel, targets: Iterable[Channel]) -> Distribute:
        return _intern((cls, source, tuple(targets)))

    def _mask(self) -> int:
        mask = _bit(self.source)
        for t in self.targets:
            mask |= _bit(t)
        return mask

    def _summarize(self) -> tuple:
        chans = (self.source, *self.targets)
        names = frozenset(c.text for c in chans if type(c) is Name)
        return (0, any(map(_negative, chans)), self._tag, _EMPTY, names)


Process = Union[Stop, Send, Receive, RepeatReceive, Parallel, Restrict, Distribute]

STOP = Stop()


# ---------------------------------------------------------------------------
# Scope checks and queries
# ---------------------------------------------------------------------------


def _facts_of(p: Process) -> tuple:
    """The node's summary (see `_Node`), computed on first use."""
    try:
        return p._facts
    except AttributeError:
        # a node's slot is unset until its first query
        if not isinstance(p, _Node):
            raise TypeError(f"not a process: {p!r}") from None
    facts = p._summarize()
    _put_facts(p, facts)
    return facts


def well_scoped(p: Process, chan_depth: int = 0, val_depth: int = 0) -> bool:
    """True when every bound index refers to an actual enclosing binder."""
    val_mask, negative = _facts_of(p)[:2]
    return not (negative or p._chan_mask >> max(chan_depth, 0) or val_mask >> max(val_depth, 0))


def is_closed(p: Process) -> bool:
    """True when the term has no dangling channel or value indices."""
    return well_scoped(p, 0, 0)


def free_channel_names(p: Process) -> frozenset[str]:
    """Names of all free channels occurring anywhere in the term."""
    return _facts_of(p)[4]


def atoms_used(p: Process) -> frozenset[str]:
    """Atom names mentioned by send payloads anywhere in the term."""
    return _facts_of(p)[3]


def constructs_used(p: Process) -> frozenset[str]:
    """Constructor names occurring in the term, for language-level checks."""
    return _facts_of(p)[2]


# ---------------------------------------------------------------------------
# Substitution machinery
#
# Each operation is a structure-preserving map over either channel or value
# occurrences.  The mapping function receives the occurrence together with
# the binder depth of its own sort at that point.
# ---------------------------------------------------------------------------


def _map_channels(p: Process, f: Callable[[Channel, int], Channel], d: int = 0) -> Process:
    match p:
        case Stop():
            return p
        case Send(channel=c, payload=v):
            return Send(f(c, d), v)
        case Receive(channel=c, body=b):
            return Receive(f(c, d), _map_channels(b, f, d))
        case RepeatReceive(channel=c, body=b):
            return RepeatReceive(f(c, d), _map_channels(b, f, d))
        case Parallel(left=l, right=r):
            return Parallel(_map_channels(l, f, d), _map_channels(r, f, d))
        case Restrict(body=b):
            return Restrict(_map_channels(b, f, d + 1))
        case Distribute(source=s, targets=ts):
            return Distribute(f(s, d), tuple(f(t, d) for t in ts))
    raise TypeError(f"not a process: {p!r}")


def _map_values(p: Process, f: Callable[[Value, int], Value], d: int = 0) -> Process:
    match p:
        case Stop() | Distribute():
            return p
        case Send(channel=c, payload=v):
            return Send(c, f(v, d))
        case Receive(channel=c, body=b):
            return Receive(c, _map_values(b, f, d + 1))
        case RepeatReceive(channel=c, body=b):
            return RepeatReceive(c, _map_values(b, f, d + 1))
        case Parallel(left=l, right=r):
            return Parallel(_map_values(l, f, d), _map_values(r, f, d))
        case Restrict(body=b):
            return Restrict(_map_values(b, f, d))
    raise TypeError(f"not a process: {p!r}")


def instantiate_value(body: Process, value: Atom) -> Process:
    """Substitute `value` for the body's outermost bound value slot.

    `body` is the body of a receive prefix, so value index 0 at its top
    level refers to the eliminated binder; deeper dangling indices shift
    down to stay aligned.
    """
    if not isinstance(value, Atom):
        raise TypeError("receive prefixes can only be instantiated with atoms")

    def f(v: Value, d: int) -> Value:
        if isinstance(v, ValVar):
            if v.index == d:
                return value
            if v.index > d:
                return ValVar(v.index - 1)
        return v

    return _map_values(body, f)


def instantiate_channel(body: Process, channel: Name) -> Process:
    """Substitute the free channel `channel` for a restriction's bound slot.

    Raises FreshnessViolation when `channel` already occurs free in the
    body; allowing that would silently merge two distinct channels.
    """
    if channel.text in free_channel_names(body):
        raise FreshnessViolation(f"channel {channel.text!r} already occurs free")

    def f(c: Channel, d: int) -> Channel:
        if isinstance(c, ChanVar):
            if c.index == d:
                return channel
            if c.index > d:
                return ChanVar(c.index - 1)
        return c

    return _map_channels(body, f)


def abstract_channel(p: Process, channel: Name) -> Process:
    """Turn every free occurrence of `channel` into a new outermost binder
    slot, inverting instantiate_channel.
    """

    def f(c: Channel, d: int) -> Channel:
        if isinstance(c, Name) and c.text == channel.text:
            return ChanVar(d)
        if isinstance(c, ChanVar) and c.index >= d:
            return ChanVar(c.index + 1)
        return c

    return _map_channels(p, f)


def rename_free_channel(p: Process, old: str, new: str) -> Process:
    """Rename one free channel; bound channels are nameless so no capture."""

    def f(c: Channel, d: int) -> Channel:
        if isinstance(c, Name) and c.text == old:
            return Name(new)
        return c

    return _map_channels(p, f)


def fresh_channel_name(avoid: frozenset[str] | set[str], base: str = "nu") -> str:
    """First name of the form base0, base1, ... not present in `avoid`."""
    i = 0
    while f"{base}{i}" in avoid:
        i += 1
    return f"{base}{i}"
