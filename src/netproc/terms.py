"""Process terms for an asynchronous channel calculus without mobility.

Channels and values are distinct sorts with independent de Bruijn index
spaces: restriction binds channels, receive prefixes bind values.  Because
the sorts never mix (a value cannot be used as a channel), crossing a
receive binder leaves channel indices untouched and vice versa.

Process nodes, the channels and values in them, and `semantics`'
actions are hash-consed (Filliâtre & Conchon, "Type-safe modular
hash-consing", 2006) through one intern table: building one with the
same class and the same fields as a live one returns that one, so
structurally equal terms are the same object.  Equality is identity, and
so is the hash (`object.__hash__`): it is not stable from one process to
the next, so every order that is shown or that decides an answer comes
from `term_key` or `semantics.action_key`, never from set or dict order.
A process node stores its sort key `term_key`, its channel mask (bit i
set when the bound channel `ChanVar(i)` occurs free in it) and its value
mask (the same for `ValVar(i)`), all set when it is built.  A new object
is filled in one step, by straight-line code made once for its class:
its fields, then those stored values.  The table holds its objects
weakly, so one is dropped once nothing else refers to it.  A new entry
goes in with one atomic `setdefault`; the table's lock is taken only to
replace an entry whose object has died.  Objects must be built through
their constructors; copying and pickling go through them too.  All
operations here are pure.

Each constructor declares the kind of each field and the sort its binder
binds.  The traversals read those declarations rather than match on
constructors, and none recurses: `post_order` computes a value per node
on an explicit stack, so a term's depth is bounded by memory, not by the
recursion limit.  The other facts scope and language checks ask for (a
negative-index flag, the constructors, the atoms and the free channel
names) are found by one walk on the first query and kept only on the node
queried, since most nodes are step targets no query reaches and the sets
grow with the term.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import FrozenInstanceError, dataclass
from operator import attrgetter
from typing import Callable, Iterable, Union

from .errors import FreshnessViolation

# ---------------------------------------------------------------------------
# Hash-consing
# ---------------------------------------------------------------------------


class _Ref(weakref.ref):
    """Weak reference to an interned object; knows its table key."""

    __slots__ = ("key",)


# (class, *fields) -> weak reference to the live object with that structure
_TABLE: dict[tuple, _Ref] = {}
# Taken only to replace a dead entry, and by _drop.  A key's fields hash
# and compare in C (by identity, or as ints and strs), so inserting a new
# entry with `setdefault` is one step: under the GIL, and under the dict's
# own lock on a free-threaded build.  Of two threads that miss on one key,
# both therefore return the object that went in.  Only replacing a dead
# entry is a check followed by a write, so it runs under the lock, as
# _drop's check and delete do.  Re-entrant because an object freed while
# it is held runs _drop in the same thread.
_LOCK = threading.RLock()


def _drop(ref: _Ref, table: dict = _TABLE, lock=_LOCK) -> None:
    with lock:
        # a dead entry may already have been replaced by a newer object
        if table.get(ref.key) is ref:
            del table[ref.key]


def _intern(key: tuple) -> _Interned:
    """The live object for `key`, which is (class, *fields), built if
    there is none.  The key's interned fields hash by identity, so a
    lookup costs one flat tuple hash in C, whatever the term's depth."""
    ref = _TABLE.get(key)
    node = None if ref is None else ref()
    if node is not None:
        return node
    cls = key[0]
    node = object.__new__(cls)
    cls._fill(node, key)
    ref = _Ref(node, _drop)
    ref.key = key
    held = _TABLE.setdefault(key, ref)
    if held is ref:
        return node
    with _LOCK:
        # another thread built the same object since the get above, or the
        # entry is dead; look again, since either may have changed
        held = _TABLE.setdefault(key, ref)
        if held is not ref:
            live = held()
            if live is not None:
                return live
            _TABLE[key] = ref
    return node


class _Interned:
    """Base of every hash-consed class: processes, their channels and
    values, and `semantics`' actions.

    A subclass is a slotted dataclass made by `_interned`, whose `__new__`
    returns `_intern((cls, *fields))`.  Equality and the hash are
    identity's, inherited from `object`, and every assignment or deletion
    raises FrozenInstanceError.  `_derive` gives the values of the slots
    named in `_derived` from the fields.  A new object is filled in one
    step by its class's `_fill`: the fields, then the derived slots.
    """

    __slots__ = ("__weakref__",)

    _derived: tuple[str, ...] = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        # copy, deepcopy and unpickling rebuild through the constructor,
        # so they return the interned object rather than a twin
        return type(self), self._values(self)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def _derive(self) -> tuple:
        return ()


def _getter(names: list[str]) -> Callable:
    # a function from an object to the tuple of the named fields
    if len(names) == 1:
        return lambda p, get=attrgetter(names[0]): (get(p),)
    return attrgetter(*names) if names else lambda p: ()


def _filler(cls: type) -> Callable:
    # fill(node, key): straight-line code for the class's arity, made once
    # with exec as dataclasses makes __init__, so that a miss runs no loop.
    # It puts each field from the key, then each value of _derive, through
    # the slot's setter (which skips object.__setattr__'s lookup).
    n, m = len(cls.__match_args__), len(cls._derived)
    space = {f"put{i}": getattr(cls, name).__set__ for i, name in enumerate(cls.__match_args__ + cls._derived)}
    space["derive"] = cls._derive
    lines = [f"put{i}(node, key[{i + 1}])" for i in range(n)]
    if m:
        lines.append("".join(f"d{j}, " for j in range(m)) + "= derive(node)")
        lines += [f"put{n + j}(node, d{j})" for j in range(m)]
    params = "".join(f", {name}={name}" for name in space)
    exec(f"def fill(node, key{params}):\n    " + "\n    ".join(lines), space)
    return space["fill"]


def _interned(cls: type) -> type:
    # identity equality and hash come from object, repr and the refusal
    # to assign from _Interned; the generated __init__ is replaced by the
    # class's __new__, which returns the interned object
    cls = dataclass(slots=True, eq=False, init=False, repr=False)(cls)
    cls._values = staticmethod(_getter(cls.__match_args__))
    cls._fill = staticmethod(_filler(cls))
    return cls


# ---------------------------------------------------------------------------
# Channels and values
# ---------------------------------------------------------------------------


@_interned
class Name(_Interned):
    """Free channel, identified globally by its name."""

    text: str

    def __new__(cls, text: str) -> Name:
        return _intern((cls, text))


@_interned
class ChanVar(_Interned):
    """Channel bound by an enclosing restriction; index 0 is the nearest one."""

    index: int

    def __new__(cls, index: int) -> ChanVar:
        return _intern((cls, index))


Channel = Union[Name, ChanVar]


@_interned
class Atom(_Interned):
    """Concrete value drawn from a finite, per-session universe."""

    text: str

    def __new__(cls, text: str) -> Atom:
        return _intern((cls, text))


@_interned
class ValVar(_Interned):
    """Value bound by an enclosing receive prefix; index 0 is the nearest one."""

    index: int

    def __new__(cls, index: int) -> ValVar:
        return _intern((cls, index))


Value = Union[Atom, ValVar]

# The kinds of constructor fields, and the sorts binders bind (CHAN, VAL)
CHAN, VAL, CHANS, PROC = "chan", "val", "chans", "proc"


def _chan_key(c: Channel) -> tuple:
    return (0, c.text) if type(c) is Name else (1, c.index)


def _bit(x: Channel | Value, var: type = ChanVar) -> int:
    # a negative index refers to no binder (well_scoped rejects it)
    return 1 << x.index if type(x) is var and x.index >= 0 else 0


_EMPTY: frozenset[str] = frozenset()


class _Node(_Interned):
    """Base of the process constructors.

    A constructor declares `_kinds`, the kind of each field in
    `__match_args__` order, and `_binds`, the sort its binder binds.
    `_derive` gives the sort key, the channel mask and the value mask
    from the fields.  `_facts`, unset until `_facts_of` is asked about
    the node, is the tuple (negative index, constructors, atoms, free
    channel names).
    """

    __slots__ = ("_term_key", "_chan_mask", "_val_mask", "_facts")

    _derived = ("_term_key", "_chan_mask", "_val_mask")
    _kinds: tuple[str, ...] = ()
    _binds: str | None = None


_put_facts = _Node._facts.__set__


def _process(cls: type) -> type:
    cls = _interned(cls)
    # the tuple of the process fields
    cls._children = staticmethod(_getter([n for n, kind in zip(cls.__match_args__, cls._kinds) if kind is PROC]))
    return cls


# ---------------------------------------------------------------------------
# Process constructors
# ---------------------------------------------------------------------------


@_process
class Stop(_Node):
    """The inert process."""

    def __new__(cls) -> Stop:
        return _intern((cls,))

    def _derive(self) -> tuple[tuple, int, int]:
        return (0,), 0, 0


@_process
class Send(_Node):
    """Asynchronous output of one value on one channel."""

    channel: Channel
    payload: Value
    _kinds = (CHAN, VAL)

    def __new__(cls, channel: Channel, payload: Value) -> Send:
        return _intern((cls, channel, payload))

    def _derive(self) -> tuple[tuple, int, int]:
        c, v = self.channel, self.payload
        val = (0, v.text) if type(v) is Atom else (1, v.index)
        return (1, (0, c.text) if type(c) is Name else (1, c.index), val), _bit(c), _bit(v, ValVar)


class _Prefix(_Node):
    """An input prefix; the body has one bound value (index 0)."""

    __slots__ = ()
    _kinds = (CHAN, PROC)
    _binds = VAL

    def __new__(cls, channel: Channel, body: Process) -> _Prefix:
        return _intern((cls, channel, body))

    def _derive(self) -> tuple[tuple, int, int]:
        b = self.body
        return (self._order, _chan_key(self.channel), b._term_key), _bit(self.channel) | b._chan_mask, b._val_mask >> 1


@_process
class Receive(_Prefix):
    """One-shot input prefix; the body has one bound value (index 0)."""

    channel: Channel
    body: "Process"
    _order = 2


@_process
class RepeatReceive(_Prefix):
    """Input prefix that re-arms itself after every receipt.

    Kept folded as a first-class node; it only unfolds one step at a time
    during transition enumeration.
    """

    channel: Channel
    body: "Process"
    _order = 3


@_process
class Parallel(_Node):
    """Binary parallel composition."""

    left: "Process"
    right: "Process"
    _kinds = (PROC, PROC)

    def __new__(cls, left: Process, right: Process) -> Parallel:
        return _intern((cls, left, right))

    def _derive(self) -> tuple[tuple, int, int]:
        l, r = self.left, self.right
        return (5, l._term_key, r._term_key), l._chan_mask | r._chan_mask, l._val_mask | r._val_mask


@_process
class Restrict(_Node):
    """Channel restriction; the body has one bound channel (index 0)."""

    body: "Process"
    _kinds = (PROC,)
    _binds = CHAN

    def __new__(cls, body: Process) -> Restrict:
        return _intern((cls, body))

    def _derive(self) -> tuple[tuple, int, int]:
        # the body's channel index 0 is this binder; its index i+1 is our index i
        return (6, self.body._term_key), self.body._chan_mask >> 1, self.body._val_mask


@_process
class Distribute(_Node):
    """Network-language forwarder: every value received on `source` is
    re-sent on each channel in `targets` (possibly none, possibly repeats).
    """

    source: Channel
    targets: tuple[Channel, ...]
    _kinds = (CHAN, CHANS)

    def __new__(cls, source: Channel, targets: Iterable[Channel]) -> Distribute:
        return _intern((cls, source, tuple(targets)))

    def _derive(self) -> tuple[tuple, int, int]:
        mask = _bit(self.source)
        for t in self.targets:
            mask |= _bit(t)
        return (4, _chan_key(self.source), tuple(map(_chan_key, self.targets))), mask, 0


Process = Union[Stop, Send, Receive, RepeatReceive, Parallel, Restrict, Distribute]
_LEAVES = (Stop, Send, Distribute)

STOP = Stop()


# ---------------------------------------------------------------------------
# Traversal
# ---------------------------------------------------------------------------


def children(p: Process) -> tuple:
    """The process fields of a node, in field order."""
    if isinstance(p, _Node):
        return p._children(p)
    raise TypeError(f"not a process: {p!r}")


def rebuild(p: Process, kids: Iterable[Process]) -> Process:
    """The node with `p`'s constructor and leaf fields and `kids` as its
    process fields, in `children` order."""
    kids = iter(kids)
    return type(p)(*[next(kids) if kind is PROC else x for x, kind in zip(p._values(p), p._kinds)])


def post_order(root, value_of: Callable, children_of: Callable, compute: Callable):
    """The value of `root`, which has none yet, computing first every
    missing value it needs.

    `value_of(x)` is the value kept for item x, or None while there is
    none; `children_of(x)` lists the items x's value depends on;
    `compute(x, values)` is given their values in that order, keeps x's
    value and returns it.  Items are computed on an explicit stack, each
    once and after its children: at once when no child's value is
    missing, else after the missing ones.
    """
    stack = [(root, None)]
    while stack:
        x, kids = stack.pop()
        if kids is None:
            if x is not root and value_of(x) is not None:
                # reached twice before it was computed the first time
                continue
            kids = children_of(x)
            values = list(map(value_of, kids))
            if None in values:
                stack.append((x, kids))
                stack += [(k, None) for k, v in zip(kids, values) if v is None]
                continue
        else:
            values = list(map(value_of, kids))
        value = compute(x, values)
    return value


# ---------------------------------------------------------------------------
# Scope checks and queries
# ---------------------------------------------------------------------------


def _facts_of(p: Process) -> tuple:
    """The node's facts (see `_Node`), found on first use and kept on `p`
    alone.

    One walk over the distinct nodes below `p` reads the names and
    indices in their fields and the facts kept on nodes queried before,
    so a spine of distinct channels keeps one set, not one per level.  A
    kept set that already holds everything is shared.
    """
    try:
        return p._facts
    except AttributeError:
        # a node's slot is unset until its first query
        if not isinstance(p, _Node):
            raise TypeError(f"not a process: {p!r}") from None
    negative, kept = False, [_EMPTY] * 3
    constructs, atoms, names = sets = (set(), set(), set())
    seen = {p}
    todo = [p]
    while todo:
        x = todo.pop()
        facts = getattr(x, "_facts", None)
        if facts is not None:
            negative = negative or facts[0]
            for s, k in zip(sets, facts[1:]):
                s |= k
            kept = [max(pair, key=len) for pair in zip(kept, facts[1:])]
            continue
        constructs.add(type(x).__name__)
        for y, kind in zip(x._values(x), x._kinds):
            if kind is PROC:
                if y not in seen:
                    seen.add(y)
                    todo.append(y)
                continue
            for z in y if kind is CHANS else (y,):
                if type(z) is Name:
                    names.add(z.text)
                elif type(z) is Atom:
                    atoms.add(z.text)
                elif z.index < 0:
                    negative = True
    # a kept set as large as the union is the union
    facts = (negative, *(k if len(k) == len(s) else frozenset(s) for k, s in zip(kept, sets)))
    _put_facts(p, facts)
    return facts


def well_scoped(p: Process, chan_depth: int = 0, val_depth: int = 0) -> bool:
    """True when every bound index refers to an actual enclosing binder."""
    negative = _facts_of(p)[0]
    return not (negative or p._chan_mask >> max(chan_depth, 0) or p._val_mask >> max(val_depth, 0))


def is_closed(p: Process) -> bool:
    """True when the term has no dangling channel or value indices."""
    return well_scoped(p, 0, 0)


def free_channel_names(p: Process) -> frozenset[str]:
    """Names of all free channels occurring anywhere in the term."""
    return _facts_of(p)[3]


def atoms_used(p: Process) -> frozenset[str]:
    """Atom names mentioned by send payloads anywhere in the term."""
    return _facts_of(p)[2]


def constructs_used(p: Process) -> frozenset[str]:
    """Constructor names occurring in the term, for language-level checks."""
    return _facts_of(p)[1]


# ---------------------------------------------------------------------------
# Substitution machinery
# ---------------------------------------------------------------------------


def _map(p: Process, sort: str, f: Callable, names: bool = False) -> Process:
    """Rebuild `p` with every occurrence x of `sort` (CHAN or VAL)
    replaced by f(x, d), where d counts the binders of that sort above x.
    Unless `names` is set, f changes no free name and no index below d,
    so a subterm whose mask shows no index of the sort at d or above is
    kept as it is."""
    if not isinstance(p, _Node):
        raise TypeError(f"not a process: {p!r}")
    mask_of = attrgetter("_chan_mask" if sort is CHAN else "_val_mask")
    done: dict[tuple[Process, int], Process] = {}

    def known(item: tuple[Process, int]) -> Process | None:
        node, d = item
        if not names and not mask_of(node) >> d:
            return node
        # a leaf is mapped at once
        return keep(item, ()) if type(node) in _LEAVES else done.get(item)

    def kids(item: tuple[Process, int]) -> list[tuple[Process, int]]:
        node, d = item
        d += node._binds is sort
        return [(k, d) for k in node._children(node)]

    def keep(item: tuple[Process, int], values: Iterable[Process]) -> Process:
        node, d = item
        values = iter(values)
        return done.setdefault(item, type(node)(*[
            next(values) if kind is PROC
            else f(x, d) if kind is sort
            else tuple(f(c, d) for c in x) if kind is CHANS and sort is CHAN
            else x
            for x, kind in zip(node._values(node), node._kinds)
        ]))

    return known((p, 0)) or post_order((p, 0), known, kids, keep)


def _instantiate(body: Process, sort: str, x: Channel | Value) -> Process:
    # substitute x for the body's index 0 of `sort`, shifting the
    # dangling indices above it down to stay aligned
    var = ChanVar if sort is CHAN else ValVar

    def f(v: Channel | Value, d: int) -> Channel | Value:
        if type(v) is var and v.index >= d:
            return x if v.index == d else var(v.index - 1)
        return v

    return _map(body, sort, f)


def instantiate_value(body: Process, value: Atom) -> Process:
    """Substitute `value` for the outermost bound value slot of `body`,
    the body of a receive prefix."""
    if not isinstance(value, Atom):
        raise TypeError("receive prefixes can only be instantiated with atoms")
    return _instantiate(body, VAL, value)


def instantiate_channel(body: Process, channel: Name) -> Process:
    """Substitute the free channel `channel` for a restriction's bound slot.

    Raises FreshnessViolation when `channel` already occurs free in the
    body; allowing that would silently merge two distinct channels.
    """
    if channel.text in free_channel_names(body):
        raise FreshnessViolation(f"channel {channel.text!r} already occurs free")
    return _instantiate(body, CHAN, channel)


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

    return _map(p, CHAN, f, names=True)


def rename_free_channel(p: Process, old: str, new: str) -> Process:
    """Rename one free channel; bound channels are nameless so no capture."""

    def f(c: Channel, d: int) -> Channel:
        return Name(new) if isinstance(c, Name) and c.text == old else c

    return _map(p, CHAN, f, names=True)


def fresh_channel_name(avoid: frozenset[str] | set[str], base: str = "nu") -> str:
    """First name of the form base0, base1, ... not present in `avoid`."""
    i = 0
    while f"{base}{i}" in avoid:
        i += 1
    return f"{base}{i}"
