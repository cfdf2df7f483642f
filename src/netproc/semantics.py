"""Labeled transition semantics.

One step relation serves both languages.  The rules cover send, receive,
repeating-receive and distributor nodes uniformly: a repeating receiver
unfolds exactly one step per transition, receiving a value and re-arming
itself in parallel with the instantiated body, and a distributor behaves
the same way with its body fixed to a row of forwarding sends.  The mode
(`pi` for the base calculus, `extended` for the network language) is a
language check, not a rule set: each public entry point checks its terms
once, and since no rule introduces a construct of the other language,
every state reached from a checked term is in the same language.

Restriction steps its body in place, under the binder, with no fresh
names.  Inside the body the restricted channel is de Bruijn index 0: a
visible action on `ChanVar(0)` is traffic on the hidden channel and is
dropped, a visible action on `ChanVar(k)` names a channel bound further
out and leaves as `ChanVar(k-1)`, and every target keeps the binder.
This is the textbook rule (open the binder with a fresh name, step,
re-abstract the name) without the renaming: stepping commutes with
channel renaming and channels are never payloads, so each target is the
same interned node the fresh-name round trip builds.  Tests cross-check
the two rules against each other.

The step table `_STEP_CACHE` holds one entry per (term, universe),
filled from its parts' entries, a `Parallel` from its operands' and a
`Restrict` from its body's, so each term steps once however many terms
share it.  An entry lists the term's step actions and, per step, a recipe
and a target slot.  A leaf's targets are built with its entry; every
other step is lifted from a step of the left operand, the right operand
or the body, or is a τ made of one step of each operand.  τ partners are
found through an index of the right operand's steps by (channel,
payload), for free and bound channels alike, and a `Restrict` drops the
steps on its own channel and shifts the rest, so an entry is filled
without building any target.  A slot is filled on first read and kept:
a lifted step's slots form a chain, walked down to the first built slot
and back up, and a τ builds its two halves the same way.  Every reader
builds only the targets it keeps: the move table those its `keep`
accepts, the action grain none, the τ closure the τs and the weak
closure the visible steps.  `_step` returns the frozenset of all the
steps, made afresh on each call.

Actions are interned in `terms`' table, as terms are: equal actions are
the same object, hashed and compared by identity, and each stores its
`action_key`, so the step sets, the step cache and the game's tables hash
and compare them in O(1), and `TAU` is the one internal action.
`step_order` is the one presentation order for steps (action, then
target term); every listing, game move and exploration sorts by it.
The game, its evidence checks, explore, simulate and the CLI's LTS read
the step relation through a per-call `Moves` table, which puts each
state's steps into `step_order` once and groups the defender's replies by
action; readers that need only a state's actions read its action grain,
with no target built.  A table that normalizes its targets is asked only
for normal states `new^k (c1 | ... | cn)`, and reads one with no entry
through the tree of its restriction runs, from its leaf units' entries
alone, as LTSmin's partitioned next-state function reads only the slots
a transition touches (Blom, van de Pol & Weber, CAV 2010).  A component
that is a run `new^j (d1 | ... | dm)` is read as the state is, down to
its sends, receives, repeating receives and distributors, whose entries
every state of the call shares: a step moves one leaf, or two for a τ,
wherever in the tree they sit, and `normalform.splice` builds its normal
target run by run from the sorted components, so no entry above a leaf
and no raw target is built.  A state that has an entry already (from a
raw table or the weak closure) is read through it, where its targets
and their normal forms are already to be found.
`reachable` is the one breadth-first search: explore's census, the CLI's
LTS and the weak closure run on it.  `_tau_reach` is one call of it over
the internal steps, one step deeper than the bound: a state found past
the bound is one the closure left out.
A `WeakClosure` remembers `_tau_reach` by start state for one check (one
universe, one bound); a check builds one and drops it when it returns,
so nothing it remembers outlives the check.  The `Moves` tables that
read weak steps through it remember them, grouped as replies.  The game
reads them only where strong steps do not answer: the prover and the
audit first try the replies that need no internal padding
(`Moves.unpadded`), and the attacker's last ply reads only `reach`, the
closure before the visible step, and only for the actions the responder
has no step on.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from typing import Callable, Iterable, Union

from .errors import BoundExceeded, ModeViolation, ScopeError
from .normalform import normal_components, normal_runs, normalize, splice, term_key
from .terms import (
    Atom,
    Channel,
    ChanVar,
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
    _intern,
    _Interned,
    _interned,
    atoms_used,
    children,
    constructs_used,
    instantiate_value,
    is_closed,
    post_order,
    rebuild,
)


class Mode(str, Enum):
    """Which rule set applies: the base calculus or the network language."""

    PI = "pi"
    EXTENDED = "extended"


# ---------------------------------------------------------------------------
# Actions and transitions
# ---------------------------------------------------------------------------


# The channel of a closed term's action is a Name; a body stepped under
# its restriction binders also acts on the channels they bind (ChanVar).


class _Action(_Interned):
    """An interned action; `_key` is its `action_key`, stored."""

    __slots__ = ("_key",)

    _derived = ("_key",)

    def __new__(cls, channel: Channel, payload: Atom) -> _Action:
        return _intern((cls, channel, payload))

    def _derive(self) -> tuple:
        # an open term's action, on a bound channel or value, sorts by index
        c, v = self.channel, self.payload
        return ((self._order, c.text if type(c) is Name else c.index, v.text if type(v) is Atom else v.index),)


@_interned
class SendAct(_Action):
    channel: Channel
    payload: Atom
    _order = 1


@_interned
class ReceiveAct(_Action):
    channel: Channel
    payload: Atom
    _order = 2


@_interned
class Tau(_Action):
    """Internal step produced by a matching send/receive pair."""

    def __new__(cls) -> Tau:
        return _intern((cls,))

    def _derive(self) -> tuple:
        return ((0,),)


TAU = Tau()

Action = Union[SendAct, ReceiveAct, Tau]


def action_key(a: Action) -> tuple:
    """Deterministic sort key for actions."""
    try:
        return a._key
    except AttributeError:
        raise TypeError(f"not an action: {a!r}") from None


@dataclass(frozen=True)
class Transition:
    source: Process
    action: Action
    target: Process


Universe = tuple[Atom, ...]

DEFAULT_UNIVERSE: Universe = (Atom("m0"), Atom("m1"))


def make_universe(*names: str) -> Universe:
    return tuple(Atom(n) for n in sorted(set(names)))


def effective_universe(universe: Universe | None, *terms: Process) -> Universe:
    """Declared universe joined with every atom the terms mention."""
    names = {a.text for a in (universe if universe is not None else DEFAULT_UNIVERSE)}
    for t in terms:
        names |= atoms_used(t)
    return make_universe(*names)


# ---------------------------------------------------------------------------
# Mode discipline
# ---------------------------------------------------------------------------

_PI_ONLY = {"Receive", "RepeatReceive"}
_EXTENDED_ONLY = {"Distribute"}


def infer_mode(*terms: Process) -> Mode:
    """Pick the rule set a group of terms belongs to.

    Terms mixing receive prefixes with distributor nodes belong to neither
    language; unfold the distributors first.
    """
    used: set[str] = set()
    for t in terms:
        used |= constructs_used(t)
    has_pi = bool(used & _PI_ONLY)
    has_ext = bool(used & _EXTENDED_ONLY)
    if has_pi and has_ext:
        raise ModeViolation("term mixes receive prefixes with distributor nodes")
    return Mode.EXTENDED if has_ext else Mode.PI


def validate_mode(p: Process, mode: Mode) -> None:
    used = constructs_used(p)
    if mode is Mode.PI and used & _EXTENDED_ONLY:
        raise ModeViolation("distributor nodes must be unfolded before base-mode use")
    if mode is Mode.EXTENDED and used & _PI_ONLY:
        raise ModeViolation("receive prefixes are not part of the network language")


def check_mode(mode: Mode | None, *terms: Process) -> None:
    """Raise ScopeError unless the terms are all closed, then
    ModeViolation unless they all belong to `mode`'s language, or, with
    mode None, to one common language."""
    if not all(map(is_closed, terms)):
        raise ScopeError("the step relation is defined on closed terms only")
    if mode is None:
        infer_mode(*terms)
    else:
        for t in terms:
            validate_mode(t, mode)


# ---------------------------------------------------------------------------
# Transition enumeration
# ---------------------------------------------------------------------------

Step = tuple[Action, Process]

_STEP_CACHE: dict[tuple[Process, Universe], _Entry] = {}


class _Entry:
    """A term's steps in one universe: their actions, in a fixed order,
    and a target slot per step, filled on first read and kept.

    A step's recipe is its position.  A leaf's targets are built with its
    entry.  The steps of a `Parallel` are its left operand's, lifted, then
    its right operand's, lifted, then one τ per (left step, right step)
    pair in `pairs`.  Step k of a `Restrict` is its body's step `src[k]`
    under the binder.  `parts` holds the entries of the operands or the
    body, `index` the `partners` index, once it is read, and `normal` the
    `normal_step`s read so far.
    """

    __slots__ = ("term", "parts", "actions", "targets", "pairs", "src", "index", "normal")

    def __init__(self, p: Process, universe: Universe, parts: list[_Entry]) -> None:
        self.term, self.parts = p, parts
        self.pairs = self.src = self.index = self.normal = None
        kind = type(p)
        if kind is Parallel:
            left, right = parts
            self.pairs = _tau_pairs(left, right)
            self.actions = left.actions + right.actions + (TAU,) * len(self.pairs)
            self.targets = [None] * len(self.actions)
        elif kind is Restrict:
            # traffic on the bound channel (index 0) stays inside, and
            # outer bound channels move one binder out
            actions, src = [], []
            for i, a in enumerate(parts[0].actions):
                c = a.channel if a is not TAU else None
                if type(c) is ChanVar:
                    if not c.index:
                        continue
                    a = type(a)(ChanVar(c.index - 1), a.payload)
                actions.append(a)
                src.append(i)
            self.actions, self.src = tuple(actions), src
            self.targets = [None] * len(src)
        elif kind in (Stop, Send, Receive, RepeatReceive, Distribute):
            steps = list(_leaf_steps(p, universe))
            self.actions = tuple(a for a, _ in steps)
            self.targets = tuple(t for _, t in steps)
        else:
            raise TypeError(f"not a process: {p!r}")

    def target(self, k: int) -> Process:
        """Step k's target, built on first read.

        A lifted step has one part, so the slots it needs form a chain:
        down it to the first built slot, then back up, wrapping the target
        in each level's `Restrict` or `Parallel` and filling each slot.  A
        τ pair ends the chain with its two halves, which are no τs, so
        their chains hold no τ pair: the call recurses one level at most.
        """
        chain, e = [], self
        while (t := e.targets[k]) is None:
            if e.src is not None:
                chain.append((e, k))
                e, k = e.parts[0], e.src[k]
                continue
            left, right = e.parts
            nl, nr = len(left.actions), len(right.actions)
            if k >= nl + nr:
                i, j = e.pairs[k - nl - nr]
                t = e.targets[k] = Parallel(left.target(i), right.target(j))
                break
            chain.append((e, k))
            e, k = (left, k) if k < nl else (right, k - nl)
        for e, k in reversed(chain):
            if e.src is not None:
                t = Restrict(t)
            elif k < len(e.parts[0].actions):
                t = Parallel(t, e.term.right)
            else:
                t = Parallel(e.term.left, t)
            e.targets[k] = t
        return t

    def kept(self, keep: Callable[[Action], bool] | None) -> set[Step]:
        """The steps whose action `keep` accepts (all when None); only
        their targets are built."""
        targets, out = self.targets, set()
        for k, a in enumerate(self.actions):
            if keep is None or keep(a):
                t = targets[k]
                out.add((a, self.target(k) if t is None else t))
        return out

    def normal_step(self, k: int) -> tuple[bool, tuple, tuple[Process, ...]]:
        """Step k's target as `_normal_row` splices it: whether its
        `term_key` is above the term's, that key, and the components of
        its normal form; found on first read and kept."""
        normal = self.normal
        if normal is None:
            normal = self.normal = [None] * len(self.actions)
        hit = normal[k]
        if hit is None:
            t = self.target(k)
            key = t._term_key
            hit = normal[k] = (key > self.term._term_key, key, normal_components(t))
        return hit

    def partners(self) -> dict[tuple[Channel, Atom], list[int]]:
        """The indices of the non-τ steps by (channel, payload), indexed
        on first use."""
        index = self.index
        if index is None:
            index = self.index = {}
            for j, a in enumerate(self.actions):
                if a is not TAU:
                    index.setdefault((a.channel, a.payload), []).append(j)
        return index


def _tau_pairs(left: _Entry, right: _Entry) -> list[tuple[int, int]]:
    """The (left step, right step) pairs that make a τ: a send and a
    receive of one value on one channel, free or bound."""
    pairs: list[tuple[int, int]] = []
    ractions = right.actions
    if not ractions:
        return pairs
    index = None
    for i, a in enumerate(left.actions):
        if a is not TAU:
            if index is None:
                index = right.partners()
            for j in index.get((a.channel, a.payload), ()):
                if type(ractions[j]) is not type(a):
                    pairs.append((i, j))
    return pairs


def transitions(p: Process, mode: Mode | None = None, universe: Universe = DEFAULT_UNIVERSE) -> frozenset[Transition]:
    """All single-step transitions of a closed term.

    The term must belong to `mode`'s language; with mode None the
    language is inferred from the term itself.
    """
    check_mode(mode, p)
    return frozenset(Transition(p, a, t) for a, t in _step(p, universe))


def _entry(p: Process, universe: Universe) -> _Entry:
    """`p`'s step-table entry in `universe`, filled on first use."""
    key = (p, universe)
    hit = _STEP_CACHE.get(key)
    if hit is None:
        # fill the table for every missing part a step of `p` is made of
        hit = post_order(
            key, _STEP_CACHE.get, _step_parts, lambda k, parts: _STEP_CACHE.setdefault(k, _Entry(*k, parts))
        )
    return hit


def _step(p: Process, universe: Universe) -> frozenset[Step]:
    """All the steps of `p`, their targets built on first read and kept
    in `p`'s entry; the set is made afresh on each call."""
    return frozenset(_entry(p, universe).kept(None))


def _is_tau(a: Action) -> bool:
    return a is TAU


def _is_visible(a: Action) -> bool:
    return a is not TAU


def _step_parts(key: tuple[Process, Universe]) -> tuple:
    # a prefix's body steps only once instantiated, so it is no part
    p, universe = key
    kind = type(p)
    if kind is Parallel:
        return ((p.left, universe), (p.right, universe))
    return ((p.body, universe),) if kind is Restrict else ()


def step_order(step: Step) -> tuple:
    """The deterministic presentation order of steps: action, then target."""
    action, target = step
    return (action_key(action), term_key(target))


class Moves(dict):
    """One call's table of moves, filled a state at a time on first read;
    every game, evidence check and exploration reads states through one.

    `moves[p]` is the steps of `p` whose action `keep` accepts (all of
    them when None) in `step_order` of their raw targets, each target
    normalized unless the table is `raw`; only the targets of those steps
    are built.  A normalizing table reads a state through its step-table
    entry, or with none its normal form by `_normal_row`, through its
    restriction runs down to its leaf units, which builds no raw target
    and no entry above a leaf; every state it is asked for is normal.
    `moves.replies(p)` is the defender's distinct targets per action, in
    `term_key` order, and whether the weak closure truncated them: from
    `closure.weak_steps(p)` in the weak game, from `moves[p]` in the
    strong one (closure None), computed once per state.
    `moves.unpadded(p)` is the weak game's replies with no internal
    padding, which the prover and the audit try first.
    `moves.actions(p)` is the action grain, the set of actions of
    `moves[p]`, with no target built and no row filled: read from `p`'s
    step-table entry in a raw table, else by the same walk through the
    runs, which builds no entry above a leaf.  The attacker's last ply
    and explore's frontier test read it.
    A table lives as long as the call that builds it.
    """

    __slots__ = ("universe", "raw", "keep", "closure", "_replies", "_unpadded", "_units", "_tau")

    def __init__(
        self, universe: Universe, *, raw: bool = False, keep: Callable[[Action], bool] | None = None,
        closure: WeakClosure | None = None,
    ) -> None:
        super().__init__()
        self.universe, self.raw, self.keep, self.closure = universe, raw, keep, closure
        self._replies: dict[Process, tuple[dict[Action, list[Process]], bool]] = {}
        self._unpadded: dict[Process, dict[Action, dict[Process, None]]] = {}
        self._units: dict[Process, tuple] = {}
        self._tau = keep is None or keep(TAU)

    def __missing__(self, p: Process) -> list[Step]:
        if self.raw:
            out = sorted(_entry(p, self.universe).kept(self.keep), key=step_order)
        elif (e := _STEP_CACHE.get((p, self.universe))) is not None:
            # the prover's raw table or the weak closure built this entry,
            # and with it targets and their normal forms
            out = [(a, normalize(t)) for a, t in sorted(e.kept(self.keep), key=step_order)]
        else:
            out = _normal_row(normalize(p), self)
        self[p] = out
        return out

    def actions(self, p: Process) -> set[Action]:
        """The actions of `p`'s steps that `keep` accepts, with no target
        built and no row filled: read from `p`'s step-table entry in a raw
        table, else by `_read_runs` from the leaf units of its normal form,
        with τ when a send and a receive can meet."""
        if self.raw:
            actions, keep = _entry(p, self.universe).actions, self.keep
            return set(actions) if keep is None else {a for a in actions if keep(a)}
        _, visible, ends = _read_runs(normalize(p), self)
        out = {a for a, *_ in visible}
        universe = self.universe
        for sends, receives in ends.values():
            if receives and any(e.actions[0].payload in universe for _, _, e in sends):
                out.add(TAU)
                break
        return out

    def _unit(self, c: Process) -> tuple:
        """The leaf unit `c` as `_read_runs` reads it, once per table: its
        entry, its steps on a free name that `keep` accepts, as (action,
        step), and the channel all its steps are on, with whether they
        send (None and False for the inert process)."""
        hit = self._units.get(c)
        if hit is None:
            e, keep = _entry(c, self.universe), self.keep
            channel = e.actions[0].channel if e.actions else None
            kept = tuple(
                (a, j) for j, a in enumerate(e.actions) if type(channel) is Name and (keep is None or keep(a))
            )
            hit = self._units[c] = (e, kept, channel, type(c) is Send)
        return hit

    def replies(self, p: Process) -> tuple[dict[Action, list[Process]], bool]:
        hit = self._replies.get(p)
        if hit is None:
            steps, truncated = self.closure.weak_steps(p) if self.closure is not None else (self[p], False)
            grouped: dict[Action, set[Process]] = {}
            for a, t in steps:
                grouped.setdefault(a, set()).add(t)
            # term_key order is the order in which the replies are tried
            hit = self._replies[p] = ({a: sorted(ts, key=term_key) for a, ts in grouped.items()}, truncated)
        return hit

    def unpadded(self, p: Process) -> dict[Action, dict[Process, None]]:
        """The weak replies of `p` that need no internal padding, by action,
        as ordered sets of normal forms; weak tables only, once per state.

        With `n` the normal form of `p`, τ is answered by `n` itself and,
        when the bound allows one internal step, by the normalized targets
        of `n`'s τ-steps; a visible action by the normalized targets of
        `n`'s steps on it.  These are weak replies too.  They are read from
        `n`'s step-table entry in its order, with no row filled or sorted,
        so the work done does not depend on set order.
        """
        hit = self._unpadded.get(p)
        if hit is None:
            n = normalize(p)
            e = _entry(n, self.universe)
            hit = self._unpadded[p] = {TAU: {n: None}}
            tau = self.closure.bound >= 1
            for k, a in enumerate(e.actions):
                if tau or a is not TAU:
                    hit.setdefault(a, {})[normalize(e.target(k))] = None
        return hit


# closes one run's slots in a `_normal_row` sort key: it sorts above a
# lowered slot's flag (0) and below a raised one's (2)
_END = 1


def _read_runs(p: Process, moves: Moves) -> tuple[list, list, dict]:
    """The normal state `p`'s run tree by `normal_runs`, its visible steps
    and its ends, read from its leaf units' entries alone.

    A visible step is (action, run, slot, entry, step) for a leaf's step
    on a free name that the table keeps.  An action on a bound channel is
    dropped, as `p` is closed: it names a binder of a run on the leaf's
    path, found by moving the channel out one run's binders at a time.
    When the table keeps τ, every leaf with a step is an end, (run, slot,
    entry), listed under its channel, resolved to a free name or to
    (run, binder), among the sends or the receives: a send and a receive
    on one channel meet in a τ, wherever their leaves sit.
    """
    runs, leaves = normal_runs(p)
    tau, units, unit = moves._tau, moves._units, moves._unit
    visible: list[tuple[Action, int, int, _Entry, int]] = []
    ends: dict[Channel | tuple[int, int], tuple[list, list]] = {}
    for r, i, c in leaves:
        e, kept, channel, send = units.get(c) or unit(c)
        for a, j in kept:
            visible.append((a, r, i, e, j))
        if tau and channel is not None:
            if type(channel) is ChanVar:
                x, s = channel.index, r
                while x >= runs[s][0]:
                    x -= runs[s][0]
                    s = runs[s][3]
                channel = (s, x)
            group = ends.get(channel)
            if group is None:
                group = ends[channel] = ([], [])
            group[not send].append((r, i, e))
    return runs, visible, ends


def _normal_row(p: Process, moves: Moves) -> list[Step]:
    """The row of the normal state `p` in the normalizing table `moves`,
    read through its run tree from its leaf units' entries
    (`_read_runs`), with no entry built for `p` or any run in it.

    A step moves one leaf, or two for a τ.  A run `new^j (d1 | ... | dm)`
    in a slot is read as `p` itself, `new^k (c1 | ... | cn)`, is: every
    raw target is the same tree of spines under the same binders, so
    their `term_key`s compare slot by slot in the tree's pre-order, a
    moved run's slot by its own moved slots.  A step's sort key encodes
    that by its moved slots alone, flat: slot i is `0, i` when its key is
    lowered and `2, -i` when raised, then the leaf's target key, or the
    moved run's own slots, and `_END` closes each run's slots.  A moved
    run's key is lowered or raised as its first moved slot's is, so every
    slot on a leaf's path takes the leaf's flag.  Two sort keys compare
    as the raw targets do, and equal ones are one raw step; being flat,
    they compare in time linear in the nesting depth, where the nested
    `term_key`s of deep raw targets take quadratic time.

    No raw target is built: `splice` builds each normal target, the runs
    innermost first, once for the steps that move equal leaves of one
    run alike, whose targets are one normal form.
    """
    runs, visible, ends = _read_runs(p, moves)
    # per run: the flags of the slots on its path, lowered and raised,
    # and the ends closing it and the runs above it
    low, high, close = [()], [()], [(_END,)]
    for _, _, _, parent, slot, _ in islice(runs, 1, None):
        low.append(low[parent] + (0, slot))
        high.append(high[parent] + (2, -slot))
        close.append(close[parent] + (_END,))
    # a step is (action, what it moves, moved): equal leaves moved alike
    # in one run give one target, wherever the leaves sit
    keys: list[tuple] = []
    steps: list[tuple[Action, tuple, list[tuple[int, int, tuple[Process, ...]]]]] = []
    for a, r, i, e, j in visible:
        up, tk, parts = e.normal_step(j)
        keys.append((a._key,) + (high[r] + (2, -i, tk) if up else low[r] + (0, i, tk)) + close[r])
        steps.append((a, (r, e, j), [(r, i, parts)]))
    universe, tau = moves.universe, TAU._key
    for sends, receives in ends.values():
        for r, i, e in sends:
            # a receive's steps are on the universe's values, in order
            v = e.actions[0].payload
            if v not in universe:
                continue
            j = universe.index(v)
            up, tk, parts = e.normal_step(0)
            x = (2, -i, tk) if up else (0, i, tk)
            for r2, i2, e2 in receives:
                up2, tk2, parts2 = e2.normal_step(j)
                y = (2, -i2, tk2) if up2 else (0, i2, tk2)
                if r == r2:
                    key = (high[r] + x + y if up else low[r] + x + y) if i < i2 else (
                        high[r] + y + x if up2 else low[r] + y + x)
                    keys.append((tau,) + key + close[r])
                else:
                    # the first leaf's slots down from the run that holds
                    # both, closed, then the second's
                    first, second = (runs[r][5] + (i,), up, x, r), (runs[r2][5] + (i2,), up2, y, r2)
                    (pa, ua, xa, ra), (pb, ub, xb, rb) = (first, second) if first[0] < second[0] else (second, first)
                    c = 0
                    while pa[c] == pb[c]:
                        c += 1
                    keys.append(
                        (tau,) + (high if ua else low)[ra] + xa + (_END,) * (len(pa) - c - 1)
                        + (high if ub else low)[rb][2 * c:] + xb + close[rb]
                    )
                steps.append((TAU, (r, e, r2, e2, j), [(r, i, parts), (r2, i2, parts2)]))
    out, prev, made = [], None, {}
    for n in sorted(range(len(steps)), key=keys.__getitem__):
        if keys[n] != prev:
            prev = keys[n]
            a, what, moved = steps[n]
            t = made.get(what)
            if t is None:
                t = made[what] = splice(runs, moved)
            out.append((a, t))
    return out


def _sender_row(targets: tuple, value: Atom | ValVar) -> Process:
    """Forwarding row fired by a distributor: one send per target, then 0."""
    row: Process = STOP
    for t in reversed(targets):
        row = Parallel(Send(t, value), row)
    return row


def _leaf_steps(p: Stop | Send | Receive | RepeatReceive | Distribute, universe: Universe) -> Iterable[Step]:
    """The steps of a leaf, all on one channel; `Stop` has none."""
    match p:
        case Send(channel=c, payload=v):
            yield SendAct(c, v), STOP
        case Receive(channel=c, body=b):
            for v in universe:
                yield ReceiveAct(c, v), instantiate_value(b, v)
        case RepeatReceive(channel=c, body=b):
            for v in universe:
                yield ReceiveAct(c, v), Parallel(instantiate_value(b, v), p)
        case Distribute(source=s, targets=ts):
            for v in universe:
                yield ReceiveAct(s, v), Parallel(_sender_row(ts, v), p)


# ---------------------------------------------------------------------------
# Weak steps
# ---------------------------------------------------------------------------


def _tau_reach(p: Process, universe: Universe, bound: int) -> tuple[frozenset[Process], bool]:
    """States reachable by at most `bound` internal steps, normalized (a
    negative bound counts as 0).

    Returns the visited set and whether a state one more internal step
    away was left out.
    """
    bound = max(bound, 0)
    depth, _ = reachable(
        normalize(p), lambda s: [normalize(t) for _, t in _entry(s, universe).kept(_is_tau)], sys.maxsize, bound + 1
    )
    visited = frozenset(s for s, d in depth.items() if d <= bound)
    return visited, len(visited) < len(depth)


def tau_closure(
    p: Process,
    mode: Mode | None = None,
    universe: Universe = DEFAULT_UNIVERSE,
    bound: int = 16,
    exact: bool = False,
) -> frozenset[Process]:
    """Normalized states reachable by internal steps only, `p` included.

    With `exact` set, refuses to return a truncated answer.
    """
    check_mode(mode, p)
    states, truncated = _tau_reach(p, universe, bound)
    if exact and truncated:
        raise BoundExceeded(f"internal closure still growing after {bound} steps")
    return states


class WeakClosure:
    """The weak closure for one check: one universe, one internal-step bound.

    `reach` remembers each `_tau_reach` by start state, truncation flag
    included, for as long as the object lives.  A check builds one, shares
    it between its prover's and attacker's move tables, which remember the
    weak steps they read, and drops it when it returns.
    """

    __slots__ = ("universe", "bound", "_reach")

    def __init__(self, universe: Universe, bound: int) -> None:
        self.universe = universe
        self.bound = bound
        self._reach: dict[Process, tuple[frozenset[Process], bool]] = {}

    def reach(self, p: Process) -> tuple[frozenset[Process], bool]:
        """`_tau_reach(p, ...)`, computed once per start state."""
        hit = self._reach.get(p)
        if hit is None:
            hit = self._reach[p] = _tau_reach(p, self.universe, self.bound)
        return hit

    def weak_steps(self, p: Process) -> tuple[frozenset[Step], bool]:
        """The weak step relation of `p` as (action, normalized target)
        pairs plus a truncation flag, through the remembered closures.  The
        internal action includes the zero-step case.  Each call computes
        the set afresh.
        """
        pre, truncated = self.reach(p)
        out: set[Step] = {(TAU, s) for s in pre}
        for s in pre:
            for a, t in _entry(s, self.universe).kept(_is_visible):
                post, trunc2 = self.reach(t)
                truncated |= trunc2
                out |= {(a, u) for u in post}
        return frozenset(out), truncated


def weak_transitions(
    p: Process,
    mode: Mode | None = None,
    universe: Universe = DEFAULT_UNIVERSE,
    bound: int = 16,
    exact: bool = False,
) -> frozenset[Transition]:
    """Transitions of shape (internal*, visible, internal*) or internal*."""
    check_mode(mode, p)
    steps, truncated = WeakClosure(universe, bound).weak_steps(p)
    if exact and truncated:
        raise BoundExceeded(f"internal closure still growing after {bound} steps")
    return frozenset(Transition(p, a, t) for a, t in steps)


# ---------------------------------------------------------------------------
# Unfolding the network language into the base calculus
# ---------------------------------------------------------------------------


def unfold_comm(p: Process) -> Process:
    """Replace every distributor by its repeating-receiver expansion.

    The expansion receives a value and fires one send per target, ending
    in the inert process; the result uses base-mode constructs only.
    """
    done: dict[Process, Process] = {}

    def compute(x: Process, kids: list[Process]) -> Process:
        if type(x) is Distribute:
            out = RepeatReceive(x.source, _sender_row(x.targets, ValVar(0)))
        else:
            out = rebuild(x, kids)
        done[x] = out
        return out

    return post_order(p, done.get, children, compute)


def sorted_transitions(ts: Iterable[Transition]) -> list[Transition]:
    """Transitions in `step_order`."""
    return sorted(ts, key=lambda t: step_order((t.action, t.target)))


# ---------------------------------------------------------------------------
# Reachability
# ---------------------------------------------------------------------------


def reachable(
    start: Process,
    successors: Callable[[Process], Iterable[Process]],
    max_states: int,
    max_depth: int | None = None,
) -> tuple[dict[Process, int], bool]:
    """Breadth-first search from `start`, expanding states fewer than
    `max_depth` steps away (all of them when None).

    Returns each state found with its distance from `start`, in discovery
    order, and whether a new state was left out because `max_states` were
    already found.  The start state is always found, so the search keeps
    at least one state whatever `max_states` is.
    """
    depth = {start: 0}
    order = [start]
    cut = False
    for s in order:  # grows while it is walked: a FIFO queue
        if max_depth is not None and depth[s] >= max_depth:
            break
        for t in successors(s):
            if t in depth:
                continue
            if len(order) >= max_states:
                cut = True
                continue
            depth[t] = depth[s] + 1
            order.append(t)
    return depth, cut
