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

Restriction steps with no fresh names.  The step table `_STEP_CACHE`
holds an entry per (leaf, universe) for the sends, receives, repeating
receives, distributors and the inert process: the leaf's steps, all on
one channel, their targets built with it.  No term above a leaf has one.
A term is read in one walk of its tree (`_steps`) that keeps a parent
link per node and the binders above each leaf, as LTSmin's partitioned
next-state function reads only the slots a transition touches (Blom, van
de Pol & Weber, CAV 2010).  A leaf's channel is a free name, a de Bruijn
index a binder above the leaf binds, whose traffic stays inside and is
dropped, or an index bound outside the term, which moves out past those
binders: the textbook rule (open the binder with a fresh name, step,
re-abstract) without the renaming, which tests cross-check.  A send and a
receive whose channels resolve to the same name or binder meet in a τ,
wherever their leaves sit, if the send's value is in the universe: the
send's entry holds its index there, and the walks list only the sends a
receive can take.  A target is rebuilt up the parent links (`_rebuild`),
binders and all, only for the kinds of step the reader asks for, a τ's
two halves up to the `Parallel` they join at: the τ closure asks for the
τs alone and the weak closure for the visible steps alone.  `_step`
returns the frozenset of all the steps, made afresh on each call.

Actions are interned in `terms`' table, as terms are: equal actions are
the same object, hashed and compared by identity, and each stores its
`action_key`, so the step sets, the step cache and the game's tables hash
and compare them in O(1), and `TAU` is the one internal action.
`step_order` is the one presentation order for steps (action, then
target term); every listing, game move and exploration sorts by it.
The game, its evidence checks, explore, simulate and the CLI's LTS read
the step relation through a per-call `Moves` table, which puts each
state's steps into `step_order` once and groups the defender's replies by
action.  A table that normalizes its targets is asked only for normal
states `new^k (c1 | ... | cn)`, and reads each through the tree of its
restriction runs instead (`_read_runs`), down to its leaf units:
`normalform.splice` builds a step's normal target run by run from the
sorted components, so no raw target is built.  Readers that need only a
state's actions read its action grain the same way in either kind of
table, from the state's normal form, with no target built.
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
    """A leaf's steps in one universe, all on one channel: their actions,
    a receive's in the universe's order, and their targets.  `channel` is
    that channel (None when there is no step).  `side` is the half of a τ
    the leaf can be: 0 for a send whose value is in the universe, at
    `index` (a receive takes no other value: the one place that is
    checked), 1 for a receiver, and None for the inert process and any
    other send.  `normal` holds the `normal_step`s read so far."""

    __slots__ = ("term", "actions", "targets", "channel", "side", "index", "normal")

    def __init__(self, p: Process, universe: Universe) -> None:
        side, index = 1, None
        match p:
            case Send(channel=c, payload=v):
                steps = [(SendAct(c, v), STOP)]
                side, index = (0, universe.index(v)) if v in universe else (None, None)
            case Receive(channel=c, body=b):
                steps = [(ReceiveAct(c, v), instantiate_value(b, v)) for v in universe]
            case RepeatReceive(channel=c, body=b):
                steps = [(ReceiveAct(c, v), Parallel(instantiate_value(b, v), p)) for v in universe]
            case Distribute(source=c, targets=ts):
                steps = [(ReceiveAct(c, v), Parallel(_sender_row(ts, v), p)) for v in universe]
            case Stop():
                steps, side = [], None
            case _:
                raise TypeError(f"not a leaf: {p!r}")
        self.term, self.normal, self.side, self.index = p, None, side, index
        self.actions = tuple(a for a, _ in steps)
        self.targets = tuple(t for _, t in steps)
        self.channel = self.actions[0].channel if steps else None

    def normal_step(self, k: int) -> tuple[bool, tuple, tuple[Process, ...]]:
        """Step k's target as `_normal_row` splices it: whether its
        `term_key` is above the term's, that key, and the components of
        its normal form; found on first read and kept."""
        normal = self.normal
        if normal is None:
            normal = self.normal = [None] * len(self.actions)
        hit = normal[k]
        if hit is None:
            t = self.targets[k]
            key = t._term_key
            hit = normal[k] = (key > self.term._term_key, key, normal_components(t))
        return hit


def _entry(p: Process, universe: Universe) -> _Entry:
    """The leaf `p`'s step-table entry in `universe`, filled on first use."""
    hit = _STEP_CACHE.get((p, universe))
    if hit is None:
        hit = _STEP_CACHE[p, universe] = _Entry(p, universe)
    return hit


def transitions(p: Process, mode: Mode | None = None, universe: Universe = DEFAULT_UNIVERSE) -> frozenset[Transition]:
    """All single-step transitions of a closed term.

    The term must belong to `mode`'s language; with mode None the
    language is inferred from the term itself.
    """
    check_mode(mode, p)
    return frozenset(Transition(p, a, t) for a, t in _step(p, universe))


def _step(p: Process, universe: Universe) -> frozenset[Step]:
    """All the steps of `p`, made afresh on each call."""
    return frozenset(_steps(p, universe))


def _steps(p: Process, universe: Universe, visible: bool = True, tau: bool = True) -> list[Step]:
    """The steps of `p`, the visible ones when `visible` is set and the
    τs when `tau` is, in the walk's order, duplicates and all: read from
    its leaves' entries in one walk with no recursion, no other target built.

    The walk lists the nodes in pre-order, so that a node's left operand
    or body is the node after it, with each node's parent (-1 for `p`).
    A visible step is a leaf's step on a free name, or on a channel bound
    outside `p`, moved out past the binders above the leaf.  For the τs,
    each leaf that can be a half of one is listed under its channel,
    resolved to a free name, an outer channel or its binder's node, among
    the sends or the receives."""
    # binders: those on the path to the node being read, outermost first
    terms, up, binders, out, ends = [], [], [], [], {}
    cache, todo = _STEP_CACHE, [(p, -1, 0)]
    while todo:
        x, parent, d = todo.pop()
        while True:
            n = len(terms)
            terms.append(x)
            up.append(parent)
            kind = type(x)
            if kind is Parallel:
                todo.append((x.right, n, d))
                x, parent = x.left, n
            elif kind is Restrict:
                # a node taken off `todo` at depth d finds binders[:d] as
                # its path left them: the walk in between went deeper
                del binders[d:]
                binders.append(n)
                x, parent, d = x.body, n, d + 1
            else:
                break
        e = cache.get((x, universe)) or _entry(x, universe)
        channel = e.channel
        if channel is None:
            continue
        if type(channel) is ChanVar:
            i = channel.index
            if i < d:
                # bound in `p`: its binder's node, and no visible step
                channel = binders[d - 1 - i]
            elif d:
                # bound outside `p`: the steps move out past d binders
                channel = ChanVar(i - d)
        if visible and type(channel) is not int:
            actions = e.actions
            if channel is not e.channel:
                actions = [type(a)(channel, a.payload) for a in actions]
            out += [(a, _rebuild(terms, up, n, t)) for a, t in zip(actions, e.targets)]
        if tau and e.side is not None:
            group = ends.get(channel)
            if group is None:
                group = ends[channel] = ([], [])
            group[e.side].append((n, e))
    for sends, receives in ends.values():
        for n, e in sends:
            out += [(TAU, _rebuild(terms, up, n, e.targets[0], m, f.targets[e.index])) for m, f in receives]
    return out


def _rebuild(terms: list[Process], up: list[int], n: int, t: Process, m: int = -1, u: Process | None = None) -> Process:
    """The root of the tree `terms`, `up` with its leaf node n replaced by
    `t` and, for a τ, its leaf node m by `u`: the later leaf's half is
    wrapped up to the `Parallel` the two paths join at, and the earlier
    one's up to the root, taking the other in at the join.  A level is
    interned by `_intern`, as the constructors do, without their call."""
    join = -1
    if m >= 0:
        if m < n:
            n, t, m, u = m, u, n, t
        # the join is before n in pre-order, m's ancestors below it after n
        while (q := up[m]) > n:
            x = terms[q]
            u = _intern(
                (Restrict, u) if type(x) is Restrict
                else (Parallel, u, x.right) if m == q + 1
                else (Parallel, x.left, u)
            )
            m = q
        join = q
    while (q := up[n]) >= 0:
        x = terms[q]
        t = _intern(
            (Restrict, t) if type(x) is Restrict
            else (Parallel, t, u if q == join else x.right) if n == q + 1
            else (Parallel, x.left, t)
        )
        n = q
    return t


def step_order(step: Step) -> tuple:
    """The deterministic presentation order of steps: action, then target."""
    action, target = step
    return (action_key(action), term_key(target))


class Moves(dict):
    """One call's table of moves, filled a state at a time on first read;
    every game, evidence check and exploration reads states through one.

    `moves[p]` is the steps of `p` whose action `keep` accepts (all of
    them when None) in `step_order` of their raw targets: read by `_steps`
    in a `raw` table, which builds every step and then drops those `keep`
    refuses, else by `_normal_row` from the normal form's run tree, each
    target normalized and no raw target built.
    `moves.replies(p)` is the defender's distinct targets per action, in
    `term_key` order, and whether the weak closure truncated them: from
    `closure.weak_steps(p)` in the weak game, from `moves[p]` in the
    strong one (closure None), computed once per state.
    `moves.unpadded(p)` is the weak game's replies with no internal
    padding, which the prover and the audit try first.
    `moves.actions(p)` is the action grain, the set of actions of
    `moves[p]`, read from the leaf units of `p`'s normal form with no
    target built and no row filled; the attacker's last ply and explore's
    frontier test read it.
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
            keep = self.keep
            out = sorted({s for s in _steps(p, self.universe) if keep is None or keep(s[0])}, key=step_order)
        else:
            out = _normal_row(normalize(p), self)
        self[p] = out
        return out

    def actions(self, p: Process) -> set[Action]:
        """The actions of `p`'s steps that `keep` accepts, with no target
        built and no row filled, in either kind of table: read by
        `_read_runs` from the leaf units of `p`'s normal form, whose
        actions structural congruence keeps, with τ when a send and a
        receive can meet."""
        _, visible, ends = _read_runs(normalize(p), self)
        out = {a for a, *_ in visible}
        if any(sends and receives for sends, receives in ends.values()):
            out.add(TAU)
        return out

    def _unit(self, c: Process) -> tuple[_Entry, tuple]:
        """The leaf unit `c` as `_read_runs` reads it, once per table: its
        entry and its steps on a free name that `keep` accepts, as
        (action, step)."""
        hit = self._units.get(c)
        if hit is None:
            e, keep = _entry(c, self.universe), self.keep
            free = type(e.channel) is Name
            kept = tuple((a, j) for j, a in enumerate(e.actions) if free and (keep is None or keep(a)))
            hit = self._units[c] = (e, kept)
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
        `n`'s steps on it.  These are weak replies too.  They are read by
        `_steps` in its walk's order, with no row filled or sorted, so the
        work done does not depend on set order.
        """
        hit = self._unpadded.get(p)
        if hit is None:
            n = normalize(p)
            hit = self._unpadded[p] = {TAU: {n: None}}
            for a, t in _steps(n, self.universe, tau=self.closure.bound >= 1):
                hit.setdefault(a, {})[normalize(t)] = None
        return hit


# closes one run's slots in a `_normal_row` sort key: it sorts above a
# lowered slot's flag (0) and below a raised one's (2)
_END = 1


def _read_runs(p: Process, moves: Moves) -> tuple[list, list, dict]:
    """The normal state `p`'s run tree by `normal_runs`, its visible steps
    and its ends, read from its leaf units' entries as `_steps` reads a
    term's: a visible step is (action, run, slot, entry, step), for a
    step on a free name that the table keeps, as `p` is closed, and an end
    (run, slot, entry), its channel resolved to a free name or to (run,
    binder) by moving it out one run's binders at a time."""
    runs, leaves = normal_runs(p)
    tau, units, unit = moves._tau, moves._units, moves._unit
    visible: list[tuple[Action, int, int, _Entry, int]] = []
    ends: dict[Channel | tuple[int, int], tuple[list, list]] = {}
    for r, i, c in leaves:
        e, kept = units.get(c) or unit(c)
        for a, j in kept:
            visible.append((a, r, i, e, j))
        channel = e.channel
        if tau and e.side is not None:
            if type(channel) is ChanVar:
                x, s = channel.index, r
                while x >= runs[s][0]:
                    x -= runs[s][0]
                    s = runs[s][3]
                channel = (s, x)
            group = ends.get(channel)
            if group is None:
                group = ends[channel] = ([], [])
            group[e.side].append((r, i, e))
    return runs, visible, ends


def _normal_row(p: Process, moves: Moves) -> list[Step]:
    """The row of the normal state `p` in the normalizing table `moves`,
    read through its run tree from its leaf units' entries (`_read_runs`).

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
    tau = TAU._key
    for sends, receives in ends.values():
        for r, i, e in sends:
            j = e.index
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
        normalize(p), lambda s: [normalize(t) for _, t in _steps(s, universe, visible=False)], sys.maxsize, bound + 1
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
            for a, t in _steps(s, self.universe, tau=False):
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
