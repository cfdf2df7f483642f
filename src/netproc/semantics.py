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

The step table `_STEP_CACHE` fills a term's entry from its parts'
entries, a `Parallel` from its operands' and a `Restrict` from its
body's, so each steps once however many terms share it.  An entry keeps
the built steps: the τs and the actions on a free channel (`Name`).  A
step on a bound channel (`ChanVar`) is kept apart as a recipe: its action
and where its target comes from (a step of the left or the right operand,
of the body, or a leaf's built target).  In a closed term such a step
only matters as one half of a τ, since its binder drops it, so a
`Restrict` drops the recipes on its own channel and shifts the rest
without building anything, and a `Parallel` builds the targets of two
recipes, down the chain and back up in a loop, only when they make a τ.
An entry with no recipe, which is every closed term's, is the frozenset
of its steps, and `_step` returns it as it is; `_step` of an open term
adds its bound steps, built on each request.

Actions are interned in `terms`' table, as terms are: equal actions are
the same object, hashed and compared by identity, and each stores its
`action_key`, so the step sets, the step cache and the game's tables hash
and compare them in O(1), and `TAU` is the one internal action.
`step_order` is the one presentation order for steps (action, then
target term); every listing, game move and exploration sorts by it.
The game, its evidence checks, explore, simulate and the CLI's LTS read
the step relation through a per-call `Moves` table, which puts each
state's steps into `step_order` once and groups the defender's replies by
action; readers that need only a state's actions read them without
filling its row.
`reachable` is the one breadth-first search: explore's census, the CLI's
LTS and the weak closure run on it.  `_tau_reach` is one call of it over
the internal steps, one step deeper than the bound: a state found past
the bound is one the closure left out.
A `WeakClosure` remembers `_tau_reach` and `weak_steps` by state for one
check (one universe, one bound); a check builds one and drops it when it
returns, so nothing it remembers outlives the check.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Union

from .errors import BoundExceeded, ModeViolation
from .normalform import normalize, term_key
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
    """Raise ModeViolation unless the terms all belong to `mode`'s
    language, or, with mode None, to one common language."""
    if mode is None:
        infer_mode(*terms)
    else:
        for t in terms:
            validate_mode(t, mode)


# ---------------------------------------------------------------------------
# Transition enumeration
# ---------------------------------------------------------------------------

Step = tuple[Action, Process]

# A recipe for a step on a bound channel is (action, where, x, the part's
# recipe).  Its target is the part recipe's target put back in place: as
# the left operand of Parallel(_, x), the right one of Parallel(x, _), or
# the body of a Restrict; a leaf's recipe has its built target as x and
# no part.
_LEFT, _RIGHT, _BODY, _LEAF = "left", "right", "body", "leaf"
_Recipe = tuple
# A term's built steps, or (built steps, recipes) when it has steps on a
# bound channel
_Entry = Union[frozenset[Step], tuple[frozenset[Step], tuple[_Recipe, ...]]]

_STEP_CACHE: dict[tuple[Process, Universe], _Entry] = {}


def transitions(p: Process, mode: Mode | None = None, universe: Universe = DEFAULT_UNIVERSE) -> frozenset[Transition]:
    """All single-step transitions of a closed term.

    The term must belong to `mode`'s language; with mode None the
    language is inferred from the term itself.
    """
    check_mode(mode, p)
    return frozenset(Transition(p, a, t) for a, t in _step(p, universe))


def _step(p: Process, universe: Universe) -> frozenset[Step]:
    key = (p, universe)
    hit = _STEP_CACHE.get(key)
    if hit is None:
        # fill the table for every missing part a step of `p` is made of
        hit = post_order(key, _STEP_CACHE.get, _step_parts, _step_entry)
    if type(hit) is frozenset:
        return hit
    built, bound = hit
    return built | {(r[0], _target(r)) for r in bound}


def _step_parts(key: tuple[Process, Universe]) -> tuple:
    # a prefix's body steps only once instantiated, so it is no part
    p, universe = key
    kind = type(p)
    if kind is Parallel:
        return ((p.left, universe), (p.right, universe))
    return ((p.body, universe),) if kind is Restrict else ()


def _step_entry(key: tuple[Process, Universe], parts: list[_Entry]) -> _Entry:
    bound: list[_Recipe] = []
    built = frozenset(_enumerate(*key, parts, bound))
    out = _STEP_CACHE[key] = (built, tuple(bound)) if bound else built
    return out


def _target(recipe: _Recipe) -> Process:
    """The target a recipe describes, built down its chain and back up in
    a loop, whatever the depth of the spine it runs through."""
    chain = []
    while recipe[1] is not _LEAF:
        chain.append(recipe)
        recipe = recipe[3]
    t = recipe[2]
    for _, where, other, _ in reversed(chain):
        t = Parallel(t, other) if where is _LEFT else Parallel(other, t) if where is _RIGHT else Restrict(t)
    return t


def step_order(step: Step) -> tuple:
    """The deterministic presentation order of steps: action, then target."""
    action, target = step
    return (action_key(action), term_key(target))


class Moves(dict):
    """One call's table of moves, filled a state at a time on first read.

    `moves[p]` is the steps of `p` whose action `keep` accepts (all of
    them when None) in `step_order` of their raw targets, each target
    normalized unless the table is `raw`.  `moves.replies(p)` is the
    defender's distinct targets per action, in `term_key` order, and
    whether the weak closure truncated them: from `closure.steps(p)` in
    the weak game, from `moves[p]` in the strong one (closure None).
    `moves.actions(p)` is the action grain, the set of actions of `moves[p]`,
    worked out with no row filled when `p` has none: the strong attacker's
    last ply and explore's frontier test read it.
    A table lives as long as the call that builds it.
    """

    __slots__ = ("universe", "raw", "keep", "closure", "_replies")

    def __init__(
        self, universe: Universe, *, raw: bool = False, keep: Callable[[Action], bool] | None = None,
        closure: WeakClosure | None = None,
    ) -> None:
        super().__init__()
        self.universe, self.raw, self.keep, self.closure = universe, raw, keep, closure
        self._replies: dict[Process, tuple[dict[Action, list[Process]], bool]] = {}

    def __missing__(self, p: Process) -> list[Step]:
        steps = _step(p, self.universe)
        out = sorted(steps if self.keep is None else [s for s in steps if self.keep(s[0])], key=step_order)
        out = self[p] = out if self.raw else [(a, normalize(t)) for a, t in out]
        return out

    def actions(self, p: Process) -> set[Action]:
        """The actions of `p`'s steps that `keep` accepts: read from `p`'s
        row when it is filled, else from `_step`, no target normalized or
        sorted and no row filled."""
        row = self.get(p)
        if row is not None:
            return {a for a, _ in row}
        steps, keep = _step(p, self.universe), self.keep
        return {a for a, _ in steps} if keep is None else {a for a, _ in steps if keep(a)}

    def replies(self, p: Process) -> tuple[dict[Action, list[Process]], bool]:
        hit = self._replies.get(p)
        if hit is None:
            steps, truncated = self.closure.steps(p) if self.closure is not None else (self[p], False)
            grouped: dict[Action, set[Process]] = {}
            for a, t in steps:
                grouped.setdefault(a, set()).add(t)
            # term_key order is the order in which the replies are tried
            hit = self._replies[p] = ({a: sorted(ts, key=term_key) for a, ts in grouped.items()}, truncated)
        return hit


def _sender_row(targets: tuple, value: Atom | ValVar) -> Process:
    """Forwarding row fired by a distributor: one send per target, then 0."""
    row: Process = STOP
    for t in reversed(targets):
        row = Parallel(Send(t, value), row)
    return row


def _enumerate(p: Process, universe: Universe, parts: list[_Entry], bound: list[_Recipe]) -> Iterable[Step]:
    """The built steps of `p`, given the entries of its `_step_parts`;
    the recipes of its steps on a bound channel go to `bound`."""
    match p:
        case Parallel(left=l, right=r):
            # an entry without recipes is the frozenset of its steps
            lsteps, rsteps = parts
            lbound = rbound = ()
            if type(lsteps) is tuple:
                lsteps, lbound = lsteps
            if type(rsteps) is tuple:
                rsteps, rbound = rsteps
            for a, t in lsteps:
                yield a, Parallel(t, r)
            for a, t in rsteps:
                yield a, Parallel(l, t)
            for a1, t1 in lsteps:
                for a2, t2 in rsteps:
                    if _complementary(a1, a2):
                        yield TAU, Parallel(t1, t2)
            if lbound and rbound:
                # a τ on a bound channel builds the targets of both halves,
                # each once however many partners it meets
                ltargets: dict[int, Process] = {}
                rtargets: dict[int, Process] = {}
                for i, x in enumerate(lbound):
                    for j, y in enumerate(rbound):
                        if _complementary(x[0], y[0]):
                            if i not in ltargets:
                                ltargets[i] = _target(x)
                            if j not in rtargets:
                                rtargets[j] = _target(y)
                            yield TAU, Parallel(ltargets[i], rtargets[j])
            if lbound:
                bound += [(x[0], _LEFT, r, x) for x in lbound]
            if rbound:
                bound += [(y[0], _RIGHT, l, y) for y in rbound]
        case Restrict():
            # the body's steps under the binder, each target keeping it:
            # traffic on the bound channel (index 0) stays inside, and
            # outer bound channels move one binder out
            steps, body_bound = parts[0], ()
            if type(steps) is tuple:
                steps, body_bound = steps
            for a, t in steps:
                yield a, Restrict(t)
            for x in body_bound:
                a = x[0]
                if a.channel.index:
                    bound.append((type(a)(ChanVar(a.channel.index - 1), a.payload), _BODY, None, x))
        case Stop():
            return
        case Distribute(source=c) | Send(channel=c) | Receive(channel=c) | RepeatReceive(channel=c):
            if type(c) is ChanVar:
                bound += [(a, _LEAF, t, None) for a, t in _leaf_steps(p, universe)]
            else:
                yield from _leaf_steps(p, universe)
        case _:
            raise TypeError(f"not a process: {p!r}")


def _leaf_steps(p: Send | Receive | RepeatReceive | Distribute, universe: Universe) -> Iterable[Step]:
    """The steps of a leaf that acts, all on one channel."""
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


def _complementary(a1: Action, a2: Action) -> bool:
    """A send and a receive of the same value on the same channel."""
    return (
        a1 is not TAU and a2 is not TAU and type(a1) is not type(a2)
        and a1.channel is a2.channel and a1.payload is a2.payload
    )


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
        normalize(p), lambda s: [normalize(t) for a, t in _step(s, universe) if a is TAU], sys.maxsize, bound + 1
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


def weak_steps(p: Process, universe: Universe, bound: int) -> tuple[frozenset[Step], bool]:
    """Weak step relation as (action, normalized target) pairs plus a
    truncation flag.  The internal action includes the zero-step case.
    Each call computes afresh; a check asks its `WeakClosure` instead.
    """
    return WeakClosure(universe, bound).weak_steps(p)


class WeakClosure:
    """The weak closure for one check: one universe, one internal-step bound.

    `reach` and `steps` remember each `_tau_reach` by start state and each
    weak step set by state, truncation flags included, for as long as the
    object lives.  A check builds one, shares it between its prover and
    attacker, and drops it when it returns.
    """

    __slots__ = ("universe", "bound", "_reach", "_steps")

    def __init__(self, universe: Universe, bound: int) -> None:
        self.universe = universe
        self.bound = bound
        self._reach: dict[Process, tuple[frozenset[Process], bool]] = {}
        self._steps: dict[Process, tuple[frozenset[Step], bool]] = {}

    def reach(self, p: Process) -> tuple[frozenset[Process], bool]:
        """`_tau_reach(p, ...)`, computed once per start state."""
        hit = self._reach.get(p)
        if hit is None:
            hit = self._reach[p] = _tau_reach(p, self.universe, self.bound)
        return hit

    def steps(self, p: Process) -> tuple[frozenset[Step], bool]:
        """`weak_steps(p, ...)`, computed once per state."""
        hit = self._steps.get(p)
        if hit is None:
            hit = self._steps[p] = self.weak_steps(p)
        return hit

    def weak_steps(self, p: Process) -> tuple[frozenset[Step], bool]:
        """Compute the weak steps of `p`, through the remembered closures.

        Named like the module function, so that a profile counts every
        weak step computation under one name.
        """
        pre, truncated = self.reach(p)
        out: set[Step] = {(TAU, s) for s in pre}
        for s in pre:
            for a, t in _step(s, self.universe):
                if a is TAU:
                    continue
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
    steps, truncated = weak_steps(p, universe, bound)
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
