"""Bisimilarity checking by an on-the-fly game with up-to reasoning.

The checker has two independent halves:

  * a proof search that tries to close a candidate relation under the
    bisimulation game, shrinking every successor pair by behaviour-safe
    reductions (canonical rewriting, cancellation of shared context)
    before it is looked up or recorded;

  * a refutation search that plays the plain bounded game by iterative
    deepening and reports a minimal-depth distinguishing trace.

In the strong game the refutation search does not expand a pair whose two
sides are one state: the defender wins it by copying every move, which
leaves an identical pair one round down (Stirling, "Bisimulation, modal
logic and model checking games", 1999).  States are hash-consed, so the
test is one pointer compare.  The weak game expands such a pair, since a
τ-closure cut under it is what lets a check name `tau-bound`.

Each half reads its moves from its own `semantics.Moves` table: the
prover's is raw, as it reduces every pair itself, and the attacker's
normalizes its states.  Each remembers its own replies, in the weak game
computed through the check's one `WeakClosure`; all three are dropped
when the check returns.  `audit_witness` and `replay_trace` build tables
of their own.

Proofs are only ever produced by the first half and refutations only by
the second, so neither inherits the other's approximations: cancelling
shared context can make a provable pair unprovable, but it can never
manufacture a refutation, and traces always replay against the plain
transition relation.

Shared-context cancellation removes a parallel component from both sides
only when it occurs the same number of times on each side.  Removing the
full multiset intersection would be unsound in effect: parallel
composition is not cancellative (a forwarder in parallel with itself is
equivalent to one copy), and over-cancelling turns true goals into false
subgoals.  The equal-multiplicity rule keeps exactly the cancellations
that the accompanying congruence argument licenses while leaving the
replicated disagreement in place.

The weak game under FULL_UPTO also fires confluent internal steps.  Take
a top-level restriction run and one of its channels t.  Suppose its body,
under prefixes and nested restrictions too, holds exactly one consumer of
t (a distributor source, receive or repeating receive on t), and that
consumer is a distributor among the body's top-level components whose row
sends on at most one channel of the run.  Then delivering a pending t!m
to it is a τ-step that no other step can disable or be disabled by, and
after which the term behaves the same (τ-confluence, Groote & Sellink,
"Confluence for process verification", TCS 1996).  So a term expands the
term that step leads to, and weak bisimulation up to expansion is sound
where up to weak bisimilarity is not (Sangiorgi & Milner, "The problem of
'weak bisimulation up to'", CONCUR 1992; Pous, "New up-to techniques for
weak bisimulation", TCS 2007).  `_fire` replaces every such send by the
distributor's row, binder by binder, in at most one round per binder of
the run, so it ends even on a cycle of relays.  It then moves the
components that no longer use the run out of it (scope extrusion, a
structural congruence).  The row bound keeps the hidden buffer from
growing under the rule: a distributor that sends twice into the run, such
as `t => [t, t]`, would double it on every reduced pair.  The strong game
and PLAIN fire nothing, since a τ-step is visible to the strong game.
`audit_witness` re-derives every firing with code of its own: it opens
the binders with fresh names where `_fire` counts de Bruijn indices, and
requires each delivery to be a τ-step of the step relation.  It derives
each normal form's deliveries once per audit, and in the weak game tries
the responder's replies with no internal padding (`Moves.unpadded`, as
the prover's pre-pass does) before it builds the weak closure.  Both skip
only work whose answer is already known: a delivery reads the normal form
alone, and those replies are weak replies too.  So the audit answers as
the full check does.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable

from .normalform import (
    compose_parallel,
    normalize,
    parallel_components,
    term_key,
)
from .semantics import (
    Action,
    Mode,
    Moves,
    TAU,
    Universe,
    WeakClosure,
    action_key,
    check_mode,
    effective_universe,
    _entry,
    _is_tau,
)
from .terms import (
    ChanVar,
    Distribute,
    Name,
    Parallel,
    Process,
    Receive,
    RepeatReceive,
    Restrict,
    STOP,
    Send,
    Stop,
    abstract_channel,
    children,
    free_channel_names,
    fresh_channel_name,
    instantiate_channel,
)


class Verdict(str, Enum):
    PROVEN = "proven-bisimilar"
    DISTINGUISHED = "distinguished"
    INCONCLUSIVE = "inconclusive"


# The two up-to modes: FULL_UPTO shrinks successor pairs by rewriting both
# sides to normal form and cancelling shared context; PLAIN plays the game
# on the pairs as they are.
FULL_UPTO = True
PLAIN = False

Pair = tuple[Process, Process]


@dataclass(frozen=True)
class TraceStep:
    """One game round: a challenger move and one illustrative defender
    reply; the final step of a distinguishing trace has no reply."""

    side: str  # "left" | "right"
    action: Action
    challenger_target: Process
    defender_target: Process | None


@dataclass(frozen=True)
class CheckResult:
    """A verdict and its evidence.

    `pairs_explored` is the work of both phases together: `prover_pairs`
    candidate pairs opened by the proof search plus `attacker_nodes` game
    positions expanded by the refutation search.  In the strong game a
    position whose two sides are one state is not expanded, so it counts
    no attacker node.
    """

    verdict: Verdict
    witness: frozenset[Pair] | None
    trace: tuple[TraceStep, ...] | None
    pairs_explored: int
    bound_hit: str | None
    prover_pairs: int = 0
    attacker_nodes: int = 0


# ---------------------------------------------------------------------------
# Pair reduction
# ---------------------------------------------------------------------------


def _reduce(l: Process, r: Process, upto: bool, weak: bool = False) -> Pair:
    """Shrink a pair by the behaviour-safe reductions, under FULL_UPTO.

    Both sides are rewritten to normal form, and in the weak game their
    confluent internal steps are fired (`_fire`).  Cancellation peels shared
    outer restrictions, then deletes the parallel components that occur
    equally often on both sides, in one pass.  Identical sides share every
    component, so they give (STOP, STOP) at once, and identical
    restrictions are not peeled.  After a deletion every remaining
    component occurs a different number of times on the two sides, and
    the leftovers have exactly those components.  A subset of a normal
    form's components, kept in order, is normal, so the leftovers are
    composed and not normalized again.  A second deletion can only find
    something new under restrictions peeled from both leftovers: the pass
    repeats only then.
    """
    if not upto:
        return l, r
    l, r = normalize(l), normalize(r)
    if weak:
        l, r = _fire(l), _fire(r)
    while True:
        while isinstance(l, Restrict) and isinstance(r, Restrict) and l is not r:
            # the bodies' sets, which instantiate_channel reads next
            avoid = free_channel_names(l.body) | free_channel_names(r.body)
            c = Name(fresh_channel_name(avoid))
            l = normalize(instantiate_channel(l.body, c))
            r = normalize(instantiate_channel(r.body, c))
        if l is r:
            return STOP, STOP
        lc = [c for c in parallel_components(l) if not isinstance(c, Stop)]
        rc = [c for c in parallel_components(r) if not isinstance(c, Stop)]
        counts_l, counts_r = Counter(lc), Counter(rc)
        shared = {c for c, n in counts_l.items() if counts_r.get(c) == n}
        if not shared:
            return l, r
        l = compose_parallel([c for c in lc if c not in shared])
        r = compose_parallel([c for c in rc if c not in shared])
        if not (isinstance(l, Restrict) and isinstance(r, Restrict)):
            return l, r


def _fire(p: Process) -> Process:
    """The normal form `p` with the confluent internal steps of its
    top-level restriction runs fired (see the module docstring); `p`
    itself when none fires."""
    out: list[Process] = []
    fired = False
    for c in parallel_components(p):
        parts = _fire_run(c) if type(c) is Restrict else None
        if parts is None:
            out.append(c)
        else:
            out += parts
            fired = True
    return normalize(compose_parallel(out)) if fired else p


def _fire_run(c: Restrict) -> list[Process] | None:
    """The components a closed restriction run leaves once it has fired,
    or None when nothing fires in it."""
    k, core = 0, c
    while type(core) is Restrict:
        k, core = k + 1, core.body
    parts = parallel_components(core)
    # the cheap test first: most runs hold no pending send on their binders
    if c._chan_mask or not any(type(x) is Send and type(x.channel) is ChanVar for x in parts):
        return None
    rows = _licensed_rows(core, parts, k)
    fired = False
    for _ in range(k):
        progress = False
        for i, row in rows:
            hidden = ChanVar(i)
            nxt: list[Process] = []
            for x in parts:
                if type(x) is Send and x.channel is hidden:
                    nxt += [Send(t, x.payload) for t in row]
                    progress = True
                else:
                    nxt.append(x)
            parts = nxt
        if not progress:
            break
        fired = True
    if not fired:
        return None
    # a component that uses no binder of the closed run is closed itself
    run = (1 << k) - 1
    body = compose_parallel([x for x in parts if x._chan_mask & run])
    for _ in range(k):
        body = Restrict(body)
    return [x for x in parts if not x._chan_mask & run] + [body]


def _licensed_rows(core: Process, parts: list[Process], k: int) -> list[tuple[int, tuple]]:
    """(binder, row) for each binder of a k-run over `core` whose one
    consumer is a top-level distributor, among `parts`, that sends into
    the run at most once; binders in index order."""
    run = (1 << k) - 1
    consumers = [0] * k
    todo = [(core, 0)]
    while todo:
        x, d = todo.pop()
        if not x._chan_mask >> d & run:
            continue
        kind = type(x)
        if kind is Parallel:
            todo += [(x.left, d), (x.right, d)]
        elif kind is Restrict:
            todo.append((x.body, d + 1))
        elif kind is not Send:
            c = x.source if kind is Distribute else x.channel
            if type(c) is ChanVar and 0 <= c.index - d < k:
                consumers[c.index - d] += 1
            if kind is Receive or kind is RepeatReceive:
                todo.append((x.body, d))
    return sorted(
        (x.source.index, x.targets)
        for x in parts
        if type(x) is Distribute and type(x.source) is ChanVar and consumers[x.source.index] == 1
        and sum(type(t) is ChanVar for t in x.targets) <= 1
    )  # one consumer per binder, so no two entries share an index


def cancel_context(p: Process, q: Process) -> Pair:
    """Delete shared parallel components and shared outer restrictions
    from a pair of normal forms, re-normalizing the leftovers."""
    return _reduce(p, q, FULL_UPTO)


def _canon(pair: Pair) -> Pair:
    """Orientation-free key of a pair: its sides in term_key order."""
    l, r = pair
    return pair if term_key(l) <= term_key(r) else (r, l)


# ---------------------------------------------------------------------------
# Proof search
# ---------------------------------------------------------------------------


class _BoundHit(Exception):
    def __init__(self, what: str) -> None:
        super().__init__(what)
        self.what = what


class _Prover:
    """Depth-first construction of a relation closed under the game.

    Pairs are assumed while their obligations are checked; a failed
    defender branch rolls back everything it added, so the surviving set
    is self-justifying and serves as the emitted witness.  The weak game
    takes the defender's replies from `closure`; None plays the strong one.
    The move table is raw: `_reduce` shrinks each pair afterwards, and
    PLAIN plays the pairs as they are.  Under FULL_UPTO a memo kept for
    the one check holds each reduction by the normal forms of the pair,
    which is all `_reduce` reads.

    In the weak game a pre-pass tries each challenge with the replies that
    need no internal padding (`Moves.unpadded`).  When every challenge has
    such a reply whose reduced pair is identical or already assumed, the
    pair closes and no weak closure is built.  This is exact: those
    replies are among the weak ones, and a known reply closes a goal with
    no side effect, which is the first thing the full search looks for,
    so the full search would close the pair too and change nothing.
    Otherwise the full search runs on the weak replies, and reads from the
    memo the reductions the pre-pass made.
    """

    def __init__(
        self,
        universe: Universe,
        upto: bool,
        max_pairs: int,
        closure: WeakClosure | None,
    ) -> None:
        self.upto = upto
        self.max_pairs = max_pairs
        self.weak = closure is not None
        self.moves = Moves(universe, raw=True, closure=closure)
        self.assumed: set[Pair] = set()
        self.trail: list[Pair] = []
        self.explored = 0
        self._reductions: dict[Pair, Pair] = {}

    def close(self, red: Pair) -> bool:
        """Try to close an already reduced pair under the game."""
        if red[0] == red[1]:
            return True
        key = _canon(red)
        if key in self.assumed:
            return True
        if self.explored >= self.max_pairs:
            raise _BoundHit("max-pairs")
        self.explored += 1
        self.assumed.add(key)
        self.trail.append(key)
        mark = len(self.trail) - 1
        if self._obligations(*key):
            return True
        while len(self.trail) > mark:
            self.assumed.discard(self.trail.pop())
        return False

    def _obligations(self, u: Process, v: Process) -> bool:
        if self.weak and self._closes_unpadded(u, v):
            return True
        # weak defender relations include the zero-step reply to Tau
        goals = self._goals(u, v, lambda p: self.moves.replies(p)[0])
        return goals is not None and all(self._match(t, options, forward) for t, options, forward in goals)

    def _closes_unpadded(self, u: Process, v: Process) -> bool:
        """The weak game's pre-pass: whether every challenge has a known
        reply with no internal padding.  It changes no state."""
        goals = self._goals(u, v, self.moves.unpadded)
        return goals is not None and all(
            any(self._known(self._reduced(t, opt, forward)) for opt in options) for t, options, forward in goals
        )

    def _goals(self, u: Process, v: Process, replies: Callable[[Process], dict]) -> list | None:
        """(challenger's target, responder's replies, direction) for each
        challenge of the pair, or None when one has no reply.  A responder's
        replies are read only when its challenger has a move."""
        goals = []
        for forward in (True, False):
            chal, resp = (u, v) if forward else (v, u)
            challenges = self.moves[chal]
            if challenges:
                responses = replies(resp)
                for a, t in challenges:
                    options = responses.get(a)
                    if not options:
                        return None
                    goals.append((t, options, forward))
        # forced and low-branching goals first, so unmatchable challenges
        # surface before deep speculative subtrees get built
        goals.sort(key=lambda g: len(g[1]))
        return goals

    def _reduced(self, chal_target: Process, opt: Process, forward: bool) -> Pair:
        """The reduced pair of a challenger's target and a reply, oriented
        as the challenge.  Under FULL_UPTO `_reduce` runs once per pair of
        normal forms, so raw targets that differ only in which copy of a
        component moved share one reduction."""
        if not self.upto:
            return (chal_target, opt) if forward else (opt, chal_target)
        t, o = normalize(chal_target), normalize(opt)
        pair = (t, o) if forward else (o, t)
        hit = self._reductions.get(pair)
        if hit is None:
            hit = self._reductions[pair] = _reduce(*pair, FULL_UPTO, self.weak)
        return hit

    def _known(self, red: Pair) -> bool:
        return red[0] is red[1] or _canon(red) in self.assumed

    def _match(self, chal_target: Process, options: list[Process], forward: bool) -> bool:
        # Replies whose reduced pair is equal or already assumed come first,
        # then the rest, each group in the term_key order the options come
        # in; this keeps witnesses small and deterministic.  A known reply
        # closes with no side effect, so the first one ends the match, and
        # the others are only opened when no reply is known.  A failed
        # `close` has rolled back all it added.
        opened = []
        for opt in options:
            red = self._reduced(chal_target, opt, forward)
            if self._known(red):
                return True
            opened.append(red)
        return any(self.close(red) for red in opened)


# ---------------------------------------------------------------------------
# Refutation search
# ---------------------------------------------------------------------------


class _Attacker:
    """Iterative-deepening attacker for the plain (no up-to) game.

    The weak game takes the defender's replies from `closure`; None plays
    the strong game.  A verdict is tainted when a closure that could
    change this ply's answer was cut by the internal-step bound.  Above
    the last ply every reply lookup, first or not, ORs the table's
    truncation flag into `tainted`.  The last ply reads the responder's
    τ-closure only when an action is not answered strongly, and a cut
    there taints only when an action stays unanswered.

    Iterative deepening meets the same states at every depth, so the
    attacker reads each state's moves from one `Moves` table, kept for
    the one check it plays.  Its states are normalized unless
    `normalize_states` is off.  The last ply of each round, depth 1,
    compares action sets and fills no challenger row unless it finds a
    refutation.

    The strong game returns None for a pair whose sides are one object
    before it looks at the memo or counts a node: the defender copies
    every challenge into an identical pair.  A raw table compares the
    states as played, never their normal forms.  The weak game expands
    such a pair, because a cut τ-closure under it taints the answer.
    """

    def __init__(
        self,
        universe: Universe,
        closure: WeakClosure | None,
        node_budget: int,
        normalize_states: bool = True,
    ) -> None:
        self.budget = node_budget
        self.moves = Moves(universe, raw=not normalize_states, closure=closure)
        self.memo: dict[tuple[Process, Process, int], tuple[TraceStep, ...] | None] = {}
        self.nodes = 0
        self.tainted = False

    def _replies(self, p: Process) -> dict[Action, list[Process]]:
        by_action, truncated = self.moves.replies(p)
        self.tainted |= truncated
        return by_action

    def search(self, l: Process, r: Process, max_depth: int) -> tuple[TraceStep, ...] | None:
        if not self.moves.raw:
            l, r = normalize(l), normalize(r)
        for depth in range(1, max_depth + 1):
            trace = self._attack(l, r, depth)
            if trace is not None:
                return trace
        return None

    def _last_ply(self, l: Process, r: Process) -> tuple[TraceStep, ...] | None:
        """The game at depth 1, where only the action sets count: the least
        action by `action_key` that one side has and the other cannot
        answer, left side first, with the challenger's first step on it,
        which is the step the full loop stops at.  The responder answers
        with its own actions.  In the weak game τ is also answered by the
        zero step, and only for the actions still missing are the actions
        of the responder's τ-closure read: where a reply lands does not
        matter here, so no closure after the visible step is built.  Only
        that challenger's row fills."""
        moves = self.moves
        la, ra = moves.actions(l), moves.actions(r)
        for side, chal, resp, actions, answered in (("left", l, r, la, ra), ("right", r, l, ra, la)):
            missing = actions - answered
            if missing and moves.closure is not None:
                missing.discard(TAU)
                if missing:
                    pre, cut = moves.closure.reach(resp)
                    for s in pre:
                        missing -= moves.actions(s)
                    # a cut closure could hold a reply to what is missing
                    self.tainted |= cut and bool(missing)
            if missing:
                a = min(missing, key=action_key)
                return (TraceStep(side, a, next(t for b, t in moves[chal] if b is a), None),)
        return None

    def _attack(self, l: Process, r: Process, depth: int) -> tuple[TraceStep, ...] | None:
        if l is r and self.moves.closure is None:
            return None
        key = (l, r, depth)
        if key in self.memo:
            return self.memo[key]
        self.nodes += 1
        if self.nodes > self.budget:
            raise _BoundHit("node-budget")
        if depth == 1:
            self.memo[key] = self._last_ply(l, r)
            return self.memo[key]
        result: tuple[TraceStep, ...] | None = None
        for side, chal, resp in (("left", l, r), ("right", r, l)):
            for a, tn in self.moves[chal]:
                replies = self._replies(resp).get(a)
                if not replies:
                    result = (TraceStep(side, a, tn, None),)
                    break
                refutations = []
                for opt in replies:
                    pair = (tn, opt) if side == "left" else (opt, tn)
                    sub = self._attack(*pair, depth - 1)
                    if sub is None:
                        refutations = None
                        break
                    refutations.append((opt, sub))
                if refutations:
                    opt, sub = refutations[0]
                    result = (TraceStep(side, a, tn, opt),) + sub
                    break
            if result is not None:
                break
        self.memo[key] = result
        return result


# ---------------------------------------------------------------------------
# Public checks
# ---------------------------------------------------------------------------


def _prepare(p: Process, q: Process, universe: Universe | None, mode: Mode | None) -> Universe:
    """Check the pair's scope and language once; return the value universe."""
    check_mode(mode, p, q)
    return effective_universe(universe, p, q)


def check_strong(
    p: Process,
    q: Process,
    upto: bool = FULL_UPTO,
    max_pairs: int = 512,
    *,
    universe: Universe | None = None,
    mode: Mode | None = None,
    max_trace_depth: int = 8,
    node_budget: int = 40_000,
) -> CheckResult:
    """Decide strong bisimilarity of two closed terms, within bounds.

    Proven verdicts carry a self-justifying witness relation; refuted
    verdicts carry a minimal-depth trace that replays against the plain
    transition relation; everything else is reported inconclusive with
    the bound that was hit.
    """
    uni = _prepare(p, q, universe, mode)
    return _check(p, q, upto, max_pairs, uni, None, max_trace_depth, node_budget)


def check_weak(
    p: Process,
    q: Process,
    tau_bound: int = 8,
    max_pairs: int = 512,
    *,
    upto: bool = FULL_UPTO,
    universe: Universe | None = None,
    mode: Mode | None = None,
    max_trace_depth: int = 6,
    node_budget: int = 40_000,
) -> CheckResult:
    """Decide weak bisimilarity: challenger moves are single steps, the
    defender may pad its reply with up to `tau_bound` internal steps on
    each side of the visible action."""
    uni = _prepare(p, q, universe, mode)
    return _check(p, q, upto, max_pairs, uni, WeakClosure(uni, tau_bound), max_trace_depth, node_budget)


def _check(
    p: Process,
    q: Process,
    upto: bool,
    max_pairs: int,
    uni: Universe,
    closure: WeakClosure | None,
    max_trace_depth: int,
    node_budget: int,
) -> CheckResult:
    # the weak game's closure is shared by prover and attacker; None is strong
    prover = _Prover(uni, upto, max_pairs, closure)
    bound_hit: str | None = None
    # proof search recurses once per candidate pair plus matching overhead;
    # setrecursionlimit takes a C int
    depth_needed = min(8 * max_pairs + 500, 2**31 - 1)
    old_limit = sys.getrecursionlimit()
    if depth_needed > old_limit:
        sys.setrecursionlimit(depth_needed)
    try:
        proved = prover.close(_reduce(p, q, upto, closure is not None))
    except _BoundHit as hit:
        proved = False
        bound_hit = hit.what
    finally:
        if depth_needed > old_limit:
            sys.setrecursionlimit(old_limit)
    if proved:
        witness = frozenset(prover.assumed)
        return CheckResult(Verdict.PROVEN, witness, None, prover.explored, None, prover_pairs=prover.explored)

    attacker = _Attacker(uni, closure, node_budget)
    trace: tuple[TraceStep, ...] | None = None
    try:
        trace = attacker.search(p, q, max_trace_depth)
    except _BoundHit as hit:
        bound_hit = bound_hit or hit.what
    explored = prover.explored + attacker.nodes
    phases = {"prover_pairs": prover.explored, "attacker_nodes": attacker.nodes}
    if trace is not None and not attacker.tainted:
        return CheckResult(Verdict.DISTINGUISHED, None, trace, explored, None, **phases)
    if attacker.tainted:
        bound_hit = bound_hit or "tau-bound"
    return CheckResult(Verdict.INCONCLUSIVE, None, None, explored, bound_hit or "trace-depth", **phases)


# ---------------------------------------------------------------------------
# Independent witness audit
# ---------------------------------------------------------------------------


def audit_witness(
    p: Process,
    q: Process,
    witness: frozenset[Pair],
    upto: bool = FULL_UPTO,
    *,
    weak: bool = False,
    tau_bound: int = 8,
    universe: Universe | None = None,
    mode: Mode | None = None,
) -> Pair | None:
    """Re-check a witness relation pair by pair, independently of the
    proof search.  Returns None if the witness is closed and contains the
    reduced root, (p, q) if it misses the root, and otherwise the first
    pair that is not closed, in the order of the pairs' `term_key`s.  Each
    pair is played in both directions, so a pair and its flip are one
    pair: the witness is read in `_canon` orientation, and an offending
    pair is reported in it.

    Two shortcuts skip only work whose answer is known, so the result is
    the same without them.  Each normal form is delivered (`_delivered`)
    once per call, since a delivery reads the normal form alone.  In the
    weak game each challenge is first tried against the responder's replies
    with no internal padding (`Moves.unpadded`).  Those are weak replies
    too, so the weak closure is built only for a challenge they leave
    unanswered.
    """
    uni = _prepare(p, q, universe, mode)
    witness = frozenset(map(_canon, witness))
    # raw, as the prover's: `covered` reduces each pair itself
    moves = Moves(uni, raw=True, closure=WeakClosure(uni, tau_bound) if weak else None)
    fire = weak and upto
    delivered: dict[Process, Process | None] = {}

    def deliver(x: Process) -> Process | None:
        n = normalize(x)
        if n not in delivered:
            delivered[n] = _delivered(n, uni)
        return delivered[n]

    def covered(l: Process, r: Process) -> bool:
        if fire:
            l, r = deliver(l), deliver(r)
            if l is None or r is None:
                return False
        red = _reduce(l, r, upto)
        return red[0] == red[1] or _canon(red) in witness

    def answers(t: Process, replies: Iterable[Process], forward: bool) -> bool:
        return any(covered(*((t, d) if forward else (d, t))) for d in replies)

    if not covered(p, q):
        return (p, q)
    # in the order of the sides' keys, not the set's, which is not stable
    # from one process to the next
    for u, v in sorted(witness, key=lambda pair: (term_key(pair[0]), term_key(pair[1]))):
        for forward in (True, False):
            chal, resp = (u, v) if forward else (v, u)
            first = moves.unpadded(resp) if weak else moves.replies(resp)[0]
            # the table's orders, so the work done does not depend on set
            # order either
            for a, t in moves[chal]:
                if answers(t, first.get(a, ()), forward):
                    continue
                if not weak or not answers(t, moves.replies(resp)[0].get(a, ()), forward):
                    return (u, v)
    return None


def _delivered(p: Process, uni: Universe) -> Process | None:
    """The audit's own derivation of `_fire(normalize(p))`.

    It opens each top-level restriction run that has a pending send on one
    of its own binders with fresh names, checks each name's one consumer by
    walking every node, and fires one pending send at a time, in the rounds
    and binder order `_fire` uses.  Each delivery must be a τ-step of the
    run under the step relation; None when one is not.  The term after a
    delivery, closed, is the term the next delivery steps from.
    """
    p = normalize(p)
    taken = set(free_channel_names(p))
    out: list[Process] = []
    fired = False
    for c in parallel_components(p):
        k, core = 0, c
        while type(core) is Restrict:
            k, core = k + 1, core.body
        # a run with no pending send on its own binders has nothing to fire
        if not any(type(x) is Send and type(x.channel) is ChanVar and x.channel.index < k
                   for x in parallel_components(core)):
            out.append(c)
            continue
        names: list[Name] = []
        body = c
        while type(body) is Restrict:
            names.append(Name(fresh_channel_name(taken)))
            taken.add(names[-1].text)
            body = instantiate_channel(body.body, names[-1])
        parts = parallel_components(body)
        rows = []
        # the innermost binder, de Bruijn index 0, was opened last
        for n in reversed(names):
            d = _sole_consumer(body, n)
            if d is not None and sum(t in names for t in d.targets) <= 1:
                rows.append((n, d.targets))
        delivered = False
        before = None
        for _ in names:
            progress = False
            for n, row in rows:
                for _ in range(sum(type(x) is Send and x.channel is n for x in parts)):
                    send = next(x for x in parts if type(x) is Send and x.channel is n)
                    after = list(parts)
                    after.remove(send)
                    after += [Send(t, send.payload) for t in row]
                    if before is None:
                        before = _closed(parts, names)
                    taus = {normalize(t) for _, t in _entry(before, uni).kept(_is_tau)}
                    before = _closed(after, names)
                    if normalize(before) not in taus:
                        return None
                    parts, progress = after, True
            if not progress:
                break
            delivered = True
        if delivered:
            inside = {n.text for n in names}
            out += [x for x in parts if not free_channel_names(x) & inside]
            out.append(_closed([x for x in parts if free_channel_names(x) & inside], names))
            fired = True
        else:
            out.append(c)
    return normalize(compose_parallel(out)) if fired else p


def _closed(parts: list[Process], names: list[Name]) -> Process:
    """The components under restrictions of `names`, the first outermost."""
    q = compose_parallel(parts)
    for n in reversed(names):
        q = Restrict(abstract_channel(q, n))
    return q


def _sole_consumer(body: Process, n: Name) -> Distribute | None:
    """The one consumer of `n` in `body` when it is a distributor among the
    body's parallel components; None otherwise."""
    found = []
    todo = [body]
    while todo:
        x = todo.pop()
        kind = type(x)
        if (x.source if kind is Distribute else x.channel if kind in (Receive, RepeatReceive) else None) is n:
            found.append(x)
        todo += children(x)
    if len(found) == 1 and type(found[0]) is Distribute and found[0] in parallel_components(body):
        return found[0]
    return None


def verify_witness(
    p: Process,
    q: Process,
    witness: frozenset[Pair],
    upto: bool = FULL_UPTO,
    **kwargs,
) -> bool:
    """True when the witness is closed under both game directions and
    contains the reduced initial pair."""
    return audit_witness(p, q, witness, upto, **kwargs) is None


# ---------------------------------------------------------------------------
# Trace replay
# ---------------------------------------------------------------------------


def replay_trace(
    p: Process,
    q: Process,
    trace: tuple[TraceStep, ...],
    *,
    weak: bool = False,
    tau_bound: int = 8,
    universe: Universe | None = None,
    mode: Mode | None = None,
) -> bool:
    """Check a distinguishing trace against the plain transition relation.

    Every challenger step must be an actual transition of its side and
    the final challenger action must have no reply from the other side.
    A step on a side other than "left" or "right" fails the play.
    """
    uni = _prepare(p, q, universe, mode)
    moves = Moves(uni, closure=WeakClosure(uni, tau_bound) if weak else None)
    state = {"left": normalize(p), "right": normalize(q)}
    for i, step in enumerate(trace):
        if step.side not in state or (step.action, step.challenger_target) not in moves[state[step.side]]:
            return False
        other = "right" if step.side == "left" else "left"
        replies = moves.replies(state[other])[0].get(step.action, ())
        last = i == len(trace) - 1
        if last:
            return step.defender_target is None and not replies
        if step.defender_target is None or step.defender_target not in replies:
            return False
        state[step.side] = step.challenger_target
        state[other] = step.defender_target
    return False
