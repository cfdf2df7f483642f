"""Bisimilarity checking by an on-the-fly game with up-to reasoning.

The checker has two independent halves:

  * a proof search that tries to close a candidate relation under the
    bisimulation game, shrinking every successor pair by behaviour-safe
    reductions (canonical rewriting, cancellation of shared context)
    before it is looked up or recorded;

  * a refutation search that plays the plain bounded game by iterative
    deepening and reports a minimal-depth distinguishing trace.

Each half reads its moves from its own `semantics.Moves` table: the
prover's is raw, as it reduces every pair itself, and the attacker's
normalizes its states.  In the weak game both take their replies from the
check's one `WeakClosure`; all three are dropped when the check returns.
`audit_witness` and `replay_trace` build tables of their own.

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
requires each delivery to be a τ-step of `_step`.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass
from enum import Enum

from .errors import ScopeError
from .normalform import (
    compose_parallel,
    normalize,
    parallel_components,
    term_key,
)
from .semantics import (
    TAU,
    Action,
    Mode,
    Moves,
    Universe,
    WeakClosure,
    check_mode,
    effective_universe,
    _step,
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
    is_closed,
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
    positions expanded by the refutation search.
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
    the leftovers have exactly those components (a subset of a normal
    form's components is normal), so a second deletion can only find
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
        l = normalize(compose_parallel([c for c in lc if c not in shared]))
        r = normalize(compose_parallel([c for c in rc if c not in shared]))
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
    PLAIN plays the pairs as they are.
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

    def _rollback(self, mark: int) -> None:
        while len(self.trail) > mark:
            self.assumed.discard(self.trail.pop())

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
        self._rollback(mark)
        return False

    def _obligations(self, u: Process, v: Process) -> bool:
        # weak defender relations include the zero-step reply to Tau
        goals: list[tuple[Process, list[Process], bool]] = []
        for forward in (True, False):
            chal, resp = (u, v) if forward else (v, u)
            responses = self.moves.replies(resp)[0]
            for a, t in self.moves[chal]:
                options = responses.get(a, [])
                if not options:
                    return False
                goals.append((t, options, forward))
        # forced and low-branching goals first, so unmatchable challenges
        # surface before deep speculative subtrees get built
        goals.sort(key=lambda g: len(g[1]))
        for t, options, forward in goals:
            if not self._match(t, options, forward):
                return False
        return True

    def _match(self, chal_target: Process, options: list[Process], forward: bool) -> bool:
        # Replies whose reduced pair is equal or already assumed come first,
        # then the rest, each group in the term_key order the options come
        # in; this keeps witnesses small and deterministic.  A known reply
        # closes with no side effect, so the first one ends the match, and
        # the others are only opened when no reply is known.
        opened = []
        for opt in options:
            red = _reduce(*((chal_target, opt) if forward else (opt, chal_target)), self.upto, self.weak)
            if red[0] is red[1] or _canon(red) in self.assumed:
                return True
            opened.append(red)
        for red in opened:
            mark = len(self.trail)
            if self.close(red):
                return True
            self._rollback(mark)
        return False


# ---------------------------------------------------------------------------
# Refutation search
# ---------------------------------------------------------------------------


class _Attacker:
    """Iterative-deepening attacker for the plain (no up-to) game.

    The weak game takes the defender's replies from `closure`, and a reply
    set cut short by the internal-step bound taints every verdict; None
    plays the strong game.

    Iterative deepening meets the same states at every depth, so the
    attacker reads each state's moves from one `Moves` table, kept for
    the one check it plays.  Its states are normalized unless
    `normalize_states` is off.  Every reply lookup, first or not, ORs the
    table's truncation flag into `tainted`.
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

    def _replies(self, p: Process, a: Action) -> list[Process]:
        by_action, truncated = self.moves.replies(p)
        self.tainted |= truncated
        return by_action.get(a, [])

    def search(self, l: Process, r: Process, max_depth: int) -> tuple[TraceStep, ...] | None:
        if not self.moves.raw:
            l, r = normalize(l), normalize(r)
        for depth in range(1, max_depth + 1):
            trace = self._attack(l, r, depth)
            if trace is not None:
                return trace
        return None

    def _attack(self, l: Process, r: Process, depth: int) -> tuple[TraceStep, ...] | None:
        if depth == 0:
            return None
        key = (l, r, depth)
        if key in self.memo:
            return self.memo[key]
        self.nodes += 1
        if self.nodes > self.budget:
            raise _BoundHit("node-budget")
        result: tuple[TraceStep, ...] | None = None
        for side, chal, resp in (("left", l, r), ("right", r, l)):
            for a, tn in self.moves[chal]:
                replies = self._replies(resp, a)
                if not replies:
                    result = (TraceStep(side, a, tn, None),)
                    break
                if depth == 1:
                    continue
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
    if not is_closed(p) or not is_closed(q):
        raise ScopeError("bisimilarity checks require closed terms")
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
    # proof search recurses once per candidate pair plus matching overhead
    depth_needed = 8 * max_pairs + 500
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
    proof search.  Returns the first offending pair, in the order of the
    pairs' `term_key`s, or None if the witness is closed and contains the
    reduced root."""
    uni = _prepare(p, q, universe, mode)
    # raw, as the prover's: `covered` reduces each pair itself
    moves = Moves(uni, raw=True, closure=WeakClosure(uni, tau_bound) if weak else None)
    fire = weak and upto

    def covered(l: Process, r: Process) -> bool:
        if fire:
            l, r = _delivered(l, uni), _delivered(r, uni)
            if l is None or r is None:
                return False
        red = _reduce(l, r, upto)
        return red[0] == red[1] or _canon(red) in witness

    if not covered(p, q):
        return (p, q)
    # in the order of the sides' keys, not the set's, which is not stable
    # from one process to the next; a prover's pairs are `_canon`'s
    for u, v in sorted(witness, key=lambda pair: (term_key(pair[0]), term_key(pair[1]))):
        for forward in (True, False):
            chal, resp = (u, v) if forward else (v, u)
            # the table's orders, so the work done does not depend on set
            # order either
            replies = moves.replies(resp)[0]
            for a, t in moves[chal]:
                if not any(covered(*((t, d) if forward else (d, t))) for d in replies.get(a, ())):
                    return (u, v)
    return None


def _delivered(p: Process, uni: Universe) -> Process | None:
    """The audit's own derivation of `_fire(normalize(p))`.

    It opens each top-level restriction run with fresh names, checks each
    name's one consumer by walking every node, and fires one pending send
    at a time, in the rounds and binder order `_fire` uses.  Each delivery
    must be a τ-step of the run under `_step`; None when one is not.
    """
    p = normalize(p)
    taken = set(free_channel_names(p))
    out: list[Process] = []
    fired = False
    for c in parallel_components(p):
        if type(c) is not Restrict:
            out.append(c)
            continue
        names: list[Name] = []
        body = c
        while type(body) is Restrict:
            names.append(Name(fresh_channel_name(taken)))
            taken.add(names[-1].text)
            body = instantiate_channel(body.body, names[-1])
        parts = parallel_components(body)
        if not any(type(x) is Send and x.channel in names for x in parts):
            out.append(c)
            continue
        rows = []
        # the innermost binder, de Bruijn index 0, was opened last
        for n in reversed(names):
            d = _sole_consumer(body, n)
            if d is not None and sum(t in names for t in d.targets) <= 1:
                rows.append((n, d.targets))
        delivered = False
        for _ in names:
            progress = False
            for n, row in rows:
                for _ in range(sum(type(x) is Send and x.channel is n for x in parts)):
                    send = next(x for x in parts if type(x) is Send and x.channel is n)
                    after = list(parts)
                    after.remove(send)
                    after += [Send(t, send.payload) for t in row]
                    taus = {normalize(t) for a, t in _step(_closed(parts, names), uni) if a is TAU}
                    if normalize(_closed(after, names)) not in taus:
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
    """
    uni = _prepare(p, q, universe, mode)
    moves = Moves(uni, closure=WeakClosure(uni, tau_bound) if weak else None)
    state = {"left": normalize(p), "right": normalize(q)}
    for i, step in enumerate(trace):
        if (step.action, step.challenger_target) not in moves[state[step.side]]:
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
