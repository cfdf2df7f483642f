"""Builders and analysis for the network description language.

A network is a parallel composition of links (forwarders, sinks,
duplicators) over named channels, with internal hops hidden by
restriction.  `explore` enumerates delivery behaviour after injecting
messages on input channels; `simulate` follows one random trajectory.
"""

from __future__ import annotations

import hashlib
import inspect
import random
import re
from collections import Counter
from dataclasses import dataclass

from .errors import ArityError, DistinctnessError, ParseError, ScopeError
from .normalform import normalize
from .semantics import (
    Action,
    Mode,
    Moves,
    SendAct,
    TAU,
    Universe,
    check_mode,
    effective_universe,
    reachable,
    sorted_steps,
    _step,
)
from .syntax import is_identifier, pretty, pretty_action
from .terms import (
    Atom,
    Distribute,
    Name,
    Parallel,
    Process,
    Restrict,
    Send,
    STOP,
    abstract_channel,
    free_channel_names,
    fresh_channel_name,
    is_closed,
)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def _name(ch: str | Name) -> Name:
    return ch if isinstance(ch, Name) else Name(ch)


def distributor(source: str | Name, *targets: str | Name) -> Process:
    return Distribute(_name(source), tuple(_name(t) for t in targets))


def bridge(a: str | Name, b: str | Name) -> Process:
    return Distribute(_name(a), (_name(b),))


def bibridge(a: str | Name, b: str | Name) -> Process:
    return Parallel(bridge(a, b), bridge(b, a))


def loser(a: str | Name) -> Process:
    return Distribute(_name(a), ())


def duplicator(a: str | Name) -> Process:
    a = _name(a)
    return Distribute(a, (a, a))


def duploser(a: str | Name) -> Process:
    return Parallel(loser(a), duplicator(a))


_BUILDERS = {
    "distribute": distributor,
    "bridge": bridge,
    "bibridge": bibridge,
    "loser": loser,
    "duplicator": duplicator,
    "duploser": duploser,
}


def build(kind: str, *channels: str | Name) -> Process:
    """Construct a link by kind name; `distribute` takes source then targets."""
    if kind not in _BUILDERS:
        raise ArityError(f"unknown link kind {kind!r}")
    builder = _BUILDERS[kind]
    try:
        inspect.signature(builder).bind(*channels)
    except TypeError as exc:
        raise ArityError(f"{kind}: {exc}") from None
    return builder(*channels)


@dataclass(frozen=True)
class NetworkSpec:
    """Declarative network: visible ports, hidden hops, and link processes."""

    free_channels: tuple[str, ...]
    local_channels: tuple[str, ...]
    links: tuple[Process, ...]

    def elaborate(self) -> Process:
        declared = set(self.free_channels) | set(self.local_channels)
        if len(declared) != len(self.free_channels) + len(self.local_channels):
            raise DistinctnessError("free and local channel names must all differ")
        body: Process = STOP
        for link in reversed(self.links):
            missing = free_channel_names(link) - declared
            if missing:
                raise ScopeError(f"link mentions undeclared channels: {sorted(missing)}")
            body = link if body is STOP else Parallel(link, body)
        for local in reversed(self.local_channels):
            body = Restrict(abstract_channel(body, Name(local)))
        return body


def _distinct(*channels: str) -> None:
    if len(set(channels)) != len(channels):
        raise DistinctnessError(f"channels must be pairwise distinct: {channels}")


def _fan_out(s: str, r1: str, r2: str, r3: str, lossy: bool) -> Process:
    """Sender port `s` feeds a hidden hop that forwards to r1, r2 and r3;
    a lossy hop may also drop or duplicate messages."""
    _distinct(s, r1, r2, r3)
    t = fresh_channel_name({s, r1, r2, r3}, base="t") if "t" in {s, r1, r2, r3} else "t"
    hop = (duploser(t),) if lossy else ()
    return NetworkSpec(
        free_channels=(s, r1, r2, r3),
        local_channels=(t,),
        links=(bridge(s, t), *hop, bridge(t, r1), bridge(t, r2), bridge(t, r3)),
    ).elaborate()


def anycast3(s: str = "s", r1: str = "r1", r2: str = "r2", r3: str = "r3") -> Process:
    """One sender port fans out through a hidden hop to exactly one receiver."""
    return _fan_out(s, r1, r2, r3, lossy=False)


def broadcast3_unreliable(s: str = "s", r1: str = "r1", r2: str = "r2", r3: str = "r3") -> Process:
    """Like anycast3 but the hop may also drop or duplicate messages."""
    return _fan_out(s, r1, r2, r3, lossy=True)


# ---------------------------------------------------------------------------
# Exploration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TraceEvent:
    step: int
    action: Action
    digest: str

    def __str__(self) -> str:
        return f"{self.step:3d}  {pretty_action(self.action):12} {self.digest}"


def state_digest(p: Process) -> str:
    return hashlib.sha256(pretty(normalize(p)).encode()).hexdigest()[:12]


Delivery = tuple[str, str]


@dataclass
class ExploreReport:
    """Run census: complete runs are counted up to (state, deliveries)
    equivalence, and delivery_profiles maps each multiset of fired
    outputs to the number of distinct complete configurations showing it."""

    start: Process
    inputs: tuple[tuple[str, str], ...]
    universe: Universe
    states: int
    state_bound_hit: bool
    complete_paths: int
    truncated_paths: int
    divergent_paths: int
    budget_exhausted: bool
    delivery_profiles: dict[tuple[Delivery, ...], int]
    query: str | None = None
    query_satisfied: bool | None = None
    query_witness: tuple[TraceEvent, ...] | None = None

    @property
    def partial(self) -> bool:
        return self.state_bound_hit or self.truncated_paths > 0 or self.budget_exhausted

    def delivery_counts(self) -> dict[str, tuple[int, int]]:
        """Per channel, the (min, max) deliveries over complete paths."""
        chans = sorted({d[0] for profile in self.delivery_profiles for d in profile})
        out: dict[str, tuple[int, int]] = {}
        for ch in chans:
            per_path = [sum(1 for d in profile if d[0] == ch) for profile in self.delivery_profiles]
            out[ch] = (min(per_path), max(per_path))
        return out


def _inject(p: Process, inputs) -> tuple[Process, tuple[tuple[str, str], ...], frozenset[str]]:
    """`p` with one send per (channel, value) input in parallel, the
    inputs as stripped text, and the channels injected on.  Each side
    must read back as an identifier; a ParseError gives its column in
    the text CHANNEL=VALUE."""
    pairs: list[tuple[str, str]] = []
    senders: list[Process] = []
    for chan, value in inputs:
        ch = chan.text if isinstance(chan, Name) else str(chan)
        val = value.text if isinstance(value, Atom) else str(value)
        for what, text, col in (("channel", ch, 1), ("value", val, len(ch) + 2)):
            if not is_identifier(text.strip()):
                col += len(text) - len(text.lstrip())
                raise ParseError(f"bad injected {what} {text!r}, expected an identifier that is not a keyword", 1, col)
        ch, val = ch.strip(), val.strip()
        pairs.append((ch, val))
        senders.append(Send(Name(ch), Atom(val)))
    start: Process = p
    for s in reversed(senders):
        start = Parallel(s, start)
    return start, tuple(pairs), frozenset(ch for ch, _ in pairs)


def _observable(a: Action, suppressed: frozenset[str]) -> bool:
    """Whether exploration follows a step with action `a`: an internal
    move, or an output on a port that is not used for injection."""
    return a is TAU or (type(a) is SendAct and a.channel.text not in suppressed)


def explore(
    p: Process,
    inputs=(),
    max_states: int = 512,
    max_depth: int = 24,
    *,
    universe: Universe | None = None,
    mode: Mode | None = None,
    query: str | None = None,
    node_budget: int = 20000,
) -> ExploreReport:
    """Enumerate every run of the network after injecting the given messages.

    A run is complete when no internal move or deliverable output remains.
    Deliveries are the outputs fired along the run.  Runs are enumerated up
    to (state, deliveries-so-far) equivalence; a run that revisits such a
    configuration is divergent.  `max_states` bounds the states counted by
    `reachable`; the start state always counts, so at least one state is
    found whatever the bound.
    """
    if not is_closed(p):
        raise ScopeError("explore needs a closed process")
    start_raw, pairs, suppressed = _inject(p, inputs)
    check_mode(mode, start_raw)
    universe = effective_universe(universe, start_raw)
    start = normalize(start_raw)
    conds = _parse_query(query) if query is not None else None
    # each state's observable steps, targets normalized; the census and the
    # walk both read it, so a state's moves are worked out once however
    # often it is reached
    moves = Moves(universe, keep=lambda a: _observable(a, suppressed))
    seen, state_bound_hit = reachable(start, lambda s: [t for _, t in moves[s]], max_states, max_depth)
    report = ExploreReport(
        start=start,
        inputs=pairs,
        universe=universe,
        states=len(seen),
        state_bound_hit=state_bound_hit,
        complete_paths=0,
        truncated_paths=0,
        divergent_paths=0,
        budget_exhausted=False,
        delivery_profiles={},
        query=query,
    )
    budget = node_budget
    # paths are walked up to (state, deliveries-so-far) equivalence: two
    # prefixes reaching the same configuration have identical suffixes, so
    # one expansion covers both; nodes are re-expanded only when reached at
    # a smaller depth, which can leave more room before the depth bound
    shallowest: dict[tuple[Process, tuple[Delivery, ...]], int] = {}
    completed: set[tuple[Process, tuple[Delivery, ...]]] = set()
    on_path: set[tuple[Process, tuple[Delivery, ...]]] = set()
    # the configurations being expanded, a depth-first path from the
    # start: (key, the steps not yet walked, the deliveries and the trail
    # of steps that reached it); the frame at index i is at depth i
    frames: list[tuple] = []

    def visit(state: Process, depth: int, deliveries: tuple[Delivery, ...], trail: tuple) -> None:
        # count a configuration reached by the current path, and push a
        # frame for it when it is to be expanded
        nonlocal budget
        if budget <= 0:
            report.budget_exhausted = True
            return
        budget -= 1
        profile = tuple(sorted(deliveries))
        key = (state, profile)
        if key in on_path:
            report.divergent_paths += 1
            return
        if shallowest.get(key, max_depth + 1) <= depth:
            return
        shallowest[key] = depth
        if depth >= max_depth and state not in moves:
            # a frontier state is only tested for moves: normalizing its
            # targets would be wasted work
            steps = any(_observable(a, suppressed) for a, _ in _step(state, universe))
        else:
            steps = moves[state]
        if not steps:
            if key not in completed:
                completed.add(key)
                report.complete_paths += 1
                report.delivery_profiles[profile] = report.delivery_profiles.get(profile, 0) + 1
                if conds is not None and report.query_witness is None and _eval_query(conds, deliveries):
                    report.query_satisfied = True
                    report.query_witness = tuple(
                        TraceEvent(i, a, state_digest(s)) for i, (a, s) in enumerate(trail)
                    )
            return
        if depth >= max_depth:
            report.truncated_paths += 1
            return
        on_path.add(key)
        frames.append((key, iter(steps), deliveries, trail))

    visit(start, 0, (), ())
    while frames and not report.budget_exhausted:
        key, steps, deliveries, trail = frames[-1]
        step = next(steps, None)
        if step is None:
            on_path.discard(key)
            frames.pop()
            continue
        action, tn = step
        fired = ((action.channel.text, action.payload.text),) if type(action) is SendAct else ()
        visit(tn, len(frames), deliveries + fired, trail + ((action, tn),))
    if conds is not None and report.query_satisfied is None:
        report.query_satisfied = False
    return report


def simulate(
    p: Process,
    inputs=(),
    steps: int = 32,
    seed: int = 0,
    *,
    universe: Universe | None = None,
    mode: Mode | None = None,
) -> tuple[TraceEvent, ...]:
    """One random internal-move trajectory; deterministic for a given seed."""
    if not is_closed(p):
        raise ScopeError("simulate needs a closed process")
    start_raw, _, _ = _inject(p, inputs)
    check_mode(mode, start_raw)
    universe = effective_universe(universe, start_raw)
    rng = random.Random(seed)
    state = normalize(start_raw)
    events: list[TraceEvent] = []
    for i in range(steps):
        taus = [t for a, t in sorted_steps(state, universe) if a is TAU]
        if not taus:
            break
        state = normalize(taus[rng.randrange(len(taus))])
        events.append(TraceEvent(i, TAU, state_digest(state)))
    return tuple(events)


# ---------------------------------------------------------------------------
# Delivery queries
# ---------------------------------------------------------------------------

_QUERY_RE = re.compile(r"^\s*(\w+)\s*(>=|<=|=)\s*(\d+)\s*$")


@dataclass(frozen=True)
class _Cond:
    subject: str
    op: str
    count: int


def _parse_query(text: str) -> list[_Cond]:
    """Conjunction of `chan OP n`, `total OP n`, `distinct OP n` conditions."""
    conds = []
    offset = 0
    for part in text.split(","):
        m = _QUERY_RE.match(part)
        if not m:
            col = offset + len(part) - len(part.lstrip()) + 1
            raise ParseError(f"bad query condition {part.strip()!r}", 1, col)
        conds.append(_Cond(m.group(1), m.group(2), int(m.group(3))))
        offset += len(part) + 1
    return conds


def _eval_query(conds: list[_Cond], deliveries: tuple[Delivery, ...] | list[Delivery]) -> bool:
    per_chan: Counter[str] = Counter(d[0] for d in deliveries)
    by_value: dict[str, set[str]] = {}
    for ch, val in deliveries:
        by_value.setdefault(val, set()).add(ch)
    for cond in conds:
        if cond.subject == "total":
            actual = len(deliveries)
        elif cond.subject == "distinct":
            actual = max((len(chs) for chs in by_value.values()), default=0)
        else:
            actual = per_chan.get(cond.subject, 0)
        ok = {"=": actual == cond.count, ">=": actual >= cond.count, "<=": actual <= cond.count}[cond.op]
        if not ok:
            return False
    return True
