"""Transition rules, rule by rule, plus closures and mode discipline.

The restriction rule steps a body in place under its binder, reading the
bound channel as de Bruijn index 0.  Two independent derivations check
it: `restrict_steps_oracle` opens the binder with several distinct fresh
names and re-abstracts each (the names must all agree), and
`fresh_name_steps` is the whole step relation with the textbook
fresh-name restriction rule, compared state by state on random terms.
`WeakClosure` must answer as the uncached weak step relation does.
"""

from __future__ import annotations

import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from netproc import (
    Atom,
    BoundExceeded,
    ChanVar,
    Distribute,
    Mode,
    ModeViolation,
    Name,
    Parallel,
    Process,
    Receive,
    ReceiveAct,
    RepeatReceive,
    Restrict,
    STOP,
    ScopeError,
    Send,
    SendAct,
    TAU,
    Tau,
    Transition,
    ValVar,
    abstract_channel,
    anycast3,
    audit_witness,
    broadcast3_unreliable,
    check_strong,
    check_weak,
    compose_parallel,
    effective_universe,
    explore,
    free_channel_names,
    fresh_channel_name,
    infer_mode,
    instantiate_channel,
    instantiate_value,
    make_universe,
    normalize,
    parse,
    pretty_action,
    replay_trace,
    simulate,
    sorted_transitions,
    tau_closure,
    transitions,
    unfold_comm,
    validate_mode,
    weak_transitions,
)
from netproc import equivalence, semantics
from netproc.netlang import _inject, _observable
from netproc.normalform import normal_runs
from netproc.semantics import WeakClosure, _step, _tau_reach, reachable, step_order
from helpers import CHANNELS, random_comm, random_pi

UNI = make_universe("m0", "m1")

# ---------------------------------------------------------------------------
# Axiom shapes
# ---------------------------------------------------------------------------


def test_send_fires_exactly_once():
    p = parse("a!m0")
    assert transitions(p, universe=UNI) == frozenset(
        {Transition(p, SendAct(Name("a"), Atom("m0")), STOP)}
    )


def test_receive_offers_one_step_per_universe_value():
    p = parse("a ? x. b!x")
    want = {
        Transition(p, ReceiveAct(Name("a"), Atom(v)), Send(Name("b"), Atom(v)))
        for v in ("m0", "m1")
    }
    assert transitions(p, universe=UNI) == frozenset(want)


def test_repeat_receive_rearms_in_parallel():
    p = RepeatReceive(Name("a"), Parallel(Send(Name("b"), ValVar(0)), Send(Name("c"), Atom("m1"))))
    got = transitions(p, universe=UNI)
    want = {
        Transition(p, ReceiveAct(Name("a"), Atom(v)), Parallel(instantiate_value(p.body, Atom(v)), p))
        for v in ("m0", "m1")
    }
    assert got == frozenset(want)


def test_distributor_fires_forwarding_row():
    p = parse("a => [b, c]")
    row = lambda v: Parallel(Send(Name("b"), Atom(v)), Parallel(Send(Name("c"), Atom(v)), STOP))
    want = {
        Transition(p, ReceiveAct(Name("a"), Atom(v)), Parallel(row(v), p)) for v in ("m0", "m1")
    }
    assert transitions(p, universe=UNI) == frozenset(want)


def test_parallel_interleaves_and_synchronizes():
    p = parse("a!m0 | a ? x. b!x")
    got = transitions(p, universe=UNI)
    tau = {t for t in got if isinstance(t.action, Tau)}
    assert tau == {Transition(p, TAU, Parallel(STOP, Send(Name("b"), Atom("m0"))))}
    # both interleavings present
    assert Transition(p, SendAct(Name("a"), Atom("m0")), Parallel(STOP, p.right)) in got
    assert {t.action for t in got} == {
        TAU,
        SendAct(Name("a"), Atom("m0")),
        ReceiveAct(Name("a"), Atom("m0")),
        ReceiveAct(Name("a"), Atom("m1")),
    }


def test_synchronization_works_right_to_left_too():
    p = parse("a ? x. b!x | a!m1")
    tau = [t for t in transitions(p, universe=UNI) if isinstance(t.action, Tau)]
    assert [t.target for t in tau] == [Parallel(Send(Name("b"), Atom("m1")), STOP)]


# ---------------------------------------------------------------------------
# Restriction
# ---------------------------------------------------------------------------


def restrict_steps_oracle(body, mode, universe, probes=("p0", "p1", "p2")):
    """Re-derive restriction steps with several fresh names; they must agree."""
    outs = []
    for nm in probes:
        assert nm not in free_channel_names(body)
        opened = instantiate_channel(body, Name(nm))
        steps = set()
        for tr in transitions(opened, mode, universe):
            if not isinstance(tr.action, Tau) and tr.action.channel == Name(nm):
                continue
            steps.add((tr.action, Restrict(abstract_channel(tr.target, Name(nm)))))
        outs.append(steps)
    assert all(o == outs[0] for o in outs)
    return outs[0]


def fresh_name_steps(p, universe):
    """Steps of a closed term with the textbook restriction rule: open the
    binder with a fresh name, step, drop traffic on that name, re-abstract.
    Prefixes and leaves do not step their bodies, so they come from `_step`."""
    match p:
        case Restrict(body=b):
            fresh = Name(fresh_channel_name(free_channel_names(b), base="_nu"))
            out = set()
            for a, t in fresh_name_steps(instantiate_channel(b, fresh), universe):
                if isinstance(a, Tau) or a.channel != fresh:
                    out.add((a, Restrict(abstract_channel(t, fresh))))
            return out
        case Parallel(left=l, right=r):
            lsteps, rsteps = fresh_name_steps(l, universe), fresh_name_steps(r, universe)
            out = {(a, Parallel(t, r)) for a, t in lsteps} | {(a, Parallel(l, t)) for a, t in rsteps}
            for a1, t1 in lsteps:
                for a2, t2 in rsteps:
                    kinds = {type(a1), type(a2)}
                    if kinds == {SendAct, ReceiveAct} and (a1.channel, a1.payload) == (a2.channel, a2.payload):
                        out.add((TAU, Parallel(t1, t2)))
            return out
    return set(_step(p, universe))


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([random_pi, random_comm]),
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=4),
    st.sampled_from([("m0",), ("m0", "m1")]),
)
def test_index_rule_agrees_with_fresh_name_rule(gen, seed, depth, values):
    p = gen(random.Random(seed), depth)
    u = effective_universe(make_universe(*values), p)
    states, _ = reachable(p, lambda s: [t for _, t in _step(s, u)], 20)
    for s in states:
        assert set(_step(s, u)) == fresh_name_steps(s, u)


def test_index_rule_shifts_outer_binders():
    # inside both binders t is index 1 and u index 0; between them u's send
    # is hidden and t's is on index 0; outside, only a!m0 is left
    p = parse("new t. new u. (t!m0 | u!m1 | a!m0)")
    inside, between = p.body.body, p.body
    m0, m1 = Atom("m0"), Atom("m1")
    assert {a for a, _ in _step(inside, UNI)} == {
        SendAct(ChanVar(1), m0), SendAct(ChanVar(0), m1), SendAct(Name("a"), m0)
    }
    assert {a for a, _ in _step(between, UNI)} == {SendAct(ChanVar(0), m0), SendAct(Name("a"), m0)}
    assert {a for a, _ in _step(p, UNI)} == {SendAct(Name("a"), m0)}
    assert set(_step(p, UNI)) == fresh_name_steps(p, UNI)


def test_restriction_blocks_external_traffic():
    assert transitions(parse("new t. t!m0"), universe=UNI) == frozenset()
    assert transitions(parse("new t. lose t"), universe=UNI) == frozenset()


def test_restriction_allows_internal_delivery():
    p = parse("new t. (t!m0 | t -> b)")
    got = transitions(p, universe=UNI)
    assert {t.action for t in got} == {TAU}
    (step,) = got
    assert normalize(step.target) == normalize(parse("new t. (b!m0 | t -> b)"))


def test_restriction_agrees_with_multi_probe_oracle():
    rng = random.Random(301)
    hole = Name("hh")
    for _ in range(150):
        body_named = random_comm(rng, 2, scope=[Name("a"), Name("b"), hole])
        body = abstract_channel(body_named, hole)
        p = Restrict(body)
        uni = effective_universe(UNI, p)
        got = {(t.action, t.target) for t in transitions(p, universe=uni)}
        assert got == restrict_steps_oracle(body, Mode.EXTENDED, uni)


# ---------------------------------------------------------------------------
# The step table
# ---------------------------------------------------------------------------


def recipe_parts(entry, k):
    """The (entry, step) pairs whose targets step k's target is built
    from, read from the entry's layout."""
    if entry.src is not None:
        return [(entry.parts[0], entry.src[k])]
    if type(entry.term) is not Parallel:
        return []
    left, right = entry.parts
    nl, nr = len(left.actions), len(right.actions)
    if k < nl + nr:
        return [(left, k)] if k < nl else [(right, k - nl)]
    i, j = entry.pairs[k - nl - nr]
    return [(left, i), (right, j)]


def built_steps(entry):
    return [k for k, t in enumerate(entry.targets) if t is not None]


def built_from(entries):
    """The (entry id, step) pairs that built targets of `entries` were
    built from."""
    return {(id(part), j) for e in entries for k in built_steps(e) for part, j in recipe_parts(e, k)}


def raw_census(net, inputs, max_depth):
    """Explore's census of `net` with `inputs` injected, read through a raw
    table with explore's filter, so each state's kept steps are built
    through its own entry's step chain: the states found, by depth."""
    start, _, suppressed = _inject(net, inputs)
    universe = effective_universe(None, start)
    moves = semantics.Moves(universe, raw=True, keep=lambda a: _observable(a, suppressed))
    depth, _ = reachable(normalize(start), lambda s: [normalize(t) for _, t in moves[s]], 512, max_depth)
    return depth


def test_steps_on_a_bound_channel_are_built_only_for_a_tau():
    # a hidden hop's receives and sends are dropped at the binder, so the
    # target of a step on a bound channel is built only as a part of a
    # built target above it, which acts on a bound channel too unless it
    # is a τ: every chain of such builds ends in a τ
    report = explore(anycast3(), [("s", "m0"), ("s", "m1")], max_depth=8)
    assert (report.states, report.complete_paths) == (36, 9)
    semantics._STEP_CACHE.clear()
    assert len(raw_census(anycast3(), [("s", "m0"), ("s", "m1")], 8)) == report.states
    entries = list(semantics._STEP_CACHE.values())
    needed = built_from(entries)
    bound = [
        (e, k)
        for e in entries
        if type(e.term) in (Parallel, Restrict)
        for k in built_steps(e)
        if e.actions[k] is not TAU and type(e.actions[k].channel) is ChanVar
    ]
    assert bound
    assert all((id(e), k) in needed for e, k in bound)


def snapshot_built():
    """Which steps of each step-table entry have a target built."""
    return {key: built_steps(e) for key, e in semantics._STEP_CACHE.items()}


def test_explore_builds_no_target_of_a_state_first_reached_at_the_depth_bound():
    semantics._STEP_CACHE.clear()
    report = explore(broadcast3_unreliable(), [("s", "m0")], max_depth=6)
    built = snapshot_built()
    assert report.truncated_paths > 0
    # the census again, through the full step relation, after the snapshot
    observable = lambda a: a is TAU or (type(a) is SendAct and a.channel != Name("s"))
    depth, _ = reachable(
        report.start, lambda s: [normalize(t) for a, t in _step(s, report.universe) if observable(a)], 10**6, 6
    )
    frontier = [s for s, d in depth.items() if d == 6]
    assert len(depth) == report.states and frontier
    # a frontier state's actions are read from its leaf units' entries:
    # it gets no entry of its own
    assert all((s, report.universe) not in built for s in frontier)


def test_anycast_explore_builds_a_receive_on_the_injected_port_only_for_a_tau():
    # explore drops the receives on the port it injects on, so above the
    # distributor leaf such a receive is built only as a half of a τ with
    # an injected send (m0), or as a part of one
    semantics._STEP_CACHE.clear()
    raw_census(anycast3(), [("s", "m0")], 8)
    entries = [e for e in semantics._STEP_CACHE.values() if type(e.term) in (Parallel, Restrict)]
    needed = built_from(entries)
    receives = [
        (e, k, e.actions[k].payload)
        for e in entries
        for k in range(len(e.actions))
        if type(e.actions[k]) is ReceiveAct and e.actions[k].channel == Name("s")
    ]
    assert {v for _, _, v in receives} == {Atom("m0"), Atom("m1")}
    assert all((id(e), k) in needed for e, k, _ in receives if e.targets[k] is not None)
    assert all(e.targets[k] is None for e, k, v in receives if v == Atom("m1"))


@pytest.mark.parametrize("net, inputs, max_depth", [
    (anycast3, [("s", "m0"), ("s", "m1")], 8),
    (broadcast3_unreliable, [("s", "m0")], 6),
])
def test_explore_builds_no_raw_target_of_a_state_it_expands(net, inputs, max_depth):
    # a normal state's row is read from its leaf units' entries, and its
    # targets are spliced in normal form: a raw target of the state, the
    # spine with one or two slots moved, is never built
    semantics._STEP_CACHE.clear()
    report = explore(net(), inputs, max_depth=max_depth)
    # every row and action set is read through the states' run trees from
    # their leaf units' entries: no entry above a leaf is built
    assert {type(e.term) for e in semantics._STEP_CACHE.values()} <= {Send, Receive, RepeatReceive, Distribute}
    built = [t for e in semantics._STEP_CACHE.values() for t in e.targets if t is not None]
    census = raw_census(net(), inputs, max_depth)
    parts = {c for s in census for c in normal_runs(s)[0][0][1]}
    expanded = [s for s, d in census.items() if d < max_depth and s not in parts]
    assert len(expanded) > 10 and report.states > len(expanded)
    # the targets of each expanded state's own entry, built only now
    raw = {t for s in expanded for _, t in _step(s, report.universe)}
    assert not raw & set(built)


def test_the_last_ply_and_the_tau_closure_build_no_visible_target():
    semantics._STEP_CACHE.clear()
    # the strong attacker's last ply reads the two action sets
    p, q = parse("a!m0 | b -> c | c ? x. d!x"), parse("c ? x. d!x | b -> c | a!m0")
    assert equivalence._Attacker(UNI, None, 100)._last_ply(p, q) is None
    # read from the leaf units' entries, whose targets are built with them
    assert all(type(e.term) not in (Parallel, Restrict) for e in semantics._STEP_CACHE.values())
    # the τ closure builds the targets of the τs alone
    r = parse("a!m0 | a -> b | b -> c | c ? x. d!x | e!m1")
    states, truncated = _tau_reach(r, UNI, 4)
    assert len(states) == 4 and not truncated
    for s in states:
        entry = semantics._STEP_CACHE[s, UNI]
        assert {entry.actions[k] for k in built_steps(entry)} == ({TAU} if TAU in entry.actions else set())


def test_a_tau_across_a_long_restricted_spine_builds_its_halves_in_a_loop():
    # new t. (t!m0 | h | ... | h | t -> b), 2,000 components, where
    # h = new u. u!m0 has no step: the relay's receive on t is kept as a
    # recipe through 1,998 levels and built once the send on t meets it
    t, m0, b = ChanVar(0), Atom("m0"), Name("b")
    hidden = Restrict(Send(ChanVar(0), m0))

    def spine(first: Process, last: Process) -> Process:
        p = last
        for _ in range(1998):
            p = Parallel(hidden, p)
        return Restrict(Parallel(first, p))

    relay = Distribute(t, (b,))
    p = spine(Send(t, m0), relay)
    delivered = Parallel(Parallel(Send(b, m0), STOP), relay)
    assert _step(p, UNI) == {(TAU, spine(STOP, delivered))}
    # the open body offers its steps on t as well, built on request
    assert {a for a, _ in _step(p.body, UNI)} == {
        TAU, SendAct(t, m0), ReceiveAct(t, m0), ReceiveAct(t, Atom("m1"))
    }


def recipe_closure(entry, k):
    """The (entry id, step) pairs step k's target is built from, at any
    depth, itself included."""
    found, todo = set(), [(entry, k)]
    while todo:
        e, j = todo.pop()
        if (id(e), j) not in found:
            found.add((id(e), j))
            todo += recipe_parts(e, j)
    return found


def rebuilt_target(entry, k):
    """Step k's target, rebuilt by recursion over `recipe_parts` from the
    leaves' targets, whatever the slots hold."""
    parts = [rebuilt_target(e, j) for e, j in recipe_parts(entry, k)]
    if not parts:
        return entry.targets[k]
    if entry.src is not None:
        return Restrict(parts[0])
    if len(parts) == 2:
        return Parallel(*parts)
    if k < len(entry.parts[0].actions):
        return Parallel(parts[0], entry.term.right)
    return Parallel(entry.term.left, parts[0])


def filled_slots():
    return {(id(e), k) for e in semantics._STEP_CACHE.values() for k in built_steps(e)}


_ANYCAST_STATES = []


def anycast_states():
    """States the injected anycast network reaches by internal steps."""
    if not _ANYCAST_STATES:
        start = explore(anycast3(), [("s", "m0"), ("s", "m1")], max_depth=0).start
        states, _ = reachable(start, lambda s: [normalize(t) for a, t in _step(s, UNI) if a is TAU], 60)
        _ANYCAST_STATES.extend(states)
    return _ANYCAST_STATES


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(["comm", "pi", "anycast"]),
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=4),
)
def test_reading_a_target_fills_exactly_its_chain(source, seed, depth):
    rng = random.Random(seed)
    if source == "anycast":
        states = anycast_states()
        p = states[rng.randrange(len(states))]
    else:
        p = (random_comm if source == "comm" else random_pi)(rng, depth)
    u = effective_universe(UNI, p)
    semantics._STEP_CACHE.clear()
    semantics._entry(p, u)
    # every step of every entry, read in a random order, so that later
    # reads meet slots earlier reads filled
    steps = [(e, k) for e in semantics._STEP_CACHE.values() for k in range(len(e.actions))]
    rng.shuffle(steps)
    for e, k in steps:
        before = filled_slots()
        unbuilt = recipe_closure(e, k) - before
        assert e.target(k) is rebuilt_target(e, k)
        assert filled_slots() - before == unbuilt


# ---------------------------------------------------------------------------
# Normalizing reads
# ---------------------------------------------------------------------------


def reference_row(p, universe, keep):
    """A normalizing table's row, read through the state's own entry: its
    raw steps in `step_order`, each target then normalized."""
    return [(a, normalize(t)) for a, t in sorted(semantics._entry(p, universe).kept(keep), key=step_order)]


def hidden_run(rng, k, pi):
    """A run of k restrictions over sends on its channels or on a and b,
    receives or distributors on its channels, and random context."""
    holes = [Name(f"t{i}") for i in range(k)]
    scope = [Name("a"), Name("b")] + holes
    parts = [Send(rng.choice(scope + holes), Atom(rng.choice(["m0", "m1"]))) for _ in range(rng.randrange(1, 4))]
    for _ in range(rng.randrange(1, 4)):
        parts.append(receiver(rng, rng.choice(holes), scope, pi))
    parts.append((random_pi if pi else random_comm)(rng, 1, scope))
    rng.shuffle(parts)
    p = compose_parallel(parts)
    for hole in reversed(holes):
        p = Restrict(abstract_channel(p, hole))
    return p


def receiver(rng, channel, scope, pi):
    """A receive on `channel` that forwards what it gets, or a distributor."""
    if not pi:
        return Distribute(channel, [rng.choice(scope) for _ in range(rng.randrange(3))])
    body = Send(rng.choice(scope), rng.choice([Atom("m1"), ValVar(0)]))
    return (Receive if rng.random() < 0.5 else RepeatReceive)(channel, body)


def nested_run(rng, depth, free, outer, pi):
    """A run of restrictions over sends on its own, outer and free
    channels, receivers on them, and, for depth > 1, runs further in.

    Sends on an outer binder are consumed here or further out, and sends
    here by receivers further in: their τs cross levels.  In the base
    calculus a run may also hold `new u. (u!m | u ? x. P)`, whose binder
    falls unused once the send is received, so that it dissolves into one
    send, two or none.
    """
    # 2-5 binders are put in order by permutation, each a normalization:
    # a run holding other runs takes at most 3
    holes = [Name(f"t{depth}_{i}") for i in range(rng.choice([1, 2, 3] if depth > 1 else [1, 2, 3, 4, 5]))]
    scope = free + outer + holes
    parts = [Send(rng.choice(scope), Atom(rng.choice(["m0", "m1"]))) for _ in range(rng.randrange(1, 4))]
    for _ in range(rng.randrange(1, 3)):
        parts.append(receiver(rng, rng.choice(holes + outer + free), scope, pi))
    if pi and rng.random() < 0.5:
        # what is left once u's binder falls unused: one send, two, or 0
        u, c = Name(f"u{depth}"), rng.choice(scope)
        rest = rng.choice([Send(c, ValVar(0)), Parallel(Send(c, ValVar(0)), Send(rng.choice(scope), ValVar(0))), STOP])
        parts.append(Restrict(abstract_channel(Parallel(Send(u, Atom("m0")), Receive(u, rest)), u)))
    if depth > 1:
        parts += [nested_run(rng, depth - 1, free, outer + holes, pi) for _ in range(rng.randrange(1, 3))]
    rng.shuffle(parts)
    p = compose_parallel(parts)
    for hole in reversed(holes):
        p = Restrict(abstract_channel(p, hole))
    return p


def normal_state(rng, kind):
    """A normal state of one of several shapes."""
    pi = rng.random() < 0.5
    gen = random_pi if pi else random_comm
    if kind == "nested":
        # runs in runs, next to sends and a receiver on the free channels
        free = [Name("a"), Name("b")]
        parts = [nested_run(rng, rng.randrange(2, 4), free, [], pi) for _ in range(rng.randrange(1, 3))]
        parts += [Send(rng.choice(free), Atom(rng.choice(["m0", "m1"]))) for _ in range(rng.randrange(0, 3))]
        if rng.random() < 0.5:
            parts.append(receiver(rng, rng.choice(free), free, pi))
        return normalize(compose_parallel(parts))
    if kind == "random":
        return normalize(gen(rng, rng.randrange(1, 4)))
    if kind == "composed":
        return normalize(compose_parallel([gen(rng, rng.randrange(0, 3)) for _ in range(rng.randrange(2, 6))]))
    if kind == "run":
        # 2-5 binders, so the run's binders are put in order by permutation
        core = hidden_run(rng, rng.randrange(2, 6), pi)
        return normalize(Parallel(core, gen(rng, 1)) if rng.random() < 0.5 else core)
    if kind == "crossing":
        # receives on a and b sort before the runs whose sends they meet,
        # so a τ's receive is often in the earlier slot
        parts = [hidden_run(rng, rng.randrange(1, 4), pi) for _ in range(rng.randrange(1, 3))]
        parts += [receiver(rng, rng.choice([Name("a"), Name("b")]), CHANNELS, pi) for _ in range(rng.randrange(1, 3))]
        return normalize(compose_parallel(parts))
    if kind == "duplicated":
        x, y = gen(rng, rng.randrange(0, 3)), gen(rng, 1)
        return normalize(compose_parallel([x, y, x] if rng.random() < 0.5 else [x, x, y, y]))
    # every step ends in 0: sends, and receives with an inert body
    chans = [Name("a"), Name("b"), ChanVar(0)]
    parts = [
        Send(rng.choice(chans), Atom(rng.choice(["m0", "m1"]))) if rng.random() < 0.5
        else Receive(rng.choice(chans), STOP)
        for _ in range(rng.randrange(1, 6))
    ]
    return normalize(Restrict(compose_parallel(parts)))


KINDS = ["random", "composed", "run", "crossing", "duplicated", "inert", "nested"]
KEEPS = {"all": None, "tau": lambda a: a is TAU, "observable": lambda a: _observable(a, frozenset({"a"}))}


def spine_entries():
    """The step-table entries of terms that are no leaf unit."""
    return [key for key, e in semantics._STEP_CACHE.items() if type(e.term) in (Parallel, Restrict)]


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(KINDS), st.integers(0, 10**6), st.sampled_from(list(KEEPS)))
def test_normalizing_reads_match_the_reference_row(kind, seed, keep):
    # the row read through the run tree from the leaf units equals the row
    # read from the state's own entry: the same steps, in the same order,
    # each with the same normalized target, duplicates and all
    p = normal_state(random.Random(seed), kind)
    universe = effective_universe(UNI, p)
    keep = KEEPS[keep]
    semantics._STEP_CACHE.clear()
    assert normalize(p) is p
    row = semantics.Moves(universe, keep=keep)[p]
    # no entry for the state or any run in it
    assert spine_entries() == []
    ref = reference_row(p, universe, keep)
    assert [a for a, _ in row] == [a for a, _ in ref]
    assert all(t is u for (_, t), (_, u) in zip(row, ref))
    # with the state's entry filled, the table reads through it
    assert semantics.Moves(universe, keep=keep)[p] == ref


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(KINDS), st.integers(0, 10**6), st.sampled_from(list(KEEPS)))
def test_the_action_grain_is_the_row_s_actions(kind, seed, keep):
    # read through the run tree with no target built and no entry above a
    # leaf, the action set is the set of the row's actions
    p = normal_state(random.Random(seed), kind)
    universe = effective_universe(UNI, p)
    moves = semantics.Moves(universe, keep=KEEPS[keep])
    semantics._STEP_CACHE.clear()
    actions = moves.actions(p)
    assert spine_entries() == []
    assert actions == {a for a, _ in moves[p]}
    # a state with an entry is read through the runs all the same, and
    # agrees with the entry's actions
    entry, keep = semantics._entry(p, universe), KEEPS[keep]
    assert semantics.Moves(universe, keep=keep).actions(p) == {a for a in entry.actions if keep is None or keep(a)}


@pytest.mark.parametrize("text", [
    "a!m0 | new u. (u!m1 | u ? x. (b!x | c!x))",
    "a!m0 | new u. (u!m1 | u ? x. 0)",
    "new s. (s!m0 | new u. (u!m1 | u ? x. (s!x | b!x)) | s ? y. c!y)",
    "new s. new t. (s!m0 | t!m1 | new u. (u!m0 | u ? x. (s!x | t!x)) | s ? y. t ? z. c!y)",
])
def test_a_run_whose_binders_fall_unused_dissolves_into_the_run_above(text):
    # the τ on u leaves the inner run with no use of its binder: its
    # components, two sends or none, join the slot list one level up
    p = normalize(parse(text))
    semantics._STEP_CACHE.clear()
    row = semantics.Moves(UNI)[p]
    assert spine_entries() == []
    ref = reference_row(p, UNI, None)
    assert [a for a, _ in row] == [a for a, _ in ref] and TAU in {a for a, _ in row}
    assert all(t is u for (_, t), (_, u) in zip(row, ref))


def test_a_200_deep_nest_of_runs_is_read_without_recursion():
    # new t1. (a!m0 | t1 => [b] | new t2. (t1!m0 | t2 => [b] | new t3. ...)),
    # 200 runs deep: each run's send meets the distributor one run out
    limit = sys.getrecursionlimit()
    p = STOP
    for d in reversed(range(200)):
        outer = Name("a") if d == 0 else ChanVar(1)
        body = [Send(outer, Atom("m0")), Distribute(ChanVar(0), (Name("b"),))]
        p = Restrict(compose_parallel(body + ([p] if p is not STOP else [])))
    p = normalize(p)
    semantics._STEP_CACHE.clear()
    row = semantics.Moves(UNI)[p]
    assert spine_entries() == []
    assert len(row) == 200 and sum(a is TAU for a, _ in row) == 199
    ref = reference_row(p, UNI, None)
    assert [a for a, _ in row] == [a for a, _ in ref]
    assert all(t is u for (_, t), (_, u) in zip(row, ref))
    assert sys.getrecursionlimit() == limit


# ---------------------------------------------------------------------------
# Closures
# ---------------------------------------------------------------------------


def test_tau_closure_collects_normalized_states():
    p = parse("a!m0 | a -> b")
    states = tau_closure(p, universe=UNI, bound=8)
    assert states == frozenset(
        {normalize(p), normalize(parse("b!m0 | a -> b"))}
    )


def test_tau_closure_exact_mode_raises_when_truncated():
    with pytest.raises(BoundExceeded):
        tau_closure(parse("a!m0 | dup a"), universe=UNI, bound=2, exact=True)


def reference_tau_reach(p, universe, bound):
    """`_tau_reach` as a level-by-level search: the levels up to `bound`
    (at least the start's), and whether the next level has a new state."""
    level = {normalize(p)}
    seen = set(level)
    for _ in range(bound):
        level = {normalize(t) for s in level for a, t in _step(s, universe) if a is TAU} - seen
        seen |= level
    beyond = {normalize(t) for s in level for a, t in _step(s, universe) if a is TAU} - seen
    return frozenset(seen), bool(beyond)


HOPS = 3
# a message relayed over HOPS hidden hops: one state per hop, at depth i
HIDDEN_CHAIN = "".join(f"new c{i}. " for i in range(HOPS + 1)) + "(c0!m0 | " + " | ".join(
    f"c{i} -> c{i + 1}" for i in range(HOPS)
) + ")"


@pytest.mark.parametrize("bound", range(-1, HOPS + 2))
def test_tau_reach_is_cut_exactly_at_the_bound(bound):
    chain, still = parse(HIDDEN_CHAIN), parse("a!m0 | b -> c")
    for p in (chain, still):
        assert _tau_reach(p, UNI, bound) == reference_tau_reach(p, UNI, bound)
    # a negative bound counts as 0: the start state, cut short when it
    # has an internal step
    states, truncated = _tau_reach(chain, UNI, bound)
    assert len(states) == min(max(bound, 0), HOPS) + 1
    assert truncated == (bound < HOPS)
    assert _tau_reach(still, UNI, bound) == (frozenset({normalize(still)}), False)


def test_weak_actions_include_padded_output():
    p = parse("a!m0 | a -> b")
    acts = sorted({pretty_action(t.action) for t in weak_transitions(p, universe=UNI)})
    # b!m0 is reachable only as (internal delivery, then fire)
    assert acts == ["a!m0", "a?m0", "a?m1", "b!m0", "tau"]


def test_weak_transitions_always_offer_the_empty_internal_move():
    acts = {t.action for t in weak_transitions(STOP, universe=UNI)}
    assert TAU in acts


def reference_weak_steps(p, universe, bound):
    """Weak steps straight from `_tau_reach`, remembering nothing."""
    pre, truncated = _tau_reach(p, universe, bound)
    out = {(TAU, s) for s in pre}
    for s in pre:
        for a, t in _step(s, universe):
            if not isinstance(a, Tau):
                post, cut = _tau_reach(t, universe, bound)
                truncated |= cut
                out |= {(a, u) for u in post}
    return frozenset(out), truncated


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([random_pi, random_comm]),
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=3),
)
def test_weak_closure_answers_as_uncached_weak_steps(gen, seed, depth, bound):
    p = gen(random.Random(seed), depth)
    u = effective_universe(UNI, p)
    closure = WeakClosure(u, bound)
    states, _ = reachable(normalize(p), lambda s: [normalize(t) for _, t in _step(s, u)], 12)
    for _ in range(2):  # the second pass reads the closures from memory
        for s in states:
            want = reference_weak_steps(s, u, bound)
            assert closure.weak_steps(s) == want
            assert WeakClosure(u, bound).weak_steps(s) == want
            assert closure.reach(s) == _tau_reach(s, u, bound)


# ---------------------------------------------------------------------------
# Syntactic unfolding
# ---------------------------------------------------------------------------


def test_unfold_shapes():
    assert unfold_comm(parse("a => []")) == RepeatReceive(Name("a"), STOP)
    assert unfold_comm(parse("a => [b]")) == RepeatReceive(
        Name("a"), Parallel(Send(Name("b"), ValVar(0)), STOP)
    )
    assert unfold_comm(parse("dup a")) == RepeatReceive(
        Name("a"),
        Parallel(Send(Name("a"), ValVar(0)), Parallel(Send(Name("a"), ValVar(0)), STOP)),
    )


def test_unfold_reaches_under_binders_and_composition():
    p = parse("new t. (a -> t | t -> b)")
    q = unfold_comm(p)
    assert infer_mode(q) is Mode.PI
    assert isinstance(q, Restrict)


def test_unfolding_preserves_transitions_up_to_normal_form():
    rng = random.Random(302)
    for _ in range(60):
        p = random_comm(rng, 3)
        uni = effective_universe(UNI, p)
        ext = {(t.action, normalize(unfold_comm(t.target))) for t in transitions(p, Mode.EXTENDED, uni)}
        pi = {(t.action, normalize(t.target)) for t in transitions(unfold_comm(p), Mode.PI, uni)}
        assert ext == pi


# ---------------------------------------------------------------------------
# Mode discipline and universes
# ---------------------------------------------------------------------------


def test_mixed_constructs_have_no_mode():
    with pytest.raises(ModeViolation):
        infer_mode(parse("a ? x. 0 | dup b"))
    assert infer_mode(parse("a ? x. 0")) is Mode.PI
    assert infer_mode(parse("dup b")) is Mode.EXTENDED
    assert infer_mode(STOP) is Mode.PI


def test_validate_mode_rejects_foreign_constructs():
    with pytest.raises(ModeViolation):
        validate_mode(parse("a ?* x. 0"), Mode.EXTENDED)
    with pytest.raises(ModeViolation):
        validate_mode(parse("a => [b]"), Mode.PI)
    with pytest.raises(ModeViolation):
        transitions(parse("a => [b]"), Mode.PI, UNI)


@pytest.mark.parametrize("index", [0, -1])
@pytest.mark.parametrize(
    "call",
    [
        lambda p: transitions(p),
        lambda p: tau_closure(p),
        lambda p: weak_transitions(p),
        lambda p: check_strong(p, STOP),
        lambda p: check_weak(STOP, p),
        lambda p: audit_witness(p, STOP, frozenset()),
        lambda p: replay_trace(STOP, p, ()),
        lambda p: explore(p),
        lambda p: simulate(p),
    ],
    ids=["transitions", "tau_closure", "weak_transitions", "check_strong", "check_weak", "audit_witness",
         "replay_trace", "explore", "simulate"],
)
def test_public_entry_points_refuse_open_terms(call, index):
    with pytest.raises(ScopeError):
        call(Send(ChanVar(index), Atom("m0")))


def test_step_relation_does_not_depend_on_the_mode():
    p = parse("new t. (a!m0 | t!m1) | b!m0")
    assert transitions(p, Mode.PI, UNI) == transitions(p, Mode.EXTENDED, UNI)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([random_pi, random_comm]),
    st.integers(min_value=0, max_value=60),
    st.integers(min_value=0, max_value=3),
    st.sampled_from([("m0",), ("m0", "m1"), ("m0", "m1", "m2")]),
)
def test_sorted_steps_follow_the_transition_order(gen, seed, depth, values):
    p = gen(random.Random(seed), depth)
    u = make_universe(*values)
    expected = [(t.action, t.target) for t in sorted_transitions(transitions(p, universe=u))]
    assert sorted(_step(p, u), key=step_order) == expected


def test_effective_universe_adds_mentioned_values():
    p = parse("a!m7 | a ? x. b!x")
    assert effective_universe(make_universe("m0"), p) == make_universe("m0", "m7")
    assert effective_universe(None, STOP) == make_universe("m0", "m1")


def test_receive_enumerates_extended_universe():
    p = parse("a ? x. b!x")
    uni = make_universe("m0", "m1", "m2")
    assert len(transitions(p, universe=uni)) == 3
