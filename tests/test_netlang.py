"""Network language: builders, elaboration, exploration, simulation."""

from __future__ import annotations

import dataclasses
import os
import random
import subprocess
import sys

import pytest

from netproc import (
    ArityError,
    Atom,
    DistinctnessError,
    ParseError,
    Distribute,
    Mode,
    ModeViolation,
    Name,
    NetprocError,
    NetworkSpec,
    Parallel,
    Restrict,
    ScopeError,
    SendAct,
    anycast3,
    bibridge,
    bridge,
    build,
    broadcast3_unreliable,
    distributor,
    duplicator,
    duploser,
    explore,
    free_channel_names,
    loser,
    parse,
    simulate,
)
import netproc
from netproc.netlang import TraceEvent, _eval_query, _inject, _parse_query, state_digest
from netproc.normalform import normalize
from netproc.semantics import TAU, Moves, _step, effective_universe, step_order
from helpers import count_fills

a, b, c, d = Name("a"), Name("b"), Name("c"), Name("d")


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def test_builders_produce_expected_terms():
    assert bridge(a, b) == Distribute(a, (b,))
    assert loser(a) == Distribute(a, ())
    assert duplicator(a) == Distribute(a, (a, a))
    assert distributor(a, b, c) == Distribute(a, (b, c))
    assert bibridge(a, b) == Parallel(Distribute(a, (b,)), Distribute(b, (a,)))
    assert duploser(a) == Parallel(Distribute(a, ()), Distribute(a, (a, a)))


def test_builders_match_surface_syntax():
    assert bridge(a, b) == parse("a -> b")
    assert bibridge(a, b) == parse("a <-> b")
    assert loser(a) == parse("lose a")
    assert duplicator(a) == parse("dup a")
    assert duploser(a) == parse("duplose a")


def test_build_dispatches_by_kind():
    assert build("bridge", a, b) == bridge(a, b)
    assert build("distribute", a, b, c, d) == Distribute(a, (b, c, d))
    assert build("loser", a) == loser(a)


def test_build_checks_arity():
    with pytest.raises(ArityError):
        build("bridge", a)
    with pytest.raises(ArityError):
        build("loser", a, b)
    with pytest.raises(ArityError):
        build("duplicator")
    with pytest.raises(ArityError):
        build("unknown-kind", a)


# ---------------------------------------------------------------------------
# Network specifications
# ---------------------------------------------------------------------------


def test_network_spec_elaborates_and_hides_locals():
    spec = NetworkSpec(
        free_channels=("a", "b"),
        local_channels=("t",),
        links=(bridge(a, Name("t")), bridge(Name("t"), b)),
    )
    p = spec.elaborate()
    assert isinstance(p, Restrict)
    assert p == parse("new t. (a -> t | t -> b)")


def test_network_spec_rejects_name_overlap():
    with pytest.raises(DistinctnessError):
        NetworkSpec(("a", "b"), ("a",), (bridge(a, b),)).elaborate()
    with pytest.raises(DistinctnessError):
        NetworkSpec(("a", "a"), (), (bridge(a, a),)).elaborate()


def test_network_spec_rejects_undeclared_channels():
    with pytest.raises(ScopeError):
        NetworkSpec(("a",), (), (bridge(a, b),)).elaborate()


def test_anycast_requires_distinct_endpoints():
    with pytest.raises(DistinctnessError):
        anycast3("s", "r1", "r1", "r3")


def test_anycast_shape():
    p = anycast3("s", "r1", "r2", "r3")
    assert p == parse("new t. (s -> t | t -> r1 | t -> r2 | t -> r3)")


def test_broadcast_shape():
    p = broadcast3_unreliable("s", "r1", "r2", "r3")
    assert p == parse("new t. (s -> t | duplose t | t -> r1 | t -> r2 | t -> r3)")


# ---------------------------------------------------------------------------
# Exploration
# ---------------------------------------------------------------------------


def test_anycast_delivers_to_exactly_one_receiver():
    report = explore(anycast3("s", "r1", "r2", "r3"), inputs=[("s", "m0")], max_depth=8)
    assert not report.partial
    assert report.complete_paths == 3
    profiles = set(report.delivery_profiles)
    assert profiles == {
        ((("r1", "m0"),)),
        ((("r2", "m0"),)),
        ((("r3", "m0"),)),
    } or profiles == {(("r1", "m0"),), (("r2", "m0"),), (("r3", "m0"),)}
    for profile in profiles:
        assert len(profile) == 1


def test_injected_ports_are_suppressed():
    report = explore(anycast3("s", "r1", "r2", "r3"), inputs=[("s", "m0")], max_depth=8)
    for profile in report.delivery_profiles:
        assert all(chan != "s" for chan, _ in profile)


def test_injected_text_is_stripped_and_must_be_identifiers():
    net = anycast3("s", "r1", "r2", "r3")
    plain = explore(net, inputs=[("s", "m0")], max_depth=8)
    padded = explore(net, inputs=[(" s", "m0 "), (Name("s"), Atom("m0"))], max_depth=8)
    assert padded.inputs == (("s", "m0"), ("s", "m0"))
    assert explore(net, inputs=[(" s ", "\tm0")], max_depth=8) == plain
    for bad in [("s", "m 0"), ("s", "new"), ("s", ""), ("s t", "m0"), ("dup", "m0")]:
        with pytest.raises(ParseError, match="expected an identifier"):
            explore(net, inputs=[bad], max_depth=8)
        with pytest.raises(ParseError, match="expected an identifier"):
            simulate(net, inputs=[bad], steps=3)


def test_an_injection_on_a_channel_the_network_lacks_is_refused():
    # a message on a channel of no component is delivered nowhere, and the
    # run would read as if nothing had been injected
    net = parse("a -> b")
    for inputs, col in (([("zz", "m0")], 1), ([(" zz ", "m0")], 2), ([("a", "m0"), (Name("zz"), "m1")], 1)):
        for run in (explore, simulate):
            with pytest.raises(ParseError, match="bad injected channel 'zz', expected a channel of the network") as err:
                run(net, inputs)
            assert (err.value.line, err.value.col) == (1, col)
    # a channel the network only sends on is one of its channels too
    assert explore(net, [("b", "m0")]).inputs == (("b", "m0"),)
    assert simulate(net, [("b", "m0")]) == ()


def test_broadcast_can_lose_everything_and_reach_everyone():
    report = explore(
        broadcast3_unreliable("s", "r1", "r2", "r3"),
        inputs=[("s", "m0")],
        max_depth=7,
        node_budget=40000,
    )
    assert () in report.delivery_profiles
    assert any(
        len({chan for chan, _ in profile}) >= 2 for profile in report.delivery_profiles
    )


def test_explore_queries_answer_reachability():
    net = anycast3("s", "r1", "r2", "r3")
    hit = explore(net, inputs=[("s", "m0")], max_depth=8, query="r2 >= 1")
    assert hit.query_satisfied
    assert hit.query_witness is not None
    assert all(event.digest for event in hit.query_witness)
    miss = explore(net, inputs=[("s", "m0")], max_depth=8, query="total >= 2")
    assert not miss.query_satisfied
    assert miss.query_witness is None


def test_query_conjunction_and_distinct():
    report = explore(
        broadcast3_unreliable("s", "r1", "r2", "r3"),
        inputs=[("s", "m0")],
        max_depth=7,
        node_budget=40000,
        query="distinct >= 2, total >= 2",
    )
    assert report.query_satisfied


def test_query_parse_errors():
    net = parse("a -> b")
    with pytest.raises(ParseError):
        explore(net, inputs=[("a", "m0")], query="r1 >> 3")
    with pytest.raises(ParseError):
        explore(net, inputs=[("a", "m0")], query="r1")
    # an empty query is not the absent query: it must not read as unsatisfied
    with pytest.raises(ParseError):
        _parse_query("", frozenset())
    with pytest.raises(ParseError):
        explore(net, inputs=[("a", "m0")], query="")


@pytest.mark.parametrize("query, col", [("r3 = 0", 1), ("r3 >= 1", 1), ("total >= 1,  r3 = 0", 14), ("b = 1, tota = 0", 8)])
def test_a_query_about_a_channel_the_network_does_not_have_is_refused(query, col):
    # it would read as satisfied (r3 = 0) or unsatisfied (a typo) with no
    # sign that the channel does not exist
    net = parse("s -> r1 | s -> r2 | a -> b")
    with pytest.raises(ParseError) as err:
        explore(net, inputs=[("s", "m0")], query=query)
    assert (err.value.line, err.value.col) == (1, col)
    # the injected network's free channels, the injected ones included
    for subject in ("s", "r1", "r2", "a", "b", "total", "distinct"):
        assert explore(net, inputs=[("s", "m0")], query=f"{subject} >= 0").query_satisfied


def test_divergence_is_detected_on_replicated_loops():
    report = explore(parse("a -> a"), inputs=[("a", "m0")], max_depth=6)
    assert report.divergent_paths >= 1
    assert report.complete_paths == 0


def test_truncation_marks_report_partial():
    report = explore(
        broadcast3_unreliable("s", "r1", "r2", "r3"),
        inputs=[("s", "m0")],
        max_depth=2,
    )
    assert report.partial


@pytest.mark.parametrize("max_depth", [-1, -5])
def test_a_negative_depth_bound_is_refused(max_depth):
    # the start would count as reached already and no path be walked, a
    # report that looks complete
    with pytest.raises(NetprocError, match=f"max_depth .*{max_depth}"):
        explore(anycast3(), [("s", "m0")], max_depth=max_depth)


def test_state_bound_cuts_the_census():
    report = explore(
        parse("new t. (s -> t | duplose t | t -> r1 | t -> r2)"),
        inputs=[("s", "m0")],
        max_states=6,
        max_depth=6,
    )
    assert report.states == 6
    assert report.state_bound_hit and report.partial


def ref_steps(state, universe, suppressed):
    """The steps a walk follows, in step order: internal moves and outputs
    on ports that were not injected on."""
    kept = [(a, t) for a, t in _step(state, universe) if a is TAU or (type(a) is SendAct and a.channel.text not in suppressed)]
    return sorted(kept, key=step_order)


def ref_walk(report, start, universe, suppressed, max_depth, node_budget, conds):
    """The recursive walk over (state, deliveries) configurations that
    `explore`'s loop replaced; fills the path counts of `report`."""
    budget = [node_budget]
    shallowest, completed = {}, set()

    def walk(state, depth, on_path, deliveries, trail):
        if budget[0] <= 0:
            report.budget_exhausted = True
            return
        budget[0] -= 1
        profile = tuple(sorted(deliveries))
        key = (state, profile)
        if key in on_path:
            report.divergent_paths += 1
            return
        if shallowest.get(key, max_depth + 1) <= depth:
            return
        shallowest[key] = depth
        steps = ref_steps(state, universe, suppressed)
        if not steps:
            if key not in completed:
                completed.add(key)
                report.complete_paths += 1
                report.delivery_profiles[profile] = report.delivery_profiles.get(profile, 0) + 1
                if conds is not None and report.query_witness is None and _eval_query(conds, deliveries):
                    report.query_satisfied = True
                    report.query_witness = tuple(TraceEvent(i, a, state_digest(s)) for i, (a, s) in enumerate(trail))
            return
        if depth >= max_depth:
            report.truncated_paths += 1
            return
        on_path.add(key)
        for action, target in steps:
            tn = normalize(target)
            fired = [(action.channel.text, action.payload.text)] if isinstance(action, SendAct) else []
            deliveries.extend(fired)
            trail.append((action, tn))
            walk(tn, depth + 1, on_path, deliveries, trail)
            trail.pop()
            for _ in fired:
                deliveries.pop()
            if report.budget_exhausted:
                break
        on_path.discard(key)

    walk(start, 0, set(), [], [])
    if conds is not None and report.query_satisfied is None:
        report.query_satisfied = False


@pytest.mark.parametrize("net", ["anycast", "lossy", "loop"])
@pytest.mark.parametrize("max_depth, node_budget", [(2, 20000), (5, 20000), (8, 20000), (8, 30), (7, 400)])
def test_walk_loop_matches_the_recursive_walk(net, max_depth, node_budget):
    # every count, every profile, the budget cut and the first witness
    term = {
        "anycast": anycast3(),
        "lossy": broadcast3_unreliable(),
        "loop": parse("new t. (s -> t | t -> t | t -> r1 | duplose t)"),
    }[net]
    query = "total >= 2" if net == "lossy" else "r1 >= 1"
    inputs = [("s", "m0"), ("s", "m1")]
    report = explore(term, inputs, max_depth=max_depth, node_budget=node_budget, query=query)
    ref = dataclasses.replace(
        report, complete_paths=0, truncated_paths=0, divergent_paths=0, budget_exhausted=False,
        delivery_profiles={}, query_satisfied=None, query_witness=None,
    )
    suppressed = frozenset(ch for ch, _ in report.inputs)
    conds = _parse_query(query, free_channel_names(report.start))
    ref_walk(ref, report.start, report.universe, suppressed, max_depth, node_budget, conds)
    assert report == ref
    assert list(report.delivery_profiles.items()) == list(ref.delivery_profiles.items())


@pytest.mark.parametrize("max_depth", [1, 3, 6])
def test_each_state_steps_once_and_the_frontier_is_only_tested(monkeypatch, max_depth):
    # the census and the walk share one table of moves; a state first met
    # at the depth bound is only asked whether it has a move
    term, inputs = broadcast3_unreliable(), [("s", "m0"), ("s", "m1")]
    # the states the census expands: those fewer than max_depth steps away
    expanded = explore(term, inputs, max_depth=max_depth - 1).states
    fills = count_fills(monkeypatch)
    report = explore(term, inputs, max_depth=max_depth)
    assert not report.state_bound_hit and report.truncated_paths > 0
    assert {table for table, _ in fills} == {0}
    assert max(fills.values()) == 1
    assert len(fills) == expanded


def test_a_run_longer_than_the_recursion_limit_is_walked():
    # a 200-hop chain at recursion limit 150: the walk goes 200 steps deep
    code = """
import sys
sys.setrecursionlimit(150)
from netproc import explore, parse
text = " | ".join(["s -> a0"] + [f"a{i} -> a{i + 1}" for i in range(199)])
r = explore(parse(text), [("s", "m0")], max_states=5000, max_depth=2000)
assert not r.partial and r.divergent_paths == 0
assert r.delivery_profiles == {((f"a{i}", "m0"),): 1 for i in range(200)}
print(r.states, r.complete_paths)
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(netproc.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.split() == ["202", "200"]


def test_importing_netproc_loads_no_hashlib_and_digests_are_unchanged():
    # hashlib loads OpenSSL, which only a state digest needs
    code = """
import sys
import netproc
from netproc.netlang import state_digest
print(sorted({"hashlib", "_hashlib"} & set(sys.modules)))
print(state_digest(netproc.parse("new t. (a -> t | t => [b, c] | a!m0)")))
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(netproc.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.split() == ["[]", "a96017ffcc98"]


@pytest.mark.parametrize(
    "term, mode",
    [("a ? x. b!x", Mode.EXTENDED), ("a => [b] | a!m0", Mode.PI), ("a ? x. b!x | a => [b]", None)],
)
def test_explore_and_simulate_check_the_language(term, mode):
    with pytest.raises(ModeViolation):
        explore(parse(term), mode=mode)
    with pytest.raises(ModeViolation):
        simulate(parse(term), mode=mode)


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------


def test_simulate_is_deterministic_per_seed():
    net = anycast3("s", "r1", "r2", "r3")
    first = simulate(net, inputs=[("s", "m0")], steps=16, seed=7)
    second = simulate(net, inputs=[("s", "m0")], steps=16, seed=7)
    assert [str(e) for e in first] == [str(e) for e in second]
    assert len(first) == 2


def test_simulate_seed_changes_schedule():
    net = anycast3("s", "r1", "r2", "r3")
    runs = {tuple(e.digest for e in simulate(net, [("s", "m0")], 16, seed)) for seed in range(12)}
    assert len(runs) > 1


def reference_simulate(p, inputs, steps, seed):
    """`simulate` read through a raw table: each state's τ-steps in
    `step_order` of their raw targets, and only the target picked
    normalized."""
    start, _, _ = _inject(p, inputs)
    universe = effective_universe(None, start)
    rng = random.Random(seed)
    state = normalize(start)
    moves = Moves(universe, raw=True, keep=lambda a: a is TAU)
    events = []
    for i in range(steps):
        taus = moves[state]
        if not taus:
            break
        state = normalize(taus[rng.randrange(len(taus))][1])
        events.append(TraceEvent(i, TAU, state_digest(state)))
    return tuple(events)


@pytest.mark.parametrize("net, inputs", [
    ("s => [r1] | s => [r2]", [("s", "m0"), ("s", "m1")]),
    ("new t. (s -> t | t -> r1 | t -> r2 | t -> r3)", [("s", "m0"), ("s", "m1"), ("s", "m0")]),
    ("new t. (s -> t | duplose t | t -> r1 | t -> r2 | t -> r3)", [("s", "m1")]),
    ("new s. (s!m0 | s!m1 | new t. (s -> t | t -> r1 | t -> r2))", []),
    ("new s. (s!m0 | s!m1 | new t. (s -> t | t => [r1, r2] | t -> r1))", []),
    ("new t. (a!m0 | a ? x. t!x | t ? y. (b!y | new u. (u!y | u ? z. c!z)))", []),
])
def test_simulate_picks_as_the_raw_row_does(net, inputs):
    # a normalizing row has the raw row's length and order, so a seeded
    # run picks the same steps and reaches the same states
    for seed in range(6):
        assert simulate(parse(net), inputs, 24, seed) == reference_simulate(parse(net), inputs, 24, seed)


def test_simulate_halts_when_no_internal_step_remains():
    trace = simulate(parse("a!m0"), inputs=[], steps=16, seed=0)
    assert trace == ()
