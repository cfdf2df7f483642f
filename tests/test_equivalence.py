"""Bisimilarity checking: proofs, refutations, audits, and reductions."""

from __future__ import annotations

import random
import sys
import time
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from netproc import (
    FULL_UPTO,
    PLAIN,
    Parallel,
    Restrict,
    STOP,
    ScopeError,
    TraceStep,
    Verdict,
    abstract_channel,
    audit_witness,
    cancel_context,
    check_strong,
    check_weak,
    normalize,
    parse,
    pretty,
    replay_trace,
    verify_witness,
)
from netproc import Atom, ChanVar, Distribute, Name, Receive, RepeatReceive, Send, Stop, equivalence, free_channel_names, fresh_channel_name, instantiate_channel, make_universe, terms
from netproc.equivalence import _Attacker, _BoundHit, _Prover, _canon, _fire, _reduce
from netproc.normalform import compose_parallel, parallel_components, term_key
from netproc.semantics import DEFAULT_UNIVERSE, TAU, Mode, Moves, WeakClosure, _step, effective_universe, step_order
from netproc.terms import children
from helpers import count_fills, random_comm, random_pi

# ---------------------------------------------------------------------------
# Pair reduction
# ---------------------------------------------------------------------------


def test_cancel_context_removes_equal_multiplicity_components():
    left = normalize(parse("(b!m0 | a ?* x. b!x) | a ?* x. b!x"))
    right = normalize(parse("b!m0 | a ?* x. b!x"))
    l, r = cancel_context(left, right)
    # only the payload cancels: the replicated receiver occurs twice on the
    # left and once on the right, and unequal counts must stay
    assert l == normalize(parse("a ?* x. b!x | a ?* x. b!x"))
    assert r == normalize(parse("a ?* x. b!x"))


def test_cancel_context_never_collapses_unequal_counts_to_nothing():
    l, r = cancel_context(normalize(parse("a -> b | a -> b")), normalize(parse("a -> b")))
    assert l == normalize(parse("a -> b | a -> b"))
    assert r == normalize(parse("a -> b"))


def test_cancel_context_strips_shared_restrictions():
    l, r = cancel_context(
        normalize(parse("new t. (t -> b | t -> b)")), normalize(parse("new t. t -> b"))
    )
    assert not isinstance(l, Restrict) and not isinstance(r, Restrict)
    assert pretty(l).count("=>") == 2 and pretty(r).count("=>") == 1


def test_cancel_context_on_identical_terms_yields_trivial_pair():
    p = normalize(parse("a!m0 | lose b"))
    assert cancel_context(p, p) == (STOP, STOP)


def fixpoint_reduce(l, r, upto):
    """Reference reduction: peel and cancel until a whole round changes
    nothing, as the one-pass `_reduce` must agree with."""
    if not upto:
        return l, r
    l, r = normalize(l), normalize(r)
    while True:
        before = (l, r)
        while isinstance(l, Restrict) and isinstance(r, Restrict):
            c = Name(fresh_channel_name(free_channel_names(l) | free_channel_names(r)))
            l = normalize(instantiate_channel(l.body, c))
            r = normalize(instantiate_channel(r.body, c))
        lc = [c for c in parallel_components(l) if not isinstance(c, Stop)]
        rc = [c for c in parallel_components(r) if not isinstance(c, Stop)]
        counts_l, counts_r = Counter(lc), Counter(rc)
        shared = {c for c, n in counts_l.items() if counts_r.get(c) == n}
        if shared:
            l = normalize(compose_parallel([c for c in lc if c not in shared]))
            r = normalize(compose_parallel([c for c in rc if c not in shared]))
        if (l, r) == before:
            return l, r


_CONFIGS = {"full": FULL_UPTO, "plain": PLAIN}


def _hide(p):
    return Restrict(abstract_channel(p, Name("a")))


_PAIR_SHAPES = {
    "fresh": lambda p, q, s: (p, q),
    "same": lambda p, q, s: (p, p),
    "context": lambda p, q, s: (Parallel(p, s), Parallel(s, q)),
    "hidden": lambda p, q, s: (_hide(p), _hide(q)),
    "hidden-same": lambda p, q, s: (_hide(Parallel(p, s)), _hide(Parallel(p, s))),
    # the leftovers of the first cancellation are both restrictions
    "hidden-in-context": lambda p, q, s: (Parallel(_hide(Parallel(p, s)), s), Parallel(s, _hide(Parallel(q, s)))),
}


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["pi", "comm"]),
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=0, max_value=3),
    st.sampled_from(sorted(_PAIR_SHAPES)),
    st.sampled_from(sorted(_CONFIGS)),
)
def test_one_pass_reduction_matches_the_fixpoint(kind, seed, depth, shape, config):
    rng = random.Random(seed)
    gen = random_pi if kind == "pi" else random_comm
    p, q, s = gen(rng, depth), gen(rng, depth), gen(rng, 1)
    l, r = _PAIR_SHAPES[shape](p, q, s)
    upto = _CONFIGS[config]
    assert _reduce(l, r, upto) == fixpoint_reduce(l, r, upto)


def test_cancellation_repeats_under_restrictions_left_by_a_cancellation():
    l, r = parse("(new t. (t!m0 | a!m0)) | b!m0"), parse("(new t. (t!m0 | a!m1)) | b!m0")
    assert isinstance(l, Parallel) and isinstance(r, Parallel)
    assert _reduce(l, r, FULL_UPTO) == (parse("a!m0"), parse("a!m1"))


@pytest.mark.parametrize("config", sorted(_CONFIGS))
def test_identical_sides_reduce_to_the_trivial_pair(config):
    upto = _CONFIGS[config]
    for text in ("a!m0 | lose b", "new t. (t!m0 | a ? x. t!x)", "b!m0 | 0", "new t. new u. (t!m0 | u!m1)"):
        p = parse(text)
        assert _reduce(p, p, upto) == fixpoint_reduce(p, p, upto)
        assert _reduce(p, p, upto) == ((STOP, STOP) if upto else (p, p))
    for p in (Parallel(STOP, STOP), Restrict(Parallel(STOP, STOP)), STOP):
        assert _reduce(p, p, upto) == fixpoint_reduce(p, p, upto)


# ---------------------------------------------------------------------------
# Strong verdicts
# ---------------------------------------------------------------------------


def test_reflexivity_is_free():
    rng = random.Random(501)
    for _ in range(50):
        p = random_comm(rng, 3)
        res = check_strong(p, p)
        assert res.verdict is Verdict.PROVEN
        assert res.pairs_explored == 0


def test_structural_rearrangements_are_proven_without_search():
    res = check_strong(parse("(a!m0 | b!m1) | lose c"), parse("lose c | (b!m1 | a!m0)"))
    assert res.verdict is Verdict.PROVEN
    assert res.witness == frozenset()


def test_idempotent_links_close_with_one_pair():
    for src in ("a -> b", "a <-> b", "lose a", "dup a", "duplose a", "a ?* x. b!x"):
        res = check_strong(parse(f"{src} | {src}"), parse(src))
        assert res.verdict is Verdict.PROVEN, src
        assert len(res.witness) == 1, src
        assert verify_witness(parse(f"{src} | {src}"), parse(src), res.witness, FULL_UPTO, weak=False)


def test_verdict_is_symmetric():
    rng = random.Random(502)
    for _ in range(30):
        p = random_comm(rng, 2)
        q = random_comm(rng, 2)
        a = check_strong(p, q, max_pairs=128)
        b = check_strong(q, p, max_pairs=128)
        assert a.verdict is b.verdict


def test_transitivity_across_proven_pairs():
    p, q, r = parse("a -> b | a -> b | a -> b"), parse("a -> b | a -> b"), parse("a -> b")
    assert check_strong(p, q).verdict is Verdict.PROVEN
    assert check_strong(q, r).verdict is Verdict.PROVEN
    assert check_strong(p, r).verdict is Verdict.PROVEN


def test_distinguishing_traces_replay():
    cases = [("a!m0", "b!m0"), ("a!m0", "a!m1"), ("a -> b", "a -> c"), ("a => [b]", "a => [b, a]")]
    for ls, rs in cases:
        l, r = parse(ls), parse(rs)
        res = check_strong(l, r)
        assert res.verdict is Verdict.DISTINGUISHED, (ls, rs)
        assert res.trace is not None
        assert replay_trace(l, r, res.trace, weak=False), (ls, rs)


def test_tampered_trace_fails_replay():
    l, r = parse("a -> b"), parse("a -> c")
    res = check_strong(l, r)
    trace = res.trace
    flipped = tuple(
        TraceStep("right" if s.side == "left" else "left", s.action, s.challenger_target, s.defender_target)
        for s in trace
    )
    assert not replay_trace(l, r, flipped, weak=False)
    assert not replay_trace(l, r, trace[:1], weak=False)
    # an empty play names no action the responder cannot answer
    assert not replay_trace(l, r, (), weak=False)
    # a step on neither side is a malformed play, not a crash
    middle = tuple(TraceStep("middle", s.action, s.challenger_target, s.defender_target) for s in trace)
    assert not replay_trace(l, r, middle, weak=False)


@pytest.mark.parametrize("ls, rs", [("a -> b | a -> c", "a => [b, c]"), ("a -> b", "a -> c")])
def test_a_play_with_a_reply_that_is_no_reply_fails_replay(ls, rs):
    # `c!m0` is no state the defender reaches by its first reply; in the
    # second pair the rest of the play would replay from it
    l, r = parse(ls), parse(rs)
    trace = check_strong(l, r).trace
    assert replay_trace(l, r, trace)
    first = TraceStep(trace[0].side, trace[0].action, trace[0].challenger_target, normalize(parse("c!m0")))
    assert not replay_trace(l, r, (first, *trace[1:]))


def test_the_audit_refuses_a_delivery_that_is_no_tau_step(monkeypatch):
    # the hidden relay's one consumer, given a forged row, delivers where
    # no τ-step of the run goes: that delivery, and so the witness, fails
    l, r = parse("new t. (a -> t | t -> b)"), parse("a -> b")
    res = check_weak(l, r)
    assert res.verdict is Verdict.PROVEN and len(res.witness) == 1
    assert audit_witness(l, r, res.witness, weak=True) is None
    sole, delivered, results = equivalence._sole_consumer, equivalence._delivered, []

    def forged(core, i):
        d = sole(core, i)
        return d and Distribute(d.source, (Name("c"),))

    def recorded(p, uni):
        results.append(delivered(p, uni))
        return results[-1]

    monkeypatch.setattr(equivalence, "_sole_consumer", forged)
    monkeypatch.setattr(equivalence, "_delivered", recorded)
    assert audit_witness(l, r, res.witness, weak=True) == next(iter(res.witness))
    assert None in results


def test_open_terms_are_rejected():
    from netproc import ChanVar, Send, Atom

    with pytest.raises(ScopeError):
        check_strong(Send(ChanVar(0), Atom("m0")), STOP)


# ---------------------------------------------------------------------------
# Proof-side reductions on and off
# ---------------------------------------------------------------------------


def test_plain_game_cannot_prove_idempotency():
    res = check_strong(parse("dup a | dup a"), parse("dup a"), PLAIN, max_pairs=16)
    assert res.verdict is Verdict.INCONCLUSIVE
    assert res.bound_hit == "max-pairs"


@pytest.mark.parametrize("weak", [False, True])
def test_a_pair_budget_past_the_largest_recursion_limit_is_accepted(monkeypatch, weak):
    # 8 * max_pairs + 500 no longer fits the C int setrecursionlimit takes:
    # the check raises the limit to that int's largest value, and puts the
    # old one back
    limit = sys.getrecursionlimit()
    set_limit, raised = sys.setrecursionlimit, []
    monkeypatch.setattr(sys, "setrecursionlimit", lambda n: (raised.append(n), set_limit(n)))
    l, r = parse("dup a | dup a"), parse("dup a")
    res = check_weak(l, r, max_pairs=10**9) if weak else check_strong(l, r, max_pairs=10**9)
    assert res.verdict is Verdict.PROVEN
    assert raised == [2**31 - 1, limit] and sys.getrecursionlimit() == limit
    # a budget the current limit covers leaves it alone
    raised.clear()
    assert check_strong(l, r, max_pairs=16).verdict is Verdict.PROVEN
    assert raised == [] and sys.getrecursionlimit() == limit


# ---------------------------------------------------------------------------
# Weak checking
# ---------------------------------------------------------------------------


def test_weak_proves_internal_prefix_inert():
    res = check_weak(parse("new t. (t!m0 | lose t)"), STOP)
    assert res.verdict is Verdict.PROVEN
    assert len(res.witness) <= 2


def test_weak_subsumes_strong_on_idempotency():
    res = check_weak(parse("a -> b | a -> b"), parse("a -> b"))
    assert res.verdict is Verdict.PROVEN


def test_weak_distinguishes_observable_difference():
    res = check_weak(parse("a!m0"), parse("b!m0"))
    assert res.verdict is Verdict.DISTINGUISHED
    assert replay_trace(parse("a!m0"), parse("b!m0"), res.trace, weak=True)


def test_hidden_buffer_family_is_proven_up_to_firing_and_bounded_without():
    # every input leaves one more pending message under the restriction;
    # firing its one consumer delivers it, so the up-to game closes at the
    # root, while the plain game's relation is infinite
    l, r = parse("new t. (a -> t | t -> b)"), parse("a -> b")
    res = check_weak(l, r, 6, 48)
    assert res.verdict is Verdict.PROVEN and res.prover_pairs == 1
    assert audit_witness(l, r, res.witness, FULL_UPTO, weak=True, tau_bound=6) is None
    res = check_weak(l, r, 6, 48, upto=PLAIN)
    assert res.verdict is Verdict.INCONCLUSIVE
    assert res.bound_hit == "max-pairs"


HIDDEN_RELAY = ("new t. (a -> t | t -> b)", "a -> b")


def test_weak_check_computes_each_internal_closure_once(monkeypatch):
    from netproc import semantics

    starts = Counter()
    compute = semantics._tau_reach

    def counting(p, universe, bound):
        starts[p] += 1
        return compute(p, universe, bound)

    monkeypatch.setattr(semantics, "_tau_reach", counting)
    res = check_weak(*map(parse, HIDDEN_RELAY), 4, 48, upto=PLAIN)
    assert res.bound_hit == "max-pairs"
    assert len(starts) > 100
    assert max(starts.values()) == 1


def _container_sizes(*modules) -> dict[str, int]:
    return {
        f"{m.__name__}.{name}": len(value)
        for m in modules
        for name, value in vars(m).items()
        if isinstance(value, (dict, list, set))
    }


def test_weak_check_leaves_no_module_state_behind():
    import gc

    from netproc import equivalence, semantics

    check_weak(*map(parse, HIDDEN_RELAY), 3, 16, upto=PLAIN)  # fill the step and normal-form caches
    before = _container_sizes(semantics, equivalence)
    res = check_weak(*map(parse, HIDDEN_RELAY), 4, 48, upto=PLAIN)
    assert res.verdict is Verdict.INCONCLUSIVE
    after = _container_sizes(semantics, equivalence)
    grown = {k for k in after if after[k] != before.get(k)} - {"netproc.semantics._STEP_CACHE"}
    assert grown == set()
    gc.collect()
    assert not [o for o in gc.get_objects() if isinstance(o, semantics.WeakClosure)]


def test_strong_game_builds_no_weak_closure(monkeypatch):
    built = []
    init = WeakClosure.__init__

    def counting(self, universe, bound):
        built.append(bound)
        init(self, universe, bound)

    monkeypatch.setattr(WeakClosure, "__init__", counting)
    l, r = parse("a -> b"), parse("a -> c")
    refuted = check_strong(l, r)
    assert refuted.verdict is Verdict.DISTINGUISHED and refuted.attacker_nodes > 0
    assert replay_trace(l, r, refuted.trace, weak=False)
    l, r = parse("dup a | dup a"), parse("dup a")
    assert audit_witness(l, r, check_strong(l, r).witness, weak=False) is None
    assert built == []
    check_weak(parse("a!m0"), parse("b!m0"), 3)
    assert built == [3]


def test_weak_proofs_withstand_plain_weak_attacker():
    # the weak game reuses context cancellation, which the strong-game
    # theory does not automatically license; cross-examine its verdicts
    pairs = [
        ("new t. (t!m0 | lose t)", "0"),
        ("a -> b | a -> b", "a -> b"),
        ("new t. (t!m0 | t ?* x. 0)", "0"),
        # proofs that fire confluent internal steps
        ("new t. (t!m0 | t -> b)", "b!m0"),
        ("new t. (a -> t | t -> b)", "a -> b"),
        ("new t. (a -> t | lose t)", "lose a"),
        ("new t. new u. (a -> t | t -> u | u -> b)", "a -> b"),
        ("new t. new u. (t!m0 | t -> u | u -> t)", "0"),
    ]
    for ls, rs in pairs:
        l, r = parse(ls), parse(rs)
        mode = Mode.PI if "?*" in ls else Mode.EXTENDED
        assert check_weak(l, r, mode=mode).verdict is Verdict.PROVEN, (ls, rs)
        attacker = _Attacker(DEFAULT_UNIVERSE, WeakClosure(DEFAULT_UNIVERSE, 6), 4000)
        try:
            trace = attacker.search(l, r, 4)
        except _BoundHit:
            continue
        assert trace is None or not replay_trace(l, r, trace, weak=True), (ls, rs)


def test_strong_proof_implies_weak_proof_spot_check():
    pairs = [
        ("a -> b | a -> b", "a -> b"),
        ("(a!m0 | b!m1) | 0", "b!m1 | a!m0"),
        ("duplose a | duplose a", "duplose a"),
    ]
    for ls, rs in pairs:
        assert check_strong(parse(ls), parse(rs)).verdict is Verdict.PROVEN
        assert check_weak(parse(ls), parse(rs)).verdict is Verdict.PROVEN


# ---------------------------------------------------------------------------
# Firing confluent internal steps in the weak game
# ---------------------------------------------------------------------------


def test_weak_reduction_delivers_pending_sends_to_their_one_consumer():
    relay = normalize(parse("new t. (a -> t | t -> b)"))
    pending = parse("new t. (t!m0 | t!m1 | a -> t | t -> b)")
    assert _fire(normalize(pending)) == normalize(parse("b!m0 | b!m1 | new t. (a -> t | t -> b)"))
    assert _reduce(pending, parse("b!m0 | b!m1 | a -> b"), FULL_UPTO, True) == (relay, normalize(parse("a -> b")))
    # a second binder of the run is fired in a second round
    two_hop = parse("new t. new u. (t!m0 | a -> t | t -> u | u -> b)")
    assert _fire(normalize(two_hop)) == normalize(parse("b!m0 | new t. new u. (a -> t | t -> u | u -> b)"))
    # a cycle stops after one round per binder
    cycle = normalize(parse("new t. new u. (t!m0 | t -> u | u -> t)"))
    assert _fire(cycle) in {cycle, normalize(parse("new t. new u. (u!m0 | t -> u | u -> t)"))}


# Pending sends the rule must leave alone: a second consumer, a consumer
# under a nested restriction (twice: the second also holds a pending send
# on the nested binder, so a consumer walk that looks for t's index without
# adding one under `new u` finds t -> b alone and fires it), a receive, a
# consumer under a receive prefix (these two mix the languages, which only
# a direct call can do), a row that sends twice into the run, and a pending
# send under a nested restriction
UNLICENSED = [
    "new t. (t!m0 | t -> b | t -> c)",
    "new t. (t!m0 | t -> b | new u. (t -> u | u -> c))",
    "new t. (t!m0 | t -> b | new u. (u!m1 | t -> u))",
    "new t. (t!m0 | t -> b | t ? x. c!x)",
    "new t. (t!m0 | t -> b | c ? y. t ? x. 0)",
    "new t. (t!m0 | t => [t, t])",
    "new t. new u. (t!m0 | t => [u, u] | u -> b)",
    "new t. (t -> b | new u. (t!m0 | u!m0))",
]


@pytest.mark.parametrize("text", UNLICENSED)
def test_unlicensed_pending_sends_stay_pending(text):
    p = normalize(parse(text))
    assert _fire(p) is p
    assert equivalence._delivered(p, DEFAULT_UNIVERSE) is p
    assert _reduce(p, STOP, FULL_UPTO, True) == (p, STOP)


def test_strong_and_plain_games_fire_nothing():
    pending = parse("new t. (t!m0 | t -> b)")
    assert _reduce(pending, parse("b!m0"), FULL_UPTO) == (normalize(pending), normalize(parse("b!m0")))
    assert _reduce(pending, parse("b!m0"), PLAIN, True) == (pending, parse("b!m0"))
    # the strong game sees the internal step
    res = check_strong(pending, parse("b!m0"))
    assert res.verdict is Verdict.DISTINGUISHED
    assert replay_trace(pending, parse("b!m0"), res.trace, weak=False)


def _hidden_run(rng, pending):
    """A closed run of one to three restrictions over a few distributors on
    its channels and random network-language context, with pending sends on
    its channels when `pending` is set."""
    holes = [Name(f"t{i}") for i in range(rng.randrange(1, 4))]
    scope = [Name("a"), Name("b")] + holes
    parts = [Send(rng.choice(holes), Atom(rng.choice(["m0", "m1"]))) for _ in range(rng.randrange(1, 4) if pending else 0)]
    for _ in range(rng.randrange(1, 4)):
        parts.append(Distribute(rng.choice(holes), [rng.choice(scope) for _ in range(rng.randrange(3))]))
    parts.append(random_comm(rng, 2, scope))
    rng.shuffle(parts)
    p = compose_parallel(parts)
    for hole in reversed(holes):
        p = Restrict(abstract_channel(p, hole))
    return p


def _hidden_buffer(rng):
    """One to three top-level runs, the first with pending sends and each
    other one with or without, in random order, beside random context."""
    runs = [_hidden_run(rng, i == 0 or rng.random() < 0.5) for i in range(rng.randrange(1, 4))]
    rng.shuffle(runs)
    return compose_parallel([*runs, random_comm(rng, 1)])


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_the_audit_rederives_each_firing(seed):
    p = _hidden_buffer(random.Random(seed))
    assert equivalence._delivered(p, DEFAULT_UNIVERSE) == _fire(normalize(p))


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_the_audit_delivers_as_the_named_derivation_does(seed):
    p = _hidden_buffer(random.Random(seed))
    assert equivalence._delivered(p, DEFAULT_UNIVERSE) == reference_delivered(p, DEFAULT_UNIVERSE)


@pytest.mark.parametrize("text", ["new t. (a -> t | t -> b)", "new t. (b!m0 | a -> t | t -> b)"])
def test_a_run_with_no_pending_send_on_its_binders_is_not_opened(monkeypatch, text):
    steps, maps = [], []
    step, walk = equivalence._steps, terms._map
    monkeypatch.setattr(equivalence, "_steps", lambda *args, **kw: steps.append(args) or step(*args, **kw))
    monkeypatch.setattr(terms, "_map", lambda *args, **kw: maps.append(args) or walk(*args, **kw))
    run = normalize(parse(text))
    assert equivalence._delivered(run, DEFAULT_UNIVERSE) is run
    assert steps == []
    # a pending send on the run's own binder is delivered, and checked by
    # one step of the run; no binder is opened or closed by a substitution
    pending = normalize(parse("new t. (t!m0 | a -> t | t -> b)"))
    assert equivalence._delivered(pending, DEFAULT_UNIVERSE) == normalize(parse("b!m0 | new t. (a -> t | t -> b)"))
    assert len(steps) == 1
    assert maps == []


def test_the_audit_delivers_each_normal_form_once(monkeypatch):
    l, r = parse("new t. (a -> t | t -> b)"), parse("a -> b")
    calls = Counter()
    deliver = equivalence._delivered

    def counting(p, uni):
        calls[p] += 1
        return deliver(p, uni)

    monkeypatch.setattr(equivalence, "_delivered", counting)
    for tau_bound in (2, 3, 8):
        res = check_weak(l, r, tau_bound)
        assert res.verdict is Verdict.PROVEN
        calls.clear()
        assert audit_witness(l, r, res.witness, FULL_UPTO, weak=True, tau_bound=tau_bound) is None
        assert len(calls) > 2 and max(calls.values()) == 1
        assert all(normalize(p) is p for p in calls)


def test_the_audit_does_not_trust_the_provers_firing(monkeypatch):
    # a prover that fires into the first of two consumers proves the hidden
    # anycast equal to one of its branches; the audit's own firing does not
    def every_distributor(core, parts, k):
        return sorted({x.source.index: (x.source.index, x.targets) for x in reversed(parts)
                       if isinstance(x, Distribute) and isinstance(x.source, ChanVar)}.values())

    l, r = parse("new t. (a -> t | t -> b | t -> c)"), parse("a -> b")
    monkeypatch.setattr(equivalence, "_licensed_rows", every_distributor)
    res = check_weak(l, r)
    assert res.verdict is Verdict.PROVEN
    assert audit_witness(l, r, res.witness, FULL_UPTO, weak=True) is not None
    monkeypatch.undo()
    res = check_weak(l, r)
    assert res.verdict is Verdict.DISTINGUISHED
    assert replay_trace(l, r, res.trace, weak=True)


def test_hidden_loops_answer_quickly():
    # the duplicating loop is not fired, so its buffer grows by one a pair
    start = time.perf_counter()
    res = check_weak(parse("new t. (t!m0 | t => [t, t])"), STOP, 4, 48)
    assert res.verdict is Verdict.INCONCLUSIVE and res.bound_hit == "max-pairs"
    cycle = parse("new t. new u. (t!m0 | t -> u | u -> t)")
    res = check_weak(cycle, STOP)
    assert res.verdict is Verdict.PROVEN
    assert audit_witness(cycle, STOP, res.witness, FULL_UPTO, weak=True) is None
    assert time.perf_counter() - start < 10


# ---------------------------------------------------------------------------
# Witness auditing
# ---------------------------------------------------------------------------


def test_witness_survives_independent_audit():
    l, r = parse("bibridge" and "a <-> b | a <-> b"), parse("a <-> b")
    res = check_strong(l, r)
    assert res.verdict is Verdict.PROVEN
    assert audit_witness(l, r, res.witness, FULL_UPTO, weak=False) is None


def test_empty_witness_fails_audit_when_root_is_not_trivial():
    l, r = parse("dup a | dup a"), parse("dup a")
    offender = audit_witness(l, r, frozenset(), FULL_UPTO, weak=False)
    assert offender is not None
    assert not verify_witness(l, r, frozenset(), FULL_UPTO, weak=False)


def test_foreign_pairs_in_witness_are_caught():
    l, r = parse("dup a | dup a"), parse("dup a")
    res = check_strong(l, r)
    bogus = res.witness | {(normalize(parse("a!m0")), normalize(parse("b!m0")))}
    assert audit_witness(l, r, bogus, FULL_UPTO, weak=False) is not None


class _Listed(frozenset):
    """A frozenset that iterates in the order it was given."""

    def __new__(cls, items):
        out = super().__new__(cls, items)
        out.order = list(items)
        return out

    def __iter__(self):
        return iter(self.order)


def test_audit_names_the_first_bad_pair_by_key_not_by_set_order():
    l, r = parse("dup a | dup a"), parse("dup a")
    good = sorted(check_strong(l, r).witness, key=lambda pair: tuple(map(term_key, pair)))
    small = (normalize(parse("a!m0")), normalize(parse("b!m0")))
    large = (normalize(parse("a!m1")), normalize(parse("c!m1")))
    assert term_key(small[0]) < term_key(large[0])
    for order in ([small, large], [large, small]):
        forged = _Listed([*order, *good])
        assert audit_witness(l, r, forged, FULL_UPTO, weak=False) == small


def _flipped(witness):
    return frozenset((v, u) for u, v in witness)


def test_a_flipped_witness_audits_as_the_witness():
    # each pair is played in both directions, so a pair and its flip are
    # one pair of the relation
    strong = parse("a -> b | a -> b"), parse("a -> b")
    res = check_strong(*strong)
    assert res.verdict is Verdict.PROVEN
    assert audit_witness(*strong, _flipped(res.witness)) is None
    relay = parse("new t. (a -> t | t -> b)"), parse("a -> b")
    res = check_weak(*relay)
    assert res.verdict is Verdict.PROVEN
    assert audit_witness(*relay, _flipped(res.witness), weak=True) is None
    # a flipped witness that is not closed is still refused, by the pair
    # the unflipped one is refused by
    l, r = parse("a!m0 | b!m1"), parse("b!m1 | a!m0")
    pairs = check_strong(l, r, PLAIN).witness
    assert len(pairs) == 3
    for dropped in pairs:
        holed = pairs - {dropped}
        assert audit_witness(l, r, holed, PLAIN) is not None
        assert audit_witness(l, r, _flipped(holed), PLAIN) == audit_witness(l, r, holed, PLAIN)


def reference_closed(parts, names):
    """The components under restrictions of `names`, the first outermost."""
    q = compose_parallel(parts)
    for n in reversed(names):
        q = Restrict(abstract_channel(q, n))
    return q


def reference_sole_consumer(body, n):
    """The one consumer of the name `n` in `body` when it is a distributor
    among the body's parallel components; None otherwise."""
    found, todo = [], [body]
    while todo:
        x = todo.pop()
        if (x.source if type(x) is Distribute else x.channel if type(x) in (Receive, RepeatReceive) else None) is n:
            found.append(x)
        todo += children(x)
    if len(found) == 1 and isinstance(found[0], Distribute) and found[0] in parallel_components(body):
        return found[0]
    return None


def reference_delivered(p, uni):
    """Reference `_delivered`: it opens every run with fresh names, and
    closes the run again to step from before each delivery."""
    p = normalize(p)
    taken = set(free_channel_names(p))
    out, fired = [], False
    for c in parallel_components(p):
        if type(c) is not Restrict:
            out.append(c)
            continue
        names, body = [], c
        while type(body) is Restrict:
            names.append(Name(fresh_channel_name(taken)))
            taken.add(names[-1].text)
            body = instantiate_channel(body.body, names[-1])
        parts = parallel_components(body)
        if not any(type(x) is Send and x.channel in names for x in parts):
            out.append(c)
            continue
        rows = []
        for n in reversed(names):
            d = reference_sole_consumer(body, n)
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
                    taus = {normalize(t) for a, t in _step(reference_closed(parts, names), uni) if a is TAU}
                    if normalize(reference_closed(after, names)) not in taus:
                        return None
                    parts, progress = after, True
            if not progress:
                break
            delivered = True
        if delivered:
            inside = {n.text for n in names}
            out += [x for x in parts if not free_channel_names(x) & inside]
            out.append(reference_closed([x for x in parts if free_channel_names(x) & inside], names))
            fired = True
        else:
            out.append(c)
    return normalize(compose_parallel(out)) if fired else p


def reference_audit(p, q, witness, upto, weak, tau_bound):
    """Reference `audit_witness`: it reads the full replies for every
    challenge and delivers both sides of every pair it covers."""
    uni = effective_universe(None, p, q)
    moves = Moves(uni, raw=True, closure=WeakClosure(uni, tau_bound) if weak else None)

    def covered(l, r):
        if weak and upto:
            l, r = reference_delivered(l, uni), reference_delivered(r, uni)
            if l is None or r is None:
                return False
        red = _reduce(l, r, upto)
        return red[0] == red[1] or _canon(red) in witness

    if not covered(p, q):
        return (p, q)
    for u, v in sorted(witness, key=lambda pair: (term_key(pair[0]), term_key(pair[1]))):
        for forward in (True, False):
            chal, resp = (u, v) if forward else (v, u)
            replies = moves.replies(resp)[0]
            for a, t in moves[chal]:
                if not any(covered(*((t, d) if forward else (d, t))) for d in replies.get(a, ())):
                    return (u, v)
    return None


def _weak_pair(kind, seed, depth, shape):
    """`_random_pair`, and for kind "hidden" a `_hidden_buffer` against
    another, against its fired form in place of itself doubled (which keeps
    the check slow), or beside random context."""
    if kind != "hidden":
        return _random_pair(kind, seed, depth, shape)
    rng = random.Random(seed)
    l = _hidden_buffer(rng)
    r = {"fresh": lambda: _hidden_buffer(rng), "doubled": lambda: _fire(normalize(l)),
         "extended": lambda: Parallel(l, random_comm(rng, 1))}[shape]()
    return l, r


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(["pi", "comm", "hidden"]),
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=3),
    st.sampled_from(["fresh", "doubled", "extended"]),
    st.sampled_from([FULL_UPTO, PLAIN]),
    st.sampled_from([0, 1, 4]),
)
def test_the_audit_answers_as_the_full_check(kind, seed, depth, shape, upto, tau_bound):
    # delivering each normal form once, opening only runs with a pending
    # send and trying unpadded replies first skip only work whose answer is
    # known: the audit returns what the full check returns, on the check's
    # own witness and on forged ones, at each τ bound.  A hidden buffer's
    # weak closure at bound 4 can take a minute to build, as a row such as
    # `t => [t, t]` doubles its buffer on each internal step, so hidden
    # buffers are checked and audited at bounds 0 and 1 only.
    l, r = _weak_pair(kind, seed, depth, shape)
    bounds = (0, 1) if kind == "hidden" else (0, 1, 4)
    res = check_weak(l, r, min(tau_bound, bounds[-1]), 24, upto=upto, max_trace_depth=3, node_budget=300)
    witnesses = [frozenset({_canon(_reduce(l, r, upto, True))})]
    if res.verdict is Verdict.PROVEN and res.witness:
        pairs = sorted(res.witness, key=lambda pair: tuple(map(term_key, pair)))
        foreign = (normalize(parse("a!m0")), normalize(parse("b!m0")))
        witnesses += [res.witness, res.witness - {random.Random(seed).choice(pairs)}, res.witness | {foreign},
                      _Listed(pairs), _Listed(pairs[::-1])]
    for witness in witnesses:
        for bound in bounds:
            expected = reference_audit(l, r, witness, upto, True, bound)
            assert audit_witness(l, r, witness, upto, weak=True, tau_bound=bound) == expected


def _weak_closure_builds(monkeypatch) -> list:
    built = []
    weak_steps = WeakClosure.weak_steps
    monkeypatch.setattr(WeakClosure, "weak_steps", lambda self, p: built.append(p) or weak_steps(self, p))
    return built


def test_a_tau_challenge_answered_only_by_a_tau_step_needs_bound_one(monkeypatch):
    # an internal choice against the same choice listed in another order:
    # each branch is answered only by the responder's own τ-step to it, as
    # the responder itself, the zero-step reply, can still take the other
    l = parse("new t. (t!m0 | t?x. a!x | t?y. b!y)")
    r = parse("new t. (t?y. b!y | t?x. a!x | t!m0)")
    res = check_weak(l, r, 1, upto=PLAIN)
    assert res.verdict is Verdict.PROVEN
    built = _weak_closure_builds(monkeypatch)
    assert audit_witness(l, r, res.witness, PLAIN, weak=True, tau_bound=1) is None
    assert built == []
    assert audit_witness(l, r, res.witness, PLAIN, weak=True, tau_bound=0) == (l, r)


def test_a_tau_challenge_answered_by_not_moving_builds_no_closure(monkeypatch):
    # the hidden exchange's τ-step is answered by `0` staying put
    l, r = parse("new t. (t!m0 | t?x. 0)"), STOP
    res = check_weak(l, r, 0, upto=PLAIN)
    assert res.verdict is Verdict.PROVEN
    built = _weak_closure_builds(monkeypatch)
    assert audit_witness(l, r, res.witness, PLAIN, weak=True, tau_bound=0) is None
    assert built == []


def test_a_challenge_only_a_padded_reply_answers_reads_the_weak_closure(monkeypatch):
    # the output of `a!m0` is answered only after the relay's τ-step
    l, r = parse("new t. (t!m0 | t?x. a!x)"), parse("a!m0")
    res = check_weak(l, r, 1, upto=PLAIN)
    assert res.verdict is Verdict.PROVEN
    built = _weak_closure_builds(monkeypatch)
    assert audit_witness(l, r, res.witness, PLAIN, weak=True, tau_bound=1) is None
    assert normalize(l) in built


def test_restriction_composition_of_proven_pair_stays_proven():
    base_l, base_r = parse("dup a | dup a"), parse("dup a")
    wrapped_l = Restrict(abstract_channel(base_l, Name("a")))
    wrapped_r = Restrict(abstract_channel(base_r, Name("a")))
    assert check_strong(wrapped_l, wrapped_r).verdict is Verdict.PROVEN


# ---------------------------------------------------------------------------
# Proof search: reply order
# ---------------------------------------------------------------------------


def ranked_match(self, chal_target, options, forward):
    """Reference `_match`: reduces every reply, then tries them known
    first, each group in term_key order."""
    ranked = []
    for opt in options:
        red = equivalence._reduce(*((chal_target, opt) if forward else (opt, chal_target)), self.upto, self.weak)
        known = red[0] == red[1] or _canon(red) in self.assumed
        ranked.append(((0 if known else 1, term_key(opt)), red))
    ranked.sort(key=lambda entry: entry[0])
    return any(self.close(red) for _, red in ranked)


def _outcome(res):
    return res.verdict, res.witness, res.trace, res.pairs_explored, res.prover_pairs, res.bound_hit


_GENERATORS = {"pi": random_pi, "comm": random_comm}


def _random_pair(kind, seed, depth, shape):
    # a fresh right side is mostly told apart at once; a doubled or extended
    # left side keeps the game going for several rounds
    rng = random.Random(seed)
    gen = _GENERATORS[kind]
    l = gen(rng, depth)
    r = {"fresh": lambda: gen(rng, depth), "doubled": lambda: Parallel(l, l),
         "extended": lambda: Parallel(l, gen(rng, 1))}[shape]()
    return l, r


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["pi", "comm"]),
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=3),
    st.sampled_from(["fresh", "doubled", "extended"]),
    st.booleans(),
)
def test_first_known_reply_proves_like_the_ranked_sort(kind, seed, depth, shape, weak):
    l, r = _random_pair(kind, seed, depth, shape)

    def run():
        if weak:
            return check_weak(l, r, 2, 24, max_trace_depth=3, node_budget=300)
        return check_strong(l, r, FULL_UPTO, 24, max_trace_depth=3, node_budget=300)

    got = _outcome(run())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Prover, "_match", ranked_match)
        assert got == _outcome(run())


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["pi", "comm"]),
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=3),
    st.sampled_from(["fresh", "doubled", "extended"]),
    st.sampled_from([FULL_UPTO, PLAIN]),
    st.sampled_from([0, 2, 4]),
)
def test_the_weak_pre_pass_changes_no_outcome(kind, seed, depth, shape, upto, tau_bound):
    # replies with no internal padding are weak replies too, and a known one
    # closes a goal with no side effect: closing a pair on them alone must
    # leave every verdict, witness, trace and count as the full search does
    l, r = _random_pair(kind, seed, depth, shape)

    def run():
        return _outcome(check_weak(l, r, tau_bound, 24, upto=upto, max_trace_depth=3, node_budget=300))

    got = run()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Prover, "_closes_unpadded", lambda self, u, v: False)
        assert got == run()


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(sorted(_GENERATORS)),
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=3),
    st.sampled_from([0, 1, 2]),
)
def test_the_unpadded_replies_are_weak_replies(kind, seed, depth, tau_bound):
    p = _GENERATORS[kind](random.Random(seed), depth)
    moves = Moves(DEFAULT_UNIVERSE, raw=True, closure=WeakClosure(DEFAULT_UNIVERSE, tau_bound))
    weak = moves.replies(p)[0]
    unpadded = moves.unpadded(p)
    assert normalize(p) in unpadded[TAU]
    for a, targets in unpadded.items():
        assert set(targets) <= set(weak[a])


def test_a_known_reply_is_taken_before_an_earlier_unknown_one():
    # a prover with no pair budget left: opening any pair raises
    prover = _Prover(DEFAULT_UNIVERSE, FULL_UPTO, 0, None)
    chal = parse("a!m0")
    unknown, known = parse("a!m1"), parse("b!m0")
    assert term_key(unknown) < term_key(known)
    prover.assumed.add(_canon(_reduce(chal, known, FULL_UPTO)))
    assert prover._match(chal, [unknown, known], True)
    assert prover.explored == 0 and not prover.trail


def test_first_known_reply_saves_reductions(monkeypatch):
    calls = []
    reduce = equivalence._reduce

    def counting(l, r, upto, weak=False):
        calls.append((l, r))
        return reduce(l, r, upto, weak)

    monkeypatch.setattr(equivalence, "_reduce", counting)
    # the weak pre-pass closes this pair with no `_match`: measure `_match`
    monkeypatch.setattr(_Prover, "_closes_unpadded", lambda self, u, v: False)
    pair = parse("c => [c, c] | c => [c, c]"), parse("c => [c, c]")
    universe = make_universe("m0", "m1", "m2", "m3")
    first_known = check_weak(*pair, 6, universe=universe)
    fewer = len(calls)
    calls.clear()
    monkeypatch.setattr(_Prover, "_match", ranked_match)
    ranked = check_weak(*pair, 6, universe=universe)
    assert first_known.verdict is Verdict.PROVEN
    assert _outcome(first_known) == _outcome(ranked)
    assert fewer < len(calls)


# ---------------------------------------------------------------------------
# Refutation search: the attacker's move table
# ---------------------------------------------------------------------------


class _FilteringAttacker(_Attacker):
    """Reference attacker: sorts and normalizes the challenger's steps at
    every node and filters the responder's steps on every reply lookup,
    with no table; it keeps its own universe and closure.  Like the
    attacker, it does not expand an identical pair in the strong game."""

    def __init__(self, universe, closure, node_budget, normalize_states=True):
        super().__init__(universe, closure, node_budget, normalize_states)
        self.universe, self.closure, self.normalize_states = universe, closure, normalize_states

    def _norm(self, p):
        return normalize(p) if self.normalize_states else p

    def _answered_last(self, p, a):
        """Whether `p` answers `a` in the last ply.  In the weak game τ and
        `p`'s own actions need no closure, and any other action is looked
        for in the actions of `p`'s τ-closure, whose cut taints only when
        it leaves `a` unanswered."""
        if self.closure is None:
            return bool(self._replies(p, a))
        if a == TAU or any(sa == a for sa, _ in _step(p, self.universe)):
            return True
        pre, cut = self.closure.reach(p)
        if any(sa == a for s in pre for sa, _ in _step(s, self.universe)):
            return True
        self.tainted |= cut
        return False

    def _replies(self, p, a):
        if self.closure is not None:
            steps, truncated = self.closure.weak_steps(p)
            self.tainted |= truncated
            opts = [t for sa, t in steps if sa == a]
        else:
            opts = [self._norm(t) for sa, t in _step(p, self.universe) if sa == a]
        return sorted(set(opts), key=term_key)

    def _attack(self, l, r, depth):
        if depth == 0 or (l is r and self.closure is None):
            return None
        key = (l, r, depth)
        if key in self.memo:
            return self.memo[key]
        self.nodes += 1
        if self.nodes > self.budget:
            raise _BoundHit("node-budget")
        result = None
        for side, chal, resp in (("left", l, r), ("right", r, l)):
            for a, t in sorted(_step(chal, self.universe), key=step_order):
                tn = self._norm(t)
                if depth == 1:
                    if not self._answered_last(resp, a):
                        result = (TraceStep(side, a, tn, None),)
                        break
                    continue
                replies = self._replies(resp, a)
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


def _closure(weak, tau_bound):
    return WeakClosure(DEFAULT_UNIVERSE, tau_bound) if weak else None


def _play(cls, l, r, weak, tau_bound, normalize, max_depth, budget=300):
    attacker = cls(DEFAULT_UNIVERSE, _closure(weak, tau_bound), budget, normalize_states=normalize)
    try:
        trace, hit = attacker.search(l, r, max_depth), None
    except _BoundHit as exc:
        trace, hit = None, exc.what
    return attacker, (trace, hit, attacker.nodes, attacker.tainted)


def _assert_table_matches_filtering(attacker):
    table = attacker.moves
    for p, moves in table.items():
        assert moves == [(a, t if table.raw else normalize(t)) for a, t in sorted(_step(p, DEFAULT_UNIVERSE), key=step_order)]
    closure = table.closure
    fresh = None if closure is None else WeakClosure(DEFAULT_UNIVERSE, closure.bound)
    reference = _FilteringAttacker(DEFAULT_UNIVERSE, fresh, 0, normalize_states=not table.raw)
    for p, (by_action, truncated) in table._replies.items():
        steps = closure.weak_steps(p) if closure is not None else (_step(p, DEFAULT_UNIVERSE), False)
        assert truncated == steps[1]
        assert set(by_action) == {a for a, _ in steps[0]}
        for a, replies in by_action.items():
            assert replies == reference._replies(p, a)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(sorted(_GENERATORS)),
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=3),
    st.sampled_from(["fresh", "doubled", "extended"]),
    st.sampled_from([(False, 0), (True, 2), (True, 3)]),
    st.booleans(),
    st.integers(min_value=1, max_value=4),
)
# a state whose steps on one action sort differently once normalized
@example("comm", 1805, 1, "extended", (False, 0), True, 1)
# the left side has nine actions the right one lacks; the trace must name
# the least, tau, which set order need not put first
@example("comm", 1846, 3, "fresh", (False, 0), True, 1)
# a weak game one round deep, `b!m0` against `a => [a, b]`, whose trace is
# untainted: the responder's closure after its visible step is cut, but the
# last ply reads only the whole closure before it (the trace was tainted
# while the last ply read every weak step)
@example("comm", 20, 1, "fresh", (True, 2), True, 1)
def test_move_table_plays_like_per_call_filtering(kind, seed, depth, shape, game, normalize, max_depth):
    l, r = _random_pair(kind, seed, depth, shape)
    weak, tau_bound = game
    attacker, outcome = _play(_Attacker, l, r, weak, tau_bound, normalize, max_depth)
    _, expected = _play(_FilteringAttacker, l, r, weak, tau_bound, normalize, max_depth)
    assert outcome == expected
    _assert_table_matches_filtering(attacker)


def reference_attack(self, l, r, depth):
    """`_Attacker._attack` with no identical-pair cut: every pair is
    expanded and counted, in either game."""
    key = (l, r, depth)
    if key in self.memo:
        return self.memo[key]
    self.nodes += 1
    if self.nodes > self.budget:
        raise _BoundHit("node-budget")
    if depth == 1:
        self.memo[key] = self._last_ply(l, r)
        return self.memo[key]
    result = None
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


class _UncutAttacker(_Attacker):
    _attack = reference_attack


def _replays_normalized(l, r, trace):
    # a raw table's play names raw targets; the replay reads normal forms
    norm = [TraceStep(s.side, s.action, normalize(s.challenger_target),
                      s.defender_target and normalize(s.defender_target)) for s in trace]
    return replay_trace(l, r, tuple(norm))


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(sorted(_GENERATORS)),
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=3),
    st.sampled_from(["fresh", "doubled", "extended"]),
    st.booleans(),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=3, max_value=60),
    st.sampled_from([2, 3]),
)
# the uncut search runs out of its 3 nodes; the cut one finds no refutation
@example("comm", 2250, 1, "extended", True, 3, 3, 3)
def test_the_identical_pair_cut_loses_no_refutation(kind, seed, depth, shape, normalize_states, max_depth, budget, tau_bound):
    l, r = _random_pair(kind, seed, depth, shape)
    args = (l, r, False, 0, normalize_states, max_depth)
    # with room to finish, the strong game answers as before
    trace, hit, _, _ = _play(_Attacker, *args, budget=2000)[1]
    assert (trace, hit) == _play(_UncutAttacker, *args, budget=2000)[1][:2]
    # on a small budget the cut only saves nodes
    trace, hit, _, _ = _play(_Attacker, *args, budget=budget)[1]
    ref_trace, ref_hit, _, _ = _play(_UncutAttacker, *args, budget=budget)[1]
    if ref_hit is None:
        assert (trace, hit) == (ref_trace, ref_hit)
    if hit is not None:
        assert hit == ref_hit == "node-budget"
    if trace is not None and ref_trace is None:
        assert _replays_normalized(l, r, trace)
    # the weak game expands identical pairs as before
    weak = (l, r, True, tau_bound, normalize_states, max_depth)
    assert _play(_Attacker, *weak, budget=budget)[1] == _play(_UncutAttacker, *weak, budget=budget)[1]


def test_the_weak_game_expands_an_identical_pair():
    # both sides normalize to one state, whose cut τ-closure taints the play
    l, r = parse("c => [a] | c!m1"), parse("(c => [a] | c!m1) | 0")
    res = check_weak(l, r, 0, 8, upto=PLAIN)
    assert res.verdict is Verdict.INCONCLUSIVE and res.bound_hit == "tau-bound"
    assert res.attacker_nodes > 0


def test_a_raw_table_compares_the_states_as_played():
    l, r = parse("a!m0 | b!m0"), parse("b!m0 | a!m0")
    raw = _play(_Attacker, l, r, False, 0, False, 3)[1]
    normalized = _play(_Attacker, l, r, False, 0, True, 3)[1]
    assert raw[:2] == normalized[:2] == (None, None)
    assert raw[2] > 0 and normalized[2] == 0
    res = check_strong(parse("a -> b | c!m0"), parse("c!m0 | a -> b"), PLAIN, max_pairs=16)
    assert (res.bound_hit, res.prover_pairs, res.attacker_nodes) == ("max-pairs", 16, 0)


@pytest.mark.parametrize("weak", [False, True])
def test_move_table_builds_each_states_moves_once(monkeypatch, weak):
    fills = count_fills(monkeypatch)
    l, r = parse("dup a | dup a"), parse("dup a")
    # normalized states, then raw ones, which grow faster, one round less in
    # the weak game; the last round fills no row, so raw states play as deep
    # as the game allows to fill more than 10 (12 weak, 56 strong)
    for normalize_states, depth in ((True, 4), (False, 3 if weak else 4)):
        fills.clear()
        _, (trace, hit, nodes, _) = _play(_Attacker, l, r, weak, 2, normalize_states, depth, budget=2000)
        assert trace is None and hit is None and nodes > 30
        assert len({table for table, _ in fills}) == 1
        assert len(fills) > 10
        assert max(fills.values()) == 1


@pytest.mark.parametrize("weak", [False, True])
def test_the_strong_last_round_fills_no_row(monkeypatch, weak):
    # at depth 1 both games compare action sets, so a state met only there
    # is never filled
    l, r = parse("dup a | dup a"), parse("dup a")
    fills = count_fills(monkeypatch)
    attacker, (trace, hit, _, _) = _play(_Attacker, l, r, weak, 2, True, 3)
    assert trace is None and hit is None
    met: dict = {}
    for x, y, depth in attacker.memo:
        for s in (x, y):
            met.setdefault(s, set()).add(depth)
    last_only = {s for s, depths in met.items() if depths == {1}}
    filled = {p for _, p in fills}
    assert len(last_only) > 3 and filled
    assert not last_only & filled


def test_replies_are_distinct_after_normalization():
    # both receives leave `a?x.b!x | b!m0` once normalized
    p = normalize(parse("a?x.(0 | b!x) | a?y.(b!y | 0)"))
    attacker = _Attacker(DEFAULT_UNIVERSE, None, 10)
    receive = next(a for a, _ in sorted(_step(p, DEFAULT_UNIVERSE), key=step_order))
    assert attacker._replies(p)[receive] == [normalize(parse("a?x.b!x | b!m0"))]


def test_every_reply_lookup_reports_truncation():
    p = parse("dup a | a!m0")
    attacker = _Attacker(DEFAULT_UNIVERSE, WeakClosure(DEFAULT_UNIVERSE, 1), 10)
    assert attacker.moves.closure.weak_steps(p)[1]
    attacker._replies(p)
    assert attacker.tainted
    attacker.tainted = False
    attacker._replies(p)  # served from the table
    assert attacker.tainted


def test_the_last_ply_looks_up_no_reply_to_a_side_with_no_action():
    # the inert left side challenges with nothing, so the right side's
    # truncated replies are never looked up, and the play is untainted
    p = parse("dup a | a!m0")
    assert WeakClosure(DEFAULT_UNIVERSE, 1).weak_steps(normalize(p))[1]
    outcome = _play(_Attacker, STOP, p, True, 1, True, 1)[1]
    assert outcome == _play(_FilteringAttacker, STOP, p, True, 1, True, 1)[1]
    trace, hit, nodes, tainted = outcome
    assert trace is not None and trace[0].side == "right" and not tainted


def test_a_last_ply_answered_strongly_builds_no_closure(monkeypatch):
    # every action of each side is one the other side has itself
    reads = []
    reach = WeakClosure.reach

    def counting(self, p):
        reads.append(p)
        return reach(self, p)

    monkeypatch.setattr(WeakClosure, "reach", counting)
    l, r = parse("dup a | dup a"), parse("dup a")
    attacker = _Attacker(DEFAULT_UNIVERSE, WeakClosure(DEFAULT_UNIVERSE, 2), 10)
    assert attacker.search(l, r, 1) is None
    assert attacker.nodes == 1 and not attacker.tainted
    assert reads == []


def test_the_weak_duplicator_check_stays_within_its_closure_count(monkeypatch):
    # each visible step of `dup a | dup a` lengthens its buffer, so every
    # closure built for a last ply starts over a bigger term: the whole
    # weak step set of each responder took 5,282 searches at this budget,
    # the τ-closure before the visible step, read only for actions not
    # answered strongly, takes 443
    from netproc import semantics

    searches = []
    tau_reach = semantics._tau_reach

    def counting(p, universe, bound):
        searches.append(p)
        return tau_reach(p, universe, bound)

    monkeypatch.setattr(semantics, "_tau_reach", counting)
    res = check_weak(parse("dup a | dup a"), parse("dup a"), 8, 4, upto=PLAIN, node_budget=20)
    assert res.verdict is Verdict.INCONCLUSIVE and res.attacker_nodes == 21
    assert len(searches) < 1000


@pytest.mark.parametrize("right, tau_bound, tainted", [
    # c!m0 lies two internal steps away: the closure cut at bound 1 could
    # hold the reply that the last ply finds missing
    ("new t. new u. (t!m0 | t -> u | u -> c)", 1, True),
    # a hidden buffer grows without end, but the reply is found in reach
    ("new t. (t!m0 | t -> c) | new s. (s!m0 | s => [s, s])", 1, False),
])
def test_a_cut_closure_taints_the_last_ply_only_when_a_reply_is_missing(right, tau_bound, tainted):
    l, r = parse("c!m0"), parse(right)
    assert WeakClosure(DEFAULT_UNIVERSE, tau_bound).reach(normalize(r))[1]
    outcome = _play(_Attacker, l, r, True, tau_bound, True, 1)[1]
    assert outcome == _play(_FilteringAttacker, l, r, True, tau_bound, True, 1)[1]
    trace, hit, nodes, taint = outcome
    assert (trace is not None, taint) == (tainted, tainted)


@pytest.mark.parametrize("left, right, tau_bound, bisimilar", [
    # the responder's closure after its visible step is cut, and the one
    # before it is whole: no weak reply answers the challenger's input on c;
    # the oracle cannot decide the pair, as input on a grows a buffer
    ("new t. c => []", "new t. a => [a, t] | b!m0", 8, None),
    ("c?x. 0", "a?x. new t. (t!x | t?y. 0)", 0, False),
    # the left side's closure is cut, but the right side's actions are all
    # its own; the left side has no answer to the output a!m0 at all
    ("a => []", "a => [] | a!m0", 0, False),
])
def test_a_cut_closure_that_changes_no_answer_taints_nothing(left, right, tau_bound, bisimilar):
    from test_oracle import weakly_bisimilar

    l, r = parse(left), parse(right)
    res = check_weak(l, r, tau_bound)
    assert res.verdict is Verdict.DISTINGUISHED
    assert replay_trace(l, r, res.trace, weak=True, tau_bound=tau_bound)
    assert weakly_bisimilar(l, r) is bisimilar


# a PLAIN proof of each game, with no attacker run
_PLAIN_PROOFS = {
    False: ("a!m0 | a?x.(b!x | c?y.d!y) | c!m1", "c!m1 | a?x.(c?y.d!y | b!x) | a!m0"),
    True: ("new t. (t!m0 | t?x.b!x) | a!m1", "a!m1 | new u. (u?y.b!y | u!m0)"),
}


@pytest.mark.parametrize("weak", [False, True])
def test_the_prover_and_the_audit_fill_each_state_once(monkeypatch, weak):
    l, r = (parse(t) for t in _PLAIN_PROOFS[weak])
    fills = count_fills(monkeypatch)
    res = check_weak(l, r, upto=PLAIN) if weak else check_strong(l, r, PLAIN)
    assert res.verdict is Verdict.PROVEN and res.attacker_nodes == 0 and len(res.witness) > 3
    assert {table for table, _ in fills} == {0}
    assert max(fills.values()) == 1 and len(fills) > 3
    # the audit builds a table of its own
    fills.clear()
    assert audit_witness(l, r, res.witness, PLAIN, weak=weak) is None
    assert {table for table, _ in fills} == {1}
    assert max(fills.values()) == 1 and len(fills) > 3


@pytest.mark.parametrize("weak", [False, True])
def test_the_replay_fills_each_state_once(monkeypatch, weak):
    l, r = parse("a -> b | a -> c"), parse("a => [b, c]")
    res = check_weak(l, r, upto=PLAIN) if weak else check_strong(l, r, PLAIN)
    assert res.verdict is Verdict.DISTINGUISHED and len(res.trace) > 1
    fills = count_fills(monkeypatch)
    assert replay_trace(l, r, res.trace, weak=weak)
    assert {table for table, _ in fills} == {0}
    assert max(fills.values()) == 1 and len(fills) > 1


def test_check_result_counts_each_phase():
    proven = check_strong(parse("a -> b | a -> b"), parse("a -> b"))
    assert proven.attacker_nodes == 0
    assert proven.pairs_explored == proven.prover_pairs > 0
    bounded = check_strong(parse("dup a | dup a"), parse("dup a"), PLAIN, 4)
    assert bounded.verdict is Verdict.INCONCLUSIVE
    assert bounded.prover_pairs == 4 and bounded.attacker_nodes > 0
    assert bounded.pairs_explored == bounded.prover_pairs + bounded.attacker_nodes
