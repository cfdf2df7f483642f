"""Bisimilarity checking: proofs, refutations, audits, and reductions."""

from __future__ import annotations

import random
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
from netproc import Atom, ChanVar, Distribute, Name, Send, Stop, equivalence, free_channel_names, fresh_channel_name, instantiate_channel, make_universe
from netproc.equivalence import _Attacker, _BoundHit, _Prover, _canon, _fire, _reduce
from netproc.normalform import compose_parallel, parallel_components, term_key
from netproc.semantics import DEFAULT_UNIVERSE, Mode, WeakClosure, sorted_steps, _step
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
# under a nested restriction, a receive, a consumer under a receive prefix
# (these two mix the languages, which only a direct call can do), a row
# that sends twice into the run, and a pending send under a nested
# restriction
UNLICENSED = [
    "new t. (t!m0 | t -> b | t -> c)",
    "new t. (t!m0 | t -> b | new u. (t -> u | u -> c))",
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


def _hidden_buffer(rng):
    """A closed run of one or two restrictions over pending sends, a few
    distributors on its channels and random network-language context."""
    holes = [Name(f"h{i}") for i in range(rng.randrange(1, 3))]
    scope = [Name("a"), Name("b")] + holes
    parts = [Send(rng.choice(holes), Atom(rng.choice(["m0", "m1"]))) for _ in range(rng.randrange(1, 4))]
    for _ in range(rng.randrange(1, 4)):
        parts.append(Distribute(rng.choice(holes), [rng.choice(scope) for _ in range(rng.randrange(3))]))
    parts.append(random_comm(rng, 2, scope))
    rng.shuffle(parts)
    p = compose_parallel(parts)
    for hole in reversed(holes):
        p = Restrict(abstract_channel(p, hole))
    return Parallel(p, random_comm(rng, 1))


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_the_audit_rederives_each_firing(seed):
    p = _hidden_buffer(random.Random(seed))
    assert equivalence._delivered(p, DEFAULT_UNIVERSE) == _fire(normalize(p))


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
    for _, red in ranked:
        mark = len(self.trail)
        if self.close(red):
            return True
        self._rollback(mark)
    return False


def _outcome(res):
    return res.verdict, res.witness, res.trace, res.pairs_explored, res.prover_pairs, res.bound_hit


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["pi", "comm"]),
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=3),
    st.sampled_from(["fresh", "doubled", "extended"]),
    st.booleans(),
)
def test_first_known_reply_proves_like_the_ranked_sort(kind, seed, depth, shape, weak):
    rng = random.Random(seed)
    gen = random_pi if kind == "pi" else random_comm
    l = gen(rng, depth)
    r = {"fresh": lambda: gen(rng, depth), "doubled": lambda: Parallel(l, l),
         "extended": lambda: Parallel(l, gen(rng, 1))}[shape]()

    def run():
        if weak:
            return check_weak(l, r, 2, 24, max_trace_depth=3, node_budget=300)
        return check_strong(l, r, FULL_UPTO, 24, max_trace_depth=3, node_budget=300)

    got = _outcome(run())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Prover, "_match", ranked_match)
        assert got == _outcome(run())


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
    with no table; it keeps its own universe and closure."""

    def __init__(self, universe, closure, node_budget, normalize_states=True):
        super().__init__(universe, closure, node_budget, normalize_states)
        self.universe, self.closure, self.normalize_states = universe, closure, normalize_states

    def _norm(self, p):
        return normalize(p) if self.normalize_states else p

    def _replies(self, p, a):
        if self.closure is not None:
            steps, truncated = self.closure.steps(p)
            self.tainted |= truncated
            opts = [t for sa, t in steps if sa == a]
        else:
            opts = [self._norm(t) for sa, t in _step(p, self.universe) if sa == a]
        return sorted(set(opts), key=term_key)

    def _attack(self, l, r, depth):
        if depth == 0:
            return None
        key = (l, r, depth)
        if key in self.memo:
            return self.memo[key]
        self.nodes += 1
        if self.nodes > self.budget:
            raise _BoundHit("node-budget")
        result = None
        for side, chal, resp in (("left", l, r), ("right", r, l)):
            for a, t in sorted_steps(chal, self.universe):
                tn = self._norm(t)
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
        assert moves == [(a, t if table.raw else normalize(t)) for a, t in sorted_steps(p, DEFAULT_UNIVERSE)]
    closure = table.closure
    fresh = None if closure is None else WeakClosure(DEFAULT_UNIVERSE, closure.bound)
    reference = _FilteringAttacker(DEFAULT_UNIVERSE, fresh, 0, normalize_states=not table.raw)
    for p, (by_action, truncated) in table._replies.items():
        steps = closure.steps(p) if closure is not None else (_step(p, DEFAULT_UNIVERSE), False)
        assert truncated == steps[1]
        assert set(by_action) == {a for a, _ in steps[0]}
        for a, replies in by_action.items():
            assert replies == reference._replies(p, a)


_GENERATORS = {"pi": random_pi, "comm": random_comm}


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
def test_move_table_plays_like_per_call_filtering(kind, seed, depth, shape, game, normalize, max_depth):
    # a fresh right side is mostly told apart at once; a doubled or extended
    # left side keeps the game going for several rounds
    rng = random.Random(seed)
    gen = _GENERATORS[kind]
    l = gen(rng, depth)
    r = {"fresh": lambda: gen(rng, depth), "doubled": lambda: Parallel(l, l),
         "extended": lambda: Parallel(l, gen(rng, 1))}[shape]()
    weak, tau_bound = game
    attacker, outcome = _play(_Attacker, l, r, weak, tau_bound, normalize, max_depth)
    _, expected = _play(_FilteringAttacker, l, r, weak, tau_bound, normalize, max_depth)
    assert outcome == expected
    _assert_table_matches_filtering(attacker)


@pytest.mark.parametrize("weak", [False, True])
def test_move_table_builds_each_states_moves_once(monkeypatch, weak):
    fills = count_fills(monkeypatch)
    l, r = parse("dup a | dup a"), parse("dup a")
    # normalized states, then raw ones, which grow faster, one round less
    for normalize_states, depth in ((True, 4), (False, 3)):
        fills.clear()
        _, (trace, hit, nodes, _) = _play(_Attacker, l, r, weak, 2, normalize_states, depth, budget=2000)
        assert trace is None and hit is None and nodes > 30
        assert len({table for table, _ in fills}) == 1
        assert len(fills) > 10
        assert max(fills.values()) == 1


def test_replies_are_distinct_after_normalization():
    # both receives leave `a?x.b!x | b!m0` once normalized
    p = normalize(parse("a?x.(0 | b!x) | a?y.(b!y | 0)"))
    attacker = _Attacker(DEFAULT_UNIVERSE, None, 10)
    receive = next(a for a, _ in sorted_steps(p, DEFAULT_UNIVERSE))
    assert attacker._replies(p, receive) == [normalize(parse("a?x.b!x | b!m0"))]


def test_every_reply_lookup_reports_truncation():
    p = parse("dup a | a!m0")
    attacker = _Attacker(DEFAULT_UNIVERSE, WeakClosure(DEFAULT_UNIVERSE, 1), 10)
    assert attacker.moves.closure.steps(p)[1]
    action = next(a for a, _ in sorted_steps(p, DEFAULT_UNIVERSE))
    attacker._replies(p, action)
    assert attacker.tainted
    attacker.tainted = False
    attacker._replies(p, action)  # served from the table
    assert attacker.tainted


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
