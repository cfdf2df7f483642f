"""One iterative term traversal.

Every term walk runs on `terms.post_order` or a loop.  The reference
functions below are test-local copies of the recursive walks those
replaced (substitution maps, normalizer, step enumeration, unfolding and
printer); the properties require identical results.  The last tests take
terms too wide and too deep for any recursion through the library and
the CLI, in child processes with a memory cap.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

import netproc
from netproc import (
    Atom,
    ChanVar,
    Distribute,
    Name,
    Parallel,
    Receive,
    RepeatReceive,
    Restrict,
    STOP,
    Send,
    Stop,
    ValVar,
    abstract_channel,
    atoms_used,
    free_channel_names,
    instantiate_channel,
    instantiate_value,
    is_closed,
    make_universe,
    normalize,
    parse,
    pretty,
    rename_free_channel,
    term_key,
    unfold_comm,
)
from netproc import normalform, semantics, terms
from netproc.netlang import _inject
from netproc.semantics import TAU, ReceiveAct, SendAct, Tau

from helpers import random_comm, random_open, random_pi

m0 = Atom("m0")

# ---------------------------------------------------------------------------
# Reference: the recursive walks
# ---------------------------------------------------------------------------


def ref_map_channels(p, f, d=0):
    match p:
        case Stop():
            return p
        case Send(channel=c, payload=v):
            return Send(f(c, d), v)
        case Receive(channel=c, body=b):
            return Receive(f(c, d), ref_map_channels(b, f, d))
        case RepeatReceive(channel=c, body=b):
            return RepeatReceive(f(c, d), ref_map_channels(b, f, d))
        case Parallel(left=l, right=r):
            return Parallel(ref_map_channels(l, f, d), ref_map_channels(r, f, d))
        case Restrict(body=b):
            return Restrict(ref_map_channels(b, f, d + 1))
        case Distribute(source=s, targets=ts):
            return Distribute(f(s, d), tuple(f(t, d) for t in ts))
    raise TypeError(p)


def ref_map_values(p, f, d=0):
    match p:
        case Stop() | Distribute():
            return p
        case Send(channel=c, payload=v):
            return Send(c, f(v, d))
        case Receive(channel=c, body=b):
            return Receive(c, ref_map_values(b, f, d + 1))
        case RepeatReceive(channel=c, body=b):
            return RepeatReceive(c, ref_map_values(b, f, d + 1))
        case Parallel(left=l, right=r):
            return Parallel(ref_map_values(l, f, d), ref_map_values(r, f, d))
        case Restrict(body=b):
            return Restrict(ref_map_values(b, f, d))
    raise TypeError(p)


def ref_instantiate_value(body, value):
    def f(v, d):
        if isinstance(v, ValVar):
            if v.index == d:
                return value
            if v.index > d:
                return ValVar(v.index - 1)
        return v

    return ref_map_values(body, f)


def ref_instantiate_channel(body, channel):
    def f(c, d):
        if isinstance(c, ChanVar):
            if c.index == d:
                return channel
            if c.index > d:
                return ChanVar(c.index - 1)
        return c

    return ref_map_channels(body, f)


def ref_abstract_channel(p, channel):
    def f(c, d):
        if isinstance(c, Name) and c.text == channel.text:
            return ChanVar(d)
        if isinstance(c, ChanVar) and c.index >= d:
            return ChanVar(c.index + 1)
        return c

    return ref_map_channels(p, f)


def ref_rename(p, old, new):
    def f(c, d):
        if isinstance(c, Name) and c.text == old:
            return Name(new)
        return c

    return ref_map_channels(p, f)


def ref_strengthen(core, k, keep):
    new_index = {old: new for new, old in enumerate(keep)}
    dropped = k - len(keep)

    def f(c, d):
        if isinstance(c, ChanVar):
            j = c.index - d
            if 0 <= j < k:
                return ChanVar(new_index[j] + d)
            if j >= k:
                return ChanVar(c.index - dropped)
        return c

    return ref_map_channels(core, f)


def ref_permute(core, k, perm):
    def f(c, d):
        if isinstance(c, ChanVar):
            j = c.index - d
            if 0 <= j < k:
                return ChanVar(perm[j] + d)
        return c

    return ref_map_channels(core, f)


def ref_components(p):
    if isinstance(p, Parallel):
        return ref_components(p.left) + ref_components(p.right)
    return [p]


def ref_norm(p):
    match p:
        case Stop() | Send() | Distribute():
            return p
        case Receive(channel=c, body=b):
            return Receive(c, ref_norm(b))
        case RepeatReceive(channel=c, body=b):
            return RepeatReceive(c, ref_norm(b))
        case Parallel():
            flat = []
            for leaf in ref_components(p):
                flat.extend(ref_components(ref_norm(leaf)))
            return normalform.compose_parallel(sorted((c for c in flat if not isinstance(c, Stop)), key=term_key))
        case Restrict():
            k, cur = 0, p
            while isinstance(cur, Restrict):
                k, cur = k + 1, cur.body
            core = ref_norm(cur)
            while isinstance(core, Restrict):
                k, core = k + 1, core.body
            used = [i for i in range(k) if core._chan_mask >> i & 1]
            if len(used) < k:
                core, k = ref_strengthen(core, k, used), len(used)
            if 1 < k <= normalform._MAX_SORTED_RUN:
                best, best_key = core, term_key(core)
                for perm in permutations(range(k)):
                    candidate = ref_norm(ref_permute(core, k, perm))
                    if term_key(candidate) < best_key:
                        best, best_key = candidate, term_key(candidate)
                core = best
            for _ in range(k):
                core = Restrict(core)
            return core
    raise TypeError(p)


def ref_row(targets, value):
    row = STOP
    for t in reversed(targets):
        row = Parallel(Send(t, value), row)
    return row


def ref_enumerate(p, universe):
    match p:
        case Stop():
            return
        case Send(channel=c, payload=v):
            yield SendAct(c, v), STOP
        case Receive(channel=c, body=b):
            for v in universe:
                yield ReceiveAct(c, v), ref_instantiate_value(b, v)
        case RepeatReceive(channel=c, body=b):
            for v in universe:
                yield ReceiveAct(c, v), Parallel(ref_instantiate_value(b, v), p)
        case Distribute(source=s, targets=ts):
            for v in universe:
                yield ReceiveAct(s, v), Parallel(ref_row(ts, v), p)
        case Parallel(left=l, right=r):
            lsteps = list(ref_enumerate(l, universe))
            rsteps = list(ref_enumerate(r, universe))
            for a, t in lsteps:
                yield a, Parallel(t, r)
            for a, t in rsteps:
                yield a, Parallel(l, t)
            for a1, t1 in lsteps:
                for a2, t2 in rsteps:
                    if (
                        not isinstance(a1, Tau)
                        and not isinstance(a2, Tau)
                        and type(a1) is not type(a2)
                        and a1.channel == a2.channel
                        and a1.payload == a2.payload
                    ):
                        yield TAU, Parallel(t1, t2)
        case Restrict(body=b):
            for a, t in ref_enumerate(b, universe):
                if not isinstance(a, Tau) and isinstance(a.channel, ChanVar):
                    if a.channel.index == 0:
                        continue
                    a = type(a)(ChanVar(a.channel.index - 1), a.payload)
                yield a, Restrict(t)


def ref_unfold(p):
    match p:
        case Stop() | Send():
            return p
        case Receive(channel=c, body=b):
            return Receive(c, ref_unfold(b))
        case RepeatReceive(channel=c, body=b):
            return RepeatReceive(c, ref_unfold(b))
        case Parallel(left=l, right=r):
            return Parallel(ref_unfold(l), ref_unfold(r))
        case Restrict(body=b):
            return Restrict(ref_unfold(b))
        case Distribute(source=s, targets=ts):
            return RepeatReceive(s, ref_row(ts, ValVar(0)))
    raise TypeError(p)


def ref_pick(candidates, taken):
    for c in candidates:
        if c not in taken:
            return c
    i = 1
    while f"{candidates[0]}{i}" in taken:
        i += 1
    return f"{candidates[0]}{i}"


def ref_pretty(p):
    return ref_pp(p, [], [], free_channel_names(p) | atoms_used(p), True)


def ref_pp(p, chans, vals, taken, group):
    pc = lambda c: c.text if isinstance(c, Name) else chans[len(chans) - 1 - c.index]  # noqa: E731
    match p:
        case Stop():
            return "0"
        case Send(channel=c, payload=v):
            return f"{pc(c)}!{v.text if isinstance(v, Atom) else vals[len(vals) - 1 - v.index]}"
        case Receive(channel=c, body=b) | RepeatReceive(channel=c, body=b):
            op = "?" if isinstance(p, Receive) else "?*"
            name = ref_pick(("x", "y", "z", "w"), taken | set(vals) | set(chans))
            vals.append(name)
            parens = isinstance(b, (Parallel, Restrict))
            inner = ref_pp(b, chans, vals, taken, parens)
            vals.pop()
            if parens:
                inner = f"({inner})"
            return f"{pc(c)}{op}{name}. {inner}"
        case Distribute(source=s, targets=ts):
            return f"{pc(s)} => [{', '.join(pc(t) for t in ts)}]"
        case Parallel():
            parts, cur = [], p
            while isinstance(cur, Parallel):
                parts.append(ref_pp(cur.left, chans, vals, taken, False))
                cur = cur.right
            parts.append(ref_pp(cur, chans, vals, taken, isinstance(cur, Restrict)))
            text = " | ".join(parts)
            return text if group else f"({text})"
        case Restrict(body=b):
            name = ref_pick(("t", "u", "s", "r"), taken | set(chans) | set(vals))
            chans.append(name)
            inner = ref_pp(b, chans, vals, taken, True)
            chans.pop()
            text = f"new {name}. {inner}"
            return text if group else f"({text})"
    raise TypeError(p)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def random_run(rng, k, depth=3):
    """A closed term headed by a run of k restrictions over a random core."""
    names = [Name(f"r{i}") for i in range(k)]
    body = random_pi(rng, depth, [Name("a"), Name("b")] + names)
    for name in rng.sample(names, k):
        body = Restrict(abstract_channel(body, name))
    return body


def random_binders(rng, depth, chans=0, vals=0):
    """A closed term dense in binders, with free names that the printer's
    binder names must avoid, so its numbered fallback names are needed."""
    kind = rng.choice(["nu", "recv", "par", "send"] if depth > 0 else ["send", "stop"])
    if kind == "stop":
        return STOP
    if kind == "send":
        c = ChanVar(rng.randrange(chans)) if chans and rng.random() < 0.7 else Name(rng.choice("atux") + rng.choice(["", "1", "2"]))
        v = ValVar(rng.randrange(vals)) if vals and rng.random() < 0.7 else Atom(rng.choice(["m0", "y", "x1"]))
        return Send(c, v)
    if kind == "par":
        return Parallel(random_binders(rng, depth - 1, chans, vals), random_binders(rng, depth - 1, chans, vals))
    if kind == "nu":
        return Restrict(random_binders(rng, depth - 1, chans + 1, vals))
    return Receive(Name("a"), random_binders(rng, depth - 1, chans, vals + 1))


def subterms(p):
    todo = [p]
    while todo:
        x = todo.pop()
        yield x
        todo.extend(terms.children(x))


def closed_term(kind, seed, depth):
    rng = random.Random(seed)
    if kind == "pi":
        return random_pi(rng, depth)
    if kind == "comm":
        return random_comm(rng, depth)
    if kind == "binders":
        return random_binders(rng, depth + 4)
    return random_run(rng, rng.randrange(2, 8), depth)


KINDS = st.sampled_from(["pi", "comm", "binders", "run"])


# ---------------------------------------------------------------------------
# Equivalence with the recursive walks
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["open", "pi", "comm", "run"]), st.integers(0, 10**6), st.integers(0, 4))
def test_merged_map_matches_the_recursive_maps(kind, seed, depth):
    rng = random.Random(seed)
    term = random_open(rng, depth) if kind == "open" else closed_term(kind, seed, depth)
    for sub in subterms(term):
        assert instantiate_value(sub, m0) is ref_instantiate_value(sub, m0)
        assert instantiate_channel(sub, Name("fresh")) is ref_instantiate_channel(sub, Name("fresh"))
        assert abstract_channel(sub, Name("a")) is ref_abstract_channel(sub, Name("a"))
        assert rename_free_channel(sub, "a", "zz") is ref_rename(sub, "a", "zz")
        for k in (1, 2, 3):
            # a strengthening keeps at least the binders the term uses
            used = {i for i in range(k) if sub._chan_mask >> i & 1}
            keep = sorted(used | set(rng.sample(range(k), rng.randrange(k + 1))))
            assert normalform._renumber_run(sub, k, {old: new for new, old in enumerate(keep)}) is ref_strengthen(sub, k, keep)
            perm = tuple(rng.sample(range(k), k))
            assert normalform._renumber_run(sub, k, dict(enumerate(perm))) is ref_permute(sub, k, perm)


@settings(max_examples=200, deadline=None)
@given(KINDS, st.integers(0, 10**6), st.integers(0, 4))
def test_normal_forms_match_the_recursive_normalizer(kind, seed, depth):
    term = closed_term(kind, seed, depth)
    # from an empty table, then with every unit of the term already in it
    normalform._CACHE.clear()
    assert normalize(term) is ref_norm(term)
    for sub in subterms(term):
        assert normalize(sub) is ref_norm(sub)


@pytest.mark.parametrize("k", [6, 7])
def test_long_runs_normalize_like_the_recursive_normalizer(k):
    # runs longer than _MAX_SORTED_RUN keep their order, shorter ones
    # nested inside them are still sorted
    rng = random.Random(k)
    for _ in range(20):
        term = random_run(rng, k)
        normalform._CACHE.clear()
        assert normalize(term) is ref_norm(term)
    inner = random_run(rng, 3)
    term = random_run(rng, k, 1)
    mixed = Restrict(Parallel(Send(ChanVar(0), m0), Parallel(inner, term)))
    assert normalize(mixed) is ref_norm(mixed)


@settings(max_examples=200, deadline=None)
@given(KINDS, st.integers(0, 10**6), st.integers(0, 4))
def test_steps_match_the_recursive_enumeration(kind, seed, depth):
    universe = make_universe("m0", "m1")
    term = closed_term(kind, seed, depth)
    for sub in subterms(term):
        assert semantics._step(sub, universe) == frozenset(ref_enumerate(sub, universe))


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([netproc.anycast3, netproc.broadcast3_unreliable]),
    st.lists(st.sampled_from(["m0", "m1"]), min_size=1, max_size=3),
)
def test_steps_of_injected_nets_match_the_recursive_enumeration(net, values):
    # each reachable state (the first 60: the lossy hop's are endless),
    # then each of its subterms: an open subterm's entry was filled as a
    # part of its state's, and the targets of its steps on bound channels
    # that are no half of a τ are built on request
    universe = make_universe("m0", "m1")
    start, _, _ = _inject(net(), [("s", v) for v in values])
    semantics._STEP_CACHE.clear()
    states, _ = semantics.reachable(
        normalize(start), lambda s: [normalize(t) for _, t in semantics._step(s, universe)], 60
    )
    checked, deferred = set(), False
    for state in states:
        for sub in subterms(state):
            if sub not in checked:
                checked.add(sub)
                entry = semantics._STEP_CACHE.get((sub, universe))
                deferred = deferred or entry is not None and any(
                    t is None and a is not TAU and type(a.channel) is ChanVar
                    for a, t in zip(entry.actions, entry.targets)
                )
                assert semantics._step(sub, universe) == frozenset(ref_enumerate(sub, universe))
    assert deferred


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["pi", "comm", "open"]), st.integers(0, 10**6), st.integers(0, 4))
def test_unfolding_matches_the_recursive_unfold(kind, seed, depth):
    rng = random.Random(seed)
    term = random_open(rng, depth) if kind == "open" else closed_term(kind, seed, depth)
    assert unfold_comm(term) is ref_unfold(term)


@settings(max_examples=300, deadline=None)
@given(KINDS, st.integers(0, 10**6), st.integers(0, 4))
def test_printed_text_matches_the_recursive_printer(kind, seed, depth):
    term = closed_term(kind, seed, depth)
    for p in (term, normalize(term)):
        text = pretty(p)
        assert text == ref_pretty(p)
        assert parse(text) is p


def test_printer_reuses_released_numbered_names():
    # two sibling nests of six binders each: the second reuses t1 and t2
    nest = parse("new t. new u. new s. new r. new t1. new t2. (t!m0 | u!m0 | s!m0 | r!m0 | t1!m0 | t2!m0)")
    text = pretty(Parallel(nest, nest))
    assert text == ref_pretty(Parallel(nest, nest))
    assert text.count("new t2.") == 2 and "t3" not in text


def test_a_4000_deep_nest_prints_fast_with_the_reference_names():
    # binders t, u, s, r, t1, t2, ...: at a scan from t1 per binder the
    # 4,000-deep nest takes seconds
    def nest(n):
        p = parse("a!m0")
        for _ in range(n):
            p = Restrict(Parallel(Send(ChanVar(0), Atom("m0")), p))
        return p

    def text(n):
        names = ["t", "u", "s", "r", *(f"t{i}" for i in range(1, n - 3))]
        return "".join(f"new {x}. {x}!m0 | " for x in names) + "a!m0"

    # the reference printer recurses, so it is compared where it can
    assert ref_pretty(nest(200)) == text(200)
    assert ref_pretty(Parallel(nest(200), nest(200))) == f"({text(200)}) | {text(200)}"
    deep = nest(4000)
    took = []
    for _ in range(3):
        start = time.perf_counter()
        printed = pretty(deep)
        took.append(time.perf_counter() - start)
    assert printed == text(4000)
    assert min(took) < 0.2, took
    # a sibling nest takes the released numbers again
    assert pretty(Parallel(deep, deep)) == f"({text(4000)}) | {text(4000)}"


# ---------------------------------------------------------------------------
# The helper itself
# ---------------------------------------------------------------------------


def test_post_order_computes_each_missing_value_once_children_first():
    x = parse("a!m0")
    shared = Parallel(x, x)
    root = Parallel(Restrict(shared), shared)
    values = {x: "x"}
    order = []

    def compute(p, kids):
        assert all(k is not None for k in kids)
        order.append(p)
        values[p] = f"({' '.join(kids)})"
        return values[p]

    assert terms.post_order(root, values.get, terms.children, compute) == "(((x x)) (x x))"
    # x was known; the shared composition is computed once, before its parents
    assert order == [shared, Restrict(shared), root]


# ---------------------------------------------------------------------------
# Kept facts
# ---------------------------------------------------------------------------


def test_name_sets_are_kept_only_on_queried_nodes():
    spine = normalform.compose_parallel([Send(Name(f"spine{i}"), Atom(f"v{i}")) for i in range(50)])
    inner = spine.right.right
    assert free_channel_names(inner) == {f"spine{i}" for i in range(2, 50)}
    assert atoms_used(spine) == {f"v{i}" for i in range(50)}
    assert is_closed(spine.right)
    kept = [p for p in subterms(spine) if hasattr(p, "_facts")]
    assert kept == [spine, spine.right, inner]


def test_receiving_keeps_no_facts_on_the_body():
    # value masks are set when a node is built, so substituting a received
    # value walks the body for no fact; every node here is one no other
    # test builds, so no other query has kept facts on it
    p = parse("kf_a?x. (kf_b!x | new t. (t!kf_m | kf_c?y. kf_d!y | t?w. kf_f!x) | kf_a?*z. kf_e!z)")
    body = p.body
    assert not any(hasattr(x, "_facts") for x in subterms(body))
    target = instantiate_value(body, Atom("m0"))
    steps = semantics._step(p, make_universe("m0", "m1"))
    assert target in {t for _, t in steps}
    assert not any(hasattr(x, "_facts") for x in subterms(body))
    assert not any(hasattr(x, "_facts") for _, t in steps for x in subterms(t))


# ---------------------------------------------------------------------------
# Terms too wide and too deep for recursion, in child processes
# ---------------------------------------------------------------------------

# a regression to quadratic memory must fail here, not exhaust the host
_MEMORY_CAP = 1 << 30

# The child reads its own peak from /proc: ru_maxrss also counts the
# parent's memory when subprocess starts the child by vfork.
_CHILD = """
import json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap}))
def peak_mb():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) / 1024 for line in status if line.startswith("VmHWM:"))
import netproc as np
limit = sys.getrecursionlimit()
{body}
assert sys.getrecursionlimit() == limit
print(json.dumps({{"peak_mb": peak_mb()}}))
"""

_WIDE = """
n = 10_000
p = np.parse(" | ".join(f"a{i}!m0" for i in range(n)))
q = np.parse(" | ".join(f"a{i}!m0" for i in reversed(range(n))))
"""

_DEEP = """
n = 2_000
p = np.parse("a!m0")
for _ in range(n):
    p = np.Restrict(np.Parallel(np.Send(np.ChanVar(0), np.Atom("m0")), p))
text = np.pretty(p)
assert "(" not in text
p = np.parse(text)
q = np.parse("a!m0")
"""

_THROUGH_THE_LIBRARY = """
assert np.parse(np.pretty(p)) is p
np.normalize(p)
assert np.is_closed(p)
np.atoms_used(p), np.free_channel_names(p), np.unfold_comm(p), np.term_key(p)
assert np.check_strong(p, q).verdict is np.Verdict.PROVEN
assert np.check_weak(p, q).verdict is np.Verdict.PROVEN
"""


def run_child(body):
    src = os.path.dirname(os.path.dirname(os.path.abspath(netproc.__file__)))
    code = _CHILD.format(cap=_MEMORY_CAP, body=body)
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("pair", [_WIDE, _DEEP], ids=["wide", "deep"])
def test_wide_and_deep_terms_go_through_the_library(pair):
    assert run_child(pair + _THROUGH_THE_LIBRARY)["peak_mb"] < 200


def test_facts_of_a_wide_spine_of_distinct_channels_stay_small():
    # at one name set per level this spine needs gigabytes
    body = """
p = np.STOP
for i in range(10_000):
    p = np.Parallel(np.Send(np.Name(f"a{i}"), np.Atom("m0")), p)
before = peak_mb()
assert np.is_closed(p) and len(np.free_channel_names(p)) == 10_000 and np.atoms_used(p) == {"m0"}
grown = peak_mb() - before
assert grown < 20, grown
"""
    run_child(body)
