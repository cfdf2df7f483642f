"""Binding and substitution, cross-checked against a named-variable oracle.

The oracle represents terms with explicit binder names and performs
capture-free substitution by string replacement; converting oracle terms
to the indexed representation and comparing after each operation checks
the index arithmetic independently.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from netproc import (
    Atom,
    ChanVar,
    Distribute,
    FreshnessViolation,
    Name,
    Parallel,
    Receive,
    RepeatReceive,
    Restrict,
    STOP,
    Send,
    SendAct,
    Stop,
    TAU,
    ValVar,
    abstract_channel,
    atoms_used,
    free_channel_names,
    fresh_channel_name,
    instantiate_channel,
    instantiate_value,
    is_closed,
    normalize,
    parse,
    pretty,
    rename_free_channel,
    term_key,
    well_scoped,
)
from netproc.semantics import infer_mode
from netproc.terms import children, constructs_used

from helpers import random_comm, random_open, random_pi

# ---------------------------------------------------------------------------
# Named-term oracle
# ---------------------------------------------------------------------------

# channels: ("free", name) | ("cbound", binder); values: ("atom", a) | ("vbound", binder)


def gen_named(rng, depth, cbound, vbound, counter):
    kinds = ["stop", "send", "recv", "bang", "par", "nu", "dist"] if depth > 0 else ["stop", "send"]
    kind = rng.choice(kinds)

    def chan():
        if cbound and rng.random() < 0.6:
            return ("cbound", rng.choice(cbound))
        return ("free", rng.choice(["a", "b", "c"]))

    def val():
        if vbound and rng.random() < 0.6:
            return ("vbound", rng.choice(vbound))
        return ("atom", rng.choice(["m0", "m1"]))

    if kind == "stop":
        return ("stop",)
    if kind == "send":
        return ("send", chan(), val())
    if kind == "recv" or kind == "bang":
        counter[0] += 1
        binder = f"X{counter[0]}"
        return (kind, chan(), binder, gen_named(rng, depth - 1, cbound, vbound + [binder], counter))
    if kind == "par":
        return ("par", gen_named(rng, depth - 1, cbound, vbound, counter), gen_named(rng, depth - 1, cbound, vbound, counter))
    if kind == "nu":
        counter[0] += 1
        binder = f"H{counter[0]}"
        return ("nu", binder, gen_named(rng, depth - 1, cbound + [binder], vbound, counter))
    n = rng.randrange(0, 3)
    return ("dist", chan(), tuple(chan() for _ in range(n)))


def to_indexed(t, cstack, vstack):
    def chan(c):
        tag, name = c
        if tag == "cbound":
            return ChanVar(cstack[::-1].index(name))
        return Name(name)

    def val(v):
        tag, name = v
        if tag == "vbound":
            return ValVar(vstack[::-1].index(name))
        return Atom(name)

    match t[0]:
        case "stop":
            return STOP
        case "send":
            return Send(chan(t[1]), val(t[2]))
        case "recv":
            return Receive(chan(t[1]), to_indexed(t[3], cstack, vstack + [t[2]]))
        case "bang":
            return RepeatReceive(chan(t[1]), to_indexed(t[3], cstack, vstack + [t[2]]))
        case "par":
            return Parallel(to_indexed(t[1], cstack, vstack), to_indexed(t[2], cstack, vstack))
        case "nu":
            return Restrict(to_indexed(t[2], cstack + [t[1]], vstack))
        case "dist":
            return Distribute(chan(t[1]), tuple(chan(c) for c in t[2]))
    raise AssertionError(t)


def subst_val(t, binder, atom):
    """Replace a bound value variable with an atom, by name."""
    match t[0]:
        case "stop":
            return t
        case "send":
            v = ("atom", atom) if t[2] == ("vbound", binder) else t[2]
            return ("send", t[1], v)
        case "recv" | "bang":
            return (t[0], t[1], t[2], subst_val(t[3], binder, atom))
        case "par":
            return ("par", subst_val(t[1], binder, atom), subst_val(t[2], binder, atom))
        case "nu":
            return ("nu", t[1], subst_val(t[2], binder, atom))
        case "dist":
            return t
    raise AssertionError(t)


def subst_chan(t, binder, name):
    """Replace a bound channel variable with a free name, by name."""
    def chan(c):
        return ("free", name) if c == ("cbound", binder) else c

    match t[0]:
        case "stop":
            return t
        case "send":
            return ("send", chan(t[1]), t[2])
        case "recv" | "bang":
            return (t[0], chan(t[1]), t[2], subst_chan(t[3], binder, name))
        case "par":
            return ("par", subst_chan(t[1], binder, name), subst_chan(t[2], binder, name))
        case "nu":
            return ("nu", t[1], subst_chan(t[2], binder, name))
        case "dist":
            return ("dist", chan(t[1]), tuple(chan(c) for c in t[2]))
    raise AssertionError(t)


def named_free_channels(t):
    match t[0]:
        case "stop":
            return set()
        case "send":
            return {t[1][1]} if t[1][0] == "free" else set()
        case "recv" | "bang":
            base = {t[1][1]} if t[1][0] == "free" else set()
            return base | named_free_channels(t[3])
        case "par":
            return named_free_channels(t[1]) | named_free_channels(t[2])
        case "nu":
            return named_free_channels(t[2])
        case "dist":
            out = {t[1][1]} if t[1][0] == "free" else set()
            return out | {c[1] for c in t[2] if c[0] == "free"}
    raise AssertionError(t)


# ---------------------------------------------------------------------------
# Substitution agrees with the oracle
# ---------------------------------------------------------------------------


def test_value_substitution_matches_named_oracle():
    rng = random.Random(101)
    for _ in range(300):
        counter = [0]
        body = gen_named(rng, 3, [], ["X0"], counter)
        indexed = to_indexed(body, [], ["X0"])
        for atom in ("m0", "m1"):
            got = instantiate_value(indexed, Atom(atom))
            want = to_indexed(subst_val(body, "X0", atom), [], [])
            assert got == want


def test_channel_substitution_matches_named_oracle():
    rng = random.Random(102)
    for _ in range(300):
        counter = [0]
        body = gen_named(rng, 3, ["H0"], [], counter)
        indexed = to_indexed(body, ["H0"], [])
        got = instantiate_channel(indexed, Name("w"))
        want = to_indexed(subst_chan(body, "H0", "w"), [], [])
        assert got == want


def test_free_channels_matches_named_oracle():
    rng = random.Random(103)
    for _ in range(300):
        counter = [0]
        t = gen_named(rng, 3, [], [], counter)
        assert free_channel_names(to_indexed(t, [], [])) == named_free_channels(t)


def test_generated_terms_are_well_scoped():
    rng = random.Random(104)
    for _ in range(200):
        t = to_indexed(gen_named(rng, 3, [], [], [0]), [], [])
        assert well_scoped(t)
        assert is_closed(t)


# ---------------------------------------------------------------------------
# Binder round trips and edge rules
# ---------------------------------------------------------------------------


def test_abstract_then_instantiate_is_identity():
    rng = random.Random(105)
    for _ in range(200):
        counter = [0]
        body = to_indexed(gen_named(rng, 3, ["H0"], [], counter), ["H0"], [])
        opened = instantiate_channel(body, Name("w"))
        assert abstract_channel(opened, Name("w")) == body


def test_instantiate_requires_freshness():
    body = abstract_channel(Parallel(Send(Name("k"), Atom("m0")), Send(Name("d"), Atom("m1"))), Name("k"))
    with pytest.raises(FreshnessViolation):
        instantiate_channel(body, Name("d"))
    out = instantiate_channel(body, Name("e"))
    assert out == Parallel(Send(Name("e"), Atom("m0")), Send(Name("d"), Atom("m1")))


def test_instantiate_channel_under_nested_binder():
    # the target index grows by one under each restriction it crosses
    inner = Restrict(Parallel(Send(ChanVar(0), Atom("m0")), Send(ChanVar(1), Atom("m1"))))
    opened = instantiate_channel(inner, Name("w"))
    assert opened == Restrict(Parallel(Send(ChanVar(0), Atom("m0")), Send(Name("w"), Atom("m1"))))


def test_value_scope_is_independent_of_channel_scope():
    # crossing a receive binder leaves channel indices untouched
    body = Receive(Name("a"), Send(ChanVar(0), ValVar(0)))
    under = Restrict(body)
    opened = instantiate_channel(under.body, Name("w"))
    assert opened == Receive(Name("a"), Send(Name("w"), ValVar(0)))


def test_well_scoped_rejects_dangling_indices():
    assert not well_scoped(Send(ChanVar(0), Atom("m0")))
    assert not well_scoped(Send(Name("a"), ValVar(0)))
    assert well_scoped(Restrict(Send(ChanVar(0), Atom("m0"))))
    assert well_scoped(Receive(Name("a"), Send(Name("b"), ValVar(0))))
    assert not well_scoped(Receive(Name("a"), Send(Name("b"), ValVar(1))))


def test_rename_free_channel():
    p = parse("a!m0 | b -> a | lose c")
    q = rename_free_channel(p, "a", "z")
    assert q == parse("z!m0 | b -> z | lose c")
    assert rename_free_channel(p, "zz", "q") == p


def test_fresh_channel_name_avoids_collisions():
    taken = {"nu0", "nu1", "x"}
    assert fresh_channel_name(taken) == "nu2"
    assert fresh_channel_name(set()) == "nu0"
    assert fresh_channel_name({"a"}, base="a") == "a0"


def test_atoms_used():
    assert atoms_used(parse("a!m0 | a ? x. b!m1")) == {"m0", "m1"}
    assert atoms_used(parse("lose a")) == set()


def test_distribute_targets_are_coerced_to_tuple():
    d = Distribute(Name("a"), [Name("b"), Name("c")])
    assert isinstance(d.targets, tuple)


# ---------------------------------------------------------------------------
# Per-node term facts against the recursive walkers they replace
# ---------------------------------------------------------------------------


def walk_well_scoped(p, chan_depth=0, val_depth=0):
    def chan_ok(c):
        return isinstance(c, Name) or 0 <= c.index < chan_depth

    match p:
        case Stop():
            return True
        case Send(channel=c, payload=v):
            return chan_ok(c) and (isinstance(v, Atom) or 0 <= v.index < val_depth)
        case Receive(channel=c, body=b) | RepeatReceive(channel=c, body=b):
            return chan_ok(c) and walk_well_scoped(b, chan_depth, val_depth + 1)
        case Parallel(left=l, right=r):
            return walk_well_scoped(l, chan_depth, val_depth) and walk_well_scoped(r, chan_depth, val_depth)
        case Restrict(body=b):
            return walk_well_scoped(b, chan_depth + 1, val_depth)
        case Distribute(source=s, targets=ts):
            return chan_ok(s) and all(chan_ok(t) for t in ts)
    raise AssertionError(p)


def walk_free_channel_names(p):
    match p:
        case Send(channel=c):
            chans, kids = [c], []
        case Receive(channel=c, body=b) | RepeatReceive(channel=c, body=b):
            chans, kids = [c], [b]
        case Parallel(left=l, right=r):
            chans, kids = [], [l, r]
        case Restrict(body=b):
            chans, kids = [], [b]
        case Distribute(source=s, targets=ts):
            chans, kids = [s, *ts], []
        case _:
            chans, kids = [], []
    out = {c.text for c in chans if isinstance(c, Name)}
    for k in kids:
        out |= walk_free_channel_names(k)
    return out


def walk_atoms_used(p):
    match p:
        case Send(payload=Atom(text=t)):
            return {t}
        case Receive(body=b) | RepeatReceive(body=b) | Restrict(body=b):
            return walk_atoms_used(b)
        case Parallel(left=l, right=r):
            return walk_atoms_used(l) | walk_atoms_used(r)
    return set()


def walk_constructs_used(p):
    out = {type(p).__name__}
    match p:
        case Receive(body=b) | RepeatReceive(body=b) | Restrict(body=b):
            out |= walk_constructs_used(b)
        case Parallel(left=l, right=r):
            out |= walk_constructs_used(l) | walk_constructs_used(r)
    return out


def all_subterms(p):
    yield p
    for child in (getattr(p, f) for f in p.__match_args__):
        if isinstance(child, (Stop, Send, Receive, RepeatReceive, Parallel, Restrict, Distribute)):
            yield from all_subterms(child)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["pi", "comm", "open"]), st.integers(0, 10**6), st.integers(0, 4))
def test_term_facts_match_the_recursive_walkers(kind, seed, depth):
    rng = random.Random(seed)
    if kind == "open":
        term = random_open(rng, depth)
    else:
        term = (random_pi if kind == "pi" else random_comm)(rng, depth)
    for sub in all_subterms(term):
        for chan_depth in range(4):
            for val_depth in range(4):
                assert well_scoped(sub, chan_depth, val_depth) == walk_well_scoped(sub, chan_depth, val_depth)
        assert is_closed(sub) == walk_well_scoped(sub)
        assert free_channel_names(sub) == walk_free_channel_names(sub)
        assert atoms_used(sub) == walk_atoms_used(sub)
        assert constructs_used(sub) == walk_constructs_used(sub)


def test_negative_indices_are_never_in_scope():
    assert not well_scoped(Restrict(Send(ChanVar(-1), Atom("m0"))), 3, 3)
    assert not well_scoped(Receive(Name("a"), Send(Name("b"), ValVar(-1))), 3, 3)
    assert not well_scoped(Distribute(Name("a"), [Name("b"), ChanVar(-2)]), 3, 3)
    assert well_scoped(Send(ChanVar(2), ValVar(2)), 3, 3)


def test_equal_fact_sets_are_shared_with_children():
    # sets are kept on the nodes queried; a parent queried later shares
    # a kept set that already holds all of its own
    leaf = parse("a!m0 | b!m1")
    names, atoms = free_channel_names(leaf), atoms_used(leaf)
    assert free_channel_names(Parallel(leaf, parse("a!m1"))) is names
    assert atoms_used(Restrict(leaf)) is atoms


@pytest.mark.parametrize(
    "query",
    [free_channel_names, atoms_used, constructs_used, well_scoped, is_closed, infer_mode, pretty, children, term_key, normalize],
)
@pytest.mark.parametrize(
    "thing",
    [42, "x", None, Name("a"), Atom("m0"), ChanVar(0), ValVar(1), SendAct(Name("a"), Atom("m0")), TAU],
    ids=repr,
)
def test_term_queries_reject_non_processes(query, thing):
    with pytest.raises(TypeError, match="not a process"):
        query(thing)
