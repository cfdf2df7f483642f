"""Hash-consed terms, channels, values and actions: equal structure is
the same object.

The reference sort key below is the recursive definition the stored
`term_key` must reproduce exactly; it is kept here, independent of the
per-node cache.  Likewise the reference channel and value masks walk the
term with the substitution traversal, independent of the masks stored on
each node, and the field-by-field fill is the reference for each class's
one-step fill.
"""

from __future__ import annotations

import copy
import dataclasses
import gc
import pickle
import random
import sys
import threading
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from netproc import (
    Atom,
    ChanVar,
    Distribute,
    Name,
    Parallel,
    ReceiveAct,
    Receive,
    RepeatReceive,
    Restrict,
    STOP,
    Send,
    SendAct,
    Stop,
    TAU,
    Tau,
    ValVar,
    parse,
    term_key,
)
from netproc import terms
from netproc.semantics import action_key

from helpers import random_comm, random_open, random_pi

a, b = Name("a"), Name("b")
m0 = Atom("m0")


def _chan(c):
    return (0, c.text) if isinstance(c, Name) else (1, c.index)


def _val(v):
    return (0, v.text) if isinstance(v, Atom) else (1, v.index)


def reference_key(p) -> tuple:
    match p:
        case Stop():
            return (0,)
        case Send(channel=c, payload=v):
            return (1, _chan(c), _val(v))
        case Receive(channel=c, body=q):
            return (2, _chan(c), reference_key(q))
        case RepeatReceive(channel=c, body=q):
            return (3, _chan(c), reference_key(q))
        case Distribute(source=s, targets=ts):
            return (4, _chan(s), tuple(_chan(t) for t in ts))
        case Parallel(left=l, right=r):
            return (5, reference_key(l), reference_key(r))
        case Restrict(body=q):
            return (6, reference_key(q))
    raise TypeError(p)


def subterms(p):
    yield p
    for f in dataclasses.fields(p):
        child = getattr(p, f.name)
        if isinstance(child, terms._Node):
            yield from subterms(child)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_equal_structure_is_the_same_node():
    s, t = Send(a, m0), Send(b, m0)
    assert Send(Name("a"), Atom("m0")) is s
    assert Parallel(s, t) is Parallel(s, t)
    assert Parallel(s, t) is not Parallel(t, s)
    assert Stop() is STOP
    assert Distribute(a, [b]) is Distribute(a, (b,))
    assert Distribute(a, [b]).targets == (b,)
    assert Receive(a, STOP) is not RepeatReceive(a, STOP)
    assert parse("new t. (a -> t | t -> b)") is parse("new u. (a -> u | u -> b)")


def test_keyword_construction_gives_the_same_node():
    s = Send(a, m0)
    assert Send(channel=a, payload=m0) is s
    assert Send(a, payload=m0) is s
    assert Parallel(right=STOP, left=s) is Parallel(s, STOP)
    assert Receive(body=s, channel=b) is Receive(b, s)
    assert RepeatReceive(channel=b, body=s) is RepeatReceive(b, s)
    assert Restrict(body=s) is Restrict(s)
    assert Distribute(targets=[a, a], source=b) is Distribute(b, (a, a))
    assert dataclasses.replace(s, payload=Atom("m1")) is Send(a, Atom("m1"))
    with pytest.raises(TypeError):
        Send(a)


def test_nodes_are_slotted_frozen_and_identity_compared():
    p = Parallel(Send(a, m0), STOP)
    assert not hasattr(p, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.left = STOP
    # leaves are interned too: equal structure is the same object
    assert Name("a") == a and Name("a") is a
    assert ChanVar(0) == ChanVar(0) and ValVar(1) != ValVar(0)
    assert not hasattr(a, "__dict__")


INTERNED = (
    Name, ChanVar, Atom, ValVar, Stop, Send, Receive, RepeatReceive, Parallel, Restrict, Distribute,
    SendAct, ReceiveAct, Tau,
)


@pytest.mark.parametrize("cls", INTERNED, ids=lambda cls: cls.__name__)
def test_the_hash_and_equality_are_identity(cls):
    assert cls.__hash__ is object.__hash__
    assert cls.__eq__ is object.__eq__
    # no class on the way up stores a hash
    assert not any("_hash" in getattr(k, "__slots__", ()) for k in cls.__mro__)


def test_equal_structure_is_one_object_with_one_hash():
    s = Send(a, m0)
    built = [
        Parallel(Send(Name("a"), Atom("m0")), Restrict(Distribute(ChanVar(0), [a, b]))),
        Parallel(s, Restrict(Distribute(ChanVar(0), (a, b)))),
        parse("a!m0 | new t. t => [a, b]"),
    ]
    assert all(p is built[0] for p in built)
    assert len({hash(p) for p in built}) == 1
    assert hash(built[0]) == object.__hash__(built[0])
    assert {s: 1}[Send(a, Atom("m0"))] == 1
    # two live objects of different structure: two identities
    left, right = Parallel(s, STOP), Parallel(STOP, s)
    assert hash(left) != hash(right)


def test_match_binds_every_field():
    p = Parallel(Receive(a, Send(b, ValVar(0))), Restrict(Distribute(ChanVar(0), [a, b])))
    match p:
        case Parallel(Receive(c, Send(d, v)), Restrict(Distribute(src, ts))):
            assert (c, d, v, src, ts) == (a, b, ValVar(0), ChanVar(0), (a, b))
        case _:
            pytest.fail("positional patterns did not match")
    match RepeatReceive(a, STOP):
        case RepeatReceive(channel=c, body=q):
            assert (c, q) == (a, STOP)
        case _:
            pytest.fail("keyword patterns did not match")
    for cls in (Send, Receive, RepeatReceive, Parallel, Restrict, Distribute, Stop):
        assert cls.__match_args__ == tuple(f.name for f in dataclasses.fields(cls))


# ---------------------------------------------------------------------------
# copying, pickling and the weak table
# ---------------------------------------------------------------------------


def test_copy_and_pickle_return_the_interned_node():
    p = parse("new t. (a -> t | t => [b, b] | a!m0)")
    q = parse("a ?* x. (b!x | new t. t!m1)")
    for term in (p, q, STOP):
        assert copy.copy(term) is term
        assert copy.deepcopy(term) is term
        assert pickle.loads(pickle.dumps(term)) is term
    assert copy.deepcopy([p, q]) == [p, q]


def test_table_drops_terms_nobody_holds():
    probe = Atom("interning-probe")
    key = (Send, a, probe)
    p = Restrict(Parallel(Send(a, probe), STOP))
    assert terms._TABLE[key]() is p.body.left
    alive = weakref.ref(p)
    del p
    gc.collect()
    assert alive() is None
    assert key not in terms._TABLE
    # rebuilding after the drop makes one new node again
    again = Send(a, probe)
    assert terms._TABLE[key]() is again


def test_lookup_that_loses_a_race_returns_the_node_in_the_table(monkeypatch):
    # another thread inserts the node between the lock-free lookup and the
    # insert: the insert must keep and return that node, not a twin
    probe = Atom("race-lost-probe")
    key = (Send, a, probe)
    held = Send(a, probe)

    class InsertedMeanwhile(dict):
        def get(self, key, default=None):
            return None

    table = InsertedMeanwhile({key: terms._TABLE[key]})
    monkeypatch.setattr(terms, "_TABLE", table)
    assert Send(a, probe) is held
    assert table[key]() is held and len(table) == 1


def test_dead_entry_is_replaced_by_the_new_node():
    key = (Send, a, Atom("dead-entry-probe"))
    victim = Send(a, Atom("dead-entry-probe"))
    dead = terms._Ref(victim)
    del victim
    gc.collect()
    assert dead() is None and key not in terms._TABLE
    terms._TABLE[key] = dead
    fresh = Send(a, Atom("dead-entry-probe"))
    assert terms._TABLE[key]() is fresh
    assert Send(a, Atom("dead-entry-probe")) is fresh


def test_threads_building_one_term_get_one_node():
    threads_n = 8
    interval = sys.getswitchinterval()
    # switch threads as often as possible, so that builds interleave
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(20):
            probe = Name(f"thread-probe-{round_}")
            barrier = threading.Barrier(threads_n, timeout=10)
            got = [None] * threads_n

            def build(i: int) -> None:
                barrier.wait()
                got[i] = Restrict(Parallel(Send(ChanVar(0), m0), Receive(probe, Send(ChanVar(0), ValVar(0)))))

            workers = [threading.Thread(target=build, args=(i,)) for i in range(threads_n)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=10)
                assert not w.is_alive()
            assert got[0] is not None and all(node is got[0] for node in got)
            for sub in subterms(got[0]):
                key = (type(sub), *(getattr(sub, f) for f in sub.__match_args__))
                assert terms._TABLE[key]() is sub
    finally:
        sys.setswitchinterval(interval)


# ---------------------------------------------------------------------------
# sort keys and equality against the reference key
# ---------------------------------------------------------------------------

_seeds = st.integers(min_value=0, max_value=40)
_depths = st.integers(min_value=0, max_value=3)


def _build(kind: str, seed: int, depth: int):
    gen = {"pi": random_pi, "comm": random_comm, "open": random_open}[kind]
    return gen(random.Random(seed), depth)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["pi", "comm"]), _seeds, _depths, _seeds, _depths)
def test_stored_term_key_matches_reference_and_equality(kind, s1, d1, s2, d2):
    p, q = _build(kind, s1, d1), _build(kind, s2, d2)
    for t in (p, q):
        for sub in subterms(t):
            assert term_key(sub) == reference_key(sub)
            assert sub._term_key == reference_key(sub)
    assert (p == q) is (reference_key(p) == reference_key(q))
    assert (p is q) is (p == q)
    assert _build(kind, s1, d1) is p


# ---------------------------------------------------------------------------
# the one-step fill against a field-by-field fill
# ---------------------------------------------------------------------------


def reference_slots(key) -> dict:
    """The fields and derived slots of a node built from `key` by putting
    each field and then each value of `_derive`, one by one."""
    cls = key[0]
    twin = object.__new__(cls)
    for name, value in zip(cls.__match_args__, key[1:]):
        getattr(cls, name).__set__(twin, value)
    for name, value in zip(cls._derived, twin._derive()):
        getattr(cls, name).__set__(twin, value)
    return {name: getattr(twin, name) for name in cls.__match_args__ + cls._derived}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["pi", "comm"]), _seeds, _depths, _seeds, _depths)
def test_each_node_is_filled_as_field_by_field_from_its_table_key(kind, s1, d1, s2, d2):
    p, q = _build(kind, s1, d1), _build(kind, s2, d2)
    for t in (p, q, Parallel(p, q), Restrict(Parallel(q, p)), Receive(a, Parallel(p, Send(b, ValVar(0))))):
        for sub in subterms(t):
            # the node is the table's entry for its own fields
            key = (type(sub), *sub._values(sub))
            assert terms._TABLE[key]() is sub
            slots = {name: getattr(sub, name) for name in sub.__match_args__ + sub._derived}
            assert slots == reference_slots(key)


# one sample of each interned class, and its text
REPRS = [
    (Name("a"), "Name(text='a')"),
    (ChanVar(1), "ChanVar(index=1)"),
    (Atom("m0"), "Atom(text='m0')"),
    (ValVar(0), "ValVar(index=0)"),
    (STOP, "Stop()"),
    (Send(a, m0), "Send(channel=Name(text='a'), payload=Atom(text='m0'))"),
    (Receive(a, Send(b, ValVar(0))), "Receive(channel=Name(text='a'), body=Send(channel=Name(text='b'), payload=ValVar(index=0)))"),
    (RepeatReceive(ChanVar(0), STOP), "RepeatReceive(channel=ChanVar(index=0), body=Stop())"),
    (Parallel(STOP, Send(a, m0)), "Parallel(left=Stop(), right=Send(channel=Name(text='a'), payload=Atom(text='m0')))"),
    (Restrict(STOP), "Restrict(body=Stop())"),
    (Distribute(a, [b, ChanVar(0)]), "Distribute(source=Name(text='a'), targets=(Name(text='b'), ChanVar(index=0)))"),
    (SendAct(a, m0), "SendAct(channel=Name(text='a'), payload=Atom(text='m0'))"),
    (ReceiveAct(ChanVar(0), ValVar(1)), "ReceiveAct(channel=ChanVar(index=0), payload=ValVar(index=1))"),
    (TAU, "Tau()"),
]


def test_repr_of_each_interned_class():
    assert [type(thing) for thing, _ in REPRS] == list(INTERNED)
    for thing, text in REPRS:
        assert repr(thing) == text


# ---------------------------------------------------------------------------
# channel masks against the substitution traversal
# ---------------------------------------------------------------------------


def reference_mask(p) -> int:
    """Bound-channel indices dangling at the top of `p`, as a bitmask."""
    used: set[int] = set()

    def record(c, d):
        if isinstance(c, ChanVar) and c.index - d >= 0:
            used.add(c.index - d)
        return c

    # names=True visits every occurrence, so the stored masks are not consulted
    terms._map(p, terms.CHAN, record, names=True)
    return sum(1 << i for i in used)


# a wider seed and depth range than above: receives on a bound channel that
# their body does not use are rare in small terms
@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["pi", "comm"]), st.integers(min_value=0, max_value=10**6), st.integers(0, 4))
def test_stored_channel_mask_matches_reference(kind, seed, depth):
    # subterms include bodies under one or more restrictions, where bound
    # channel indices dangle
    for sub in subterms(_build(kind, seed, depth)):
        assert sub._chan_mask == reference_mask(sub)


def test_channel_mask_of_each_constructor():
    c0, c1, c2 = ChanVar(0), ChanVar(1), ChanVar(2)
    assert STOP._chan_mask == 0
    assert Send(c2, ValVar(0))._chan_mask == 0b100
    assert Send(a, m0)._chan_mask == 0
    assert Receive(c1, Send(c0, ValVar(0)))._chan_mask == 0b11
    assert RepeatReceive(a, Send(c2, m0))._chan_mask == 0b100
    assert Parallel(Send(c0, m0), Send(c2, m0))._chan_mask == 0b101
    assert Restrict(Parallel(Send(c0, m0), Send(c2, m0)))._chan_mask == 0b10
    assert Restrict(Send(c0, m0))._chan_mask == 0
    assert Distribute(c1, [a, c2, c1])._chan_mask == 0b110
    assert Send(ChanVar(-1), m0)._chan_mask == 0


def reference_val_mask(p) -> int:
    """Bound-value indices dangling at the top of `p`, as a bitmask."""
    used: set[int] = set()

    def record(v, d):
        if isinstance(v, ValVar) and v.index - d >= 0:
            used.add(v.index - d)
        return v

    terms._map(p, terms.VAL, record, names=True)
    return sum(1 << i for i in used)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["pi", "comm", "open"]), st.integers(min_value=0, max_value=10**6), st.integers(0, 4))
def test_stored_value_mask_matches_reference(kind, seed, depth):
    # subterms include bodies under one or more receives, where bound
    # value indices dangle
    for sub in subterms(_build(kind, seed, depth)):
        assert sub._val_mask == reference_val_mask(sub)


def test_value_mask_of_each_constructor():
    v0, v1, v2 = ValVar(0), ValVar(1), ValVar(2)
    assert STOP._val_mask == 0
    assert Send(a, v2)._val_mask == 0b100
    assert Send(ChanVar(3), m0)._val_mask == 0
    assert Receive(a, Send(a, v0))._val_mask == 0
    assert Receive(a, Parallel(Send(a, v0), Send(b, v2)))._val_mask == 0b10
    assert RepeatReceive(ChanVar(1), Send(a, v2))._val_mask == 0b10
    assert Parallel(Send(a, v0), Send(b, v2))._val_mask == 0b101
    assert Restrict(Send(ChanVar(0), v1))._val_mask == 0b10
    assert Distribute(ChanVar(1), [a, ChanVar(2)])._val_mask == 0
    assert Send(a, ValVar(-1))._val_mask == 0
    assert Receive(a, Send(a, ValVar(-1)))._val_mask == 0


# ---------------------------------------------------------------------------
# channels, values and actions
# ---------------------------------------------------------------------------

SAMPLES = [Name("a"), ChanVar(1), Atom("m0"), ValVar(0), SendAct(a, m0), ReceiveAct(ChanVar(0), m0), TAU]


def test_equal_leaves_and_actions_are_the_same_object():
    assert Name("a") is a and Name(text="a") is a
    assert ChanVar(0) is ChanVar(index=0) and ChanVar(0) is not ChanVar(1)
    assert Atom(text="m0") is m0 and Atom("m0") is not Name("m0")
    assert ValVar(index=2) is ValVar(2)
    assert SendAct(Name("a"), Atom("m0")) is SendAct(channel=a, payload=m0)
    assert ReceiveAct(payload=m0, channel=a) is ReceiveAct(a, m0)
    assert SendAct(a, m0) is not ReceiveAct(a, m0)
    assert Tau() is TAU
    assert dataclasses.replace(SendAct(a, m0), payload=Atom("m1")) is SendAct(a, Atom("m1"))
    assert dataclasses.replace(Name("a"), text="b") is b
    # an open term's action, on a bound channel or value, interns too
    assert SendAct(ChanVar(0), ValVar(0)) is SendAct(ChanVar(0), ValVar(0))
    with pytest.raises(TypeError):
        SendAct(a)


@pytest.mark.parametrize("thing", [STOP, parse("new t. (a -> t | t ? x. b!x)"), *SAMPLES], ids=repr)
def test_copies_pickles_and_threads_get_the_one_object_and_its_hash(thing):
    assert copy.copy(thing) is thing and copy.deepcopy(thing) is thing
    assert hash(pickle.loads(pickle.dumps(thing))) == hash(thing)
    # rebuilt from its fields in other threads, it is the same object
    fields = thing._values(thing)
    got = []
    workers = [threading.Thread(target=lambda: got.append(type(thing)(*fields))) for _ in range(4)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=10)
    assert len(got) == 4 and all(x is thing for x in got)
    assert {hash(x) for x in got} == {hash(thing)}


def test_action_key_is_stored_and_orders_by_channel_then_payload():
    m1 = Atom("m1")
    assert action_key(TAU) == (0,)
    assert action_key(SendAct(a, m1)) == (1, "a", "m1")
    assert action_key(ReceiveAct(b, m0)) == (2, "b", "m0")
    acts = [ReceiveAct(a, m0), SendAct(b, m0), SendAct(a, m1), TAU, SendAct(a, m0), ReceiveAct(a, m1)]
    assert sorted(acts, key=action_key) == [
        TAU, SendAct(a, m0), SendAct(a, m1), SendAct(b, m0), ReceiveAct(a, m0), ReceiveAct(a, m1)
    ]
    # an action on a bound channel sorts by its index
    assert action_key(SendAct(ChanVar(3), m0)) == (1, 3, "m0")
    assert action_key(ReceiveAct(a, ValVar(1))) == (2, "a", 1)


@pytest.mark.parametrize("thing", SAMPLES, ids=repr)
def test_leaves_and_actions_copy_and_pickle_to_the_interned_object(thing):
    assert copy.copy(thing) is thing
    assert copy.deepcopy(thing) is thing
    assert pickle.loads(pickle.dumps(thing)) is thing


@pytest.mark.parametrize("thing", SAMPLES, ids=repr)
def test_leaves_and_actions_are_slotted_and_frozen(thing):
    assert not hasattr(thing, "__dict__")
    for name in thing.__match_args__:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(thing, name, None)


@pytest.mark.parametrize("thing", [STOP, Parallel(Send(a, m0), STOP), *SAMPLES], ids=repr)
def test_no_attribute_of_an_interned_object_can_be_set_or_deleted(thing):
    # names outside the fields too: a hash slot, which no interned class
    # has, a derived slot, a new name
    before = hash(thing)
    for name in (*thing.__match_args__, "_hash", "_term_key", "foo"):
        with pytest.raises(dataclasses.FrozenInstanceError, match=repr(name)):
            setattr(thing, name, 1)
        with pytest.raises(dataclasses.FrozenInstanceError, match=repr(name)):
            delattr(thing, name)
    assert hash(thing) == before


def test_leaves_and_actions_match_positionally_and_by_keyword():
    for cls in (Name, ChanVar, Atom, ValVar, SendAct, ReceiveAct, Tau):
        assert cls.__match_args__ == tuple(f.name for f in dataclasses.fields(cls))
    match SendAct(a, ChanVar(0)):
        case SendAct(Name(t), ChanVar(i)):
            assert (t, i) == ("a", 0)
        case _:
            pytest.fail("positional patterns did not match")
    match ReceiveAct(b, m0):
        case ReceiveAct(channel=Name(text=t), payload=v):
            assert (t, v) == ("b", m0)
        case _:
            pytest.fail("keyword patterns did not match")
    match TAU:
        case SendAct() | ReceiveAct():
            pytest.fail("tau matched a visible action")
        case Tau():
            pass


def test_threads_building_one_leaf_or_action_get_one_object():
    threads_n = 8
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(20):
            text = f"leaf-thread-probe-{round_}"
            barrier = threading.Barrier(threads_n, timeout=10)
            got = [None] * threads_n

            def build(i: int) -> None:
                barrier.wait()
                got[i] = ReceiveAct(Name(text), Atom(text))

            workers = [threading.Thread(target=build, args=(i,)) for i in range(threads_n)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=10)
                assert not w.is_alive()
            act = got[0]
            assert act is not None and all(x is act for x in got)
            assert terms._TABLE[(Name, text)]() is act.channel
            assert terms._TABLE[(Atom, text)]() is act.payload
            assert terms._TABLE[(ReceiveAct, act.channel, act.payload)]() is act
    finally:
        sys.setswitchinterval(interval)


def test_table_drops_leaves_and_actions_nobody_holds():
    text = "freed-leaf-probe"
    act = SendAct(Name(text), m0)
    assert terms._TABLE[(SendAct, act.channel, m0)]() is act
    alive = [weakref.ref(act), weakref.ref(act.channel)]
    del act
    gc.collect()
    assert [ref() for ref in alive] == [None, None]
    assert (Name, text) not in terms._TABLE
    assert not [key for key in terms._TABLE if key[0] is SendAct and getattr(key[1], "text", None) == text]
    # rebuilding after the drop makes one new object again
    again = Name(text)
    assert terms._TABLE[(Name, text)]() is again


@pytest.mark.parametrize("thing", [a, m0, STOP, "tau"], ids=repr)
def test_action_key_rejects_non_actions(thing):
    with pytest.raises(TypeError, match="not an action"):
        action_key(thing)
