"""Structural normal forms: frozen examples plus seeded properties."""

from __future__ import annotations

import random

from netproc import (
    Atom,
    ChanVar,
    Name,
    Parallel,
    Restrict,
    STOP,
    Send,
    abstract_channel,
    compose_parallel,
    normalize,
    parallel_components,
    parse,
    pretty,
    term_key,
    term_order,
)
from netproc import normalform
from helpers import random_comm, random_pi

# ---------------------------------------------------------------------------
# Frozen rewrites
# ---------------------------------------------------------------------------


def test_frozen_normal_forms():
    cases = [
        ("(a!m0 | 0) | (0 | b!m1)", "a!m0 | b!m1"),
        ("b!m1 | a!m0", "a!m0 | b!m1"),
        ("new t. new u. u!m0", "new t. t!m0"),
        ("new t. a!m0", "a!m0"),
        ("0 | 0", "0"),
        ("new t. (b!m0 | (a!m0 | 0))", "a!m0 | b!m0"),
        ("new u. new t. (t!m0 | u!m1)", "new t. new u. u!m0 | t!m1"),
        ("a ? x. (b!x | 0 | a!m0)", "a?x. (a!m0 | b!x)"),
    ]
    for src, want in cases:
        assert pretty(normalize(parse(src))) == want, src


def test_normal_form_of_normal_form_is_silent():
    rng = random.Random(201)
    for _ in range(300):
        p = random_comm(rng, 3)
        nf = normalize(p)
        assert normalize(nf) is nf


def test_restriction_swap_normalizes_equal():
    h0, h1 = Name("_h0"), Name("_h1")
    t1 = Parallel(Send(h0, Atom("m0")), parse("lose b"))
    body = Parallel(t1, Send(h1, Atom("m1")))
    one = Restrict(abstract_channel(Restrict(abstract_channel(body, h1)), h0))
    other = Restrict(abstract_channel(Restrict(abstract_channel(body, h0)), h1))
    assert normalize(one) == normalize(other)


def test_unused_binder_is_dropped_with_index_repair():
    p = parse("new t. new u. (t!m0 | c -> t)")
    nf = normalize(p)
    assert pretty(nf) == "new t. t!m0 | c => [t]"


def test_a_normal_form_found_through_a_unit_is_known_as_normal(monkeypatch):
    # `b!m0 | a!m0` is first normalized as the core of a run, a unit; read
    # again, its normal form comes from the unit's entry, and is one lookup
    # away from being known as a normal form
    monkeypatch.setattr(normalform, "_CACHE", {})
    core = parse("b!m0 | a!m0")
    assert pretty(normalize(Restrict(core))) == "a!m0 | b!m0"
    n = normalize(core)
    assert n is not core and normalform._CACHE.get(n) is n
    assert normalform._CACHE.get(core) is not core


def test_used_binder_is_kept_without_rebuilding_the_body(monkeypatch):
    calls = []
    real = normalform._map

    def counting(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(normalform, "_map", counting)
    monkeypatch.setattr(normalform, "_CACHE", {})
    p = Restrict(Parallel(Send(Name("usage-probe"), Atom("m1")), Send(ChanVar(0), Atom("m0"))))
    assert normalize(p) is p
    assert calls == []


# ---------------------------------------------------------------------------
# Algebraic properties
# ---------------------------------------------------------------------------


def test_parallel_commutative_and_associative_up_to_normal_form():
    rng = random.Random(202)
    for _ in range(200):
        p, q, r = (random_comm(rng, 2) for _ in range(3))
        assert normalize(Parallel(p, q)) == normalize(Parallel(q, p))
        assert normalize(Parallel(Parallel(p, q), r)) == normalize(Parallel(p, Parallel(q, r)))
        assert normalize(Parallel(p, STOP)) == normalize(p)
        assert normalize(Parallel(STOP, p)) == normalize(p)


def test_pi_terms_normalize_idempotently():
    rng = random.Random(203)
    for _ in range(200):
        p = random_pi(rng, 3)
        nf = normalize(p)
        assert normalize(nf) is nf


def test_term_order_is_total_and_consistent():
    rng = random.Random(204)
    terms = [random_comm(rng, 2) for _ in range(60)]
    for p in terms:
        assert term_order(p, p) == 0
    for p in terms:
        for q in terms:
            o = term_order(p, q)
            assert o == -term_order(q, p)
            if o == 0:
                assert term_key(p) == term_key(q)
    ordered = sorted(terms, key=term_key)
    assert sorted(ordered, key=term_key) == ordered


def test_components_round_trip():
    p = parse("a!m0 | (b!m1 | lose c)")
    comps = parallel_components(p)
    assert len(comps) == 3
    assert compose_parallel(comps) == parse("a!m0 | b!m1 | lose c")
    assert compose_parallel([]) == STOP
    assert parallel_components(STOP) == [STOP]


def test_normalization_reaches_under_prefixes():
    p = parse("a ?* x. (0 | (b!x | 0))")
    assert pretty(normalize(p)) == "a?*x. b!x"
