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
    normal_process,
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
        ("(a!m0 | 0) | (0 | b!m1)", "a!m0 | b!m1", ("assoc", "unit", "unit")),
        ("b!m1 | a!m0", "a!m0 | b!m1", ("comm",)),
        ("new t. new u. u!m0", "new t. t!m0", ("nu-drop",)),
        ("new t. a!m0", "a!m0", ("nu-drop",)),
        ("0 | 0", "0", ("unit", "unit")),
        ("new t. (b!m0 | (a!m0 | 0))", "a!m0 | b!m0", ("unit", "comm", "nu-drop")),
        ("new u. new t. (t!m0 | u!m1)", "new t. new u. u!m0 | t!m1", ()),
        ("a ? x. (b!x | 0 | a!m0)", "a?x. (a!m0 | b!x)", ("unit", "comm")),
    ]
    for src, want, prov in cases:
        nf = normalize(parse(src))
        assert pretty(nf.process) == want, src
        assert nf.provenance == prov, (src, nf.provenance)


def test_normal_form_of_normal_form_is_silent():
    rng = random.Random(201)
    for _ in range(300):
        p = random_comm(rng, 3)
        nf = normalize(p)
        again = normalize(nf.process)
        assert again.process == nf.process
        assert again.provenance == ()


def test_restriction_swap_normalizes_equal():
    h0, h1 = Name("_h0"), Name("_h1")
    t1 = Parallel(Send(h0, Atom("m0")), parse("lose b"))
    body = Parallel(t1, Send(h1, Atom("m1")))
    one = Restrict(abstract_channel(Restrict(abstract_channel(body, h1)), h0))
    other = Restrict(abstract_channel(Restrict(abstract_channel(body, h0)), h1))
    assert normal_process(one) == normal_process(other)


def test_unused_binder_is_dropped_with_index_repair():
    p = parse("new t. new u. (t!m0 | c -> t)")
    nf = normal_process(p)
    assert pretty(nf) == "new t. t!m0 | c => [t]"


def test_used_binder_is_kept_without_rebuilding_the_body(monkeypatch):
    calls = []
    real = normalform._map_channels

    def counting(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(normalform, "_map_channels", counting)
    monkeypatch.setattr(normalform, "_CACHE", {})
    p = Restrict(Parallel(Send(Name("usage-probe"), Atom("m1")), Send(ChanVar(0), Atom("m0"))))
    nf = normalize(p)
    assert nf.process is p and nf.provenance == ()
    assert calls == []


# ---------------------------------------------------------------------------
# Algebraic properties
# ---------------------------------------------------------------------------


def test_parallel_commutative_and_associative_up_to_normal_form():
    rng = random.Random(202)
    for _ in range(200):
        p, q, r = (random_comm(rng, 2) for _ in range(3))
        assert normal_process(Parallel(p, q)) == normal_process(Parallel(q, p))
        assert normal_process(Parallel(Parallel(p, q), r)) == normal_process(Parallel(p, Parallel(q, r)))
        assert normal_process(Parallel(p, STOP)) == normal_process(p)
        assert normal_process(Parallel(STOP, p)) == normal_process(p)


def test_pi_terms_normalize_idempotently():
    rng = random.Random(203)
    for _ in range(200):
        p = random_pi(rng, 3)
        nf = normalize(p)
        assert normalize(nf.process).process == nf.process


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
    assert pretty(normal_process(p)) == "a?*x. b!x"
