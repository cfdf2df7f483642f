"""Concrete syntax: parse shapes, sugar, printing round trips, errors."""

from __future__ import annotations

import random

import pytest

from netproc import (
    Atom,
    ChanVar,
    Distribute,
    Name,
    Parallel,
    ParseError,
    Receive,
    RepeatReceive,
    Restrict,
    STOP,
    ScopeError,
    Send,
    TAU,
    ValVar,
    SendAct,
    ReceiveAct,
    parse,
    pretty,
    pretty_action,
)
from helpers import random_comm, random_pi

# ---------------------------------------------------------------------------
# Parse shapes
# ---------------------------------------------------------------------------


def test_parse_core_forms():
    assert parse("0") == STOP
    assert parse("a!m0") == Send(Name("a"), Atom("m0"))
    assert parse("a ? x. b!x") == Receive(Name("a"), Send(Name("b"), ValVar(0)))
    assert parse("a ?* x. a!x") == RepeatReceive(Name("a"), Send(Name("a"), ValVar(0)))
    assert parse("a => [b, c]") == Distribute(Name("a"), (Name("b"), Name("c")))
    assert parse("a => []") == Distribute(Name("a"), ())
    assert parse("new t. t!m0") == Restrict(Send(ChanVar(0), Atom("m0")))
    assert parse("a!m0 | b!m1") == Parallel(Send(Name("a"), Atom("m0")), Send(Name("b"), Atom("m1")))


def test_parse_sugar_expands_to_distributors():
    assert parse("a -> b") == Distribute(Name("a"), (Name("b"),))
    assert parse("a <-> b") == Parallel(
        Distribute(Name("a"), (Name("b"),)), Distribute(Name("b"), (Name("a"),))
    )
    assert parse("lose a") == Distribute(Name("a"), ())
    assert parse("dup a") == Distribute(Name("a"), (Name("a"), Name("a")))
    assert parse("duplose a") == Parallel(
        Distribute(Name("a"), ()), Distribute(Name("a"), (Name("a"), Name("a")))
    )


def test_parallel_is_right_nested_and_binders_stack():
    p = parse("a!m0 | b!m1 | c!m0")
    assert p == Parallel(Send(Name("a"), Atom("m0")), Parallel(Send(Name("b"), Atom("m1")), Send(Name("c"), Atom("m0"))))
    q = parse("new t. new u. (t!m0 | u!m1)")
    assert q == Restrict(Restrict(Parallel(Send(ChanVar(1), Atom("m0")), Send(ChanVar(0), Atom("m1")))))


def test_restriction_body_runs_to_group_end():
    p = parse("new t. t -> a | t -> b")
    assert p == Restrict(Parallel(Distribute(ChanVar(0), (Name("a"),)), Distribute(ChanVar(0), (Name("b"),))))
    q = parse("(new t. t -> a) | c!m0")
    assert isinstance(q, Parallel) and isinstance(q.left, Restrict)


def test_receive_body_stops_at_parallel_bar():
    p = parse("a ? x. b!x | c!m0")
    assert p == Parallel(Receive(Name("a"), Send(Name("b"), ValVar(0))), Send(Name("c"), Atom("m0")))
    q = parse("a ? x. (b!x | c!m0)")
    assert q == Receive(Name("a"), Parallel(Send(Name("b"), ValVar(0)), Send(Name("c"), Atom("m0"))))


def test_shadowing_resolves_to_innermost_binder():
    p = parse("new t. new t. t!m0")
    assert p == Restrict(Restrict(Send(ChanVar(0), Atom("m0"))))
    q = parse("a ? x. a ? x. b!x")
    assert q == Receive(Name("a"), Receive(Name("a"), Send(Name("b"), ValVar(0))))


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------


def test_pretty_parse_round_trip_on_random_terms():
    rng = random.Random(401)
    for _ in range(300):
        p = random_comm(rng, 3)
        assert parse(pretty(p)) == p
    for _ in range(200):
        p = random_pi(rng, 3)
        assert parse(pretty(p)) == p


def test_pretty_uses_readable_binder_names():
    assert pretty(parse("new q. (q!m0 | a -> q)")) == "new t. t!m0 | a => [t]"
    # display names step aside when a free name would be captured
    p = parse("new q. (q!m0 | t!m1)")
    assert pretty(p) == "new u. u!m0 | t!m1"
    assert parse(pretty(p)) == p


def test_pretty_action_forms():
    assert pretty_action(TAU) == "tau"
    assert pretty_action(SendAct(Name("a"), Atom("m0"))) == "a!m0"
    assert pretty_action(ReceiveAct(Name("b"), Atom("m1"))) == "b?m1"


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse("a!m0 |")
    assert "line 1 col 7" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse("a !")
    assert "line 1" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse("a => [b")
    assert "line 1 col 8" in str(err.value)
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse("a!m0 extra")


def test_scope_errors_for_cross_sort_use():
    with pytest.raises(ScopeError) as err:
        parse("a ? x. x!m0")
    assert "used as a channel" in str(err.value)
    with pytest.raises(ScopeError) as err:
        parse("new t. a!t")
    assert "no mobility" in str(err.value)


@pytest.mark.parametrize(
    "term, message",
    [
        # once printed as `new t. t!m0`, a different and closed term
        (Restrict(Send(ChanVar(1), Atom("m0"))), "channel index 1"),
        # once printed as `a?x. b!x`
        (Receive(Name("a"), Send(Name("b"), ValVar(1))), "value index 1"),
        (Send(ChanVar(0), Atom("m0")), "channel index 0"),
        (Parallel(Restrict(Send(ChanVar(0), Atom("m0"))), Send(Name("a"), ValVar(0))), "value index 0"),
        (Restrict(Send(ChanVar(-1), Atom("m0"))), "channel index -1"),
        (Receive(Name("a"), Send(Name("b"), ValVar(-1))), "value index -1"),
        (Distribute(Name("a"), [Name("b"), ChanVar(2)]), "channel index 2"),
    ],
)
def test_pretty_rejects_a_dangling_index(term, message):
    with pytest.raises(ScopeError, match=f"{message} refers to no enclosing binder"):
        pretty(term)


def test_keywords_are_not_identifiers():
    with pytest.raises(ParseError):
        parse("new!m0")
    with pytest.raises(ParseError):
        parse("lose")


def test_deep_nesting_parses_and_round_trips():
    # groups, receive prefixes and `new` chains are read on an explicit stack
    assert parse("(" * 5000 + "a!m0" + ")" * 5000) == parse("a!m0")
    chain = "a?x. " * 100 + "(" * 100 + "b!x" + ")" * 100
    assert parse(chain) == parse("a?x. " * 100 + "b!x")
    # a prefix body that starts with `new` runs to the end of its group
    assert parse("(a?x. new t. t!x | b!x) | c!m0") == Parallel(
        Receive(Name("a"), Restrict(Parallel(Send(ChanVar(0), ValVar(0)), Send(Name("b"), ValVar(0))))),
        Send(Name("c"), Atom("m0")),
    )
    receives = groups = Send(Name("b"), ValVar(0))
    for _ in range(1500):
        receives = Receive(Name("a"), receives)
        groups = RepeatReceive(Name("a"), Parallel(Send(Name("c"), ValVar(0)), groups))
    for p in (receives, groups):
        assert parse(pretty(p)) is p
    nest = " | ".join(f"new t{i}. t{i}!m0" for i in range(1500))
    assert pretty(parse(nest)).count("new ") == 1500
