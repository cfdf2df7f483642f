"""Seeded term generators and a move-table probe shared across the test
modules."""

from __future__ import annotations

import random
from collections import Counter

from netproc import (
    Atom,
    ChanVar,
    Distribute,
    Name,
    Parallel,
    Process,
    Receive,
    RepeatReceive,
    Restrict,
    STOP,
    Send,
    ValVar,
    abstract_channel,
)

from netproc.semantics import Moves

CHANNELS = [Name("a"), Name("b"), Name("c")]
VALUES = ["m0", "m1"]


def random_comm(rng: random.Random, depth: int, scope: list[Name] | None = None) -> Process:
    """Closed network-language term over a small channel scope."""
    scope = scope if scope is not None else CHANNELS
    kinds = ["stop", "send", "dist", "par", "nu"] if depth > 0 else ["stop", "send", "dist"]
    kind = rng.choice(kinds)
    if kind == "stop":
        return STOP
    if kind == "send":
        return Send(rng.choice(scope), Atom(rng.choice(VALUES)))
    if kind == "dist":
        n = rng.randrange(0, 3)
        return Distribute(rng.choice(scope), tuple(rng.choice(scope) for _ in range(n)))
    if kind == "par":
        return Parallel(random_comm(rng, depth - 1, scope), random_comm(rng, depth - 1, scope))
    hole = Name(f"h{depth}")
    body = random_comm(rng, depth - 1, scope + [hole])
    return Restrict(abstract_channel(body, hole))


def random_pi(rng: random.Random, depth: int, scope: list[Name] | None = None, vals: int = 0) -> Process:
    """Closed base-calculus term; `vals` counts value binders in scope."""
    scope = scope if scope is not None else CHANNELS
    kinds = ["stop", "send", "recv", "bang", "par", "nu"] if depth > 0 else ["stop", "send"]
    kind = rng.choice(kinds)
    if kind == "stop":
        return STOP
    if kind == "send":
        if vals and rng.random() < 0.5:
            payload = ValVar(rng.randrange(vals))
        else:
            payload = Atom(rng.choice(VALUES))
        return Send(rng.choice(scope), payload)
    if kind == "recv":
        return Receive(rng.choice(scope), random_pi(rng, depth - 1, scope, vals + 1))
    if kind == "bang":
        return RepeatReceive(rng.choice(scope), random_pi(rng, depth - 1, scope, vals + 1))
    if kind == "par":
        return Parallel(random_pi(rng, depth - 1, scope, vals), random_pi(rng, depth - 1, scope, vals))
    hole = Name(f"h{depth}")
    body = random_pi(rng, depth - 1, scope + [hole], vals)
    return Restrict(abstract_channel(body, hole))


def random_open(rng, depth):
    """Any-constructor term whose indices may dangle or be negative."""

    def chan():
        return rng.choice([Name("a"), Name("b"), ChanVar(rng.randrange(-1, 4))])

    def val():
        return rng.choice([Atom("m0"), Atom("m1"), ValVar(rng.randrange(-1, 4))])

    kinds = ["stop", "send", "dist"] + (["recv", "bang", "par", "nu"] if depth > 0 else [])
    kind = rng.choice(kinds)
    if kind == "stop":
        return STOP
    if kind == "send":
        return Send(chan(), val())
    if kind == "dist":
        return Distribute(chan(), [chan() for _ in range(rng.randrange(3))])
    if kind == "recv":
        return Receive(chan(), random_open(rng, depth - 1))
    if kind == "bang":
        return RepeatReceive(chan(), random_open(rng, depth - 1))
    if kind == "par":
        return Parallel(random_open(rng, depth - 1), random_open(rng, depth - 1))
    return Restrict(random_open(rng, depth - 1))


def count_fills(monkeypatch) -> Counter:
    """From now on, count how often each `Moves` table fills each state.

    The keys are (table, state), tables numbered from 0 in the order of
    their first fill; the tables are kept alive, so no two share a number.
    """
    fills: Counter = Counter()
    tables: list[Moves] = []
    fill = Moves.__missing__

    def counting(table, p):
        number = next((i for i, t in enumerate(tables) if t is table), None)
        if number is None:
            number = len(tables)
            tables.append(table)
        fills[number, p] += 1
        return fill(table, p)

    monkeypatch.setattr(Moves, "__missing__", counting)
    return fills
