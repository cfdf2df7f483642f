"""Seeded request lists for the four benchmark workloads.

Everything here is plain text and plain data: the terms are written in
netproc's surface syntax and every request carries the answer it must
produce, worked out by hand from the laws of the calculus, never by
asking netproc.  The same seed always yields the same requests.

Seeds vary the inputs without changing their cost class: the seed picks
the free channel names (which reorders the canonical sort of every
term) and sample members, but each request list keeps a
fixed count of every kind of request, so runs on different seeds do
comparable work.  No two requests share a channel name, so no request
finds another's states in the module caches, as with separate CLI calls.
"""

from __future__ import annotations

import itertools
import random

WORKLOADS = ("laws", "cross-exam", "weak", "explore")


# run_laws() rows: 6 par-unit-left + 6 par-unit-right + 64 par-assoc +
# 36 par-comm + 3 restrict-swap + 6 restrict-unused, 14 idempotency
# instances, then 25 par-congruence + 25 restrict-congruence + 4
# par-congruence-weak + 4 restrict-congruence-weak + 1 strong-implies-weak.
LAW_ROWS = 6 + 6 + 64 + 36 + 3 + 6 + 14 + 25 + 25 + 4 + 4 + 1
# LawReport.proven lists the proven instances in that order, then the
# par-congruence conclusions.  Re-proofs are drawn from two strata of like
# cost: par-assoc instances, and the two bridge-idem instances, which cost
# about twenty times more.  Most are bridge-idem, so that the median and
# p90 fall among them: a par-assoc re-proof on warm caches takes under
# 0.1 ms, too short to time steadily.
_ASSOC_ROWS = range(12, 76)
_IDEMPOTENCY_ROWS = (125, 126)


class _Channels:
    """Fresh free channel names in a seeded order; none is handed out twice.
    They differ from the binder names in the templates (t, h0, h1, zz, x)."""

    def __init__(self, rng: random.Random) -> None:
        self._names = iter([f"c{i}" for i in rng.sample(range(10_000), 1_000)])

    def take(self, k: int) -> list[str]:
        return [next(self._names) for _ in range(k)]

    def abc(self) -> dict[str, str]:
        return dict(zip("abc", self.take(3)))


def _balanced(rng: random.Random, pool, k: int) -> list:
    """k members of pool in a seeded order: each one k // len(pool) times,
    and the remaining few drawn without repeats, so that a seed changes
    the mix of members of unlike cost as little as it can."""
    out = list(pool) * (k // len(pool)) + rng.sample(list(pool), k % len(pool))
    rng.shuffle(out)
    return out


def _check(left: str, right: str, expect: str, **bounds) -> dict:
    return {"kind": "check", "left": left, "right": right, "expect": expect, **bounds}


# ---------------------------------------------------------------------------
# laws: the law suite, as `netproc laws` runs it, plus audited re-proofs
# ---------------------------------------------------------------------------


def laws(seed: int) -> list[dict]:
    rng = random.Random(seed)
    out: list[dict] = []
    # Premise seeds are fixed, 11 being the CLI's: a premise seed picks the
    # pairs the conditional laws compose, and some picks make run_laws()
    # cost 2.4 times more, which would swamp every other difference
    for size, premise_seed in ((2, 11), (3, 12), (4, 13), (4, 14)):
        values = [f"m{i}" for i in range(size)]
        report = len(out)
        out.append({"kind": "laws", "values": values, "premise_seed": premise_seed, "rows": LAW_ROWS})
        # law instances and their congruence closures are bisimilar by
        # construction, so every re-proof must end proven or inconclusive
        for row in _balanced(rng, _ASSOC_ROWS, 6) + _balanced(rng, _IDEMPOTENCY_ROWS, 18):
            out.append({"kind": "reprove", "report": report, "row": row})
    return out


# ---------------------------------------------------------------------------
# cross-exam: the plain game over law instances, `netproc check --no-upto`
# ---------------------------------------------------------------------------

_SENDS = ("{a}!m0", "{b}!m1")
_FORWARDERS = ("{a} -> {b}", "{b} -> {c}")


def _unit_laws(p: str) -> list[tuple[str, str]]:
    """par-unit-left, par-unit-right and restrict-unused instances over p."""
    return [(f"0 | ({p})", p), (f"({p}) | 0", p), (f"new zz. ({p})", p)]


def _comm(p: str, q: str) -> tuple[str, str]:
    return f"({p}) | ({q})", f"({q}) | ({p})"


# Instances of the law catalog's laws, in strata of like cost.  Sends alone
# are finite-state, so the plain game proves them; one forwarder makes the
# state space infinite; a duplicator makes it grow fastest.
_ONE_SEND = [i for p in _SENDS for i in _unit_laws(p)]
_SENDS_ONLY = _ONE_SEND + [_comm(p, q) for p, q in itertools.product(_SENDS, repeat=2)]
_ONE_FORWARDER = [
    (f"(({p}) | ({q})) | ({r})", f"({p}) | (({q}) | ({r}))")
    for f in _FORWARDERS
    for s1, s2 in itertools.product(_SENDS, repeat=2)
    for p, q, r in ((f, s1, s2), (s1, f, s2), (s1, s2, f))
]
_DUP_PAIR = [pair for s in _SENDS for pair in (_comm("dup {c}", s), _comm(s, "dup {c}"))]

# hand-listed pairs told apart by a short observable play
_DISTINCT = (
    ("{a} -> {b}", "{a} -> {c}"),
    ("lose {a}", "{a} -> {b}"),
    ("{a}!m0", "{a}!m1"),
    ("dup {a}", "lose {a}"),
    ("{a} <-> {b}", "{a} -> {b}"),
    ("{a}!m0 | {a}!m0", "{a}!m0"),
    ("{a} ?* x. {b}!x", "{a} ?* x. {c}!x"),
)

_PLAIN = {"upto": "plain", "weak": False, "max_pairs": 4, "node_budget": 30, "max_trace_depth": 8}


def cross_exam(seed: int) -> list[dict]:
    rng = random.Random(seed)
    channels = _Channels(rng)
    out: list[dict] = []

    def add(pairs, count: int, expect: str) -> None:
        for left, right in _balanced(rng, pairs, count):
            n = channels.abc()
            out.append(_check(left.format(**n), right.format(**n), expect, **_PLAIN))

    add(_DISTINCT, 14, "distinct")
    add(_SENDS_ONLY, 8, "bisimilar")
    # bisimilarity is a congruence for `|`, so composing two instances
    # side by side gives another bisimilar pair
    for _ in range(8):
        (l1, r1), (l2, r2) = rng.sample(_ONE_SEND, 2)
        n1, n2 = channels.abc(), channels.abc()
        out.append(_check(f"({l1.format(**n1)}) | ({l2.format(**n2)})",
                          f"({r1.format(**n1)}) | ({r2.format(**n2)})", "bisimilar", **_PLAIN))
    add(_ONE_FORWARDER, 45, "bisimilar")
    add(_DUP_PAIR, 20, "bisimilar")
    add([("dup {a} | dup {a}", "dup {a}")], 5, "bisimilar")
    return out


# ---------------------------------------------------------------------------
# weak: the weak game, where the defender's weak closure does the work
# ---------------------------------------------------------------------------

_WEAK_PROOFS = (
    ("new t. (t!m0 | lose t)", "0"),
    ("lose {a} | lose {a}", "lose {a}"),
    ("new t. (t!m0 | t -> {b})", "{b}!m0"),
    ("new t. t!m1", "0"),
    ("new t. (t!m0 | t!m1 | lose t)", "0"),
    ("new t. (t!m0 | t -> {b}) | lose {b}", "{b}!m0 | lose {b}"),
    ("new t. (t!m1 | t -> {c})", "{c}!m1"),
    ("{a}!m0 | lose {b}", "lose {b} | {a}!m0"),
)

_WEAK_REFUTATIONS = (
    ("{a} -> {b}", "{a} -> {c}"),
    ("new t. ({a} -> t | t -> {b})", "{a} -> {c}"),
    ("new t. ({a} -> t | t -> {b})", "lose {a}"),
    ("new t. (t!m0 | t -> {b})", "{b}!m1"),
    ("{a}!m0 | {a}!m0", "{a}!m0"),
    ("new t. ({a} -> t | lose t)", "{a} -> {b}"),
    ("lose {a}", "0"),
)

# (tau bound, max pairs, trace depth) for the two families whose hidden
# buffer grows without bound, so the game can only end inconclusive
_RELAY_BOUNDS = ((2, 4, 3), (3, 6, 3), (3, 4, 3), (2, 6, 3))
_LOSER_BOUNDS = ((2, 4, 3),)


def _weak(tau_bound: int, max_pairs: int, depth: int) -> dict:
    return {"upto": "full", "weak": True, "tau_bound": tau_bound, "max_pairs": max_pairs,
            "node_budget": 40_000, "max_trace_depth": depth}


def weak(seed: int) -> list[dict]:
    rng = random.Random(seed)
    channels = _Channels(rng)
    out: list[dict] = []
    for pairs, count, expect in ((_WEAK_PROOFS, 20, "bisimilar"), (_WEAK_REFUTATIONS, 20, "distinct")):
        for left, right in _balanced(rng, pairs, count):
            n = channels.abc()
            out.append(_check(left.format(**n), right.format(**n), expect, **_weak(4, 16, 6)))
    # a hop into a hidden sink is weakly a sink, and a relay through a
    # hidden hop is weakly a direct link
    for (left, right), bounds, count in (
        (("new t. ({a} -> t | lose t)", "lose {a}"), _LOSER_BOUNDS, 35),
        (("new t. ({a} -> t | t -> {b})", "{a} -> {b}"), _RELAY_BOUNDS, 25),
    ):
        for b in _balanced(rng, bounds, count):
            n = channels.abc()
            out.append(_check(left.format(**n), right.format(**n), "bisimilar", **_weak(*b)))
    return out


# ---------------------------------------------------------------------------
# explore: delivery exploration and random simulation of two networks
# ---------------------------------------------------------------------------


def _anycast(s: str, r1: str, r2: str, r3: str) -> str:
    return f"new t. ({s} -> t | t -> {r1} | t -> {r2} | t -> {r3})"


def _lossy(s: str, r1: str, r2: str, r3: str) -> str:
    return f"new t. ({s} -> t | duplose t | t -> {r1} | t -> {r2} | t -> {r3})"


def _anycast_profiles(receivers: tuple[str, ...], values: list[str]) -> list[list[list[str]]]:
    """Every injected value reaches exactly one receiver, so the delivery
    profiles are the multisets of one (receiver, value) per injection."""
    profiles = {
        tuple(sorted(zip(choice, values))) for choice in itertools.product(receivers, repeat=len(values))
    }
    return sorted([list(map(list, p)) for p in profiles])


def explore(seed: int) -> list[dict]:
    rng = random.Random(seed)
    channels = _Channels(rng)
    out: list[dict] = []
    for kind in _balanced(rng, ("anycast", "lossy"), 22):
        s, *rs = channels.take(4)
        if kind == "anycast":
            values = rng.sample(("m0", "m1"), 2)
            # two internal hops per message, then only outputs remain
            net, expect = _anycast(s, *rs), {"events": 2 * len(values)}
        else:
            values = [rng.choice(("m0", "m1"))]
            net, expect = _lossy(s, *rs), {"events_at_most": 24}
        out.append({"kind": "simulate", "net": net, "inputs": [[s, v] for v in values], "steps": 24,
                    "sim_seed": rng.randrange(10**6), "expect": expect})
    # anycast with one, two (distinct) and three (one repeated) messages
    for count in (1,) * 20 + (2,) * 40 + (3,) * 3:
        s, *rs = channels.take(4)
        values = rng.sample(("m0", "m1"), 2)[: min(count, 2)]
        if count == 3:
            values.append(rng.choice(values))
        query = rng.choice(("total = {n}", "distinct >= 2", "{r} >= 1")).format(n=count, r=rs[0])
        # each message is delivered exactly once, so `distinct >= 2` holds
        # only when one value was injected twice
        satisfied = query != "distinct >= 2" or len(set(values)) < len(values)
        out.append({
            "kind": "explore", "net": _anycast(s, *rs), "inputs": [[s, v] for v in values],
            "max_depth": 3 * count + 2, "query": query,
            "expect": {"profiles": _anycast_profiles(tuple(rs), values), "query": satisfied},
        })
    # lossy broadcast: the message may be lost, or duplicated to several
    # receivers; six steps are the fewest that deliver it to two of them
    for _ in range(15):
        s, *rs = channels.take(4)
        out.append({
            "kind": "explore", "net": _lossy(s, *rs), "inputs": [[s, rng.choice(("m0", "m1"))]],
            "max_depth": 6, "query": "distinct >= 2",
            "expect": {"lossy": True, "receivers": sorted(rs), "query": True},
        })
    return out


def generate(workload: str, seed: int) -> list[dict]:
    """The request list of one workload; ids are positions in the list."""
    make = {"laws": laws, "cross-exam": cross_exam, "weak": weak, "explore": explore}[workload]
    return [dict(r, id=i) for i, r in enumerate(make(seed))]
