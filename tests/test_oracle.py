"""Weak verdicts checked against an exact oracle that shares no prover code.

The oracle decides weak bisimilarity of two terms whose reachable state
spaces are finite.  It builds their normalized LTS with `reachable` and
plain `_step`, saturates it under τ (the weak steps, with the zero-step τ),
and refines a partition of the states by signatures until it is stable:
two states are weakly bisimilar when they end in one block (Kanellakis &
Smolka, "CCS expressions, finite state processes, and three problems of
equivalence", 1990).  It calls no `_reduce`, `_Prover` or
`audit_witness`, so a fault in the up-to reductions cannot pass it.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from netproc import Verdict, audit_witness, check_weak, normalize, parse
from netproc.semantics import TAU, _step, effective_universe, reachable


def weakly_bisimilar(p, q, max_states: int = 500) -> bool | None:
    """Whether p and q are weakly bisimilar; None when either reaches more
    than `max_states` states."""
    universe = effective_universe(None, p, q)
    p, q = normalize(p), normalize(q)
    edges: dict = {}

    def successors(s):
        if s not in edges:
            edges[s] = {(a, normalize(t)) for a, t in _step(s, universe)}
        return [t for _, t in edges[s]]

    states: list = []
    for start in (p, q):
        found, cut = reachable(start, successors, max_states)
        if cut:
            return None
        states += [s for s in found if s not in states]
    for s in states:
        successors(s)
    taus = {s: reachable(s, lambda x: [t for a, t in edges[x] if a is TAU], len(states) + 1)[0] for s in states}
    weak = {
        s: {(TAU, u) for u in taus[s]}
        | {(a, u) for m in taus[s] for a, t in edges[m] if a is not TAU for u in taus[t]}
        for s in states
    }
    block = dict.fromkeys(states, 0)
    while True:
        signature = {s: (block[s], frozenset((a, block[u]) for a, u in weak[s])) for s in states}
        ids: dict = {}
        refined = {s: ids.setdefault(signature[s], len(ids)) for s in states}
        if len(ids) == len(set(block.values())):
            return refined[p] == refined[q]
        block = refined


def test_oracle_decides_the_textbook_cases():
    cases = [
        ("new t. (t!m0 | t -> b)", "b!m0", True),
        ("new t. (t!m0 | t -> b)", "b!m1", False),
        ("new t. (t!m0 | t -> b | t -> c)", "b!m0", False),
        ("new t. (t!m0 | t => [t, t])", "0", None),
        ("lose a", "lose a | lose a", True),
        ("lose a", "0", False),
        ("a!m0", "a!m0 | a!m0", False),
    ]
    for left, right, expect in cases:
        assert weakly_bisimilar(parse(left), parse(right), 60) is expect, (left, right)


# Pending sends on a restricted channel t, with the consumers of t in one of
# these shapes; `{sends}` is the pending sends.  The rule fires only in
# "one" and "chain".  The pi-calculus shapes carry a distributor as its
# unfolding, a repeating receive, since a term cannot mix the two.
_SHAPES = {
    "one": ("extended", "new t. ({sends} | t => [{row}])"),
    "chain": ("extended", "new t. new u. ({sends} | t -> u | u => [{row}])"),
    "two": ("extended", "new t. ({sends} | t => [{row}] | t -> c)"),
    "nested": ("extended", "new t. ({sends} | t => [{row}] | new u. (t -> u | u -> c))"),
    "receive": ("pi", "new t. ({sends} | t ?* x. {fan} | t ? x. c!x)"),
    "prefix": ("pi", "new t. ({sends} | t ?* x. {fan} | c ? y. t ?* x. c!x)"),
}
_CONTEXTS = {"extended": ("", "lose d", "d!m1"), "pi": ("", "d ?* x. 0", "d!m1")}
_ROWS = ("b", "", "b, c", "b, b")


def _instance(shape: str, values: list[str], row: str, context: int, perturb: bool) -> tuple[str, str]:
    """The term, and its form with every pending send delivered to the
    first consumer (perturbed: one delivered value changed)."""
    mode, template = _SHAPES[shape]
    targets = [t.strip() for t in row.split(",") if t.strip()]
    fan = " | ".join(f"{t}!x" for t in targets) or "0"
    term = template.format(sends=" | ".join(f"t!{v}" for v in values), row=row, fan=fan)
    rest = template.replace("{sends} | ", "").format(row=row, fan=fan)
    delivered = [f"{t}!{v}" for v in values for t in targets]
    if perturb and delivered:
        delivered[0] = delivered[0][:-1] + ("1" if delivered[0].endswith("0") else "0")
    elif perturb:
        delivered.append("b!m0")
    extra = _CONTEXTS[mode][context]
    return (
        " | ".join(filter(None, [term, extra])),
        " | ".join(filter(None, delivered + [rest, extra])),
    )


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(sorted(_SHAPES)),
    st.lists(st.sampled_from(["m0", "m1"]), min_size=1, max_size=2),
    st.sampled_from(_ROWS),
    st.integers(min_value=0, max_value=2),
    st.booleans(),
)
def test_weak_verdicts_on_hidden_buffers_agree_with_the_oracle(shape, values, row, context, perturb):
    left, right = map(parse, _instance(shape, values, row, context, perturb))
    exact = weakly_bisimilar(left, right)
    assert exact is not None
    res = check_weak(left, right, 6, 64, node_budget=5_000)
    if res.verdict is Verdict.PROVEN:
        assert exact, (shape, values, row, context, perturb)
        assert audit_witness(left, right, res.witness, weak=True, tau_bound=6) is None
    elif res.verdict is Verdict.DISTINGUISHED:
        assert not exact, (shape, values, row, context, perturb)
    if shape in ("one", "chain") and not perturb:
        # what the rule is for: the pair closes at once
        assert res.verdict is Verdict.PROVEN and res.prover_pairs <= 2
