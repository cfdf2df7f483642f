"""Catalog of equational laws checked by the bisimilarity engine.

Unconditional laws are concrete instance families built over a small
corpus of network terms (three channels, two values by default).
Conditional laws (congruence of parallel composition and restriction,
and the strong-implies-weak inclusion) draw their premises from the
pairs proven earlier in the same run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .equivalence import (
    CheckResult,
    FULL_UPTO,
    Verdict,
    check_strong,
    check_weak,
)
from .errors import NetprocError
from .normalform import term_key
from .semantics import DEFAULT_UNIVERSE, Mode, Universe
from .terms import (
    Distribute,
    Name,
    Parallel,
    Process,
    RepeatReceive,
    Restrict,
    Send,
    STOP,
    ValVar,
    abstract_channel,
    free_channel_names,
    fresh_channel_name,
    rename_free_channel,
)


@dataclass(frozen=True)
class LawInstance:
    label: str
    left: Process
    right: Process


@dataclass(frozen=True)
class Law:
    law_id: str
    description: str
    mode: Mode
    instances: tuple[LawInstance, ...]


@dataclass(frozen=True)
class LawRow:
    law_id: str
    label: str
    verdict: Verdict
    pairs_explored: int
    ok: bool


@dataclass
class LawReport:
    rows: list[LawRow]
    passed: bool
    universe: Universe
    proven: list[tuple[Process, Process, Mode]]


# ---------------------------------------------------------------------------
# Instance corpus
# ---------------------------------------------------------------------------


def _corpus(universe: Universe) -> list[Process]:
    a, b, c = Name("a"), Name("b"), Name("c")
    m0 = universe[0]
    m1 = universe[1] if len(universe) > 1 else universe[0]
    return [
        Send(a, m0),
        Send(b, m1),
        Distribute(a, (b,)),
        Distribute(b, (c,)),
        Distribute(a, ()),
        Distribute(c, (c, c)),
    ]


def _label(*parts: Process) -> str:
    from .syntax import pretty

    text = "  ~  ".join(pretty(p) for p in parts)
    return text if len(text) <= 72 else text[:69] + "..."


def _pair(left: Process, right: Process) -> LawInstance:
    return LawInstance(_label(left, right), left, right)


def _idem(terms: list[Process]) -> list[LawInstance]:
    """Each term beside a copy of itself, against the term."""
    return [_pair(Parallel(t, t), t) for t in terms]


def _nu2(template, first: Name, second: Name) -> Process:
    """Wrap template(first, second) in two restrictions, `first` outermost."""
    t = template(first, second)
    inner = Restrict(abstract_channel(t, second))
    return Restrict(abstract_channel(inner, first))


def law_catalog(universe: Universe = DEFAULT_UNIVERSE) -> tuple[Law, ...]:
    """The unconditional laws; conditional ones are added by run_laws."""
    if not universe:
        raise NetprocError("the law suite needs at least one value")
    corpus = _corpus(universe)
    a, b, c = Name("a"), Name("b"), Name("c")
    m0 = universe[0]
    h0, h1 = Name("_h0"), Name("_h1")
    swaps = [
        lambda x, y: Distribute(x, (y,)),
        lambda x, y: Parallel(Distribute(x, (y,)), Distribute(y, (c,))),
        lambda x, y: Parallel(Send(x, m0), Distribute(y, ())),
    ]
    relay = Send(b, ValVar(0))
    table = [
        ("par-unit-left", "an inert left component can be dropped", [_pair(Parallel(STOP, p), p) for p in corpus]),
        ("par-unit-right", "an inert right component can be dropped", [_pair(Parallel(p, STOP), p) for p in corpus]),
        (
            "par-assoc",
            "parallel composition is associative",
            [
                _pair(Parallel(Parallel(p, q), r), Parallel(p, Parallel(q, r)))
                for p in corpus[:4]
                for q in corpus[:4]
                for r in corpus[:4]
            ],
        ),
        (
            "par-comm",
            "parallel composition is commutative",
            [_pair(Parallel(p, q), Parallel(q, p)) for p in corpus for q in corpus],
        ),
        (
            "restrict-swap",
            "adjacent restrictions commute",
            [_pair(_nu2(t, h0, h1), _nu2(lambda x, y: t(y, x), h0, h1)) for t in swaps],
        ),
        (
            "restrict-unused",
            "restricting an unused channel is inert",
            [_pair(Restrict(abstract_channel(p, Name("zz"))), p) for p in corpus],
        ),
        (
            "distributor-idem",
            "a distributor absorbs a copy of itself",
            _idem([Distribute(a, ts) for ts in [(), (b,), (b, c), (a, a)]]),
        ),
        (
            "bridge-idem",
            "a one-hop forwarder absorbs a copy of itself",
            _idem([Distribute(a, (b,)), Distribute(b, (c,))]),
        ),
        (
            "bibridge-idem",
            "a two-way forwarder absorbs a copy of itself",
            _idem([Parallel(Distribute(a, (b,)), Distribute(b, (a,)))]),
        ),
        ("loser-idem", "a sink absorbs a copy of itself", _idem([Distribute(a, ())])),
        ("duplicator-idem", "a duplicator absorbs a copy of itself", _idem([Distribute(c, (c, c))])),
        (
            "duploser-idem",
            "a sink/duplicator pair absorbs a copy of itself",
            _idem([Parallel(Distribute(a, ()), Distribute(a, (a, a)))]),
        ),
        (
            "repeat-receive-idem",
            "a repeating receiver absorbs a copy of itself",
            _idem([RepeatReceive(a, t) for t in [STOP, relay, Parallel(relay, Send(c, ValVar(0))), Send(b, m0)]]),
        ),
    ]
    # the repeating receiver's is the one law of the base calculus
    return tuple(
        Law(law_id, text, Mode.PI if law_id == "repeat-receive-idem" else Mode.EXTENDED, tuple(instances))
        for law_id, text, instances in table
    )


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

# ids of the rows run_laws derives from the proven pool, after the catalog
_CONDITIONAL_IDS = (
    "par-congruence",
    "restrict-congruence",
    "par-congruence-weak",
    "restrict-congruence-weak",
    "strong-implies-weak",
)


def run_laws(
    only: set[str] | None = None,
    universe: Universe = DEFAULT_UNIVERSE,
    max_pairs: int = 512,
    seed: int = 11,
) -> LawReport:
    """Check every law instance; conditional laws consume the proven pool.

    The report row order is deterministic, as is the premise sampling.
    `only` selects law ids; an empty selection, or an id that names no
    law, raises NetprocError, so a misspelt id is never skipped silently
    and a run that checks nothing never passes.  A selected conditional
    law gets the rows it has in a full run: the laws it draws its premises
    from run too, and only the selected rows, and their proofs, are
    reported.
    """
    catalog = law_catalog(universe)
    run = None if only is None else set(only)
    if run is not None:
        if not run:
            raise NetprocError("no law id selected")
        unknown = run.difference(law.law_id for law in catalog).difference(_CONDITIONAL_IDS)
        if unknown:
            raise NetprocError(f"unknown law id(s): {', '.join(sorted(unknown))}")
        if run & set(_CONDITIONAL_IDS):
            # the premises are the catalog's proofs; strong-implies-weak
            # re-proves par-congruence's as well
            run |= {law.law_id for law in catalog}
        if "strong-implies-weak" in run:
            run.add("par-congruence")
    report = LawReport(rows=[], passed=True, universe=universe, proven=[])
    proven_by: list[str] = []

    def wanted(law_id: str) -> bool:
        return run is None or law_id in run

    def check(left: Process, right: Process, mode: Mode, weak: bool) -> CheckResult:
        if weak:
            return check_weak(left, right, 6, max_pairs, universe=universe, mode=mode)
        return check_strong(left, right, FULL_UPTO, max_pairs, universe=universe, mode=mode)

    def row(law_id: str, label: str, verdict: Verdict, pairs: int, ok: bool, proof: tuple | None = None) -> None:
        report.rows.append(LawRow(law_id, label, verdict, pairs, ok))
        report.passed &= ok
        if ok and proof is not None:
            report.proven.append(proof)
            proven_by.append(law_id)

    def prove(law_id: str, left: Process, right: Process, mode: Mode, weak: bool = False, label: str = "") -> None:
        """One check, one row; a strong proof joins the pool."""
        res = check(left, right, mode, weak)
        ok = res.verdict is Verdict.PROVEN
        proof = None if weak else (left, right, mode)
        row(law_id, label or _label(left, right), res.verdict, res.pairs_explored, ok, proof)

    def restriction(law_id: str, entries: list[tuple[Process, Process, Mode]], weak: bool) -> None:
        """The channel-family congruence: a premise at a fresh channel in
        place of the first free one, the conclusion under a restriction
        binding that channel."""
        for p1, p2, m in entries:
            free = sorted(free_channel_names(p1) | free_channel_names(p2))
            target = free[0] if free else "zz"
            fresh = fresh_channel_name(set(free), base="pc")
            premise = check(rename_free_channel(p1, target, fresh), rename_free_channel(p2, target, fresh), m, weak)
            left, right = (Restrict(abstract_channel(p, Name(target))) for p in (p1, p2))
            conclusion = check(left, right, m, weak)
            ok = premise.verdict is Verdict.PROVEN and conclusion.verdict is Verdict.PROVEN
            pairs = premise.pairs_explored + conclusion.pairs_explored
            row(law_id, _label(left, right), conclusion.verdict, pairs, ok)

    for law in catalog:
        if wanted(law.law_id):
            for inst in law.instances:
                prove(law.law_id, inst.left, inst.right, law.mode, label=inst.label)

    rng = random.Random(seed)
    pool = sorted((e for e in report.proven if e[2] is Mode.EXTENDED), key=lambda e: (term_key(e[0]), term_key(e[1])))
    if wanted("par-congruence") and len(pool) >= 2:
        for _ in range(25):
            (p1, p2, m), (q1, q2, _) = pool[rng.randrange(len(pool))], pool[rng.randrange(len(pool))]
            prove("par-congruence", Parallel(p1, q1), Parallel(p2, q2), m)
    if wanted("restrict-congruence") and pool:
        restriction("restrict-congruence", [pool[i % len(pool)] for i in range(25)], weak=False)
    if wanted("par-congruence-weak"):
        for (p1, p2, m), (q1, q2, _) in zip(pool[0:8:2], pool[1:8:2]):
            prove("par-congruence-weak", Parallel(p1, q1), Parallel(p2, q2), m, weak=True)
    if wanted("restrict-congruence-weak"):
        restriction("restrict-congruence-weak", pool[:4], weak=True)
    if wanted("strong-implies-weak"):
        n = len(report.proven)
        ok = all(check(*proof, weak=True).verdict is Verdict.PROVEN for proof in report.proven)
        label = f"{n} strongly proven pairs re-proven weakly"
        row("strong-implies-weak", label, Verdict.PROVEN if ok else Verdict.INCONCLUSIVE, n, ok)

    if only is not None:
        report.rows = [r for r in report.rows if r.law_id in only]
        report.passed = all(r.ok for r in report.rows)
        report.proven = [e for e, law_id in zip(report.proven, proven_by) if law_id in only]
    return report


def format_report(report: LawReport) -> str:
    """Stable text table, one row per instance plus a summary line."""
    lines = [f"values: {','.join(a.text for a in report.universe)}"]
    for row in report.rows:
        lines.append(f"{row.law_id:26} {row.verdict.value:18} pairs={row.pairs_explored:<5} {row.label}")
    failures = sum(1 for r in report.rows if not r.ok)
    status = "PASS" if report.passed else "FAIL"
    lines.append(f"laws: {status} ({len(report.rows)} rows, {failures} failures)")
    return "\n".join(lines)
