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
    Atom,
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


def _nu2(template, first: Name, second: Name) -> Process:
    """Wrap template(first, second) in two restrictions, `first` outermost."""
    t = template(first, second)
    inner = Restrict(abstract_channel(t, second))
    return Restrict(abstract_channel(inner, first))


def law_catalog(universe: Universe = DEFAULT_UNIVERSE) -> tuple[Law, ...]:
    """The unconditional laws; conditional ones are added by run_laws."""
    corpus = _corpus(universe)
    a, b, c = Name("a"), Name("b"), Name("c")
    m0 = universe[0]
    laws: list[Law] = []

    def add(law_id: str, description: str, instances: list[LawInstance], mode: Mode = Mode.EXTENDED) -> None:
        laws.append(Law(law_id, description, mode, tuple(instances)))

    add(
        "par-unit-left",
        "an inert left component can be dropped",
        [LawInstance(_label(Parallel(STOP, p), p), Parallel(STOP, p), p) for p in corpus],
    )
    add(
        "par-unit-right",
        "an inert right component can be dropped",
        [LawInstance(_label(Parallel(p, STOP), p), Parallel(p, STOP), p) for p in corpus],
    )
    add(
        "par-assoc",
        "parallel composition is associative",
        [
            LawInstance(
                _label(Parallel(Parallel(p, q), r), Parallel(p, Parallel(q, r))),
                Parallel(Parallel(p, q), r),
                Parallel(p, Parallel(q, r)),
            )
            for p in corpus[:4]
            for q in corpus[:4]
            for r in corpus[:4]
        ],
    )
    add(
        "par-comm",
        "parallel composition is commutative",
        [
            LawInstance(_label(Parallel(p, q), Parallel(q, p)), Parallel(p, q), Parallel(q, p))
            for p in corpus
            for q in corpus
        ],
    )

    h0, h1 = Name("_h0"), Name("_h1")
    swap_templates = [
        lambda x, y: Distribute(x, (y,)),
        lambda x, y: Parallel(Distribute(x, (y,)), Distribute(y, (c,))),
        lambda x, y: Parallel(Send(x, m0), Distribute(y, ())),
    ]
    add(
        "restrict-swap",
        "adjacent restrictions commute",
        [
            LawInstance(
                _label(_nu2(t, h0, h1), _nu2(lambda x, y: t(y, x), h0, h1)),
                _nu2(t, h0, h1),
                _nu2(lambda x, y: t(y, x), h0, h1),
            )
            for t in swap_templates
        ],
    )
    add(
        "restrict-unused",
        "restricting an unused channel is inert",
        [
            LawInstance(
                _label(Restrict(abstract_channel(p, Name("zz"))), p),
                Restrict(abstract_channel(p, Name("zz"))),
                p,
            )
            for p in corpus
        ],
    )

    def idem(law_id: str, description: str, terms: list[Process], mode: Mode = Mode.EXTENDED) -> None:
        laws.append(
            Law(
                law_id,
                description,
                mode,
                tuple(
                    LawInstance(_label(Parallel(t, t), t), Parallel(t, t), t) for t in terms
                ),
            )
        )

    idem(
        "distributor-idem",
        "a distributor absorbs a copy of itself",
        [Distribute(a, ts) for ts in [(), (b,), (b, c), (a, a)]],
    )
    idem("bridge-idem", "a one-hop forwarder absorbs a copy of itself", [Distribute(a, (b,)), Distribute(b, (c,))])
    idem(
        "bibridge-idem",
        "a two-way forwarder absorbs a copy of itself",
        [Parallel(Distribute(a, (b,)), Distribute(b, (a,)))],
    )
    idem("loser-idem", "a sink absorbs a copy of itself", [Distribute(a, ())])
    idem("duplicator-idem", "a duplicator absorbs a copy of itself", [Distribute(c, (c, c))])
    idem(
        "duploser-idem",
        "a sink/duplicator pair absorbs a copy of itself",
        [Parallel(Distribute(a, ()), Distribute(a, (a, a)))],
    )
    idem(
        "repeat-receive-idem",
        "a repeating receiver absorbs a copy of itself",
        [
            RepeatReceive(a, body)
            for body in [
                STOP,
                Send(b, ValVar(0)),
                Parallel(Send(b, ValVar(0)), Send(c, ValVar(0))),
                Send(b, m0),
            ]
        ],
        mode=Mode.PI,
    )
    return tuple(laws)


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


def _run_instance(inst: LawInstance, law: Law, universe: Universe, max_pairs: int) -> LawRow:
    res = check_strong(inst.left, inst.right, FULL_UPTO, max_pairs, universe=universe, mode=law.mode)
    return LawRow(law.law_id, inst.label, res.verdict, res.pairs_explored, res.verdict is Verdict.PROVEN)


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
    `only` selects law ids; an id that names no law raises NetprocError,
    so a misspelt id is never skipped silently.  A selected conditional
    law gets the rows it has in a full run: the laws it draws its premises
    from run too, and only the selected rows, and their proofs, are
    reported.
    """
    catalog = law_catalog(universe)
    run = None if only is None else set(only)
    if run is not None:
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

    for law in catalog:
        if not wanted(law.law_id):
            continue
        for inst in law.instances:
            row = _run_instance(inst, law, universe, max_pairs)
            report.rows.append(row)
            report.passed &= row.ok
            if row.ok:
                report.proven.append((inst.left, inst.right, law.mode))
                proven_by.append(law.law_id)

    rng = random.Random(seed)
    pool = [entry for entry in report.proven if entry[2] is Mode.EXTENDED]
    pool.sort(key=lambda e: (term_key(e[0]), term_key(e[1])))

    def sample_pairs(n: int) -> list[tuple[tuple[Process, Process, Mode], tuple[Process, Process, Mode]]]:
        if len(pool) < 2:
            return []
        return [(pool[rng.randrange(len(pool))], pool[rng.randrange(len(pool))]) for _ in range(n)]

    if wanted("par-congruence"):
        for (p1, p2, m), (q1, q2, _) in sample_pairs(25):
            left, right = Parallel(p1, q1), Parallel(p2, q2)
            inst = LawInstance(_label(left, right), left, right)
            res = check_strong(inst.left, inst.right, FULL_UPTO, max_pairs, universe=universe, mode=m)
            ok = res.verdict is Verdict.PROVEN
            report.rows.append(LawRow("par-congruence", inst.label, res.verdict, res.pairs_explored, ok))
            report.passed &= ok
            if ok:
                report.proven.append((inst.left, inst.right, m))
                proven_by.append("par-congruence")

    if wanted("restrict-congruence"):
        for p1, p2, m in (pool[i % len(pool)] for i in range(0, 25)) if pool else ():
            conclusion_ok, row = _restriction_probe(p1, p2, m, universe, max_pairs, "restrict-congruence", weak=False)
            report.rows.append(row)
            report.passed &= conclusion_ok

    weak_pool = pool[:8]
    if wanted("par-congruence-weak"):
        for i in range(len(weak_pool) // 2):
            p1, p2, m = weak_pool[2 * i]
            q1, q2, _ = weak_pool[2 * i + 1]
            inst_left, inst_right = Parallel(p1, q1), Parallel(p2, q2)
            res = check_weak(inst_left, inst_right, 6, max_pairs, universe=universe, mode=m)
            ok = res.verdict is Verdict.PROVEN
            report.rows.append(
                LawRow("par-congruence-weak", _label(inst_left, inst_right), res.verdict, res.pairs_explored, ok)
            )
            report.passed &= ok

    if wanted("restrict-congruence-weak"):
        for p1, p2, m in weak_pool[:4]:
            conclusion_ok, row = _restriction_probe(p1, p2, m, universe, max_pairs, "restrict-congruence-weak", weak=True)
            report.rows.append(row)
            report.passed &= conclusion_ok

    if wanted("strong-implies-weak"):
        strong_pool = [e for e in report.proven]
        failures = 0
        for p1, p2, m in strong_pool:
            res = check_weak(p1, p2, 6, max_pairs, universe=universe, mode=m)
            if res.verdict is not Verdict.PROVEN:
                failures += 1
        ok = failures == 0
        report.rows.append(
            LawRow(
                "strong-implies-weak",
                f"{len(strong_pool)} strongly proven pairs re-proven weakly",
                Verdict.PROVEN if ok else Verdict.INCONCLUSIVE,
                len(strong_pool),
                ok,
            )
        )
        report.passed &= ok

    if only is not None:
        report.rows = [row for row in report.rows if row.law_id in only]
        report.passed = all(row.ok for row in report.rows)
        report.proven = [e for e, law_id in zip(report.proven, proven_by) if law_id in only]
    return report


def _restriction_probe(
    p1: Process,
    p2: Process,
    mode: Mode,
    universe: Universe,
    max_pairs: int,
    law_id: str,
    weak: bool,
) -> tuple[bool, LawRow]:
    """Check the channel-family congruence: premises at the original and a
    fresh channel, conclusion under a restriction binding that channel."""
    free = sorted(free_channel_names(p1) | free_channel_names(p2))
    target = free[0] if free else "zz"
    fresh = fresh_channel_name(set(free), base="pc")

    def check(l: Process, r: Process) -> CheckResult:
        if weak:
            return check_weak(l, r, 6, max_pairs, universe=universe, mode=mode)
        return check_strong(l, r, FULL_UPTO, max_pairs, universe=universe, mode=mode)

    premise = check(rename_free_channel(p1, target, fresh), rename_free_channel(p2, target, fresh))
    left = Restrict(abstract_channel(p1, Name(target)))
    right = Restrict(abstract_channel(p2, Name(target)))
    conclusion = check(left, right)
    ok = premise.verdict is Verdict.PROVEN and conclusion.verdict is Verdict.PROVEN
    pairs = premise.pairs_explored + conclusion.pairs_explored
    return ok, LawRow(law_id, _label(left, right), conclusion.verdict, pairs, ok)


def format_report(report: LawReport) -> str:
    """Stable text table, one row per instance plus a summary line."""
    lines = [f"values: {','.join(a.text for a in report.universe)}"]
    for row in report.rows:
        lines.append(f"{row.law_id:26} {row.verdict.value:18} pairs={row.pairs_explored:<5} {row.label}")
    failures = sum(1 for r in report.rows if not r.ok)
    status = "PASS" if report.passed else "FAIL"
    lines.append(f"laws: {status} ({len(report.rows)} rows, {failures} failures)")
    return "\n".join(lines)
