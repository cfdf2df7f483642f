"""Acceptance suite.

Each test verifies one headline capability end to end and prints a single
PASS/FAIL line, so `pytest -s tests/test_acceptance.py` doubles as a
checklist.  The checks here deliberately go through public entry points
only, except for the soundness probe, which cross-examines the prover with
the package's own plain attacker.
"""

from __future__ import annotations

import random

import pytest

from netproc import (
    FULL_UPTO,
    Mode,
    Parallel,
    ReceiveAct,
    RepeatReceive,
    Verdict,
    anycast3,
    audit_witness,
    broadcast3_unreliable,
    check_strong,
    check_weak,
    explore,
    instantiate_value,
    normalize,
    parse,
    replay_trace,
    run_laws,
    term_key,
    transitions,
    unfold_comm,
)
from netproc.cli import main
from netproc.equivalence import TraceStep, _Attacker, _BoundHit
from netproc.semantics import DEFAULT_UNIVERSE, action_key, infer_mode

from helpers import CHANNELS, random_comm, random_pi

Name = type(CHANNELS[0])


def _verdicts_agree(p, q, max_pairs=256):
    return check_strong(p, q, max_pairs=max_pairs).verdict


def _report(capsys, number: int, title: str, ok: bool) -> None:
    with capsys.disabled():
        print(f"criterion {number:02d} {title}: {'PASS' if ok else 'FAIL'}")
    assert ok, title


@pytest.fixture(scope="module")
def laws_report():
    return run_laws()


def _rows(report, law_id):
    return [row for row in report.rows if row.law_id == law_id]


# ---------------------------------------------------------------------------


def test_criterion_01_equational_laws(capsys, laws_report):
    ok = laws_report.passed and len(laws_report.rows) > 150
    # idempotency proofs must be single-pair, and spot-checked witnesses
    # must survive an independent audit
    for law_id in ("distributor-idem", "bridge-idem", "loser-idem", "duplicator-idem"):
        rows = _rows(laws_report, law_id)
        ok = ok and rows and all(r.ok and r.pairs_explored <= 4 for r in rows)
    for l, r, mode in laws_report.proven[:10]:
        res = check_strong(l, r, mode=mode)
        ok = ok and res.verdict is Verdict.PROVEN
        ok = ok and audit_witness(l, r, res.witness, FULL_UPTO, weak=False, mode=mode) is None
    _report(capsys, 1, "equational law suite proven and audited", ok)


def test_criterion_02_replicated_receive_unfolds_one_step(capsys):
    rng = random.Random(21)
    ok = True
    for _ in range(20):
        body = random_pi(rng, 2, vals=1)
        p = RepeatReceive(Name("a"), body)
        expected = {
            (ReceiveAct(Name("a"), v), Parallel(instantiate_value(body, v), p))
            for v in DEFAULT_UNIVERSE
        }
        got = {(tr.action, tr.target) for tr in transitions(p, mode=Mode.PI)}
        ok = ok and got == expected
    _report(capsys, 2, "replicated receive unfolds exactly one copy per step", ok)


def test_criterion_03_link_sugar_matches_core_unfolding(capsys):
    rng = random.Random(31)
    ok = True
    for _ in range(100):
        p = random_comm(rng, 3)
        ext = sorted(
            (action_key(tr.action), term_key(normalize(unfold_comm(tr.target))))
            for tr in transitions(p)
        )
        core = sorted(
            (action_key(tr.action), term_key(normalize(tr.target)))
            for tr in transitions(unfold_comm(p))
        )
        ok = ok and ext == core
    for _ in range(50):
        p, q = random_comm(rng, 2), random_comm(rng, 2)
        ok = ok and _verdicts_agree(p, q) is _verdicts_agree(unfold_comm(p), unfold_comm(q))
    _report(capsys, 3, "link forms and their unfoldings behave identically", ok)


def test_criterion_04_strong_proofs_survive_weakening(capsys, laws_report):
    rows = _rows(laws_report, "strong-implies-weak")
    ok = bool(rows) and all(r.ok for r in rows)
    for l, r, mode in laws_report.proven[:5]:
        ok = ok and check_weak(l, r, mode=mode).verdict is Verdict.PROVEN
    _report(capsys, 4, "every strong proof re-proves weakly", ok)


def test_criterion_05_bisimilarity_is_a_congruence_in_practice(capsys, laws_report):
    par = _rows(laws_report, "par-congruence")
    nu = _rows(laws_report, "restrict-congruence")
    ok = len(par) == 25 and len(nu) == 25 and all(r.ok for r in par + nu)
    weak_par = _rows(laws_report, "par-congruence-weak")
    weak_nu = _rows(laws_report, "restrict-congruence-weak")
    ok = ok and weak_par and weak_nu and all(r.ok for r in weak_par + weak_nu)
    _report(capsys, 5, "proofs compose under parallel and restriction contexts", ok)


def test_criterion_06_refutations_carry_replayable_evidence(capsys):
    l, r = parse("a -> b"), parse("a -> c")
    res = check_strong(l, r)
    ok = res.verdict is Verdict.DISTINGUISHED
    ok = ok and res.trace is not None and len(res.trace) == 2
    ok = ok and replay_trace(l, r, res.trace, weak=False)
    code = main(["check", "a -> b", "a -> c"])
    capsys.readouterr()
    ok = ok and code == 1
    _report(capsys, 6, "distinguishing plays replay against the semantics", ok)


def test_criterion_07_anycast_delivers_to_exactly_one(capsys):
    report = explore(anycast3("s", "r1", "r2", "r3"), inputs=[("s", "m0")], max_depth=8)
    ok = not report.partial and report.complete_paths == 3
    profiles = set(report.delivery_profiles)
    ok = ok and profiles == {(("r1", "m0"),), (("r2", "m0"),), (("r3", "m0"),)}
    _report(capsys, 7, "anycast reaches each receiver and never two", ok)


def test_criterion_08_unreliable_broadcast_spans_loss_to_coverage(capsys):
    report = explore(
        broadcast3_unreliable("s", "r1", "r2", "r3"),
        inputs=[("s", "m0")],
        max_depth=7,
        node_budget=40000,
        query="distinct >= 2",
    )
    ok = () in report.delivery_profiles
    ok = ok and report.query_satisfied
    reached = {ch for profile in report.delivery_profiles for ch, _ in profile}
    ok = ok and reached == {"r1", "r2", "r3"}
    _report(capsys, 8, "lossy broadcast can drop all or reach several", ok)


def test_criterion_09_normalization_is_idempotent_and_sound(capsys):
    rng = random.Random(91)
    ok = True
    for _ in range(250):
        nf = normalize(random_comm(rng, 4))
        ok = ok and normalize(nf) is nf
    for _ in range(250):
        nf = normalize(random_pi(rng, 3))
        ok = ok and normalize(nf) is nf
    for _ in range(50):
        p = random_comm(rng, 3)
        ok = ok and check_strong(p, normalize(p)).verdict is Verdict.PROVEN
    _report(capsys, 9, "normalization is idempotent and meaning preserving", ok)


def _normalized_play(trace: list[TraceStep]) -> list[TraceStep]:
    """A play with every target normalized.  Structural congruence is a
    strong bisimulation, so the normalized play is as valid as the raw one,
    and it names the states `replay_trace` compares against."""
    return [
        TraceStep(s.side, s.action, normalize(s.challenger_target),
                  None if s.defender_target is None else normalize(s.defender_target))
        for s in trace
    ]


def _plain_attack_refutes(l, r, mode) -> tuple[bool, int]:
    """Whether a plain attacker refutes the pair, and how many of its
    probes ran out of budget before deciding.

    Two probes: raw states, then normalized states (a deeper search with
    a larger budget); a found trace, normalized, must also replay to
    count."""
    exhausted = 0
    for norm, depth, budget in ((False, 3, 800), (True, 6, 20_000)):
        attacker = _Attacker(DEFAULT_UNIVERSE, None, budget, normalize_states=norm)
        try:
            trace = attacker.search(l, r, depth)
        except _BoundHit:
            exhausted += 1
            continue
        if trace is not None and replay_trace(l, r, _normalized_play(trace), weak=False):
            return True, exhausted
    return False, exhausted


def test_the_raw_probe_counts_every_refutation_it_finds():
    # a raw-table play names raw targets, which `replay_trace` does not
    # find among its normalized rows: most raw refutations replay only
    # once their targets are normalized
    rng = random.Random(5)
    found = raw = normalized = 0
    for _ in range(400):
        p, q = random_comm(rng, 2), random_comm(rng, 2)
        try:
            trace = _Attacker(DEFAULT_UNIVERSE, None, 800, normalize_states=False).search(p, q, 3)
        except _BoundHit:
            continue
        if trace is not None:
            found += 1
            raw += replay_trace(p, q, trace, weak=False)
            normalized += replay_trace(p, q, _normalized_play(trace), weak=False)
    assert (found, raw, normalized) == (348, 96, 348)


def test_criterion_10_upto_proofs_agree_with_plain_game(capsys, laws_report):
    rng = random.Random(101)
    conflicts = 0
    exhausted = 0
    pairs = []
    for _ in range(200):
        p, q = random_comm(rng, 2), random_comm(rng, 2)
        res = check_strong(p, q, max_pairs=256)
        if res.verdict is Verdict.PROVEN:
            pairs.append((p, q, infer_mode(Parallel(p, q))))
    # the law pool guarantees a dense supply of nontrivial proofs
    pool = laws_report.proven[::2]
    for l, r, mode in pairs + pool:
        refuted, ran_out = _plain_attack_refutes(l, r, mode)
        conflicts += refuted
        exhausted += ran_out
    # a probe that runs out of budget cross-examines nothing
    ok = len(pairs) + len(pool) >= 60 and conflicts == 0 and exhausted == 0
    _report(capsys, 10, "up-to proofs withstand the unassisted attacker", ok)
