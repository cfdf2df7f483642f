"""Law catalog structure and report formatting."""

from __future__ import annotations

import pytest

from netproc import Mode, NetprocError, Verdict, format_report, law_catalog, run_laws


@pytest.fixture(scope="module")
def report():
    return run_laws()


def test_catalog_covers_the_expected_families():
    ids = {law.law_id for law in law_catalog()}
    assert ids == {
        "par-unit-left",
        "par-unit-right",
        "par-assoc",
        "par-comm",
        "restrict-swap",
        "restrict-unused",
        "distributor-idem",
        "bridge-idem",
        "bibridge-idem",
        "loser-idem",
        "duplicator-idem",
        "duploser-idem",
        "repeat-receive-idem",
    }


def test_catalog_instance_counts_are_stable():
    by_id = {law.law_id: law for law in law_catalog()}
    assert len(by_id["par-assoc"].instances) == 64
    assert len(by_id["par-comm"].instances) == 36
    assert len(by_id["repeat-receive-idem"].instances) == 4
    assert by_id["repeat-receive-idem"].mode is Mode.PI
    assert all(law.instances for law in by_id.values())


def test_full_run_passes_and_reports_every_instance(report):
    assert report.passed
    assert all(row.ok for row in report.rows)
    assert all(row.verdict is Verdict.PROVEN for row in report.rows)
    catalog_rows = sum(len(law.instances) for law in law_catalog())
    assert len(report.rows) > catalog_rows


def test_conditional_rows_consume_the_proven_pool(report):
    ids = {row.law_id for row in report.rows}
    assert {"par-congruence", "restrict-congruence", "strong-implies-weak"} <= ids
    assert len(report.proven) >= 100


def test_only_filter_limits_rows():
    small = run_laws(only={"par-comm"})
    assert small.passed
    assert {row.law_id for row in small.rows} == {"par-comm"}
    assert len(small.rows) == 36


def test_format_report_layout(report):
    text = format_report(report)
    lines = text.splitlines()
    assert lines[0].startswith("values: ")
    assert lines[-1].startswith("laws: PASS (")
    assert any(line.startswith("par-assoc") for line in lines)


@pytest.mark.parametrize("run", [lambda: run_laws(universe=()), lambda: law_catalog(())], ids=["run", "catalog"])
def test_the_law_suite_refuses_an_empty_universe(run):
    with pytest.raises(NetprocError, match="the law suite needs at least one value"):
        run()


def test_only_rejects_ids_that_name_no_law():
    with pytest.raises(NetprocError, match="unknown law id\\(s\\): nope, zz"):
        run_laws(only={"par-comm", "zz", "nope"})


@pytest.mark.parametrize("only", [set(), frozenset(), []])
def test_only_that_selects_no_law_is_refused(only):
    # a run that checks nothing must not report a pass
    with pytest.raises(NetprocError, match="no law id selected"):
        run_laws(only=only)


def test_only_accepts_conditional_law_ids(report):
    # a selected conditional law draws on the laws it needs and reports
    # exactly its rows of the full run, in their order
    for only in (
        {"restrict-congruence-weak"}, {"strong-implies-weak"}, {"par-congruence", "strong-implies-weak"},
        {"par-comm", "restrict-congruence"},
    ):
        selected = run_laws(only=only)
        assert selected.rows == [row for row in report.rows if row.law_id in only]
        assert selected.passed
    # the proofs reported are the selected laws' own: par-congruence's,
    # which follow the catalog's in a full run
    catalog_proofs = sum(row.ok for row in report.rows if row.law_id in {law.law_id for law in law_catalog()})
    assert catalog_proofs < len(report.proven)
    assert run_laws(only={"par-congruence"}).proven == report.proven[catalog_proofs:]
    assert run_laws(only={"restrict-congruence"}).proven == []


def test_only_catalog_ids_run_only_those_laws(monkeypatch):
    from netproc import laws

    checks = []
    check = laws.check_strong

    def counting(*args, **kwargs):
        checks.append(args[:2])
        return check(*args, **kwargs)

    monkeypatch.setattr(laws, "check_strong", counting)
    monkeypatch.setattr(laws, "check_weak", None)
    assert len(run_laws(only={"par-comm", "restrict-swap"}).rows) == len(checks) == 36 + 3
