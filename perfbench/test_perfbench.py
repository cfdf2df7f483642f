"""Self-test of the benchmark: every workload at tiny size.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _tiny(name: str) -> list[dict]:
    requests = workloads.generate(name, 0)
    # laws re-proofs need their run_laws() report, which comes first
    return requests[:25] if name == "laws" else requests[::5]


def _printed(capsys, summary: dict, trace: bool) -> tuple[dict, dict]:
    """Metrics the JSON line would carry, and `metric: unit` as printed."""
    shown = run._print_summary(summary, 0, trace)
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    return shown, {parts[1]: parts[3] for parts in lines if len(parts) >= 4 and parts[0] == summary["workload"]}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(name, capsys):
    summary = run.run_workload(name, _tiny(name), seconds=0, trace=True)
    assert summary["failed"] == 0, summary["errors"]
    for trace, group in ((False, "end_to_end"), (True, "per_layer")):
        shown, printed = _printed(capsys, summary, trace)
        expected = {m["name"]: m["unit"] for m in SPEC[group]}
        assert {k: u for k, (_, u) in shown.items()} == expected
        assert {k: printed.get(k) for k in expected} == expected
        assert printed["failed_ratio"] == "ratio"


def test_wrong_expected_answer_counts_in_failed_ratio():
    requests = _tiny("cross-exam")
    wrong = next(r for r in requests if r["expect"] == "distinct")
    wrong["expect"] = "bisimilar"
    summary = run.run_workload("cross-exam", requests, seconds=0, trace=False)
    # every child gets it wrong, the one under the second hash seed too
    assert summary["failed"] == run.MIN_SESSIONS
    assert summary["metrics"]["failed_ratio"][0] == pytest.approx(1 / len(requests))
    assert any(f"request {wrong['id']}: wrong answer" in e for e in summary["errors"])
