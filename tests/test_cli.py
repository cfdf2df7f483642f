"""Command line behaviour: output shapes and exit codes."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import netproc
import netproc.cli
from netproc.cli import main
from helpers import count_fills


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# transitions / lts
# ---------------------------------------------------------------------------


def test_transitions_lists_steps_with_universe_header(capsys):
    code, out, _ = run_cli(capsys, "transitions", "a!m0 | a -> b")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "values: m0,m1"
    assert any(line.startswith("tau") for line in lines[1:])
    assert any(line.startswith("a!m0") for line in lines[1:])


def test_transitions_respects_values_flag(capsys):
    code, out, _ = run_cli(capsys, "--values", "ping,pong", "transitions", "a -> b")
    assert code == 0
    assert out.splitlines()[0] == "values: ping,pong"
    assert "a?ping" in out and "a?pong" in out


def test_values_env_variable(capsys, monkeypatch):
    monkeypatch.setenv("NETPROC_VALUES", "v")
    code, out, _ = run_cli(capsys, "transitions", "a -> b")
    assert code == 0
    assert out.splitlines()[0] == "values: v"


@pytest.mark.parametrize("values", ["m0,1x,a b", "new", "m0, lose", "x-y"])
def test_values_that_do_not_parse_back_exit_3(capsys, monkeypatch, values):
    code, out, err = run_cli(capsys, "--values", values, "transitions", "c ? x. d!x")
    assert code == 3 and out == "" and "bad value name" in err
    monkeypatch.setenv("NETPROC_VALUES", values)
    code, out, err = run_cli(capsys, "transitions", "c ? x. d!x")
    assert code == 3 and out == "" and "bad value name" in err


def test_lts_text_output(capsys):
    code, out, _ = run_cli(capsys, "lts", "a!m0 | a -> b")
    assert code == 0
    assert "states:" in out and "mode:" in out
    assert "--tau-->" in out


def test_lts_dot_output(capsys):
    code, out, _ = run_cli(capsys, "lts", "a!m0", "--dot")
    assert code == 0
    assert out.startswith("digraph lts {")
    assert out.rstrip().endswith("}")
    assert 'n0 [label="a!m0"];' in out


def test_lts_state_bound_keeps_edges_among_kept_states(capsys):
    code, out, _ = run_cli(capsys, "lts", "a!m0 | dup a", "--max-states", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "states: 3 (truncated)  mode: extended"
    kept = {"a!m0 | a => [a, a]", "a!m0 | a!m0 | a => [a, a]", "a => [a, a]"}
    for line in lines[2:]:
        source, rest = line.strip().split("  --", 1)
        assert source in kept and rest.split("-->  ", 1)[1] in kept


@pytest.mark.parametrize("dot", [[], ["--dot"]])
def test_lts_fills_each_state_once(capsys, monkeypatch, dot):
    # the search and the edge listing read one table
    fills = count_fills(monkeypatch)
    code, out, _ = run_cli(capsys, "lts", "a!m0 | dup a", "--max-states", "5", *dot)
    assert code == 0
    assert {table for table, _ in fills} == {0}
    assert len(fills) == 5 and max(fills.values()) == 1


def test_lts_lists_each_edge_once(capsys):
    # two raw targets of `a!m0 | a!m0 | dup a` normalize to one state
    code, out, _ = run_cli(capsys, "lts", "a!m0 | dup a", "--max-states", "3")
    assert code == 0
    assert out.splitlines()[2:] == [
        "  a!m0 | a => [a, a]  --tau-->  a!m0 | a!m0 | a => [a, a]",
        "  a!m0 | a => [a, a]  --a!m0-->  a => [a, a]",
        "  a!m0 | a!m0 | a => [a, a]  --a!m0-->  a!m0 | a => [a, a]",
        "  a => [a, a]  --a?m0-->  a!m0 | a!m0 | a => [a, a]",
    ]
    code, out, _ = run_cli(capsys, "lts", "a!m0 | dup a", "--max-states", "3", "--dot")
    assert code == 0
    arrows = [line for line in out.splitlines() if " -> " in line]
    assert len(arrows) == len(set(arrows)) == 4


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_proven_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "check", "dup a | dup a", "dup a")
    assert code == 0
    assert "verdict: proven-bisimilar" in out


def test_check_distinguished_exits_one_and_prints_play(capsys):
    code, out, _ = run_cli(capsys, "check", "a -> b", "a -> c")
    assert code == 1
    assert "verdict: distinguished" in out
    assert "distinguishing play:" in out


def test_check_inconclusive_exits_two(capsys):
    code, out, _ = run_cli(
        capsys, "check", "dup a | dup a", "dup a", "--no-upto", "--max-pairs", "16"
    )
    assert code == 2
    assert "verdict: inconclusive" in out
    assert "bound hit: max-pairs" in out


def test_check_weak_flag(capsys):
    code, out, _ = run_cli(capsys, "check", "new t. (t!m0 | lose t)", "0", "--weak")
    assert code == 0
    assert "verdict: proven-bisimilar" in out


def test_check_emit_witness_writes_pair_file(capsys, tmp_path):
    target = tmp_path / "witness.txt"
    code, out, _ = run_cli(
        capsys, "check", "dup a | dup a", "dup a", "--emit-witness", str(target)
    )
    assert code == 0
    assert f"-> {target}" in out
    lines = target.read_text().splitlines()
    assert lines == ["a => [a, a] ~ a => [a, a] | a => [a, a]"]


# ---------------------------------------------------------------------------
# laws
# ---------------------------------------------------------------------------


def test_laws_only_selected_ids(capsys):
    code, out, _ = run_cli(capsys, "laws", "--only", "par-comm,par-unit-left")
    assert code == 0
    assert "par-comm" in out and "par-unit-left" in out
    assert "par-assoc" not in out
    assert "laws: PASS" in out


# ---------------------------------------------------------------------------
# explore / simulate
# ---------------------------------------------------------------------------


def test_explore_reports_profiles(capsys):
    code, out, _ = run_cli(
        capsys,
        "explore",
        "new t. (s -> t | t -> r1 | t -> r2 | t -> r3)",
        "--inject",
        "s=m0",
    )
    assert code == 0
    assert "partial: false" in out
    assert "r1!m0" in out and "r2!m0" in out and "r3!m0" in out


def test_explore_query_exit_codes(capsys):
    net = "new t. (s -> t | t -> r1 | t -> r2 | t -> r3)"
    code, out, _ = run_cli(capsys, "explore", net, "--inject", "s=m0", "--query", "r1 = 1")
    assert code == 0
    assert "satisfied" in out
    code, out, _ = run_cli(capsys, "explore", net, "--inject", "s=m0", "--query", "total >= 2")
    assert code == 1
    assert "unsatisfied" in out


def test_simulate_prints_seeded_trace(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "a -> b", "--inject", "a=m0", "--seed", "3"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "seed: 3"
    assert lines[-1] == "halted after 1 step(s)"


# ---------------------------------------------------------------------------
# errors
# ---------------------------------------------------------------------------


def test_parse_errors_exit_three(capsys):
    code, _, err = run_cli(capsys, "transitions", "a!m0 |")
    assert code == 3
    assert err.startswith("error: ParseError: line 1 col 7")


def test_scope_errors_exit_three(capsys):
    code, _, err = run_cli(capsys, "transitions", "a ? x. x!m0")
    assert code == 3
    assert "error: ScopeError:" in err
    assert "used as a channel" in err


def test_mode_violation_exits_three(capsys):
    code, _, err = run_cli(capsys, "check", "a ? x. 0 | a -> b", "0")
    assert code == 3
    assert "error: ModeViolation:" in err


def test_bad_inject_spec_exits_three(capsys):
    code, _, err = run_cli(capsys, "explore", "a -> b", "--inject", "a")
    assert code == 3
    assert "expected CHANNEL=VALUE" in err


@pytest.mark.parametrize("command", ["explore", "simulate"])
@pytest.mark.parametrize("spec, bad", [("a=m 0", "value 'm 0'"), ("a=new", "value 'new'"), ("a=", "value ''"), ("=m0", "channel ''")])
def test_inject_sides_that_are_not_identifiers_exit_three(capsys, command, spec, bad):
    # `a=m 0` would print `b!m 0`, which does not parse back
    code, out, err = run_cli(capsys, command, "a -> b", "--inject", spec)
    assert code == 3 and out == ""
    assert f"bad injected {bad}, expected an identifier" in err


def test_inject_text_is_stripped(capsys):
    # the channel " a" would receive nothing, and the run would exit 0
    code, out, _ = run_cli(capsys, "explore", "a -> b", "--inject", " a = m0 ")
    assert code == 0
    assert out == run_cli(capsys, "explore", "a -> b", "--inject", "a=m0")[1]
    assert "deliveries b: min=1 max=1" in out
    code, out, _ = run_cli(capsys, "simulate", "a -> b", "--inject", " a=m0", "--seed", "3")
    assert code == 0
    assert out == run_cli(capsys, "simulate", "a -> b", "--inject", "a=m0", "--seed", "3")[1]
    assert "halted after 1 step(s)" in out


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 3


# ---------------------------------------------------------------------------
# running the package as a module
# ---------------------------------------------------------------------------


def run_module(module, *argv, timeout=120):
    src = os.path.dirname(os.path.dirname(os.path.abspath(netproc.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", module, *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=timeout)


@pytest.mark.parametrize("module", ["netproc", "netproc.cli"])
def test_module_runs_the_cli(module):
    done = run_module(module, "laws", "--only", "par-assoc")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "values: m0,m1" and len(lines) > 2
    assert all(line.startswith("par-assoc ") for line in lines[1:-1])
    assert lines[-1] == f"laws: PASS ({len(lines) - 2} rows, 0 failures)"


@pytest.mark.parametrize(
    "argv",
    [
        # neither answered in minutes before the weak game fired confluent steps
        ["new t. (a -> t | lose t)", "lose a", "--tau-bound", "4"],
        ["new t. (a -> t | t -> b)", "a -> b"],
    ],
)
def test_hidden_buffers_are_proven_at_the_default_budgets(argv):
    done = run_module("netproc", "check", *argv, "--weak", timeout=30)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[1:] == ["verdict: proven-bisimilar", "pairs explored: 1"]


def test_module_bad_term_exits_three():
    done = run_module("netproc", "transitions", "a!m0 |")
    assert done.returncode == 3
    assert done.stdout == ""
    assert done.stderr.startswith("error: ParseError:")


# ---------------------------------------------------------------------------
# usage and input errors exit 3, in a fresh process
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "a!m0"],
        ["explore", "a -> b", "--max-depth", "x"],
        ["frobnicate"],
        ["check", "a!m0", "a!m0", "--max-pairs", "-1"],
        ["check", "a!m0", "a!m0", "--weak", "--tau-bound", "-1"],
        ["lts", "a!m0", "--max-states", "-1"],
        ["explore", "a -> b", "--inject", "a=m0", "--max-depth", "-1"],
        ["explore", "a -> b", "--inject", "a=m0", "--max-states", "-2"],
        ["simulate", "a -> b", "--inject", "a=m0", "--steps", "-1"],
        ["laws", "--max-pairs", "-5"],
        ["lts", "a!m0", "--max-states", "0"],
        ["explore", "a -> b", "--inject", "a=m0", "--max-states", "0"],
    ],
)
def test_usage_errors_and_negative_budgets_exit_three(argv):
    done = run_module("netproc", *argv)
    assert done.returncode == 3, done.stdout
    assert done.stdout == ""
    errors = [line for line in done.stderr.splitlines() if "error:" in line]
    assert len(errors) == 1 and errors[0].startswith("netproc")


def test_help_exits_zero():
    done = run_module("netproc", "explore", "--help")
    assert done.returncode == 0
    assert "--max-depth" in done.stdout and done.stderr == ""


def test_zero_budget_is_accepted():
    done = run_module("netproc", "explore", "a -> b", "--inject", "a=m0", "--max-depth", "0")
    assert done.returncode == 0, done.stderr
    assert "paths: 0 complete, 1 truncated" in done.stdout


def test_one_state_budget_is_accepted():
    done = run_module("netproc", "lts", "a!m0", "--max-states", "1")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[1] == "states: 1 (truncated)  mode: pi"


def wide_and_deep(shape):
    """A pair too wide or too deep for a recursive traversal: a spine of
    10,000 distinct sends against its reverse, or a nest of 2,000
    restrictions, in its printed form, against the one send it can make."""
    if shape == "wide":
        sends = [f"a{i}!m0" for i in range(10_000)]
        return " | ".join(sends), " | ".join(reversed(sends))
    deep = netproc.parse("a!m0")
    for _ in range(2_000):
        deep = netproc.Restrict(netproc.Parallel(netproc.Send(netproc.ChanVar(0), netproc.Atom("m0")), deep))
    return netproc.pretty(deep), "a!m0"


@pytest.mark.parametrize("game", [[], ["--weak"]], ids=["strong", "weak"])
@pytest.mark.parametrize("shape", ["wide", "deep"])
def test_wide_and_deep_terms_get_a_verdict(shape, game):
    left, right = wide_and_deep(shape)
    done = run_module("netproc", "check", left, right, *game)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.splitlines()[1:3] == ["verdict: proven-bisimilar", "pairs explored: 0" if shape == "wide" else "pairs explored: 2"]


def test_recursion_error_in_a_command_is_an_input_error(capsys, monkeypatch):
    # the prover and the attacker still recurse once per pair or ply
    def too_deep(args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(netproc.cli, "_cmd_check", too_deep)
    code, out, err = run_cli(capsys, "check", "a!m0", "0")
    assert code == 3 and out == ""
    assert err.splitlines() == ["error: RecursionError: maximum recursion depth exceeded"]


def test_deeply_nested_input_gets_a_verdict(capsys):
    code, out, err = run_cli(capsys, "check", "(" * 5000 + "a!m0" + ")" * 5000, "a!m0")
    assert code == 0 and err == ""
    assert out.splitlines()[1] == "verdict: proven-bisimilar"


def test_unwritable_witness_path_exits_three(tmp_path):
    target = tmp_path / "missing" / "w"
    done = run_module("netproc", "check", "a!m0", "a!m0", "--emit-witness", str(target))
    assert done.returncode == 3
    # the path is checked before the check runs: no verdict, nothing at all
    assert done.stdout == ""
    assert done.stderr.splitlines() == [
        f"error: FileNotFoundError: [Errno 2] No such file or directory: {str(target)!r}"
    ]
    assert not target.exists()


def test_witness_path_that_is_a_directory_exits_three(capsys, tmp_path):
    code, out, err = run_cli(capsys, "check", "a!m0", "a!m0", "--emit-witness", str(tmp_path))
    assert code == 3
    assert out == ""
    assert err.splitlines() == [f"error: IsADirectoryError: [Errno 21] Is a directory: {str(tmp_path)!r}"]


def test_witness_file_is_only_touched_when_a_witness_is_written(capsys, tmp_path):
    target = tmp_path / "w"
    code, out, _ = run_cli(capsys, "check", "a!m0", "a!m1", "--emit-witness", str(target))
    assert code == 1 and "witness:" not in out
    assert not target.exists()
    target.write_text("kept\n")
    code, _, _ = run_cli(capsys, "check", "a!m0", "a!m1", "--emit-witness", str(target))
    assert code == 1
    assert target.read_text() == "kept\n"


@pytest.mark.parametrize("only", ["nosuch", "par-comm,nosuch"])
def test_unknown_law_id_exits_three(only):
    done = run_module("netproc", "laws", "--only", only)
    assert done.returncode == 3
    assert done.stdout == ""
    assert done.stderr == "error: NetprocError: unknown law id(s): nosuch\n"
