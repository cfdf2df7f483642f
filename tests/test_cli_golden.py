"""CLI output pinned byte for byte.

Each case runs `python -m netproc ARGV` in a fresh process and compares
its stdout, stderr and exit code, and the witness file of the cases that
write one, with the recording under `tests/data/cli_golden/`.  Changes to
the step relation, the weak closure or the game must leave every listing,
verdict, play and witness exactly as it was.

Re-record only when an output change is intended:

    PYTHONPATH=src python tests/test_cli_golden.py --record
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

GOLDEN = pathlib.Path(__file__).parent / "data" / "cli_golden"
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
WITNESS = "witness.txt"
RELAY = "new t. (s -> t | t -> r1 | t -> r2 | t -> r3)"

CASES: dict[str, list[str]] = {
    "transitions-relay": ["transitions", "a!m0 | a -> b"],
    "transitions-values": ["--values", "ping,pong", "transitions", "a ? x. b!x | new t. (t!ping | t ? y. a!y)"],
    "transitions-restrict": ["transitions", "new t. (a -> t | t -> b) | a!m0"],
    "transitions-nested-restrict": ["transitions", "new t. new u. (t!m0 | t -> u | u -> b | a -> t | u!m1)"],
    "lts-relay": ["lts", "a!m0 | a -> b"],
    "lts-relay-dot": ["lts", "a!m0 | a -> b", "--dot"],
    "lts-hidden-relay": ["lts", "new t. (a -> t | t -> b)", "--max-states", "12"],
    "lts-dup-dot": ["lts", "a!m0 | dup a", "--max-states", "5", "--dot"],
    "check-strong-proven": ["check", "a!m0 | b!m1", "b!m1 | a!m0", "--emit-witness", WITNESS],
    "check-strong-distinguished": ["check", "a -> b", "a -> c"],
    "check-strong-inconclusive": ["check", "dup a | dup a", "dup a", "--no-upto", "--max-pairs", "4"],
    "check-strong-plain-congruent": ["check", "a -> b | c!m0", "c!m0 | a -> b", "--no-upto", "--max-pairs", "16"],
    "check-weak-proven": ["check", "new t. (t!m0 | t -> b)", "b!m0", "--weak", "--emit-witness", WITNESS],
    "check-weak-plain-proven": ["check", "new t. (t!m0 | t -> b)", "b!m0", "--weak", "--no-upto", "--emit-witness", WITNESS],
    "check-weak-relay": ["check", "new t. (a -> t | t -> b)", "a -> b", "--weak", "--tau-bound", "4", "--max-pairs", "64"],
    "check-weak-plain-relay": ["check", "new t. (a -> t | t -> b)", "a -> b", "--weak", "--no-upto", "--tau-bound", "3", "--max-pairs", "64"],
    "check-weak-distinguished": ["check", "a -> b", "lose a", "--weak"],
    "check-weak-inconclusive": ["check", "new t. (a -> t | lose t)", "lose a", "--weak", "--tau-bound", "3", "--max-pairs", "16"],
    "check-weak-two-hop-relay": ["check", "new t. new u. (a -> t | t -> u | u -> b)", "a -> b", "--weak", "--emit-witness", WITNESS],
    "check-weak-hidden-anycast": ["check", "new t. (a -> t | t -> b | t -> c)", "a -> b", "--weak"],
    "explore-query-satisfied": ["explore", RELAY, "--inject", "s=m0", "--query", "r1 = 1"],
    "explore-query-unsatisfied": ["explore", RELAY, "--inject", "s=m0", "--query", "total >= 2"],
    "simulate-relay": ["simulate", RELAY, "--inject", "s=m0", "--seed", "3"],
    "laws-only": ["laws", "--only", "par-comm,restrict-swap"],
    "laws-full": ["laws"],
    "laws-three-values": ["--values", "m0,m1,m2", "laws"],
    "bad-parse": ["transitions", "a!m0 |"],
    "bad-mode": ["check", "a ? x. 0 | a -> b", "0"],
    "bad-max-states": ["lts", "a!m0", "--max-states", "0"],
    "bad-values": ["--values", "m0,1x,a b", "transitions", "c ? x. d!x"],
    "bad-query-empty": ["explore", RELAY, "--inject", "s=m0", "--query", ""],
    "bad-query-unknown-channel": ["explore", "s -> r1 | s -> r2", "--inject", "s=m0", "--query", "r3 = 0"],
    "bad-inject": ["explore", RELAY, "--inject", "s=m 0"],
    "bad-inject-unknown-channel": ["explore", RELAY, "--inject", "zz=m0"],
}


def run_case(argv: list[str], cwd: pathlib.Path) -> tuple[bytes, bytes, int]:
    env = {k: v for k, v in os.environ.items() if k != "NETPROC_VALUES"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-m", "netproc", *argv], cwd=cwd, env=env, capture_output=True, timeout=300
    )
    return done.stdout, done.stderr, done.returncode


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_recording(name, tmp_path):
    out, err, code = run_case(CASES[name], tmp_path)
    assert code == int((GOLDEN / f"{name}.exit").read_text())
    assert out == (GOLDEN / f"{name}.stdout").read_bytes()
    assert err == (GOLDEN / f"{name}.stderr").read_bytes()
    recorded = GOLDEN / f"{name}.witness"
    written = tmp_path / WITNESS
    assert written.exists() == recorded.exists()
    if recorded.exists():
        assert written.read_bytes() == recorded.read_bytes()


def record() -> None:
    import tempfile

    GOLDEN.mkdir(parents=True, exist_ok=True)
    for old in GOLDEN.iterdir():
        old.unlink()
    for name, argv in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            out, err, code = run_case(argv, pathlib.Path(tmp))
            (GOLDEN / f"{name}.stdout").write_bytes(out)
            (GOLDEN / f"{name}.stderr").write_bytes(err)
            (GOLDEN / f"{name}.exit").write_text(f"{code}\n")
            written = pathlib.Path(tmp) / WITNESS
            if written.exists():
                (GOLDEN / f"{name}.witness").write_bytes(written.read_bytes())
        print(f"{name}: exit {code}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_cli_golden.py --record")
    record()
