"""Output does not depend on the process it runs in.

Interned terms and actions hash by identity, so set and dict orders
differ from one process to the next.  A fixed script of CLI commands runs
in three fresh interpreters, under hash seeds 0, 123 and a random one,
each with a different amount of live padding allocated first, so that
the terms land at different addresses even where the address space is
not randomized.  Every command's stdout, exit code and witness file must
be byte-identical across the three.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

PROVEN = ["a!m0 | a?x.(b!x | c?y.d!y) | c!m1", "c!m1 | a?x.(c?y.d!y | b!x) | a!m0"]
HIDDEN = ["new t. (t!m0 | t?x.b!x) | a!m1", "a!m1 | new u. (u?y.b!y | u!m0)"]
NET = "new t. (s -> t | t -> r1 | t -> r2 | lose t) | s -> r3"

COMMANDS: list[list[str]] = [
    ["check", *PROVEN, "--emit-witness", "proven.txt"],
    ["check", *PROVEN, "--no-upto", "--emit-witness", "plain.txt"],
    ["check", "dup a | dup a", "dup a", "--emit-witness", "dup.txt"],
    ["check", "a -> b | a -> c", "a => [b, c]", "--no-upto"],
    ["check", *HIDDEN, "--weak", "--no-upto", "--emit-witness", "weak.txt"],
    ["check", "new t. new u. (a -> t | t -> u | u -> b)", "a -> b", "--weak", "--emit-witness", "relay.txt"],
    ["check", "new t. (a -> t | t -> b | t -> c)", "a -> b", "--weak"],
    ["explore", NET, "--inject", "s=m0", "--inject", "s=m1", "--query", "total>=2"],
    ["simulate", NET, "--inject", "s=m0", "--inject", "s=m1", "--seed", "5"],
    ["laws", "--only", "par-assoc"],
]

# Runs the commands in one interpreter and prints one JSON document: per
# command its stdout and exit code, every witness file written, and the
# hash of a term built after the padding
SCRIPT = """
import contextlib, io, json, os, sys
padding = [(object(), [i]) for i in range(int(sys.argv[1]))]
from netproc import Atom, Name, Send, cli
probe = hash(Send(Name("determinism-probe"), Atom("m0")))
runs = []
for argv in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    runs.append([out.getvalue(), code])
witnesses = {name: open(name).read() for name in sorted(os.listdir("."))}
print(json.dumps({"runs": runs, "witnesses": witnesses, "probe": probe}))
"""


def _run(hash_seed: str, padding: int, cwd: pathlib.Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "NETPROC_VALUES"}
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(padding), json.dumps(COMMANDS)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_cli_output_is_the_same_in_every_process(tmp_path):
    results = []
    for hash_seed, padding in (("0", 0), ("123", 3001), ("random", 20011)):
        cwd = tmp_path / hash_seed
        cwd.mkdir()
        results.append(_run(hash_seed, padding, cwd))
    # the interpreters did place the terms differently
    assert len({r["probe"] for r in results}) > 1
    first = results[0]
    assert [code for _, code in first["runs"]] == [0, 0, 0, 1, 0, 0, 1, 0, 0, 0]
    assert sorted(first["witnesses"]) == ["dup.txt", "plain.txt", "proven.txt", "relay.txt", "weak.txt"]
    for other in results[1:]:
        for argv, mine, theirs in zip(COMMANDS, first["runs"], other["runs"]):
            assert mine == theirs, argv
        assert other["witnesses"] == first["witnesses"]
