"""netproc benchmark: one command, four workloads, known answers.

    python3 perfbench/run.py --workload laws --seed 1 --seconds 25 --trace 0

Each workload is a fixed, seeded list of requests (see workloads.py).  A
run answers the list in fresh child processes, one after another, until
`--seconds` have passed (at least MIN_SESSIONS times).  Every child starts
with cold caches, as a CLI user does.  The first child runs under a second
hash seed; its answers must equal everyone else's.  With `--trace 1` one
more child answers the list under cProfile and the per-layer metrics are
printed instead of the end-to-end ones.  Times are in reference seconds:
scaled by a host-speed probe run around every request (see REF_PROBE_S).

The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  See README.md in this directory for the metric definitions.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# children run under a pinned hash seed, so profile counts repeat; the
# first runs under another one, and the answers must not change
HASH_SEED = "0"
CHECK_HASH_SEED = "1"
MIN_SESSIONS = 4
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# how long past --seconds the last children may take before the run is
# given up: room for one untraced and one traced child at their slowest
SLACK_S = 120.0
# Times are reported in reference seconds: a child times each request
# between two runs of a fixed pure-Python probe, and a request's seconds
# count at the speed at which the probe takes exactly REF_PROBE_S.
REF_PROBE_S = 0.001


class BenchError(Exception):
    """The benchmark could not run the program at all."""


def _session(requests: list[dict], trace: bool, hash_seed: str, deadline: float) -> tuple[float, dict]:
    """Run one child; returns (set-up seconds, the child's report)."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(ROOT / "src"))
    spec = json.dumps({"requests": requests, "trace": trace})
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "session.py")],
        cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        proc.stdin.write(spec + "\n")
        proc.stdin.flush()
        ready, _, _ = select.select([proc.stdout], [], [], max(1.0, deadline - time.monotonic()))
        line = proc.stdout.readline() if ready else ""
        setup = time.perf_counter() - start
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("a session ran past the run's deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if line.strip() != "ready" or proc.returncode != 0 or not out.strip():
        raise BenchError(f"session failed (exit {proc.returncode}):\n{err.strip()}")
    return setup, json.loads(out.strip().splitlines()[-1])


def _percentile(samples: list[float], p: float) -> float:
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least ten of n samples beyond it."""
    return next((p for p in TAIL_LADDER if round(n * (100.0 - p), 6) >= 1000), None)


def run_workload(name: str, requests: list[dict], seconds: float, trace: bool) -> dict:
    """Answer the request list in fresh children; returns the run summary."""
    deadline = time.monotonic() + seconds + SLACK_S
    sessions: list[tuple[float, dict]] = []
    started = time.perf_counter()
    longest = 0.0
    # start another child only while it can end within the run's seconds
    while len(sessions) < MIN_SESSIONS or time.perf_counter() - started + longest < seconds:
        hash_seed = CHECK_HASH_SEED if not sessions else HASH_SEED
        began = time.perf_counter()
        sessions.append(_session(requests, False, hash_seed, deadline))
        longest = max(longest, time.perf_counter() - began)
    traced = _session(requests, True, HASH_SEED, deadline)[1] if trace else None

    everyone = [s for _, s in sessions] + ([traced] if traced else [])
    reference = {r["id"]: r.get("answer") for r in sessions[-1][1]["results"]}
    # answers must repeat exactly: across hash seeds, sessions and tracing
    unstable = sorted({r["id"] for s in everyone for r in s["results"] if r.get("answer") != reference[r["id"]]})
    results = [r for s in everyone for r in s["results"]]
    failed = sum(1 for r in results if not r["ok"]) + len(unstable)
    # Other tenants of a shared machine slow children down, by up to 2x
    # for tens of seconds, probes and requests alike; so each request
    # counts with its median over the run's children of its time at the
    # reference probe speed, and wall time is the sum of those times with
    # the evidence checks included.
    def typical(key: str) -> list[float]:
        return [statistics.median(_at_reference(s["results"][i][key], s["results"][i]["probe"]) for _, s in sessions)
                for i in range(len(requests))]

    latencies = typical("latency")
    wall = sum(typical("total"))
    tail_p = tail_percentile(len(latencies))
    summary = {
        "workload": name,
        "sessions": len(sessions),
        "attempted": len(results),
        "failed": failed,
        "unstable": unstable,
        "errors": sorted({f"request {r['id']}: {r.get('error', 'wrong answer')}" for r in results if not r["ok"]}),
        "tail_p": tail_p,
        "samples": len(latencies),
        "caches": sessions[-1][1]["caches"],
        "probe_s": statistics.median(r["probe"] for _, s in sessions for r in s["results"]),
        "metrics": {
            "setup_s": (statistics.median(_at_reference(t - s["setup_probe"], s["setup_speed"])
                                          for t, s in sessions), "s"),
            "wall_s": (wall, "s"),
            "request_p50_s": (statistics.median(latencies), "s"),
            "request_tail_s": (_percentile(latencies, tail_p), "s") if tail_p else None,
            "peak_rss_mb": (statistics.median(s["peak_rss_mb"] for _, s in sessions), "MB"),
            "decided_ratio": (sum(r["decided"] for r in results) / len(results), "ratio"),
            "failed_ratio": (failed / len(results), "ratio"),
        },
    }
    if tail_p is None:  # too few requests for a tail
        del summary["metrics"]["request_tail_s"]
    if traced:
        # the profile merges all requests, so the traced child's times are
        # scaled by one factor, from its median probe
        scale = _at_reference(1.0, statistics.median(r["probe"] for r in traced["results"]))
        traced_s = scale * sum(r["total"] for r in traced["results"])
        layers = {k: (v * scale if _unit(k) == "s" else v, _unit(k)) for k, v in traced["layers"].items()}
        layers["trace.overhead_s"] = (traced_s - wall, "s")
        summary["layers"] = layers
        summary["traced_s"] = traced_s
        summary["spans"] = traced["spans"]
    return summary


def _at_reference(seconds: float, probe: float) -> float:
    """Seconds measured while the probe took `probe`, at reference speed."""
    return seconds * REF_PROBE_S / probe


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "ratio" if metric.endswith("ratio") else "count"


LAYERS = ("syntax", "terms", "normalform", "semantics", "equivalence", "laws", "netlang")
CUMULATIVE = (("hashing", "terms.hash_s"), ("prover", "equivalence.prover_s"),
              ("attacker", "equivalence.attacker_s"), ("weak closure", "semantics.weak_s"))

# the metrics the JSON line carries; failed_ratio is printed only, since
# it is 0 at a correct commit and the JSON line's `failed` carries it
END_TO_END = ("setup_s", "wall_s", "request_p50_s", "request_tail_s", "peak_rss_mb", "decided_ratio")


def _print_summary(summary: dict, seed: int, trace: bool) -> dict:
    """Human-readable block; returns the metrics the JSON line carries."""
    name = summary["workload"]
    print(f"workload {name}  seed {seed}  children {summary['sessions']}  "
          f"PYTHONHASHSEED {CHECK_HASH_SEED} for the first, {HASH_SEED} for the rest")
    for metric, (value, unit) in summary["metrics"].items():
        note = ""
        if metric == "request_tail_s":
            note = f"  (p{summary['tail_p']:g} of {summary['samples']} requests, each its median over {summary['sessions']} children)"
        elif metric == "failed_ratio":
            note = f"  ({summary['failed']} of {summary['attempted']})"
        print(f"  {name:10} {metric:34} {value:12.6g} {unit}{note}")
    print(f"  {name:10} {'host probe, median':34} {summary['probe_s'] * 1000:12.4g} ms  "
          f"(times above are at the reference {REF_PROBE_S * 1000:g} ms)")
    print(f"  {name:10} {'cache entries after a session':34} normalform {summary['caches']['normalform']}, "
          f"semantics {summary['caches']['semantics']}")
    for line in summary["errors"]:
        print(f"  {name:10} FAILED {line}")
    if summary["unstable"]:
        print(f"  {name:10} FAILED answers differ between sessions for requests {summary['unstable']}")
    if trace:
        for metric, (value, unit) in summary["layers"].items():
            print(f"  {name:10} {metric:34} {value:12.6g} {unit}")
        # shares of the traced child's summed request time
        layers, total = summary["layers"], summary["traced_s"]
        own = ", ".join(f"{k} {layers[k + '.self_s'][0] / total:.0%}" for k in LAYERS)
        print(f"  {name:10} self time as a share of traced request time: {own}")
        under = ", ".join(f"{label} {layers[k][0] / total:.0%}" for label, k in CUMULATIVE)
        print(f"  {name:10} time under: {under}")
        return summary["layers"]
    return {k: summary["metrics"][k] for k in END_TO_END if k in summary["metrics"]}


def _write_spans(summary: dict, seed: int) -> None:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{summary['workload']}-seed{seed}.json"
    path.write_text(json.dumps({"workload": summary["workload"], "seed": seed, "hash_seed": HASH_SEED,
                                "spans": summary["spans"]}))
    print(f"  {summary['workload']:10} spans written to {path.relative_to(ROOT)}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=("all",) + workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "netproc" / "__init__.py").is_file():
        print(f"netproc sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Children import netproc from bytecode, as an installed CLI does.  A
    # checkout has none, and under PYTHONDONTWRITEBYTECODE every child would
    # compile the sources again inside its set-up time.
    compileall.compile_dir(ROOT / "src", quiet=1)

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        try:
            summary = run_workload(name, workloads.generate(name, args.seed), args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        shown = _print_summary(summary, args.seed, bool(args.trace))
        if args.trace:
            _write_spans(summary, args.seed)
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in shown.items()})
        correct &= summary["failed"] == 0
        attempted += summary["attempted"]
        failed += summary["failed"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
