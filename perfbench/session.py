"""One benchmark session, run as a fresh child process.

Reads a JSON spec (workload requests, tracing flag) as one line of stdin,
imports netproc, parses every term, prints `ready`, then answers the
requests in order as one closed-loop client: the next request starts
only after the previous reply and its evidence check.  Each request is
timed between two host-speed probes.  Prints one JSON object with the
timings, probes, answers and failures on the last line of stdout.

With tracing on, every request (and the parse phase) runs under its own
cProfile profiler, spans are recorded around each call into netproc, and
the per-layer metrics are computed from the merged profile.
"""

from __future__ import annotations

import cProfile
import gc
import json
import os
import pstats
import resource
import sys
import time
from collections import Counter
from contextlib import contextmanager

_T0 = time.perf_counter()


class _Profile(cProfile.Profile):
    """pstats keys functions by (file, line, name), and the `__hash__` and
    `__eq__` methods that dataclasses generate all share the file
    `<string>`.  The stock snapshot keeps one of each such group, and which
    one changes from run to run; this one adds the group up."""

    def snapshot_stats(self) -> None:
        entries = self.getstats()
        self.stats = {}
        callers_of: dict[int, dict] = {}
        for e in entries:
            func = cProfile.label(e.code)
            cc, nc, tt, ct, callers = self.stats.get(func, (0, 0, 0.0, 0.0, {}))
            self.stats[func] = (cc + e.callcount - e.reccallcount, nc + e.callcount,
                                tt + e.inlinetime, ct + e.totaltime, callers)
            callers_of[id(e.code)] = callers
        for e in entries:
            func = cProfile.label(e.code)
            for sub in e.calls or ():
                callers = callers_of.get(id(sub.code))
                if callers is not None:
                    nc, cc, tt, ct = callers.get(func, (0, 0, 0.0, 0.0))
                    callers[func] = (nc + sub.callcount, cc + sub.callcount - sub.reccallcount,
                                     tt + sub.inlinetime, ct + sub.totaltime)


class _Tracer:
    """Spans and per-request profiles; a no-op when tracing is off."""

    def __init__(self, on: bool) -> None:
        self.on = on
        self.spans: list[dict] = []
        self.stats: pstats.Stats | None = None
        self.last: pstats.Stats | None = None
        self._request: int | None = None
        self._parent: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.on:
            yield
            return
        idx = len(self.spans)
        parent = self._parent[-1] if self._parent else None
        self.spans.append({"name": name, "start": time.perf_counter() - _T0, "end": None,
                           "parent": parent, "request": self._request})
        self._parent.append(idx)
        try:
            yield
        finally:
            self._parent.pop()
            self.spans[idx]["end"] = time.perf_counter() - _T0

    @contextmanager
    def request(self, request_id: int | None, name: str):
        """Profile one request on its own; its stats are `last` afterwards."""
        if not self.on:
            yield
            return
        self._request = request_id
        prof = _Profile()
        with self.span(name):
            prof.enable()
            try:
                yield
            finally:
                prof.disable()
        self._request = None
        self.last = pstats.Stats(prof)
        if self.stats is None:
            self.stats = pstats.Stats(prof)
        else:
            self.stats.add(prof)


def _calls(st: pstats.Stats, module: str, func: str, src: str) -> int:
    return sum(v[1] for k, v in st.stats.items() if k[2] == func and k[0] == os.path.join(src, module + ".py"))


def _probe() -> float:
    """Seconds taken by a fixed piece of pure-Python work that touches no
    netproc code: tuples, hashing, a dict and a keyed sort.  It measures
    how fast the host runs the interpreter at this moment."""
    start = time.perf_counter()
    table: dict[tuple, int] = {}
    for i in range(800):
        key = (i, ("x", i % 7), (i, i + 1))
        table[key] = table.get(key, 0) + hash(key)
    sorted(table, key=repr)
    return time.perf_counter() - start


def _settle() -> None:
    gc.collect()
    gc.freeze()


def main() -> int:
    spec = json.loads(sys.stdin.readline())
    tracer = _Tracer(bool(spec.get("trace")))
    setup_probe = _probe()

    import netproc as np
    from netproc import normalform, semantics

    src = os.path.dirname(os.path.abspath(np.__file__))
    requests = spec["requests"]

    with tracer.request(None, "setup"):
        terms: dict[int, tuple] = {}
        for req in requests:
            with tracer.span("parse"):
                if req["kind"] == "check":
                    terms[req["id"]] = (np.parse(req["left"]), np.parse(req["right"]))
                elif req["kind"] in ("explore", "simulate"):
                    terms[req["id"]] = (np.parse(req["net"]),)
    caches_ready = (len(normalform._CACHE), len(semantics._STEP_CACHE))
    print("ready", flush=True)

    reports: dict[int, object] = {}
    results: list[dict] = []
    # pairs_explored counts prover pairs and attacker nodes together
    attacker_nodes = 0
    # Each request is timed between two probes, untimed; the parent divides
    # its times by their mean, so a host slowed by other tenants slows
    # request and probes alike and the ratio stays put.
    _settle()
    before = _probe()
    first_probe = before
    for req in requests:
        # A CLI call starts with a small heap.  Here the objects left by
        # earlier requests would make each cyclic collection scan more, and
        # its pause would land on whichever request crosses a threshold.
        # So collect and freeze what is left before each request, outside
        # the timing: a request's collections see only the objects it made.
        _settle()
        with tracer.request(req["id"], req["kind"]):
            res = _answer(np, tracer, req, terms.get(req["id"]), reports)
        _settle()
        after = _probe()
        res["probe"] = (before + after) / 2
        before = after
        results.append(res)
        if tracer.on and "pairs" in res:
            attacker_nodes += res["pairs"] - _calls(tracer.last, "equivalence", "_obligations", src)

    out = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # the probe before the import runs inside the parent's set-up
        # window, and the one after `ready` is the first request's
        "setup_probe": setup_probe,
        "setup_speed": (setup_probe + first_probe) / 2,
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "caches": {"normalform": len(normalform._CACHE), "semantics": len(semantics._STEP_CACHE)},
        "results": results,
    }
    if tracer.on:
        out["layers"] = _layers(tracer.stats, src, results, attacker_nodes, caches_ready, out["caches"])
        out["spans"] = tracer.spans
    print(json.dumps(out), flush=True)
    return 0


# ---------------------------------------------------------------------------
# Requests and their known answers
# ---------------------------------------------------------------------------


def _trace_text(np, trace) -> list:
    return [
        [s.side, np.pretty_action(s.action), np.pretty(s.challenger_target),
         None if s.defender_target is None else np.pretty(s.defender_target)]
        for s in trace
    ]


def _answer(np, tracer: _Tracer, req: dict, terms, reports: dict) -> dict:
    """Run one request; returns its latency (the call into netproc), its
    total time (evidence checks included), its answer, and whether it was
    decided and correct.  An exception is a failure, never a crash."""
    res = {"id": req["id"], "kind": req["kind"], "latency": 0.0, "decided": False, "ok": False}
    start = time.perf_counter()
    try:
        if req["kind"] == "laws":
            _laws(np, tracer, req, res, reports)
        elif req["kind"] in ("check", "reprove"):
            _check(np, tracer, req, res, terms, reports)
        elif req["kind"] == "explore":
            _explore(np, tracer, req, res, terms)
        else:
            _simulate(np, tracer, req, res, terms)
    except Exception as exc:  # a request that raises counts as failed
        res["ok"] = False
        res["error"] = f"{type(exc).__name__}: {exc}"
        if not res["latency"]:
            res["latency"] = time.perf_counter() - start
    res["total"] = time.perf_counter() - start
    return res


def _laws(np, tracer, req, res, reports) -> None:
    universe = np.make_universe(*req["values"])
    start = time.perf_counter()
    with tracer.span("laws"):
        report = np.run_laws(universe=universe, seed=req["premise_seed"])
        text = np.format_report(report)
    res["latency"] = time.perf_counter() - start
    reports[req["id"]] = report
    proven = all(r.verdict is np.Verdict.PROVEN for r in report.rows)
    res["decided"] = proven
    res["rows"] = len(report.rows)
    res["answer"] = text
    res["ok"] = (
        report.passed
        and proven
        and len(report.rows) == req["rows"]
        and text.splitlines()[0] == "values: " + ",".join(sorted(req["values"]))
        and text.splitlines()[-1] == f"laws: PASS ({req['rows']} rows, 0 failures)"
    )


def _check(np, tracer, req, res, terms, reports) -> None:
    if req["kind"] == "reprove":
        report = reports[req["report"]]
        p, q, mode = report.proven[req["row"]]
        kw = {"universe": report.universe, "mode": mode}
        upto, weak, expect, tau_bound = np.FULL_UPTO, False, "bisimilar", 0
        start = time.perf_counter()
        with tracer.span("check"):
            r = np.check_strong(p, q, upto, 512, **kw)
    else:
        p, q = terms
        kw = {}
        upto = np.PLAIN if req["upto"] == "plain" else np.FULL_UPTO
        weak, expect, tau_bound = req["weak"], req["expect"], req.get("tau_bound", 0)
        bounds = {"max_trace_depth": req["max_trace_depth"], "node_budget": req["node_budget"]}
        start = time.perf_counter()
        with tracer.span("check"):
            if weak:
                r = np.check_weak(p, q, tau_bound, req["max_pairs"], upto=upto, **bounds)
            else:
                r = np.check_strong(p, q, upto, req["max_pairs"], **bounds)
    res["latency"] = time.perf_counter() - start
    res["pairs"] = r.pairs_explored
    res["verdict"] = r.verdict.value
    res["bound"] = r.bound_hit
    res["decided"] = r.verdict is not np.Verdict.INCONCLUSIVE
    res["answer"] = [r.verdict.value, r.bound_hit, None if r.witness is None else len(r.witness),
                     None if r.trace is None else _trace_text(np, r.trace)]
    if r.verdict is np.Verdict.PROVEN:
        res["witness"] = len(r.witness)
        with tracer.span("audit"):
            evidence = np.audit_witness(p, q, r.witness, upto, weak=weak, tau_bound=tau_bound, **kw) is None
        res["ok"] = expect == "bisimilar" and evidence
    elif r.verdict is np.Verdict.DISTINGUISHED:
        with tracer.span("replay"):
            evidence = np.replay_trace(p, q, r.trace, weak=weak, tau_bound=tau_bound, **kw)
        res["ok"] = expect == "distinct" and evidence
    else:
        # inconclusive is honest, provided it names the bound it hit
        res["ok"] = r.bound_hit in ("max-pairs", "node-budget", "tau-bound", "trace-depth")


def _explore(np, tracer, req, res, terms) -> None:
    start = time.perf_counter()
    with tracer.span("explore"):
        rep = np.explore(terms[0], inputs=[tuple(i) for i in req["inputs"]], max_depth=req["max_depth"],
                         query=req["query"])
    res["latency"] = time.perf_counter() - start
    res["decided"] = not rep.partial
    res["states"] = rep.states
    profiles = sorted([list(map(list, p)) for p in rep.delivery_profiles])
    res["answer"] = {
        "profiles": profiles, "counts": sorted(rep.delivery_profiles.values()), "states": rep.states,
        "complete": rep.complete_paths, "truncated": rep.truncated_paths, "divergent": rep.divergent_paths,
        "partial": rep.partial, "query": rep.query_satisfied,
        "witness": None if rep.query_witness is None else [str(e) for e in rep.query_witness],
    }
    want = req["expect"]
    ok = rep.query_satisfied is want["query"] and (rep.query_witness is not None) is want["query"]
    if "profiles" in want:
        # anycast: every message reaches exactly one receiver
        ok = ok and not rep.partial and profiles == want["profiles"] and rep.complete_paths == len(profiles)
    else:
        # lossy broadcast: the message can be lost, and reaches every receiver
        reached = sorted({ch for prof in rep.delivery_profiles for ch, _ in prof})
        ok = ok and () in rep.delivery_profiles and reached == want["receivers"]
    res["ok"] = ok


def _simulate(np, tracer, req, res, terms) -> None:
    start = time.perf_counter()
    with tracer.span("simulate"):
        events = np.simulate(terms[0], inputs=[tuple(i) for i in req["inputs"]], steps=req["steps"],
                             seed=req["sim_seed"])
    res["latency"] = time.perf_counter() - start
    res["decided"] = True
    res["answer"] = [str(e) for e in events]
    want = req["expect"]
    shaped = all(e.step == i and e.action == np.TAU and len(e.digest) == 12 for i, e in enumerate(events))
    if "events" in want:
        res["ok"] = shaped and len(events) == want["events"]
    else:
        res["ok"] = shaped and 1 <= len(events) <= want["events_at_most"]


# ---------------------------------------------------------------------------
# Per-layer metrics from the merged profile
# ---------------------------------------------------------------------------

BUILTIN_HASH = ("~", 0, "<built-in method builtins.hash>")


def _layers(st: pstats.Stats, src: str, results: list[dict], attacker_nodes: int, caches_ready,
            caches_end) -> dict:
    entries = st.stats
    self_s = Counter()
    # one hash count is one object hashed: a call of a netproc `__hash__`
    # (dataclass-generated, or written by hand in a module, as a cached one
    # would be), or a call of builtins.hash from outside any `__hash__`;
    # the generated `__hash__` calls builtins.hash on its field tuple, and
    # that call is not counted again
    hash_calls, hash_s = 0, 0.0
    for key, (_, nc, tt, _, callers) in entries.items():
        file, _, func = key
        own_hash = func == "__hash__" and (file == "<string>" or os.path.dirname(file) == src)
        if own_hash or key == BUILTIN_HASH:
            hash_s += tt
            hash_calls += nc if own_hash else sum(
                c[1] for caller, c in callers.items() if caller[2] != "__hash__")
        if os.path.dirname(file) == src:
            self_s[os.path.splitext(os.path.basename(file))[0]] += tt
        elif (file == "<string>" and func in ("__hash__", "__eq__")) or key == BUILTIN_HASH:
            self_s["terms"] += tt

    def calls(module: str, *funcs: str) -> int:
        return sum(_calls(st, module, f, src) for f in funcs)

    def cum(module: str, func: str) -> float:
        path = os.path.join(src, module + ".py")
        return sum(v[3] for k, v in entries.items() if k[0] == path and k[2] == func)

    normalize = calls("normalform", "normalize")
    steps = calls("semantics", "_step")
    norm_entries = caches_end["normalform"] - caches_ready[0]
    step_entries = caches_end["semantics"] - caches_ready[1]
    prover_pairs = calls("equivalence", "_obligations")
    proven = [r for r in results if r.get("witness") is not None]
    proven_pairs = sum(r["pairs"] for r in proven)
    bounds = Counter(r["bound"] for r in results if r.get("verdict") == "inconclusive")
    m = {
        "terms.hash_calls": hash_calls,
        "terms.hash_s": hash_s,
        "terms.subst_calls": calls("terms", "instantiate_value", "instantiate_channel", "abstract_channel",
                                   "rename_free_channel"),
        "terms.self_s": self_s["terms"],
        "normalform.normalize_calls": normalize,
        "normalform.hit_ratio": 1.0 - norm_entries / normalize if normalize else 0.0,
        "normalform.cache_entries": caches_end["normalform"],
        "normalform.term_key_calls": calls("normalform", "term_key"),
        "normalform.term_key_s": sum(v[2] for k, v in entries.items()
                                     if k[0] == os.path.join(src, "normalform.py") and k[2] == "term_key"),
        "normalform.self_s": self_s["normalform"],
        "semantics.step_calls": steps,
        "semantics.step_hit_ratio": 1.0 - step_entries / steps if steps else 0.0,
        "semantics.step_cache_entries": caches_end["semantics"],
        "semantics.transitions_calls": calls("semantics", "transitions"),
        "semantics.weak_steps_calls": calls("semantics", "weak_steps"),
        "semantics.tau_reach_calls": calls("semantics", "_tau_reach"),
        "semantics.weak_s": cum("semantics", "weak_steps"),
        "semantics.self_s": self_s["semantics"],
        "equivalence.prover_pairs": prover_pairs,
        "equivalence.reduce_calls": calls("equivalence", "_reduce"),
        "equivalence.prover_s": cum("equivalence", "close"),
        "equivalence.witness_ratio": sum(r["witness"] for r in proven) / proven_pairs if proven_pairs else 0.0,
        "equivalence.attacker_nodes": attacker_nodes,
        "equivalence.attacker_s": cum("equivalence", "search"),
        "equivalence.audit_s": cum("equivalence", "audit_witness"),
        "equivalence.replay_s": cum("equivalence", "replay_trace"),
        "equivalence.self_s": self_s["equivalence"],
        "laws.rows": sum(r.get("rows", 0) for r in results),
        "laws.self_s": self_s["laws"],
        "netlang.walk_nodes": calls("netlang", "walk"),
        "netlang.states": sum(r.get("states", 0) for r in results),
        "netlang.digest_calls": calls("netlang", "state_digest"),
        "netlang.self_s": self_s["netlang"],
        "syntax.parse_calls": calls("syntax", "parse"),
        "syntax.pretty_calls": calls("syntax", "pretty"),
        "syntax.self_s": self_s["syntax"],
    }
    for b in ("max-pairs", "node-budget", "tau-bound", "trace-depth"):
        m[f"equivalence.bound_hits.{b}"] = bounds.get(b, 0)
    return m


if __name__ == "__main__":
    sys.exit(main())
