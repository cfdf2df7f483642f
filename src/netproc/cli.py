"""Command line front end.

Exit codes: 0 success (for `check`: proven), 1 distinguished, 2
inconclusive, 3 usage or input error.  Every verdict-bearing command
echoes the value universe it ran with.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys

from .equivalence import FULL_UPTO, PLAIN, Verdict, check_strong, check_weak
from .errors import NetprocError, ParseError
from .laws import format_report, run_laws
from .netlang import TraceEvent, explore, simulate
from .normalform import normalize
from .semantics import (
    DEFAULT_UNIVERSE,
    Moves,
    effective_universe,
    infer_mode,
    make_universe,
    reachable,
    sorted_transitions,
    transitions,
)
from .syntax import is_identifier, parse, pretty, pretty_action


def _universe_from(args) -> tuple:
    """The declared value universe; every name must parse back as a value."""
    text = args.values or os.environ.get("NETPROC_VALUES") or ""
    names, offset = [], 0
    for part in text.split(","):
        name = part.strip()
        if name:
            if not is_identifier(name):
                col = offset + len(part) - len(part.lstrip()) + 1
                raise ParseError(f"bad value name {name!r}, expected an identifier that is not a keyword", 1, col)
            names.append(name)
        offset += len(part) + 1
    return make_universe(*names) if names else DEFAULT_UNIVERSE


def _echo_universe(universe) -> None:
    print(f"values: {','.join(a.text for a in universe)}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_transitions(args) -> int:
    p = parse(args.term)
    universe = effective_universe(_universe_from(args), p)
    _echo_universe(universe)
    for tr in sorted_transitions(transitions(p, universe=universe)):
        print(f"{pretty_action(tr.action):12} {pretty(tr.target)}")
    return 0


def _cmd_lts(args) -> int:
    p = parse(args.term)
    universe = effective_universe(_universe_from(args), p)
    mode = infer_mode(p)
    moves = Moves(universe)
    order, truncated = reachable(normalize(p), lambda s: [t for _, t in moves[s]], args.max_states)
    ids = {s: i for i, s in enumerate(order)}
    # one edge per (state, action, state), in first-seen order: distinct raw
    # targets can normalize to one state
    edges = dict.fromkeys((s, a, t) for s in order for a, t in moves[s] if t in ids)
    if args.dot:
        print("digraph lts {")
        for s, i in ids.items():
            label = pretty(s).replace('"', '\\"')
            print(f'  n{i} [label="{label}"];')
        for s, a, t in edges:
            print(f'  n{ids[s]} -> n{ids[t]} [label="{pretty_action(a)}"];')
        print("}")
    else:
        _echo_universe(universe)
        print(f"states: {len(order)}{' (truncated)' if truncated else ''}  mode: {mode.value}")
        for s, a, t in edges:
            print(f"  {pretty(s)}  --{pretty_action(a)}-->  {pretty(t)}")
    return 0


def _check_writable(path: str) -> None:
    """Raise the OSError that writing `path` would raise, without creating
    or truncating it."""
    folder = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(folder):
        code = errno.ENOTDIR if os.path.exists(folder) else errno.ENOENT
    elif not os.access(folder, os.W_OK | os.X_OK) or (os.path.exists(path) and not os.access(path, os.W_OK)):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), path)


def _cmd_check(args) -> int:
    left = parse(args.left)
    right = parse(args.right)
    universe = effective_universe(_universe_from(args), left, right)
    upto = PLAIN if args.no_upto else FULL_UPTO
    if args.emit_witness:
        # fail before the check, not after a verdict is printed
        _check_writable(args.emit_witness)
    if args.weak:
        result = check_weak(left, right, args.tau_bound, args.max_pairs, upto=upto, universe=universe)
    else:
        result = check_strong(left, right, upto, args.max_pairs, universe=universe)
    _echo_universe(universe)
    print(f"verdict: {result.verdict.value}")
    print(f"pairs explored: {result.pairs_explored}")
    if result.bound_hit:
        print(f"bound hit: {result.bound_hit}")
    if result.trace:
        print("distinguishing play:")
        for step in result.trace:
            tail = "(no reply)" if step.defender_target is None else pretty(step.defender_target)
            print(f"  {step.side:5} {pretty_action(step.action):10} -> {pretty(step.challenger_target)}   vs {tail}")
    if args.emit_witness and result.witness is not None:
        lines = sorted(f"{pretty(l)} ~ {pretty(r)}" for l, r in result.witness)
        with open(args.emit_witness, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"witness: {len(lines)} pairs -> {args.emit_witness}")
    return {Verdict.PROVEN: 0, Verdict.DISTINGUISHED: 1, Verdict.INCONCLUSIVE: 2}[result.verdict]


def _cmd_laws(args) -> int:
    only = {part.strip() for part in args.only.split(",") if part.strip()} if args.only else None
    report = run_laws(only=only, universe=_universe_from(args), max_pairs=args.max_pairs)
    print(format_report(report))
    return 0 if report.passed else 1


def _parse_inject(specs) -> list[tuple[str, str]]:
    # `netlang._inject` checks that each side is an identifier
    out = []
    for spec in specs or []:
        if "=" not in spec:
            raise ParseError(f"bad --inject {spec!r}, expected CHANNEL=VALUE", 1, 1)
        out.append(tuple(spec.split("=", 1)))
    return out


def _cmd_explore(args) -> int:
    p = parse(args.term)
    report = explore(
        p,
        _parse_inject(args.inject),
        max_states=args.max_states,
        max_depth=args.max_depth,
        universe=_universe_from(args),
        query=args.query,
    )
    _echo_universe(report.universe)
    print(f"states: {report.states}{' (bound hit)' if report.state_bound_hit else ''}")
    print(
        f"paths: {report.complete_paths} complete, "
        f"{report.truncated_paths} truncated, {report.divergent_paths} divergent"
    )
    print(f"partial: {str(report.partial).lower()}")
    for ch, (lo, hi) in report.delivery_counts().items():
        print(f"deliveries {ch}: min={lo} max={hi}")
    for profile, count in sorted(report.delivery_profiles.items()):
        shown = " ".join(f"{ch}!{val}" for ch, val in profile) or "(none)"
        print(f"  x{count}  {shown}")
    if report.query is not None:
        print(f"query {report.query!r}: {'satisfied' if report.query_satisfied else 'unsatisfied'}")
        if report.query_witness:
            for ev in report.query_witness:
                print(f"    {ev}")
        return 0 if report.query_satisfied else 1
    return 0


def _cmd_simulate(args) -> int:
    p = parse(args.term)
    events = simulate(
        p,
        _parse_inject(args.inject),
        steps=args.steps,
        seed=args.seed,
        universe=_universe_from(args),
    )
    print(f"seed: {args.seed}")
    for ev in events:
        print(ev)
    print(f"halted after {len(events)} step(s)")
    return 0


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit 3, as every input error does."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _budget(text: str) -> int:
    """A bound given on the command line: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _state_budget(text: str) -> int:
    """A state bound: a positive integer, as the start state always counts."""
    value = _budget(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected at least 1 state, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="netproc", description="process calculus workbench")
    top.add_argument("--values", help="comma separated value universe (default m0,m1; env NETPROC_VALUES)")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transitions", help="list the immediate steps of a term")
    p.add_argument("term")
    p.set_defaults(fn=_cmd_transitions)

    p = sub.add_parser("lts", help="print the reachable transition system")
    p.add_argument("term")
    p.add_argument("--max-states", type=_state_budget, default=256)
    p.add_argument("--dot", action="store_true", help="emit graphviz instead of text")
    p.set_defaults(fn=_cmd_lts)

    p = sub.add_parser("check", help="decide bisimilarity of two terms")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--weak", action="store_true", help="internal moves are unobservable")
    p.add_argument("--no-upto", action="store_true", help="disable proof-side reductions")
    p.add_argument("--max-pairs", type=_budget, default=512)
    p.add_argument("--tau-bound", type=_budget, default=8)
    p.add_argument("--emit-witness", metavar="FILE", help="write the proven pair set")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("laws", help="run the equational law suite")
    p.add_argument("--only", help="comma separated law ids")
    p.add_argument("--max-pairs", type=_budget, default=512)
    p.set_defaults(fn=_cmd_laws)

    p = sub.add_parser("explore", help="enumerate delivery behaviour of a network")
    p.add_argument("term")
    p.add_argument("--inject", action="append", metavar="CHANNEL=VALUE")
    p.add_argument("--max-states", type=_state_budget, default=512)
    p.add_argument("--max-depth", type=_budget, default=24)
    p.add_argument("--query", help='e.g. "r1=1,total>=2" or "distinct>=2"')
    p.set_defaults(fn=_cmd_explore)

    p = sub.add_parser("simulate", help="follow one random run of a network")
    p.add_argument("term")
    p.add_argument("--inject", action="append", metavar="CHANNEL=VALUE")
    p.add_argument("--steps", type=_budget, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_simulate)
    return top


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # an OSError too, but run() turns a closed pipe into exit 141
        raise
    except (NetprocError, OSError, RecursionError) as exc:
        # a RecursionError (the prover and the attacker recurse once per
        # pair or ply) is an input the program cannot take, not a verdict
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    try:
        code = main()
    except BrokenPipeError:
        # downstream consumer (head, grep -m, ...) closed the pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    raise SystemExit(code)


if __name__ == "__main__":
    run()
