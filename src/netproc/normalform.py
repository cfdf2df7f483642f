"""Canonical forms for process terms.

The normalizer applies a fixed set of behaviour-preserving rewrites,
oriented left to right:

  * drop inert components of a parallel composition,
  * right-associate parallel composition,
  * sort parallel components by the total term order,
  * reorder a run of adjacent restrictions into the canonical order,
  * drop restrictions whose binder is never referenced.

Restrictions never move past parallel composition (no scope extrusion),
so two terms that differ only in restriction placement may have distinct
normal forms.  Normalization is idempotent and commutativity-complete:
any two permutations of the same parallel components normalize equally.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .terms import (
    Atom,
    ChanVar,
    Channel,
    Distribute,
    Name,
    Parallel,
    Process,
    Receive,
    RepeatReceive,
    Restrict,
    Send,
    STOP,
    Stop,
    ValVar,
    Value,
    _map_channels,
)

# Runs of adjacent restrictions longer than this keep their binder order;
# canonical reordering enumerates permutations and is factorial in the run.
_MAX_SORTED_RUN = 5


# ---------------------------------------------------------------------------
# Total term order
# ---------------------------------------------------------------------------


def _chan_key(c: Channel) -> tuple:
    return (0, c.text) if isinstance(c, Name) else (1, c.index)


def _val_key(v: Value) -> tuple:
    return (0, v.text) if isinstance(v, Atom) else (1, v.index)


def term_key(p: Process) -> tuple:
    """Sort key realizing a total, deterministic order on terms.

    Constructor tag first, then child keys lexicographically.  Keys built
    from the same constructor always have the same shape, so comparisons
    never mix types.  Computed once per node and kept on it.
    """
    try:
        key = p._term_key
    except AttributeError:
        raise TypeError(f"not a process: {p!r}") from None
    if key is None:
        key = _compute_key(p)
        object.__setattr__(p, "_term_key", key)
    return key


def _compute_key(p: Process) -> tuple:
    match p:
        case Stop():
            return (0,)
        case Send(channel=c, payload=v):
            return (1, _chan_key(c), _val_key(v))
        case Receive(channel=c, body=b):
            return (2, _chan_key(c), term_key(b))
        case RepeatReceive(channel=c, body=b):
            return (3, _chan_key(c), term_key(b))
        case Distribute(source=s, targets=ts):
            return (4, _chan_key(s), tuple(_chan_key(t) for t in ts))
        case Parallel(left=l, right=r):
            return (5, term_key(l), term_key(r))
        case Restrict(body=b):
            return (6, term_key(b))
    raise TypeError(f"not a process: {p!r}")


def term_order(p: Process, q: Process) -> int:
    """-1, 0 or 1 according to the total order used for canonical sorting."""
    a, b = term_key(p), term_key(q)
    return -1 if a < b else (1 if a > b else 0)


# ---------------------------------------------------------------------------
# Parallel spine helpers
# ---------------------------------------------------------------------------


def parallel_components(p: Process) -> list[Process]:
    """Non-parallel leaves of the parallel spine, left to right."""
    if isinstance(p, Parallel):
        return parallel_components(p.left) + parallel_components(p.right)
    return [p]


def compose_parallel(components: list[Process]) -> Process:
    """Rebuild a right-nested parallel composition; empty lists are inert."""
    if not components:
        return STOP
    out = components[-1]
    for c in reversed(components[:-1]):
        out = Parallel(c, out)
    return out


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormalForm:
    """A normalized process together with the rewrite rules that fired."""

    process: Process
    provenance: tuple[str, ...]


_CACHE: dict[Process, NormalForm] = {}


def normalize(p: Process) -> NormalForm:
    """Canonical form of `p` under the rewrite system above.

    The result is strongly bisimilar to the input, and re-normalizing the
    result is the identity with empty provenance.
    """
    hit = _CACHE.get(p)
    if hit is None:
        log: list[str] = []
        hit = NormalForm(_norm(p, log), tuple(log))
        _CACHE[p] = hit
    return hit


def normal_process(p: Process) -> Process:
    """Shorthand for normalize(p).process."""
    return normalize(p).process


def _norm(p: Process, log: list[str]) -> Process:
    match p:
        case Stop() | Send() | Distribute():
            return p
        case Receive(channel=c, body=b):
            return Receive(c, _norm(b, log))
        case RepeatReceive(channel=c, body=b):
            return RepeatReceive(c, _norm(b, log))
        case Parallel():
            return _norm_parallel(p, log)
        case Restrict():
            return _norm_restrict(p, log)
    raise TypeError(f"not a process: {p!r}")


def _had_left_nesting(p: Process) -> bool:
    while isinstance(p, Parallel):
        if isinstance(p.left, Parallel):
            return True
        p = p.right
    return False


def _norm_parallel(p: Parallel, log: list[str]) -> Process:
    if _had_left_nesting(p):
        log.append("assoc")
    flat: list[Process] = []
    for leaf in parallel_components(p):
        normed = _norm(leaf, log)
        # collapsing a restriction or unit may surface new parallel structure
        flat.extend(parallel_components(normed))
    kept = [c for c in flat if not isinstance(c, Stop)]
    log.extend(["unit"] * (len(flat) - len(kept)))
    ordered = sorted(kept, key=term_key)
    if ordered != kept:
        log.append("comm")
    return compose_parallel(ordered)


def _norm_restrict(p: Restrict, log: list[str]) -> Process:
    # Peel the whole run of adjacent binders, normalizing underneath.
    k = 0
    cur: Process = p
    while isinstance(cur, Restrict):
        k += 1
        cur = cur.body
    core = _norm(cur, log)
    while isinstance(core, Restrict):
        k += 1
        core = core.body

    used = _run_usage(core, k)
    if len(used) < k:
        for _ in range(k - len(used)):
            log.append("nu-drop")
        core = _strengthen_run(core, k, used)
        k = len(used)
    if k == 0:
        return core
    if 1 < k <= _MAX_SORTED_RUN:
        best = core
        best_key = term_key(core)
        best_perm = tuple(range(k))
        for perm in permutations(range(k)):
            candidate = _norm(_permute_run(core, k, perm), [])
            key = term_key(candidate)
            if key < best_key:
                best, best_key, best_perm = candidate, key, perm
        if best_perm != tuple(range(k)):
            log.append("nu-swap")
        core = best
    out: Process = core
    for _ in range(k):
        out = Restrict(out)
    return out


def _run_usage(core: Process, k: int) -> list[int]:
    """Ascending indices of run binders actually referenced in `core`.

    Read off the channel mask each node carries (bit i: `ChanVar(i)` is
    free in the node), so the body is neither walked nor rebuilt.
    """
    mask = core._chan_mask
    return [i for i in range(k) if mask >> i & 1]


def _strengthen_run(core: Process, k: int, keep: list[int]) -> Process:
    """Remove unused binders of a k-run, renumbering the survivors."""
    new_index = {old: new for new, old in enumerate(keep)}
    dropped = k - len(keep)

    def f(c: Channel, d: int) -> Channel:
        if isinstance(c, ChanVar):
            j = c.index - d
            if 0 <= j < k:
                return ChanVar(new_index[j] + d)
            if j >= k:
                return ChanVar(c.index - dropped)
        return c

    return _map_channels(core, f)


def _permute_run(core: Process, k: int, perm: tuple[int, ...]) -> Process:
    """Apply a permutation to the binder indices of a k-run."""

    def f(c: Channel, d: int) -> Channel:
        if isinstance(c, ChanVar):
            j = c.index - d
            if 0 <= j < k:
                return ChanVar(perm[j] + d)
        return c

    return _map_channels(core, f)
