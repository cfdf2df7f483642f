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

`normalize` returns the normal process alone, with no record of the
rewrites that fired.  It works on units, children first, by
`terms.post_order`: a parallel spine's leaves, the core under a whole
run of restrictions, or a receive prefix's body.  `_CACHE` maps every
term and unit normalized to its normal form, so a step target built
from parts of terms normalized before costs only its new units, and
maps each normal form it holds or `splice` returns to itself, so
normalizing a normal form met before is one lookup.  A run's candidate
orders are normalized by nested calls, which nest only where an order
changes a run inside it, multiplying the work at each level.

`splice` builds the normal form of a normal state's step target from
the state's sorted components and the normal components of the moved
ones' targets, with no raw target built: `semantics`' normalizing reads
use it, for every state with no step-table entry, after the one lookup
that normalizes the state.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from itertools import islice, permutations
from operator import attrgetter

from .terms import (
    CHAN,
    ChanVar,
    Channel,
    Parallel,
    Process,
    Restrict,
    STOP,
    Stop,
    _LEAVES,
    _map,
    children,
    post_order,
    rebuild,
)

# Runs of adjacent restrictions longer than this keep their binder order;
# canonical reordering enumerates permutations and is factorial in the run.
_MAX_SORTED_RUN = 5


# ---------------------------------------------------------------------------
# Total term order
# ---------------------------------------------------------------------------


def term_key(p: Process) -> tuple:
    """Sort key realizing a total, deterministic order on terms.

    Constructor tag first, then child keys lexicographically.  Keys built
    from the same constructor always have the same shape, so comparisons
    never mix types.  Stored on each node when it is interned.
    """
    try:
        return p._term_key
    except AttributeError:
        raise TypeError(f"not a process: {p!r}") from None


_sort_key = attrgetter("_term_key")


def term_order(p: Process, q: Process) -> int:
    """-1, 0 or 1 according to the total order used for canonical sorting."""
    a, b = term_key(p), term_key(q)
    return -1 if a < b else (1 if a > b else 0)


# ---------------------------------------------------------------------------
# Parallel spine helpers
# ---------------------------------------------------------------------------


def parallel_components(p: Process) -> list[Process]:
    """Non-parallel leaves of the parallel spine, left to right."""
    out: list[Process] = []
    rights: list[Process] = []
    while True:
        while type(p) is Parallel:
            rights.append(p.right)
            p = p.left
        out.append(p)
        if not rights:
            return out
        p = rights.pop()


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


# every term and unit normalized, to its normal form
_CACHE: dict[Process, Process] = {}


def normalize(p: Process) -> Process:
    """Canonical form of `p` under the rewrite system above.

    The result is strongly bisimilar to the input, and normalizing the
    result returns it unchanged.
    """
    return _known(p) or post_order(p, _known, _units, _normal_unit)


def _known(p: Process) -> Process | None:
    return p if type(p) in _LEAVES else _CACHE.get(p)


def _units(p: Process) -> list[Process] | tuple:
    if type(p) is Parallel:
        return parallel_components(p)
    if type(p) is Restrict:
        while type(p) is Restrict:
            p = p.body
        return (p,)
    # a receive prefix's body; `children` rejects a non-process
    return children(p)


def _normal_unit(p: Process, units: list[Process]) -> Process:
    kind = type(p)
    if kind is Parallel:
        kept: list[Process] = []
        for n in units:
            # a unit's normal form may itself be a parallel composition
            if type(n) is Parallel:
                kept += parallel_components(n)
            elif type(n) is not Stop:
                kept.append(n)
        kept.sort(key=term_key)
        out = compose_parallel(kept)
    elif kind is Restrict:
        out = _normal_run(p, units[0])
    else:
        out = rebuild(p, units)
    # a normal form is its own, so normalizing it again is one lookup
    _CACHE[p] = _CACHE[out] = out
    return out


def _normal_run(p: Restrict, core: Process) -> Process:
    """Normal form of a run of restrictions whose core normalizes to `core`."""
    k = 0
    while type(p) is Restrict:
        k += 1
        p = p.body
    while type(core) is Restrict:
        k += 1
        core = core.body
    # the binders the core uses, read off its channel mask without a walk
    used = [i for i in range(k) if core._chan_mask >> i & 1]
    if len(used) < k:
        core = _renumber_run(core, k, {old: new for new, old in enumerate(used)})
        k = len(used)
    if 1 < k <= _MAX_SORTED_RUN:
        best, best_key = core, term_key(core)
        # the first permutation is the identity, which gives `core` back
        for perm in islice(permutations(range(k)), 1, None):
            permuted = _renumber_run(core, k, dict(enumerate(perm)))
            candidate = _known(permuted) or post_order(permuted, _known, _units, _normal_unit)
            key = term_key(candidate)
            if key < best_key:
                best, best_key = candidate, key
        core = best
    for _ in range(k):
        core = Restrict(core)
    return core


def _renumber_run(core: Process, k: int, new: dict[int, int]) -> Process:
    """Renumber the binders of a k-run over `core`: binder j becomes
    new[j], and the binders outside the run move in over the ones `new`
    drops."""
    dropped = k - len(new)

    def f(c: Channel, d: int) -> Channel:
        if isinstance(c, ChanVar) and c.index >= d:
            j = c.index - d
            return ChanVar((new[j] if j < k else j - dropped) + d)
        return c

    return _map(core, CHAN, f)


# ---------------------------------------------------------------------------
# Splicing the normal form of a step target
# ---------------------------------------------------------------------------


def normal_shape(p: Process) -> tuple[int, list[Process], list[Process]]:
    """A normal form `new^k (c1 | ... | cn)` as k, its components c1..cn
    and its spine: `spine[i]` is the node of `ci | ... | cn`."""
    k, core = 0, p
    while type(core) is Restrict:
        k += 1
        core = core.body
    spine = [core]
    while type(spine[-1]) is Parallel:
        spine.append(spine[-1].right)
    return k, [x.left for x in spine[:-1]] + [spine[-1]], spine


def normal_components(p: Process) -> tuple[Process, ...]:
    """The components of `p`'s normal form: none for the inert process."""
    return tuple(c for c in parallel_components(normalize(p)) if type(c) is not Stop)


def splice(
    p: Process, k: int, comps: list[Process], spine: list[Process], moved: list[tuple[int, tuple[Process, ...]]]
) -> Process:
    """The normal form of the normal `p`, shaped `k, comps, spine` by
    `normal_shape`, with the component at each slot of `moved`, a list of
    (slot, components) in slot order, replaced by those components, each
    a normal form and none parallel or inert.

    The moved components leave the sorted list and the new ones go in by
    `term_key`.  The spine after the last slot that changes is reused,
    and for k >= 1 the run is closed as `normalize` closes it.
    """
    # every slot from `last` on stays in place
    last = moved[-1][0] + 1
    for _, new in moved:
        for x in new:
            last = max(last, bisect_right(comps, x._term_key, key=_sort_key))
    head = comps[:last]
    for i, _ in reversed(moved):
        del head[i]
    for _, new in moved:
        for x in new:
            insort(head, x, key=_sort_key)
    if last < len(comps):
        node = spine[last]
    elif head:
        node = head.pop()
    else:
        node = STOP
    for x in reversed(head):
        node = Parallel(x, node)
    if k:
        node = _normal_run(p, node)
    _CACHE[node] = node
    return node
