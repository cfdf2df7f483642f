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

`normal_runs` walks a normal form's restriction runs: the form itself,
`new^k (c1 | ... | cn)` with k >= 0, and each component that is a run
`new^j (d1 | ... | dm)`, down to the leaf units, with no recursion.
`splice` builds the normal form of a normal state's step target from
that tree and the normal components of the moved leaves' targets, with
no raw target built.  It splices the innermost moved run first, closes
it as `normalize` closes a run (dropping, renumbering and, for 2-5
binders, ordering its binders), and puts its components in its slot one
level up, so a run whose binders all fall unused dissolves into the run
above it and an empty one into nothing.  `semantics`' normalizing reads
use it for every state they read, after the one lookup that normalizes
the state.
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
    return _close_run(k, core)


def _close_run(k: int, core: Process) -> Process:
    """Normal form of k restrictions over the normal `core`."""
    while type(core) is Restrict:
        k += 1
        core = core.body
    # the binders the core uses, read off its channel mask without a walk
    mask, full = core._chan_mask, (1 << k) - 1
    if mask & full != full:
        used = [i for i in range(k) if mask >> i & 1]
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


def normal_components(p: Process) -> tuple[Process, ...]:
    """The components of `p`'s normal form: none for the inert process."""
    return tuple(c for c in parallel_components(normalize(p)) if type(c) is not Stop)


# A run of a normal form's run tree, `new^k (c1 | ... | cn)` with k >= 0:
# k, its components c1..cn, its core `c1 | ... | cn`, the index of the
# run that holds it and its slot there (-1 and -1 for the form itself),
# and its path, the slots from the form down to it
Run = tuple[int, list[Process], Process, int, int, tuple[int, ...]]


def normal_runs(p: Process) -> tuple[list[Run], list[tuple[int, int, Process]]]:
    """The run tree of the normal form `p`, walked with no recursion, and
    its leaf units.

    `runs[0]` is `p`'s own run, `new^k (c1 | ... | cn)` with k >= 0;
    each component that is a run `new^j (d1 | ... | dm)` is a run one
    level down, listed after the run that holds it.  A leaf is (run, slot, unit)
    for each component that is no run: a send, a receive, a repeating
    receive, a distributor, or the inert process when `p` is.
    """
    runs: list[Run] = []
    leaves: list[tuple[int, int, Process]] = []
    todo = [(p, -1, -1, ())]
    for core, parent, slot, path in todo:  # grows while it is walked
        r, k = len(runs), 0
        while type(core) is Restrict:
            k += 1
            core = core.body
        comps, i, c = [], 0, core
        while True:
            last = type(c) is not Parallel
            x = c if last else c.left
            if type(x) is Restrict:
                todo.append((x, r, i, path + (i,)))
            else:
                leaves.append((r, i, x))
            comps.append(x)
            if last:
                break
            c, i = c.right, i + 1
        runs.append((k, comps, core, parent, slot, path))
    return runs, leaves


def splice(runs: list[Run], moved: list[tuple[int, int, tuple[Process, ...]]]) -> Process:
    """The normal form of a normal state whose run tree `normal_runs`
    gives as `runs`, with the leaf at each (run, slot) of `moved`
    replaced by the given components, each a normal form and none
    parallel or inert.

    Runs are spliced from the innermost out.  In each, the moved slots'
    components leave the sorted list and the new ones go in by
    `term_key`, and the spine after the last slot that changes is
    reused.  A run with binders is closed by `_close_run`, as `normalize`
    closes it (dropping, renumbering and ordering its binders), and its
    normal form's components replace it in its slot one level up: a run
    whose binders all fall unused dissolves into the slot list above it,
    and an empty one into nothing.  The moved runs are walked in a loop,
    however deep they sit.
    """
    # the moved slots by run, then slot: a run is listed after the run
    # that holds it, so the last run has no moved run below it
    moved = sorted(moved)
    while True:
        r, n = moved[-1][0], len(moved) - 1
        while n and moved[n - 1][0] == r:
            n -= 1
        at = moved[n:]
        del moved[n:]
        k, comps, node, parent, slot, _ = runs[r]
        # the slots that go and the components that come; a leaf that
        # re-arms, found again among its own components, stays in place,
        # so the spine after it can be reused
        gone, added = [], []
        for _, i, new in at:
            c = comps[i]
            if c in new:
                new = list(new)
                new.remove(c)
            else:
                gone.append(i)
            added += new
        # the slots before `last`, less those that go, take the new
        # components in order, and every slot from `last` on stays in
        # place; a new component is compared only with slots that stay,
        # as the key of a deep run that goes may share a long prefix with it
        last = gone[-1] + 1 if gone else 0
        head = comps[:last]
        for i in reversed(gone):
            del head[i]
        for x in added:
            b = bisect_right(comps, x._term_key, last, key=_sort_key)
            head += comps[last:b]
            last = b
            insort(head, x, key=_sort_key)
        if last < len(comps):
            # the spine node of the slots from `last` on
            for _ in range(last):
                node = node.right
        elif head:
            node = head.pop()
        else:
            node = STOP
        for x in reversed(head):
            node = Parallel(x, node)
        if k:
            node = _close_run(k, node)
        if parent < 0:
            _CACHE[node] = node
            return node
        new = (node,) if type(node) is Restrict else () if node is STOP else tuple(parallel_components(node))
        insort(moved, (parent, slot, new))

