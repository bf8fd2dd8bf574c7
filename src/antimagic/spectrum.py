"""Shift spectra: which k admit a k-shifted labeling and which cannot.

The exhaustive decider works on small graphs only (the label pool grows
factorially), so spectra are computed in three rings: a provable window
from a strong or same-degree-distinct certificate, a sweep inside it by
brute force (past the budget, by the family's construction) with the
negation symmetry halving the work, and lemma certificates outside it.
"""

from __future__ import annotations

import math
import reprlib
from bisect import bisect_left, bisect_right
from collections import Counter, namedtuple
from collections.abc import Callable
from functools import lru_cache
from itertools import accumulate, chain
from operator import eq

from .constructors import (
    _SHAPES, ALL_SHIFTS, FAMILIES, construct_forest_sdds, construct_odd_degree,
)
from .errors import BadParameters, BudgetExceeded, NoSddsFound, WrongGraphClass, require_int
from .graph import Graph
from .labeling import EdgeLabeling, mirror, sdds_shift_threshold, shift_labeling

DEFAULT_BUDGET = 10
# The most shifts a window override may sweep; each costs a labeling.
MAX_SWEEP = 10_000
# The most labels any sweep may hold: its shifts times the edge count.
MAX_SWEEP_LABELS = 5_000_000


def _plan(g: Graph) -> list[tuple[int, int, int, tuple[int, ...]]]:
    """Edge visit order that pins down vertex sums as early as possible.

    Greedily picks the edge completing the most vertices next (ties go to
    the lowest edge index). Each step is (u, v, edge index, the vertices
    whose sums become final at that step).
    """
    edges, m = g.edges, g.m
    unlab = list(g.degrees())
    placed = [False] * m
    plan = []
    for _ in range(m):
        best = best_score = -1
        for ei in range(m):
            if not placed[ei]:
                u, v = edges[ei]
                score = (unlab[u] == 1) + (unlab[v] == 1)
                if score > best_score:
                    best, best_score = ei, score
        placed[best] = True
        u, v = edges[best]
        unlab[u] -= 1
        unlab[v] -= 1
        plan.append((u, v, best, tuple(w for w in (u, v) if unlab[w] == 0)))
    return plan


@lru_cache(maxsize=1)
def _steps(g: Graph) -> tuple[list, list, list, list]:
    """`_plan(g)` together with what the rules of `_assign` read.

    Cached for the last graph asked about, by value: a plan depends only
    on n and the edges, so the strong search and every decide of one
    sweep, or of a window and a shift inside it, share one plan. No
    search changes any of it; a search's state lives in its own call.

    Returns (plan, pruned, rules, bounds). `rules[t]` is None, or
    (forced, pendant) for a step t at which `_assign` prunes before it
    tries a label:

    - forced sum: `forced` (else -1) is the first vertex that, with at
      least two edges left, touches every unlabeled edge. Its final sum
      is then its current sum plus the sum of the free labels, checked
      and reserved at step t. Its last edge is the plan's last step, and
      `pruned` is the plan without its check there.
    - pendant remainder: `pendant` marks the first step after which every
      unlabeled edge has a degree-1 endpoint. From there on each free
      label becomes some leaf's final sum, so none may already be a
      degree-1 sum. When both rules meet at one step, the reservation
      comes first.

    `bounds[t]` is None, or the strong rule's degree windows at step t of
    `plan`: one (below, above) per vertex w the step finalizes, in `done`
    order, where `below` holds the final vertices of the nearest lower
    degree and `above` those of the nearest higher, and w's sum must lie
    strictly between theirs. The strong search keeps final sums in
    degree order, so the nearest classes bound w as tightly as all final
    vertices do.
    """
    plan = _plan(g)
    m = g.m
    deg = g.degrees()
    rules: list[tuple[int, bool] | None] = [None] * m
    leafless = [t for t, (u, v, _, _) in enumerate(plan) if deg[u] > 1 and deg[v] > 1]
    first_pendant = leafless[-1] + 1 if leafless else 0
    if first_pendant < m:
        rules[first_pendant] = (-1, True)
    pruned = plan
    unlab = list(deg)
    for t, (u, v, _, _) in enumerate(plan[:-1]):
        w = u if unlab[u] == m - t else v if unlab[v] == m - t else -1
        if w >= 0:
            rules[t] = (w, t == first_pendant)
            x, y, ei, _ = plan[-1]
            pruned = plan[:-1] + [(x, y, ei, (y if w == x else x,))]
            break
        unlab[u] -= 1
        unlab[v] -= 1
    final: dict[int, list[int]] = {}  # degree -> its final vertices
    for v, d in enumerate(deg):
        if d == 0:
            final.setdefault(0, []).append(v)
    bounds = []
    for _, _, _, done in plan:
        levels = sorted(final)
        windows = []
        for w in done:
            i, j = bisect_left(levels, deg[w]), bisect_right(levels, deg[w])
            windows.append((
                tuple(final[levels[i - 1]]) if i else (),
                tuple(final[levels[j]]) if j < len(levels) else (),
            ))
        bounds.append(tuple(windows) if any(map(any, windows)) else None)
        for w in done:
            final.setdefault(deg[w], []).append(w)
    return plan, pruned, rules, bounds


def _refutes_strong(deg: list[int], pool: list[int]) -> bool:
    """True when counting proves that no labeling by `pool` of a graph
    with degrees `deg` has distinct sums ordered strictly by degree; False
    proves nothing.

    A vertex of degree d sums at least its d smallest labels and at most
    its d largest, and the n sums total twice the labels. Strictly
    increasing in degree order, the sums total at least what the greedy
    from the lowest degree up reaches, each sum its own least or one
    above the last, and at most what the greedy from the highest degree
    down reaches. A total outside that range refutes every labeling.
    """
    low = list(accumulate(pool, initial=0))  # low[d]: the d smallest labels
    total = low[-1]
    degs = sorted(deg)
    least = most = 0
    s = -math.inf
    for d in degs:
        s = max(low[d], s + 1)
        least += s
    s = math.inf
    for d in reversed(degs):
        s = min(total - low[len(pool) - d], s - 1)
        most += s
    return not least <= 2 * total <= most


def _assign(g: Graph, pool: list[int], rule: str) -> tuple[int, ...] | None:
    """Backtracking injection of pool labels onto edges under a sum rule.

    `rule` is "distinct" (all vertex sums pairwise distinct), "sdds"
    (distinct within each degree class) or "strong" (distinct, and ordered
    strictly by degree). `pool` holds m ascending labels. Labels are tried
    in pool order on the edges in `_plan` order. A vertex's sum is checked
    when its last edge is labeled, against the final sums in its set: one
    set shared by all vertices, or under "sdds" one set per degree. Under
    "strong" a label must also keep the sum inside its windows of
    `_steps`, and a pool that `_refutes_strong` is answered before the
    first node, from the degrees alone.

    The search is a chain of closures, one per step, built for this call
    from the last step back. Each has its edge, the vertices it finalizes
    (0, 1 or 2) with their sum sets and, under "strong", their windows
    fixed, and calls the next step's closure. Under "distinct" and "sdds"
    the forced-sum and pendant-remainder rules of `_steps` guard their
    step's closure, before it tries any label. Both cut only subtrees that
    hold no labeling, so the first labeling found is the same as without
    them.
    """
    deg = g.degrees()
    strong = rule == "strong"
    if strong and _refutes_strong(deg, pool):
        return None
    plan, pruned, rules, bounds = _steps(g)
    m = g.m
    if rule == "sdds":
        by_degree = {d: set() for d in deg}
        seen = [by_degree[d] for d in deg]
        leaf_sums = by_degree.get(1)
    else:
        seen = [set()] * g.n
        leaf_sums = seen[0] if seen else None
    final = [v for v, d in enumerate(deg) if d == 0]
    for v in final:
        if 0 in seen[v]:
            return None
        seen[v].add(0)
    sums = [0] * g.n
    get = sums.__getitem__
    out = [0] * m
    free = list(pool)  # unused labels, ascending

    # Each step's closure takes what its loop reads as defaults, since a
    # local is read faster than a closure cell, and is defined inline: a
    # factory call per step added about a third to a short feasible search.
    # None is ever called with arguments.
    steps = plan if strong else pruned
    nxt = lambda: True  # past the last step
    for t in range(m - 1, -1, -1):
        u, v, ei, done = steps[t]
        stop = m - t
        windows = bounds[t] if strong else None
        if not done:  # label edge ei = uv, which finalizes neither end

            def step(sums=sums, free=free, u=u, v=v, ei=ei, stop=stop, nxt=nxt) -> bool:
                su, sv = sums[u], sums[v]
                for i in range(stop):
                    lab = free[i]
                    sums[u] = su + lab
                    sums[v] = sv + lab
                    del free[i]
                    if nxt():
                        out[ei] = lab
                        return True
                    free.insert(i, lab)
                sums[u] = su
                sums[v] = sv
                return False

        elif len(done) == 1:  # label edge ei = wx, which finalizes w only

            def step(
                sums=sums, free=free, w=done[0], x=v if done[0] == u else u, ei=ei, stop=stop,
                nxt=nxt, seen_w=seen[done[0]], window=windows[0] if windows else None, get=get,
            ) -> bool:
                sw, sx = sums[w], sums[x]
                first, last = 0, stop
                if window:
                    below, above = window
                    if below:
                        first = bisect_right(free, max(map(get, below)) - sw)
                    if above:
                        last = bisect_left(free, min(map(get, above)) - sw)
                for i in range(first, last):
                    lab = free[i]
                    s = sw + lab
                    if s in seen_w:
                        continue
                    seen_w.add(s)
                    sums[w] = s
                    sums[x] = sx + lab
                    del free[i]
                    if nxt():
                        out[ei] = lab
                        return True
                    free.insert(i, lab)
                    seen_w.discard(s)
                sums[w] = sw
                sums[x] = sx
                return False

        else:  # label edge ei = uv, which finalizes both ends

            # the two new sums differ by sv - su whatever the label, so sums
            # in one set must differ already, and under "strong" be in
            # degree order
            def step(
                sums=sums, free=free, u=u, v=v, ei=ei, stop=stop, nxt=nxt,
                seen_u=seen[u], seen_v=seen[v], shared=seen[u] is seen[v],
                order=deg[u] - deg[v] if strong else 0, windows=windows, get=get,
            ) -> bool:
                su, sv = sums[u], sums[v]
                if shared and su == sv or order and order * (su - sv) < 0:
                    return False
                first, last = 0, stop
                if windows:
                    (below_u, above_u), (below_v, above_v) = windows
                    if below_u:
                        first = bisect_right(free, max(map(get, below_u)) - su)
                    if below_v:
                        first = max(first, bisect_right(free, max(map(get, below_v)) - sv))
                    if above_u:
                        last = bisect_left(free, min(map(get, above_u)) - su)
                    if above_v:
                        last = min(last, bisect_left(free, min(map(get, above_v)) - sv))
                for i in range(first, last):
                    lab = free[i]
                    a = su + lab
                    if a in seen_u:
                        continue
                    b = sv + lab
                    if b in seen_v:
                        continue
                    seen_u.add(a)
                    seen_v.add(b)
                    sums[u] = a
                    sums[v] = b
                    del free[i]
                    if nxt():
                        out[ei] = lab
                        return True
                    free.insert(i, lab)
                    seen_u.discard(a)
                    seen_v.discard(b)
                sums[u] = su
                sums[v] = sv
                return False

        nxt = step
        if strong or rules[t] is None:
            continue
        w, pendant = rules[t]
        if w < 0:  # the pendant-remainder check alone

            def guard(free=free, leaf_sums=leaf_sums, step=step) -> bool:
                return leaf_sums.isdisjoint(free) and step()

        else:  # the reservation of w's forced sum, then the pendant check

            def guard(
                sums=sums, free=free, w=w, seen_w=seen[w], pendant=pendant,
                leaf_sums=leaf_sums, step=step,
            ) -> bool:
                s = sums[w] + sum(free)
                if s in seen_w:
                    return False
                seen_w.add(s)
                if (not pendant or leaf_sums.isdisjoint(free)) and step():
                    return True
                seen_w.discard(s)
                return False

        nxt = guard
    return tuple(out) if nxt() else None


def _search(g: Graph, budget: int, k: int, rule: str) -> EdgeLabeling | None:
    """A k-shifted labeling under `rule` from `_assign`, or None; raises
    BudgetExceeded past `budget` edges, and BadParameters unless k and
    `budget` are ints.

    Past n = 2m+1 two vertices are isolated and share the sum 0 under
    every rule, so the answer is None at once, without a per-vertex list.
    """
    require_int("shift", k)
    require_int("budget", budget)
    if g.m > budget:
        raise BudgetExceeded(
            f"{g.m} edges exceeds the exhaustive-search budget of {budget}"
        )
    if g.n > 2 * g.m + 1:
        return None
    found = _assign(g, list(range(k + 1, k + g.m + 1)), rule)
    return None if found is None else EdgeLabeling(g, found, base=k)


def decide(g: Graph, k: int, budget: int = DEFAULT_BUDGET) -> EdgeLabeling | None:
    """Exhaustively decide shift k: a labeling, or None when none exists."""
    return _search(g, budget, k, "distinct")


def search_sdds(g: Graph, budget: int = DEFAULT_BUDGET) -> EdgeLabeling | None:
    """Exhaustively search for a same-degree-distinct-sum labeling."""
    return _search(g, budget, 0, "sdds")


def search_strong(g: Graph, budget: int = DEFAULT_BUDGET) -> EdgeLabeling | None:
    """Exhaustively search for a degree-ordered distinct-sum labeling."""
    return _search(g, budget, 0, "strong")


class WindowResult(namedtuple("WindowResult", "lo hi method certificate")):
    """Closed interval of shifts not settled by a certificate argument.

    Shifts above `hi` come from shifting the certificate; shifts below
    `lo` from negating a shifted certificate. `method` is "strong" or
    "sdds", the kind of certificate.
    """

    __slots__ = ()


def finite_window(g: Graph, budget: int = DEFAULT_BUDGET) -> WindowResult:
    """Bound the undecided shift range for a graph, with a certificate.

    A degree-ordered labeling leaves only [-m, -1] open. Otherwise a
    same-degree-distinct labeling (built for forests and all-odd-degree
    graphs, searched for anything else within budget) leaves
    [-(h+m+1), h] open where h is the shift threshold. Raises NoSddsFound
    when no such certificate exists at all.
    """
    require_int("budget", budget)
    # the first two checks read only the edge endpoints, so a huge vertex
    # count costs nothing: at most 2m vertices touch an edge
    touches = Counter(chain.from_iterable(g.edges))
    if any(touches[u] == 1 and touches[v] == 1 for u, v in g.edges):
        raise NoSddsFound("a single-edge component forces two equal sums")
    if g.n - len(touches) >= 2:
        raise NoSddsFound("two isolated vertices share the sum 0")
    if g.m == 0:
        raise NoSddsFound("no edges to label")
    if g.m <= budget:
        cert = search_strong(g, budget)
        if cert is not None:
            return WindowResult(-g.m, -1, "strong", cert)
    try:
        cert = construct_forest_sdds(g)
    except WrongGraphClass:
        cert = None
    if cert is None and all(d % 2 == 1 for d in g.degrees()):
        cert = construct_odd_degree(g)
    if cert is None:
        cert = search_sdds(g, budget)
    if cert is None:
        raise NoSddsFound("no same-degree-distinct-sum labeling exists")
    hi = sdds_shift_threshold(g)
    return WindowResult(-(hi + g.m + 1), hi, "sdds", cert)


def lift(win: WindowResult, k: int) -> EdgeLabeling:
    """The window's certificate carried to a shift k outside the window.

    Above the window the certificate is shifted to k. Below it, the
    labeling for the mirror shift -(m+1)-k is negated; that shift lies
    above the window, because every window has lo = -(hi+m+1).
    """
    cert = win.certificate
    return mirror(lambda j: shift_labeling(cert, j), cert.graph.m, k)


def labeling_at(
    g: Graph, k: int, budget: int = DEFAULT_BUDGET, family: tuple[str, dict] | None = None
) -> EdgeLabeling | None:
    """A k-shifted labeling of g, or None when shift k is infeasible.

    `family` must be the (name, params) request of the `FAMILIES` entry
    that built g (BadParameters if it names no entry, not exactly its
    parameters, or a graph other than g). Its constructor answers
    when it has one, else `decide` inside the provable window and `lift`
    outside it. With an edge but no window no shift is feasible:
    NoSddsFound proves that no labeling by 1..m has distinct sums within
    each degree class, which a k-shifted one less k is.
    """
    require_int("shift", k)
    require_int("budget", budget)
    construct = _constructor(g, budget, family)
    if construct is not None:
        return construct(k)
    try:
        win = finite_window(g, budget)
    except NoSddsFound:
        return None if g.m else decide(g, k, budget)
    return decide(g, k, budget) if win.lo <= k <= win.hi else lift(win, k)


def _constructor(g: Graph, budget: int, family: tuple[str, dict] | None) -> Callable | None:
    """`family`'s constructor for g as a function of k, or None without one;
    BadParameters unless `family` names a `FAMILIES` entry and its int
    parameters, and, where it has a constructor, g is the graph it builds:
    g's edges are compared one by one as the family's shape yields them."""
    if family is None:
        return None
    name, params = family if isinstance(family, tuple) and len(family) == 2 else (None, None)
    entry = FAMILIES.get(name) if isinstance(name, str) else None
    if entry is None or not isinstance(params, dict) or set(params) != set(entry.params):
        need = "a name from FAMILIES" if entry is None else f"the parameters {list(entry.params)}"
        raise BadParameters(f"family must be a (name, params) pair with {need}, got {family!r}")
    for key, value in params.items():
        require_int(f"family parameter {key}", value)
    if entry.construct is None:
        return None
    n, m, edges = _SHAPES[name](**params)
    if (g.n, g.m) != (n, m) or not all(map(eq, g.edges, edges)):
        raise BadParameters(f"family {family!r} does not build this {g.n}-vertex, {g.m}-edge graph")
    return lambda k: entry.construct(k, g=g, search=lambda j: decide(g, j, budget), **params)


class ShiftStatus(namedtuple("ShiftStatus", "k status via certificate")):
    """One swept shift k.

    `status` is "feasible", "infeasible" or "lemma"; `via` is "search"
    (decided within the search budget), "family" (past it, by
    `labeling_at`), "mirror" (negated from the shift -(m+1)-k),
    "strong-shift", "sdds-shift" or "negation-symmetry" (the window's
    certificate lifted); `certificate` is a k-shifted labeling, or None
    when infeasible.
    """

    __slots__ = ()


class SpectrumReport(
    namedtuple("SpectrumReport", "graph window sweep_lo sweep_hi excluded entries")
):
    """A sweep of shifts sweep_lo..sweep_hi, one ShiftStatus per shift in
    `entries`; `excluded` lists the infeasible ones and `window` is the
    provable window, or None without one. For a graph with an edge but
    no window, `excluded` is ALL_SHIFTS and nothing is swept."""

    __slots__ = ()

    def entry(self, k: int) -> ShiftStatus:
        for row in self.entries:
            if row.k == k:
                return row
        raise KeyError(f"shift {k} is outside the swept range")

    def to_dict(self) -> dict:
        doc = {"n": self.graph.n, "m": self.graph.m, "edges": [list(e) for e in self.graph.edges]}
        if self.excluded == ALL_SHIFTS:
            return {**doc, "window": None, "excluded_all_shifts": True}
        above = "unknown" if self.window is None else f"{self.window.method}-shift"
        below = "unknown" if self.window is None else "negation-symmetry"
        return {
            **doc,
            "window": None
            if self.window is None
            else {
                "lo": self.window.lo,
                "hi": self.window.hi,
                "method": self.window.method,
            },
            "sweep": {"lo": self.sweep_lo, "hi": self.sweep_hi},
            "outside_above": above,
            "outside_below": below,
            "excluded": list(self.excluded),
            "shifts": [
                {
                    "k": row.k,
                    "status": row.status,
                    "via": row.via,
                    "labels": None
                    if row.certificate is None
                    else list(row.certificate.labels),
                }
                for row in self.entries
            ],
        }


def spectrum(
    g: Graph,
    window: tuple[int, int] | None = None,
    budget: int = DEFAULT_BUDGET,
    family: tuple[str, dict] | None = None,
) -> SpectrumReport:
    """Sweep a shift range and report feasibility per shift.

    Without an override the provable window is swept, which settles the
    spectrum completely. Shifts in the sweep that fall outside the
    provable window are certified by the shift and negation arguments
    instead of brute force. The negation symmetry k <-> -(m+1)-k halves
    the brute-force work: only the upper half is decided, mirrors reuse it.
    Up to `budget` edges `decide` searches each shift, on the edge plan
    cached for g; past it each shift is answered as `labeling_at` answers
    it, from the one window built here. `family` must be the request
    that built g and is checked as `labeling_at` checks it. A sweep past
    MAX_SWEEP_LABELS labels, or an override past MAX_SWEEP shifts, raises
    BadParameters before any shift is swept.
    """
    m = g.m
    require_int("budget", budget)
    construct = _constructor(g, budget, family)
    if window is not None:
        if not isinstance(window, (tuple, list)) or len(window) != 2:
            raise BadParameters(f"window must be a (lo, hi) pair, got {reprlib.repr(window)}")
        for bound in window:
            require_int("window bound", bound)
        _check_sweep(*window, m, MAX_SWEEP)
    try:
        win = finite_window(g, budget)
    except NoSddsFound:
        if window is None:
            if m:  # no shift is feasible, as `labeling_at` explains
                return SpectrumReport(g, None, None, None, ALL_SHIFTS, ())
            raise
        win = None
    if window is None:
        window = win.lo, win.hi
        _check_sweep(*window, m, math.inf)
    sweep_lo, sweep_hi = window
    searched = m <= budget
    cache: dict[int, EdgeLabeling | None] = {}

    def decided(j: int) -> EdgeLabeling | None:
        if j not in cache:
            if searched or construct is None and (win is not None or not m):
                cache[j] = decide(g, j, budget)  # inside the window, as `labeling_at` does
            else:  # the family's constructor; with an edge but no window, nothing
                cache[j] = None if construct is None else construct(j)
        return cache[j]

    entries: list[ShiftStatus] = []
    excluded: list[int] = []
    for k in range(sweep_lo, sweep_hi + 1):
        if win is not None and not win.lo <= k <= win.hi:
            via = f"{win.method}-shift" if k > win.hi else "negation-symmetry"
            entries.append(ShiftStatus(k, "lemma", via, lift(win, k)))
            continue
        found = mirror(decided, m, k)
        # mirror decides k itself exactly when k is on the upper half
        via = ("search" if searched else "family") if k in cache else "mirror"
        if found is None:
            entries.append(ShiftStatus(k, "infeasible", via, None))
            excluded.append(k)
        else:
            entries.append(ShiftStatus(k, "feasible", via, found))
    return SpectrumReport(g, win, sweep_lo, sweep_hi, tuple(excluded), tuple(entries))


def _check_sweep(lo: int, hi: int, m: int, most: float) -> None:
    """Refuse lo..hi if empty or past `most` shifts or MAX_SWEEP_LABELS labels."""
    if lo > hi:
        raise BadParameters(f"empty sweep range {lo}..{hi}")
    if hi - lo >= most:
        raise BadParameters(
            f"sweep range {lo}..{hi} holds {hi - lo + 1} shifts, more than the {most} allowed"
        )
    if (hi - lo + 1) * m > MAX_SWEEP_LABELS:
        raise BadParameters(
            f"sweep range {lo}..{hi} of a {m}-edge graph holds {(hi - lo + 1) * m} labels,"
            f" more than the {MAX_SWEEP_LABELS} allowed"
        )
