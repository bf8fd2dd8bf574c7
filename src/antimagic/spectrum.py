"""Shift spectra: which k admit a k-shifted labeling and which cannot.

The exhaustive decider works on small graphs only (the label pool grows
factorially), so spectra are computed in three rings: a provable window
from a strong or same-degree-distinct certificate, a brute-force sweep
inside the window with the negation symmetry cutting the work in half,
and lemma-backed certificates outside it.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .constructors import construct_forest_sdds, construct_odd_degree
from .errors import (
    BadParameters,
    BudgetExceeded,
    HasK2Component,
    IsolatedVertices,
    NoSddsFound,
    NotForest,
    NoValidSigma,
)
from .graph import Graph
from .labeling import (
    EdgeLabeling,
    negate_labeling,
    sdds_shift_threshold,
    shift_labeling,
)

DEFAULT_BUDGET = 10


def _plan(g: Graph) -> list[tuple[int, int, int, tuple[int, ...]]]:
    """Edge visit order that pins down vertex sums as early as possible.

    Greedily picks the edge completing the most vertices next (ties go to
    the lowest edge index). Each step is (u, v, edge index, the vertices
    whose sums become final at that step).
    """
    edges = g.edges
    unlab = list(g.degrees())
    placed = [False] * g.m
    plan = []
    for _ in range(g.m):
        best = best_score = -1
        for ei in range(g.m):
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


def _assign(g: Graph, pool: list[int], rule: str) -> tuple[int, ...] | None:
    """Backtracking injection of pool labels onto edges under a sum rule.

    `rule` is "distinct" (all vertex sums pairwise distinct), "sdds"
    (distinct within each degree class) or "strong" (distinct, and ordered
    strictly by degree). `pool` holds m ascending labels. Labels are tried
    in pool order on the edges in `_plan` order. A vertex's sum is checked
    when its last edge is labeled, against the final sums in its set: one
    set shared by all vertices, or under "sdds" one set per degree. Under
    "strong" a label must also keep the sum between those of the final
    vertices of lower and of higher degree. The loop is written out once
    per number of vertices a step finalizes (0, 1 or 2).
    """
    plan = _plan(g)
    deg = g.degrees()
    m = g.m
    if rule == "sdds":
        by_degree = {d: set() for d in deg}
        seen = [by_degree[d] for d in deg]
    else:
        seen = [set()] * g.n
    final = [v for v, d in enumerate(deg) if d == 0]
    for v in final:
        if 0 in seen[v]:
            return None
        seen[v].add(0)
    strong = rule == "strong"
    if strong:
        # per step: each vertex it finalizes, with the final vertices of
        # lower and of higher degree, whose sums its own must lie between
        bounds = []
        for _, _, _, done in plan:
            bounds.append(
                [
                    (
                        w,
                        [x for x in final if deg[x] < deg[w]],
                        [x for x in final if deg[x] > deg[w]],
                    )
                    for w in done
                ]
            )
            final += done
    sums = [0] * g.n
    out = [0] * m
    free = list(pool)  # unused labels, ascending

    def window(t: int) -> tuple[int, int]:
        """Index range of the free labels that keep step t in degree order."""
        lo, hi = -math.inf, math.inf
        for w, below, above in bounds[t]:
            if below:
                lo = max(lo, max(map(sums.__getitem__, below)) - sums[w])
            if above:
                hi = min(hi, min(map(sums.__getitem__, above)) - sums[w])
        return bisect_right(free, lo), bisect_left(free, hi)

    def rec(t: int) -> bool:
        if t == m:
            return True
        u, v, ei, done = plan[t]
        su, sv = sums[u], sums[v]
        first, stop = window(t) if strong else (0, m - t)
        if not done:
            for i in range(first, stop):
                lab = free[i]
                sums[u] = su + lab
                sums[v] = sv + lab
                del free[i]
                if rec(t + 1):
                    out[ei] = lab
                    return True
                free.insert(i, lab)
        elif len(done) == 1:
            w = done[0]
            x = v if w == u else u
            sw, sx = sums[w], sums[x]
            seen_w = seen[w]
            for i in range(first, stop):
                lab = free[i]
                s = sw + lab
                if s in seen_w:
                    continue
                seen_w.add(s)
                sums[w] = s
                sums[x] = sx + lab
                del free[i]
                if rec(t + 1):
                    out[ei] = lab
                    return True
                free.insert(i, lab)
                seen_w.discard(s)
        else:
            seen_u, seen_v = seen[u], seen[v]
            # the two new sums differ by sv - su whatever the label
            if seen_u is seen_v and su == sv:
                return False
            if strong and (deg[u] - deg[v]) * (su - sv) < 0:
                return False
            for i in range(first, stop):
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
                if rec(t + 1):
                    out[ei] = lab
                    return True
                free.insert(i, lab)
                seen_u.discard(a)
                seen_v.discard(b)
        sums[u] = su
        sums[v] = sv
        return False

    return tuple(out) if rec(0) else None


def _check_budget(g: Graph, budget: int) -> None:
    if g.m > budget:
        raise BudgetExceeded(
            f"{g.m} edges exceeds the exhaustive-search budget of {budget}"
        )


def decide(g: Graph, k: int, budget: int = DEFAULT_BUDGET) -> EdgeLabeling | None:
    """Exhaustively decide shift k: a labeling, or None when none exists."""
    _check_budget(g, budget)
    found = _assign(g, list(range(k + 1, k + g.m + 1)), "distinct")
    return None if found is None else EdgeLabeling(g, found, base=k)


def search_sdds(g: Graph, budget: int = DEFAULT_BUDGET) -> EdgeLabeling | None:
    """Exhaustively search for a same-degree-distinct-sum labeling."""
    _check_budget(g, budget)
    found = _assign(g, list(range(1, g.m + 1)), "sdds")
    return None if found is None else EdgeLabeling(g, found, base=0)


def search_strong(g: Graph, budget: int = DEFAULT_BUDGET) -> EdgeLabeling | None:
    """Exhaustively search for a degree-ordered distinct-sum labeling."""
    _check_budget(g, budget)
    found = _assign(g, list(range(1, g.m + 1)), "strong")
    return None if found is None else EdgeLabeling(g, found, base=0)


@dataclass(frozen=True)
class WindowResult:
    """Closed interval of shifts not settled by a certificate argument.

    Shifts above `hi` come from shifting the certificate; shifts below
    `lo` from negating a shifted certificate.
    """

    lo: int
    hi: int
    method: str  # "strong" | "sdds"
    certificate: EdgeLabeling


def finite_window(g: Graph, budget: int = DEFAULT_BUDGET) -> WindowResult:
    """Bound the undecided shift range for a graph, with a certificate.

    A degree-ordered labeling leaves only [-m, -1] open. Otherwise a
    same-degree-distinct labeling (built for forests and all-odd-degree
    graphs, searched for anything else within budget) leaves
    [-(h+m+1), h] open where h is the shift threshold. Raises NoSddsFound
    when no such certificate exists at all.
    """
    deg = g.degrees()
    if any(deg[u] == 1 and deg[v] == 1 for u, v in g.edges):
        raise NoSddsFound("a single-edge component forces two equal sums")
    if deg.count(0) >= 2:
        raise NoSddsFound("two isolated vertices share the sum 0")
    if g.m == 0:
        raise NoSddsFound("no edges to label")
    if g.m <= budget:
        cert = search_strong(g, budget)
        if cert is not None:
            return WindowResult(-g.m, -1, "strong", cert)
    cert = None
    try:
        cert = construct_forest_sdds(g)
    except (NotForest, HasK2Component, IsolatedVertices):
        pass
    if cert is None and all(d % 2 == 1 for d in deg):
        try:
            cert = construct_odd_degree(g)
        except NoValidSigma:
            pass
    if cert is None:
        cert = search_sdds(g, budget)
    if cert is None:
        raise NoSddsFound("no same-degree-distinct-sum labeling exists")
    hi = sdds_shift_threshold(g)
    return WindowResult(-(hi + g.m + 1), hi, "sdds", cert)


@dataclass(frozen=True)
class ShiftStatus:
    k: int
    status: str  # "feasible" | "infeasible" | "lemma"
    via: str  # "search" | "mirror" | "strong-shift" | "sdds-shift" | "negation-symmetry"
    certificate: EdgeLabeling | None


@dataclass(frozen=True)
class SpectrumReport:
    graph: Graph
    window: WindowResult | None
    sweep_lo: int
    sweep_hi: int
    excluded: tuple[int, ...]
    entries: tuple[ShiftStatus, ...]

    def entry(self, k: int) -> ShiftStatus:
        for row in self.entries:
            if row.k == k:
                return row
        raise KeyError(f"shift {k} is outside the swept range")

    def to_dict(self) -> dict:
        above = "unknown" if self.window is None else f"{self.window.method}-shift"
        below = "unknown" if self.window is None else "negation-symmetry"
        return {
            "n": self.graph.n,
            "m": self.graph.m,
            "edges": [list(e) for e in self.graph.edges],
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
) -> SpectrumReport:
    """Sweep a shift range and report feasibility per shift.

    Without an override the provable window is swept, which settles the
    spectrum completely. Shifts in the sweep that fall outside the
    provable window are certified by the shift and negation arguments
    instead of brute force. The negation symmetry k <-> -(m+1)-k halves
    the brute-force work: only the upper half is decided, mirrors reuse it.
    """
    m = g.m
    try:
        win = finite_window(g, budget)
    except NoSddsFound:
        if window is None:
            raise
        win = None
    if window is None:
        sweep_lo, sweep_hi = win.lo, win.hi
    else:
        sweep_lo, sweep_hi = window
        if sweep_lo > sweep_hi:
            raise BadParameters(f"empty sweep range {sweep_lo}..{sweep_hi}")
    cache: dict[int, EdgeLabeling | None] = {}
    entries: list[ShiftStatus] = []
    excluded: list[int] = []
    for k in range(sweep_lo, sweep_hi + 1):
        if win is not None and k > win.hi:
            lifted = shift_labeling(win.certificate, k)
            entries.append(ShiftStatus(k, "lemma", f"{win.method}-shift", lifted))
            continue
        if win is not None and k < win.lo:
            lifted = shift_labeling(win.certificate, -(m + 1) - k)
            entries.append(
                ShiftStatus(k, "lemma", "negation-symmetry", negate_labeling(lifted))
            )
            continue
        probe = k if 2 * k >= -(m + 1) else -(m + 1) - k
        if probe not in cache:
            cache[probe] = decide(g, probe, budget)
        found = cache[probe]
        via = "search" if probe == k else "mirror"
        if found is None:
            entries.append(ShiftStatus(k, "infeasible", via, None))
            excluded.append(k)
        else:
            cert = found if probe == k else negate_labeling(found)
            entries.append(ShiftStatus(k, "feasible", via, cert))
    return SpectrumReport(g, win, sweep_lo, sweep_hi, tuple(excluded), tuple(entries))


class AllShifts:
    """Exclusion set meaning every shift is infeasible."""

    def __contains__(self, k: object) -> bool:
        return True

    def __repr__(self) -> str:
        return "AllShifts()"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AllShifts)

    def __hash__(self) -> int:
        return hash("AllShifts")


ALL_SHIFTS = AllShifts()


def closed_form_spectrum(
    family: str,
    n: int | None = None,
    a: int | None = None,
    b: int | None = None,
    c: int | None = None,
) -> frozenset[int] | AllShifts:
    """The known excluded-shift set for a named family.

    Returns a frozenset of infeasible shifts, or ALL_SHIFTS for the
    single-edge graph where no shift works.
    """
    if family == "path":
        if n is None or n < 2:
            raise BadParameters("path needs n >= 2")
        if n == 2:
            return ALL_SHIFTS
        return {
            3: frozenset({-2, -1}),
            4: frozenset({-2}),
            5: frozenset({-3, -2}),
        }.get(n, frozenset())
    if family == "star":
        if n is None or n < 1:
            raise BadParameters("star needs a leaf count n >= 1")
        if n == 1:
            return ALL_SHIFTS
        if n % 2 == 0:
            return frozenset({-n // 2 - 1, -n // 2})
        return frozenset({-(n + 1) // 2})
    if family == "double_star":
        if a is None or b is None or a < 1 or b < 1:
            raise BadParameters("double star needs a, b >= 1")
        big, small = max(a, b), min(a, b)
        if small >= 2:
            return frozenset()
        if big == 1:
            return frozenset({-2})
        if big == 2:
            return frozenset({-3, -2})
        if big % 2 == 1:
            return frozenset({-(big + 3) // 2})
        return frozenset()
    if family == "cp3":
        if c is None or c < 1:
            raise BadParameters("need a component count c >= 1")
        return frozenset(range(-((5 * c) // 2), c // 2))
    if family == "two_p4":
        return frozenset({-5, -2})
    if family == "two_s3":
        return frozenset({-5, -2})
    if family == "p5prime":
        return frozenset({-3})
    raise BadParameters(f"no closed form for family {family!r}")
