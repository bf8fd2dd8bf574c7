"""The pruned exhaustive search against a verbatim copy of the one before it.

The forced-sum and pendant-remainder rules of `antimagic.spectrum._assign`
may only cut subtrees that hold no labeling, so every call must return the
very same first labeling (or None) as the unpruned kernel copied below,
under each of the three sum rules. The graphs lean towards what the rules
act on: stars, double stars, spiders, forests with many leaves, and an
isolated vertex.
"""

from __future__ import annotations

import importlib
import math
import random
from bisect import bisect_left, bisect_right

from hypothesis import given, settings
from hypothesis import strategies as st

from antimagic.families import cp3, double_star, star
from antimagic.graph import Graph, build_graph
from antimagic.spectrum import _assign as pruned_assign
from antimagic.spectrum import spectrum
from conftest import random_graph

# import_module, because the package re-exports a function named spectrum
search = importlib.import_module("antimagic.spectrum")

# --- verbatim copy of the unpruned search -------------------------------------


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


# --- the comparison ----------------------------------------------------------

RULES = ("distinct", "sdds", "strong")
MAX_EDGES = 8


def assert_same_search(g: Graph, k: int) -> None:
    pool = list(range(k + 1, k + g.m + 1))
    for rule in RULES:
        assert pruned_assign(g, pool, rule) == _assign(g, pool, rule), (rule, k)


def shifts(g: Graph) -> range:
    return range(-(2 * g.m + 2), g.m + 3)


def star_edges(leaves: int, centre: int = 0) -> list[tuple[int, int]]:
    return [(centre, centre + i) for i in range(1, leaves + 1)]


def spider_edges(legs: list[int]) -> list[tuple[int, int]]:
    """A centre 0 with one path of each length in `legs` hanging off it."""
    edges = []
    top = 0
    for length in legs:
        prev = 0
        for _ in range(length):
            top += 1
            edges.append((prev, top))
            prev = top
    return edges


@st.composite
def parts(draw, room: int) -> list[tuple[int, int]]:
    """One star, double star, spider or path with 1..room edges, from vertex 0."""
    kind = draw(st.sampled_from(["star", "double_star", "spider", "path"]))
    if kind == "star":
        return star_edges(draw(st.integers(1, room)))
    if kind == "double_star" and room >= 3:
        a = draw(st.integers(1, room - 2))
        b = draw(st.integers(1, room - 1 - a))
        return star_edges(a) + [(0, a + 1)] + star_edges(b, a + 1)
    if kind == "spider":
        legs = []
        while sum(legs) < room and (not legs or draw(st.booleans())):
            legs.append(draw(st.integers(1, room - sum(legs))))
        return spider_edges(legs)
    return [(i, i + 1) for i in range(draw(st.integers(1, room)))]


@st.composite
def leafy_graphs(draw) -> Graph:
    """A disjoint union of leafy parts, or any small graph, on shuffled ids,
    with one isolated vertex half of the time."""
    if draw(st.integers(0, 4)) == 0:
        n = draw(st.integers(2, 7))
        m = draw(st.integers(1, min(MAX_EDGES, n * (n - 1) // 2)))
        g = random_graph(random.Random(draw(st.integers(0, 2**32 - 1))), n, m)
        n, edges = g.n, list(g.edges)
    else:
        n, edges = 0, []
        while len(edges) < MAX_EDGES and (not edges or draw(st.booleans())):
            part = draw(parts(MAX_EDGES - len(edges)))
            edges += [(n + u, n + v) for u, v in part]
            n += 1 + max(max(e) for e in part)
    n += draw(st.booleans())
    ids = draw(st.permutations(range(n)))
    return build_graph(n, [(ids[u], ids[v]) for u, v in edges])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_pruned_search_returns_what_the_unpruned_one_does(data):
    g = data.draw(leafy_graphs())
    assert_same_search(g, data.draw(st.sampled_from(shifts(g))))


def test_every_shift_of_the_families_the_rules_target():
    graphs = [star(n) for n in range(1, 8)] + [double_star(1, 6), double_star(2, 4), cp3(2)]
    graphs.append(build_graph(7, spider_edges([2, 2, 1])))
    for g in graphs:
        for k in shifts(g):
            assert_same_search(g, k)


def test_a_spectrum_builds_one_plan_and_keeps_one_at_most(monkeypatch):
    calls = []
    plan = search._plan
    monkeypatch.setattr(search, "_plan", lambda g: calls.append(g) or plan(g))
    search._steps.cache_clear()
    g = double_star(2, 3)
    spectrum(g)
    assert calls == [g]
    assert search._steps.cache_info().maxsize == 1
