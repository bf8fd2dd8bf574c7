"""The exhaustive search as a chain of per-step closures, against a verbatim
copy of the recursive kernel before it, and the strong rule's counting
bound, which answers a strong search before its first node, against that
same kernel.

`antimagic.spectrum._assign` must return the very same first labeling (or
None) as the copied kernel under each of the three sum rules: the chain
only moves where each step's edge, finalized vertices, sum sets, guard
and degree windows are looked up. `_refutes_strong` may answer a strong
search before its first node only where the copied kernel finds nothing.
The graphs are forests, graphs with cycles, graphs with an isolated
vertex, and graphs with no edge or one.
"""

from __future__ import annotations

import importlib
import math
import random
from bisect import bisect_left, bisect_right
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antimagic.families import cp3, double_star, path, star
from antimagic.graph import Graph, build_graph
from antimagic.spectrum import _assign as chain_assign
from antimagic.spectrum import _refutes_strong, search_strong
from conftest import random_graph, random_tree

# import_module, because the package re-exports a function named spectrum
search = importlib.import_module("antimagic.spectrum")

# --- verbatim copy of the recursive search ------------------------------------


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
def _steps(g: Graph) -> tuple[list, list, list]:
    """`_plan(g)` together with what the two pruning rules of `_assign` read.

    Cached for the last graph asked about, by value: a plan depends only
    on n and the edges, so the strong search and every decide of one
    sweep, or of a window and a shift inside it, share one plan.

    Returns (plan, pruned, rules). `rules[t]` is None, or (forced,
    pendant) for a step t at which `_assign` prunes before it tries a
    label:

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
    return plan, pruned, rules


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
    per number of vertices a step checks (0, 1 or 2).

    Under "distinct" and "sdds" the forced-sum and pendant-remainder rules
    of `_steps` also prune, before a step tries any label. Both cut only
    subtrees that hold no labeling, so the first labeling found is the
    same as without them.
    """
    plan, pruned, rules = _steps(g)
    deg = g.degrees()
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
    strong = rule == "strong"
    if strong:
        steps = plan
        # per step: each vertex it finalizes that has final vertices of
        # lower or of higher degree, with those vertices, whose sums its
        # own must lie between; empty when the step has no such bound
        bounds = []
        for _, _, _, done in plan:
            step = []
            for w in done:
                below = [x for x in final if deg[x] < deg[w]]
                above = [x for x in final if deg[x] > deg[w]]
                if below or above:
                    step.append((w, below, above))
            bounds.append(step)
            final += done
    else:
        steps = pruned
    sums = [0] * g.n
    out = [0] * m
    free = list(pool)  # unused labels, ascending

    def window(bound: list) -> tuple[int, int]:
        """Index range of the free labels that keep a step in degree order."""
        lo, hi = -math.inf, math.inf
        for w, below, above in bound:
            if below:
                lo = max(lo, max(map(sums.__getitem__, below)) - sums[w])
            if above:
                hi = min(hi, min(map(sums.__getitem__, above)) - sums[w])
        return bisect_right(free, lo), bisect_left(free, hi)

    def rec(t: int) -> bool:
        if t == m:
            return True
        u, v, ei, done = steps[t]
        su, sv = sums[u], sums[v]
        nxt = enter[t + 1]
        if strong and bounds[t]:
            first, stop = window(bounds[t])
        else:
            first, stop = 0, m - t
        if not done:
            for i in range(first, stop):
                lab = free[i]
                sums[u] = su + lab
                sums[v] = sv + lab
                del free[i]
                if nxt(t + 1):
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
                if nxt(t + 1):
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
                if nxt(t + 1):
                    out[ei] = lab
                    return True
                free.insert(i, lab)
                seen_u.discard(a)
                seen_v.discard(b)
        sums[u] = su
        sums[v] = sv
        return False

    def pruning(t: int) -> bool:
        """`rec(t)` behind the step's forced-sum and pendant checks."""
        w, pendant = rules[t]
        if w < 0:
            return leaf_sums.isdisjoint(free) and rec(t)
        s = sums[w] + sum(free)
        seen_w = seen[w]
        if s in seen_w:
            return False
        seen_w.add(s)
        if (not pendant or leaf_sums.isdisjoint(free)) and rec(t):
            return True
        seen_w.discard(s)
        return False

    # the function that enters each step
    enter = [rec] * (m + 1)
    if not strong:
        for t, rule_t in enumerate(rules):
            if rule_t is not None:
                enter[t] = pruning
    return tuple(out) if enter[0](0) else None


# --- the comparison ----------------------------------------------------------

RULES = ("distinct", "sdds", "strong")
MAX_EDGES = 8


def pool_at(g: Graph, k: int) -> list[int]:
    return list(range(k + 1, k + g.m + 1))


@st.composite
def graphs(draw) -> Graph:
    """A forest, a graph that may have cycles, or a graph with no edge or
    one, on shuffled ids, with one more isolated vertex half of the time."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["forest", "cyclic", "tiny"]))
    if kind == "forest":
        n, edges = 0, []
        while not edges or len(edges) < MAX_EDGES and draw(st.booleans()):
            size = draw(st.integers(2, MAX_EDGES + 1 - len(edges)))
            edges += [(n + u, n + v) for u, v in random_tree(rng, size).edges]
            n += size
    elif kind == "cyclic":
        n = draw(st.integers(3, 7))
        m = draw(st.integers(n, min(MAX_EDGES, n * (n - 1) // 2)))
        edges = list(random_graph(rng, n, m).edges)
    else:
        n = draw(st.integers(0, 3))
        edges = [(0, 1)] if n >= 2 and draw(st.booleans()) else []
    n += draw(st.booleans())
    ids = draw(st.permutations(range(n)))
    return build_graph(n, [(ids[u], ids[v]) for u, v in edges])


def shifts(g: Graph) -> st.SearchStrategy[int]:
    """Any shift, leaning towards -(m+2)..1, where strong labelings begin
    and the degree windows decide most."""
    return st.one_of(st.integers(-(g.m + 2), 1), st.integers(-(3 * g.m + 4), g.m + 4))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_the_chain_returns_what_the_recursive_kernel_does(data):
    g = data.draw(graphs())
    pool = pool_at(g, data.draw(shifts(g)))
    for rule in RULES:
        assert chain_assign(g, pool, rule) == _assign(g, pool, rule), rule


def seeded_graphs(count: int) -> list[Graph]:
    """Random trees and graphs on 4 to 9 vertices with at least three
    degrees, where a window must come from the nearest degree class."""
    rng = random.Random(5)
    out = []
    while len(out) < count:
        n = rng.randint(4, 9)
        if rng.random() < 0.5:
            g = random_tree(rng, n)
        else:
            g = random_graph(rng, n, rng.randint(n - 1, min(MAX_EDGES, n * (n - 1) // 2)))
        if len(set(g.degrees())) >= 3:
            out.append(g)
    return out


def test_seeded_graphs_match_the_recursive_kernel_near_the_window():
    for g in seeded_graphs(120):
        for k in range(-(g.m + 2), 2):
            pool = pool_at(g, k)
            for rule in RULES:
                assert chain_assign(g, pool, rule) == _assign(g, pool, rule), (g, rule, k)


FAMILIES = (
    [star(n) for n in range(1, 8)]
    + [path(n) for n in range(2, 9)]
    + [double_star(1, 3), double_star(2, 2), double_star(2, 3), double_star(1, 5)]
    + [cp3(c) for c in range(1, 4)]
    + [build_graph(0, []), build_graph(1, []), build_graph(3, [(0, 2)])]
)


@pytest.mark.parametrize("g", FAMILIES, ids=repr)
def test_every_shift_of_small_families_matches_the_recursive_kernel(g):
    for k in range(-(2 * g.m + 2), g.m + 3):
        pool = pool_at(g, k)
        for rule in RULES:
            assert chain_assign(g, pool, rule) == _assign(g, pool, rule), (rule, k)


# --- the strong counting bound ------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_the_strong_bound_refutes_no_pool_that_has_a_strong_labeling(data):
    g = data.draw(graphs())
    pool = pool_at(g, data.draw(shifts(g)))
    if _refutes_strong(g.degrees(), pool):
        assert _assign(g, pool, "strong") is None


@pytest.mark.parametrize("g", FAMILIES, ids=repr)
def test_the_strong_bound_is_sound_on_every_shift_of_small_families(g):
    for k in range(-(2 * g.m + 2), g.m + 3):
        pool = pool_at(g, k)
        if _refutes_strong(g.degrees(), pool):
            assert _assign(g, pool, "strong") is None, k


@pytest.mark.parametrize("c", [2, 3, 4, 5])
def test_the_strong_search_of_cp3_is_refuted_before_its_first_node(c, monkeypatch):
    g = cp3(c)
    assert _refutes_strong(g.degrees(), pool_at(g, 0))
    # the refutation comes before the search reads its plan
    calls = []
    monkeypatch.setattr(search, "_steps", lambda g: calls.append(g))
    assert search_strong(g) is None
    assert calls == []


@pytest.mark.parametrize("c", [2, 3, 4, 5])
def test_the_refuted_strong_searches_of_cp3_find_nothing(c):
    g = cp3(c)
    assert _assign(g, pool_at(g, 0), "strong") is None
