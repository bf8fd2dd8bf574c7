"""The exhaustive search against a verbatim copy of the code it replaced.

The search kernel in `antimagic.spectrum` must visit the same nodes in the
same order as the object-per-rule search below, so every call returns the
very same first labeling (or None), not just the same feasibility.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from antimagic.families import complete, cp3, double_star, p5prime, path, star, two_p4, two_s3
from antimagic.graph import Graph, build_graph
from antimagic.spectrum import _plan, decide, search_sdds, search_strong
from conftest import random_graph

# --- verbatim copies of the replaced search ----------------------------------


def seed_static_order(g: Graph) -> tuple[list[int], list[list[int]]]:
    """Edge visit order that pins down vertex sums as early as possible.

    Greedily picks the edge completing the most vertices next (ties go to
    canonical order). Also returns, per step, the vertices whose sums
    become final at that step.
    """
    unlab = list(g.degrees())
    remaining = set(range(g.m))
    order: list[int] = []
    finalize: list[list[int]] = []
    while remaining:
        best = -1
        best_score = -1
        for ei in sorted(remaining):
            u, v = g.edges[ei]
            score = (unlab[u] == 1) + (unlab[v] == 1)
            if score > best_score:
                best, best_score = ei, score
        order.append(best)
        remaining.discard(best)
        done = []
        for w in g.edges[best]:
            unlab[w] -= 1
            if unlab[w] == 0:
                done.append(w)
        finalize.append(done)
    return order, finalize


class _DistinctRule:
    """All finalized sums must be pairwise distinct."""

    def __init__(self) -> None:
        self.seen: set[int] = set()

    def admit(self, w: int, s: int, d: int) -> bool:
        if s in self.seen:
            return False
        self.seen.add(s)
        return True

    def retract(self, w: int, s: int, d: int) -> None:
        self.seen.discard(s)


class _SddsRule:
    """Finalized sums must be distinct within each degree class."""

    def __init__(self) -> None:
        self.seen: dict[int, set[int]] = {}

    def admit(self, w: int, s: int, d: int) -> bool:
        bucket = self.seen.setdefault(d, set())
        if s in bucket:
            return False
        bucket.add(s)
        return True

    def retract(self, w: int, s: int, d: int) -> None:
        self.seen[d].discard(s)


class _StrongRule:
    """Distinct sums that respect the degree order strictly."""

    def __init__(self) -> None:
        self.done: list[tuple[int, int]] = []

    def admit(self, w: int, s: int, d: int) -> bool:
        for dx, sx in self.done:
            if s == sx:
                return False
            if (d < dx and s > sx) or (d > dx and s < sx):
                return False
        self.done.append((d, s))
        return True

    def retract(self, w: int, s: int, d: int) -> None:
        self.done.pop()


def seed_assign(g: Graph, pool: list[int], rule) -> tuple[int, ...] | None:
    """Backtracking injection of pool labels onto edges under a sum rule."""
    order, finalize = seed_static_order(g)
    edges = g.edges
    deg = g.degrees()
    sums = [0] * g.n
    out = [0] * g.m
    used = [False] * len(pool)

    for v in range(g.n):
        if deg[v] == 0 and not rule.admit(v, 0, 0):
            return None

    def rec(t: int) -> bool:
        if t == g.m:
            return True
        ei = order[t]
        u, v = edges[ei]
        for li, lab in enumerate(pool):
            if used[li]:
                continue
            used[li] = True
            out[ei] = lab
            sums[u] += lab
            sums[v] += lab
            admitted = []
            ok = True
            for w in finalize[t]:
                if rule.admit(w, sums[w], deg[w]):
                    admitted.append(w)
                else:
                    ok = False
                    break
            if ok and rec(t + 1):
                return True
            for w in reversed(admitted):
                rule.retract(w, sums[w], deg[w])
            sums[u] -= lab
            sums[v] -= lab
            used[li] = False
        return False

    return tuple(out) if rec(0) else None


# --- the comparison ----------------------------------------------------------


def labels(f):
    return None if f is None else f.labels


def assert_same_search(g: Graph) -> None:
    order, finalize = seed_static_order(g)
    plan = _plan(g)
    assert [ei for _, _, ei, _ in plan] == order
    assert [list(done) for _, _, _, done in plan] == finalize
    assert [g.edges[ei] for u, v, ei, _ in plan] == [(u, v) for u, v, _, _ in plan]
    m = g.m
    for k in range(-(m + 3), 4):
        want = seed_assign(g, list(range(k + 1, k + m + 1)), _DistinctRule())
        assert labels(decide(g, k)) == want, k
    ones = list(range(1, m + 1))
    assert labels(search_sdds(g)) == seed_assign(g, ones, _SddsRule())
    assert labels(search_strong(g)) == seed_assign(g, ones, _StrongRule())


# Components that stress the rules: twin leaves (stars, claws), equal
# degrees finalized together (edges, triangles), all-odd degrees (claw,
# K4), and isolated vertices. Each block is (vertex count, edges).
BLOCKS = {
    "isolated": (1, []),
    "edge": (2, [(0, 1)]),
    "p3": (3, [(0, 1), (1, 2)]),
    "p4": (4, [(0, 1), (1, 2), (2, 3)]),
    "claw": (4, [(0, 1), (0, 2), (0, 3)]),
    "star4": (5, [(0, 1), (0, 2), (0, 3), (0, 4)]),
    "fork": (5, [(0, 1), (1, 2), (1, 3), (0, 4)]),
    "triangle": (3, [(0, 1), (1, 2), (0, 2)]),
    "paw": (4, [(0, 1), (1, 2), (0, 2), (2, 3)]),
    "c4": (4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    "k4": (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
}
MAX_EDGES = 7


def union(names: list[str], ids: list[int] | None = None) -> Graph:
    """Disjoint union of blocks, its vertices renamed by `ids` when given."""
    edges = []
    base = 0
    for name in names:
        n, part = BLOCKS[name]
        edges += [(base + u, base + v) for u, v in part]
        base += n
    if ids is not None:
        edges = [(ids[u], ids[v]) for u, v in edges]
    return build_graph(base, edges)


def block_names(rng: random.Random) -> list[str]:
    """Up to three kinds of block, each repeated up to three times."""
    names: list[str] = []
    for _ in range(rng.randint(1, 3)):
        name = rng.choice(sorted(BLOCKS))
        for _ in range(rng.randint(1, 3)):
            size = sum(len(BLOCKS[x][1]) for x in names) + len(BLOCKS[name][1])
            if size <= MAX_EDGES:
                names.append(name)
    return names


def grid() -> list[Graph]:
    rng = random.Random(5150)
    graphs = [path(n) for n in range(2, 8)] + [star(n) for n in range(1, 8)]
    graphs += [double_star(1, 2), double_star(2, 2), double_star(1, 5), double_star(2, 3)]
    graphs += [cp3(1), cp3(2), cp3(3), two_p4(), two_s3(), p5prime(), complete(4)]
    for _ in range(40):
        names = block_names(rng)
        ids = list(range(sum(BLOCKS[x][0] for x in names)))
        rng.shuffle(ids)
        graphs.append(union(names, ids))
    for _ in range(20):
        n = rng.randint(2, 8)
        graphs.append(random_graph(rng, n, rng.randint(1, min(MAX_EDGES, n * (n - 1) // 2))))
    return graphs


def test_plan_and_results_match_the_replaced_search_on_a_grid():
    for g in grid():
        assert_same_search(g)


@st.composite
def small_graphs(draw):
    if draw(st.booleans()):
        names = block_names(random.Random(draw(st.integers(0, 2**32 - 1))))
        ids = draw(st.permutations(range(sum(BLOCKS[x][0] for x in names))))
        return union(names, list(ids))
    n = draw(st.integers(1, 8))
    m = draw(st.integers(0, min(MAX_EDGES, n * (n - 1) // 2)))
    return random_graph(random.Random(draw(st.integers(0, 2**32 - 1))), n, m)


@settings(max_examples=120, deadline=None)
@given(small_graphs())
def test_plan_and_results_match_the_replaced_search(g):
    assert_same_search(g)
