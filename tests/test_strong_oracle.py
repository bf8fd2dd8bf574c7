"""is_strongly_antimagic against a verbatim copy of its all-pairs scan.

The checker finds the least vertex in any degree-order violation from
per-degree running extremes of the sums, then scans once for its least
partner. The quadratic pair scan below is the code it replaced; both must
return the very same verdict, witness and detail included, on accepted
labelings, on sum collisions, on degree-order violations and on label
sets that are not 1..m.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antimagic.constructors import construct_path_strong
from antimagic.errors import InvalidLabeling
from antimagic.families import complete_bipartite, cp3, double_star, path, star
from antimagic.labeling import (
    EdgeLabeling,
    Verdict,
    _require_one_to_m,
    _sum_collision,
    is_strongly_antimagic,
    vertex_sums,
)
from conftest import random_graph, random_labeling, random_tree

# --- verbatim copy of the replaced checker -----------------------------------


def seed_is_strongly_antimagic(f: EdgeLabeling) -> Verdict:
    """Check antimagic with sums ordered strictly by degree (1..m labels).

    Accepts iff all vertex sums are pairwise distinct and deg(u) > deg(v)
    implies sum(u) > sum(v).
    """
    _require_one_to_m(f)
    sums = vertex_sums(f)
    deg = f.graph.degrees()
    if len(set(sums)) < len(sums):
        return _sum_collision(sums)
    for u in range(f.graph.n):
        for v in range(u + 1, f.graph.n):
            if (deg[u] - deg[v]) * (sums[u] - sums[v]) < 0:
                hi, lo = (u, v) if deg[u] > deg[v] else (v, u)
                return Verdict.reject(
                    "degree-order-violation",
                    (hi, lo),
                    f"deg({hi})={deg[hi]} > deg({lo})={deg[lo]} "
                    f"but sum {sums[hi]} < {sums[lo]}",
                )
    return Verdict.accept()


# --- the comparison ----------------------------------------------------------


def same_outcome(f: EdgeLabeling) -> Verdict:
    try:
        want = seed_is_strongly_antimagic(f)
    except InvalidLabeling as exc:
        with pytest.raises(InvalidLabeling) as got:
            is_strongly_antimagic(f)
        assert str(got.value) == str(exc)
        return None
    got = is_strongly_antimagic(f)
    assert got == want
    return got


@st.composite
def labeled_graphs(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 9))
    if draw(st.booleans()):
        g = random_tree(rng, n)
    else:
        m = draw(st.integers(0, n * (n - 1) // 2))
        g = random_graph(rng, n, m)
    return random_labeling(rng, g, 0)


@settings(max_examples=400, deadline=None)
@given(labeled_graphs())
def test_same_verdict_on_random_labelings(f):
    same_outcome(f)


def test_every_kind_of_verdict_is_compared():
    rng = random.Random(20181)
    codes = set()
    for _ in range(3000):
        n = rng.randint(2, 10)
        g = random_graph(rng, n, rng.randint(1, min(12, n * (n - 1) // 2)))
        verdict = same_outcome(random_labeling(rng, g, 0))
        codes.add(verdict.code)
    assert codes == {None, "vertex-sum-collision", "degree-order-violation"}


def test_same_verdict_on_every_labeling_of_small_families():
    for g in (star(4), path(6), double_star(2, 2), cp3(2), complete_bipartite(2, 3)):
        rng = random.Random(g.m)
        for _ in range(300):
            same_outcome(random_labeling(rng, g, 0))


def test_same_rejection_of_labels_outside_one_to_m():
    g = path(5)
    for labels in ((1, 2, 3, 5), (0, 1, 2, 3), (1, 1, 2, 3), (2, 3, 4, 5)):
        same_outcome(EdgeLabeling(g, labels))


def test_strong_path_labelings_pass_at_every_size():
    for n in range(3, 60):
        assert same_outcome(construct_path_strong(n))


def test_large_paths_are_checked_without_the_pair_scan():
    # an accepted labeling is where the pair scan visits every pair: about
    # a minute at this size, against one sort of the degrees
    assert is_strongly_antimagic(construct_path_strong(40_000))
