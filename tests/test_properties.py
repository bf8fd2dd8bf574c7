"""Randomized invariants exercised through hypothesis."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from antimagic.constructors import (
    construct_forest_sdds,
    construct_odd_degree,
    construct_path_strong,
)
from antimagic.families import double_star, star
from antimagic.graph import (
    build_graph,
    canonical_edge,
    components,
    level_partition,
    parse_edge_list,
)
from antimagic.labeling import (
    negate_labeling,
    sdds_shift_threshold,
    shift_labeling,
    verify_shifted,
    vertex_sums,
)
from conftest import disjoint_union, edge_list_text, random_graph, random_labeling, random_tree


@st.composite
def graphs(draw, min_n=1, max_n=8, min_m=0):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    cap = n * (n - 1) // 2
    m = draw(st.integers(min_value=min(min_m, cap), max_value=cap))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return random_graph(random.Random(seed), n, m)


@given(graphs())
def test_degree_sum_counts_each_edge_twice(g):
    assert sum(g.degrees()) == 2 * g.m


@given(st.integers(0, 50), st.integers(0, 50))
def test_canonical_edge_is_idempotent_and_symmetric(u, v):
    if u == v:
        return
    e = canonical_edge(u, v)
    assert e == canonical_edge(v, u) == canonical_edge(*e)
    assert e[0] < e[1]


@given(graphs())
def test_components_partition_the_vertices(g):
    comps = components(g)
    seen = [v for c in comps for v in c.vertices]
    assert sorted(seen) == list(range(g.n))
    assert sum(c.graph.m for c in comps) == g.m
    starts = [c.vertices[0] for c in comps]
    assert starts == sorted(starts)


@given(st.integers(2, 16), st.integers(0, 2**32 - 1))
def test_levels_of_edge_endpoints_differ_by_at_most_one(n, seed):
    g = random_tree(random.Random(seed), n)
    p = level_partition(g)
    levels = p.level_of()
    assert levels[p.root] == 0
    for u, v in g.edges:
        assert abs(levels[u] - levels[v]) <= 1


@given(graphs(min_n=2, min_m=1), st.integers(-12, 12))
def test_negation_is_an_involution(g, k):
    f = random_labeling(random.Random(k + 100), g, k)
    nf = negate_labeling(f)
    assert nf.base == -(g.m + k + 1)
    back = negate_labeling(nf)
    assert back.labels == f.labels and back.base == f.base


@given(graphs(min_n=2, min_m=1), st.integers(-12, 12), st.integers(-30, 30))
def test_shift_moves_each_sum_by_degree_times_t(g, k, t):
    f = random_labeling(random.Random(k), g, k)
    before = vertex_sums(f)
    after = vertex_sums(shift_labeling(f, t))
    for v in range(g.n):
        assert after[v] == before[v] + t * g.degrees()[v]


@given(graphs(min_n=2, min_m=1), st.integers(-12, 12), st.integers(0, 2**32 - 1))
def test_negating_preserves_the_verdict(g, k, seed):
    f = random_labeling(random.Random(seed), g, k)
    mirrored = verify_shifted(negate_labeling(f), -(g.m + k + 1))
    assert bool(verify_shifted(f, k)) == bool(mirrored)


@settings(max_examples=40)
@given(st.integers(3, 18), st.integers(0, 2**32 - 1), st.integers(0, 5))
def test_forest_labelings_shift_past_the_threshold(n, seed, extra):
    t = random_tree(random.Random(seed), n)
    f = construct_forest_sdds(t)
    k = sdds_shift_threshold(t) + extra
    assert verify_shifted(shift_labeling(f, k), k)


# forests whose degrees are all odd: stars with an odd leaf count and
# double stars whose centres have odd degree
odd_trees = st.one_of(
    st.builds(star, st.sampled_from([3, 5, 7, 9])),
    st.builds(double_star, st.sampled_from([2, 4, 6]), st.sampled_from([2, 4, 6])),
)


@settings(max_examples=60)
@given(st.lists(odd_trees, min_size=1, max_size=4), st.integers(0, 2**32 - 1))
def test_odd_degree_labels_an_all_odd_forest_as_the_forest_builder_does(trees, seed):
    g = disjoint_union([(t.n, list(t.edges)) for t in trees], random.Random(seed))
    assert construct_odd_degree(g).labels == construct_forest_sdds(g).labels


@settings(max_examples=40)
@given(st.integers(3, 24), st.integers(0, 60))
def test_strong_path_labelings_shift_to_any_nonnegative_k(n, k):
    f = construct_path_strong(n)
    assert verify_shifted(shift_labeling(f, k), k)


@given(graphs())
def test_edge_list_text_round_trips(g):
    assert parse_edge_list(edge_list_text(g)) == g


@given(graphs(min_n=2, min_m=1), st.integers(-10, 10))
def test_verify_accepts_only_the_exact_label_window(g, k):
    f = random_labeling(random.Random(7), g, k)
    v = verify_shifted(f, k + g.m)
    assert not v and v.code == "label-out-of-range"


@given(st.integers(1, 14), st.integers(0, 6), st.integers(-6, 6), st.integers(0, 2**32 - 1))
def test_sum_collision_witness_matches_a_scan_of_every_vertex(n, m, k, seed):
    # few edges on many vertices: verify_shifted only scans a prefix
    rng = random.Random(seed)
    g = random_graph(rng, n, min(m, n * (n - 1) // 2))
    f = random_labeling(rng, g, k)
    expected = None
    first_with: dict[int, int] = {}
    for v, s in enumerate(vertex_sums(f)):
        if s in first_with:
            expected = (first_with[s], v, s)
            break
        first_with[s] = v
    assert verify_shifted(f, k).witness == expected
