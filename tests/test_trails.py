"""Sigma reservation, open-trail splitting, and trail label assignment."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from antimagic.errors import NoValidSigma, OddWMTrail, RangeSizeMismatch
from antimagic.families import complete, complete_bipartite, cube
from antimagic.graph import build_graph, layer_subgraphs, level_partition
from antimagic.trails import (
    Trail,
    TrailDecomposition,
    find_sigma_and_trails,
    label_trails,
)


def cross_block(g, depth):
    p = level_partition(g)
    _, cross = layer_subgraphs(g, p, depth)
    return cross, p.levels[depth]


def test_trail_basics():
    t = Trail((3, 2, 5, 1, 4), "W")
    assert t.edge_count == 4
    assert t.edges() == [(2, 3), (2, 5), (1, 5), (1, 4)]
    assert t.reversed().vertices == (4, 1, 5, 2, 3)
    assert t.reversed().kind == "W"


def test_k4_sigma_is_forced_with_no_trails():
    cross, deep = cross_block(complete(4), 1)
    dec = find_sigma_and_trails(cross, deep)
    assert dec.sigma == ((1, (0, 1)), (2, (0, 2)), (3, (0, 3)))
    assert dec.trails == ()
    dec.validate()


def test_k33_sigma_skips_eulerian_remainder():
    cross, deep = cross_block(complete_bipartite(3, 3), 2)
    dec = find_sigma_and_trails(cross, deep)
    # reserving (1,3) and (2,3) first would leave the 4-cycle 1-4-2-5,
    # which has no odd vertex, so the search moves sigma(2) to (2,4)
    assert dict(dec.sigma) == {1: (1, 3), 2: (2, 4)}
    assert len(dec.trails) == 1
    walk = dec.trails[0]
    assert walk.kind == "W"
    assert walk.vertices == (3, 2, 5, 1, 4)
    dec.validate()


def test_cube_top_level_splits_into_one_w_trail():
    cross, deep = cross_block(cube(), 3)
    dec = find_sigma_and_trails(cross, deep)
    assert dict(dec.sigma) == {7: (3, 7)}
    assert [t.kind for t in dec.trails] == ["W"]
    assert dec.trails[0].vertices == (5, 7, 6)
    dec.validate()


def test_w_trail_alternates_from_low_end():
    cross, deep = cross_block(complete_bipartite(3, 3), 2)
    dec = find_sigma_and_trails(cross, deep)
    labels = label_trails(dec, range(1, 5))
    assert labels == {(2, 3): 1, (2, 5): 4, (1, 5): 2, (1, 4): 3}


def test_m_trail_alternates_from_high_end():
    cross = build_graph(3, [(0, 1), (1, 2)])
    dec = TrailDecomposition(
        cross=cross, deep=(0, 2), sigma=(), trails=(Trail((0, 1, 2), "M"),)
    )
    labels = label_trails(dec, range(5, 7))
    assert labels == {(0, 1): 6, (1, 2): 5}


def test_n_trail_pair_splits_adjacent_labels():
    # two odd trails consume {1,2,3,4}: the first runs high-first from its
    # deep end, the second low-first from its shallow end, so the vertex
    # where each trail meets its reserved edge sees 4+1 and 2+3
    cross = build_graph(8, [(0, 2), (1, 2), (6, 7), (3, 7)])
    pair = (Trail((0, 2, 1), "N"), Trail((6, 7, 3), "N"))
    dec = TrailDecomposition(cross=cross, deep=(0, 3), sigma=(), trails=pair)
    labels = label_trails(dec, range(1, 5))
    assert labels == {(0, 2): 4, (1, 2): 1, (6, 7): 2, (3, 7): 3}


def test_lone_n_trail_runs_high_first_from_deep_end():
    cross = build_graph(2, [(0, 1)])
    dec = TrailDecomposition(
        cross=cross, deep=(0,), sigma=(), trails=(Trail((1, 0), "N"),)
    )
    assert label_trails(dec, range(3, 4)) == {(0, 1): 3}


def test_odd_w_trail_is_rejected():
    cross = build_graph(4, [(0, 1), (0, 3), (2, 3)])
    dec = TrailDecomposition(
        cross=cross, deep=(0, 3), sigma=(), trails=(Trail((1, 0, 3, 2), "W"),)
    )
    with pytest.raises(OddWMTrail):
        label_trails(dec, range(1, 4))


def test_label_block_must_match_and_be_contiguous():
    cross = build_graph(3, [(0, 1), (1, 2)])
    dec = TrailDecomposition(
        cross=cross, deep=(0, 2), sigma=(), trails=(Trail((0, 1, 2), "M"),)
    )
    with pytest.raises(RangeSizeMismatch):
        label_trails(dec, range(1, 4))
    with pytest.raises(RangeSizeMismatch):
        label_trails(dec, [4, 6])


def test_no_sigma_when_deep_vertex_has_no_cross_edge():
    h = build_graph(3, [(0, 1)])
    with pytest.raises(NoValidSigma):
        find_sigma_and_trails(h, {2})


def test_no_sigma_when_every_remainder_is_eulerian():
    # the only choice for vertex 3 strands a triangle, which has no
    # odd-degree vertex and so cannot split into open trails
    h = build_graph(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
    with pytest.raises(NoValidSigma):
        find_sigma_and_trails(h, {3})


def test_no_sigma_when_an_edge_has_two_deep_ends():
    # (1, 3) joins two deep vertices, so this is not a cross block; the
    # search used to accept it and label_trails then raised ValueError
    h = build_graph(4, [(2, 3), (0, 2), (1, 2), (0, 3), (1, 3)])
    with pytest.raises(NoValidSigma):
        find_sigma_and_trails(h, [3, 1])


def test_arbitrary_blocks_are_labeled_or_rejected_with_no_valid_sigma():
    rng = random.Random(7)
    for _ in range(2000):
        n = rng.randint(2, 7)
        pool = list(combinations(range(n), 2))
        h = build_graph(n, rng.sample(pool, rng.randint(1, min(len(pool), 8))))
        deep = rng.sample(range(n), rng.randint(1, n - 1))
        try:
            dec = find_sigma_and_trails(h, deep)
        except NoValidSigma:
            continue
        assert all(sum(1 for v in e if v in dec.deep) == 1 for e in h.edges)
        label_trails(dec, range(1, 1 + sum(t.edge_count for t in dec.trails)))


def test_validate_rejects_broken_decompositions():
    cross = build_graph(3, [(0, 1), (1, 2)])
    walk = Trail((0, 1, 2), "M")

    with pytest.raises(ValueError, match="incident"):
        TrailDecomposition(cross, (0,), ((0, (1, 2)),), ()).validate()
    with pytest.raises(ValueError, match="deep-side"):
        TrailDecomposition(cross, (0,), ((1, (0, 1)),), ()).validate()
    with pytest.raises(ValueError, match="one edge per deep vertex"):
        TrailDecomposition(cross, (0, 2), ((0, (0, 1)),), ()).validate()
    with pytest.raises(ValueError):
        TrailDecomposition(cross, (), (), (walk, walk)).validate()
    with pytest.raises(ValueError):
        TrailDecomposition(
            cross, (), (), (Trail((0, 1, 0), "M"),)
        ).validate()
    with pytest.raises(ValueError):
        TrailDecomposition(cross, (), (), ()).validate()
