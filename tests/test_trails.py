"""Sigma reservation, open-trail splitting, and trail label assignment."""

from __future__ import annotations

import random
import re
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antimagic.constructors import construct_odd_degree
from antimagic.errors import InvalidTrails
from antimagic.families import complete, complete_bipartite, cube
from antimagic.graph import build_graph, level_partition
from antimagic.labeling import is_sdds
from antimagic.trails import (
    Trail,
    TrailDecomposition,
    find_sigma_and_trails,
    label_trails,
)
from conftest import k32_blocks, k32_fan, pairing_regular
from test_odd_degree_oracle import seed_layer_subgraphs


def cross_block(g, depth):
    p = level_partition(g)
    _, cross = seed_layer_subgraphs(g, p, depth)
    return cross, p.levels[depth]


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
    with pytest.raises(InvalidTrails, match="W trail .* has odd length"):
        label_trails(dec, range(1, 4))


def test_label_block_must_match_and_be_contiguous():
    cross = build_graph(3, [(0, 1), (1, 2)])
    dec = TrailDecomposition(
        cross=cross, deep=(0, 2), sigma=(), trails=(Trail((0, 1, 2), "M"),)
    )
    with pytest.raises(InvalidTrails, match="3 labels for 2 trail edges"):
        label_trails(dec, range(1, 4))
    with pytest.raises(InvalidTrails, match="labels must form an ascending run"):
        label_trails(dec, [4, 6])


# a block whose leftover is the path 0-3-2 once 0 and 2 reserve (0, 1) and (1, 2)
INT_BLOCK = build_graph(4, [(0, 1), (0, 3), (1, 2), (2, 3)])


@pytest.mark.parametrize(
    "deep, named",
    [
        ([0, 2.0], "deep vertex 2.0 is not an int"),  # equal to 2 and hashed alike
        ([0, True], "deep vertex True is not an int"),
        ([0, "a"], "deep vertex 'a' is not an int"),  # named before any sort meets it
        (None, "expected ints, got None"),
        (5, "expected ints, got 5"),
    ],
)
def test_deep_vertices_must_be_plain_ints(deep, named):
    with pytest.raises(InvalidTrails, match=re.escape(named)):
        find_sigma_and_trails(INT_BLOCK, deep)


def one_trail_edge():
    """A decomposition whose one trail is the edge (0, 3)."""
    return find_sigma_and_trails(build_graph(4, [(0, 1), (0, 3)]), [0])


@pytest.mark.parametrize(
    "labels, named",
    [
        ([True], "label True is not an int"),  # a bool, though True == 1
        ([1.5], "label 1.5 is not an int"),
        (["a"], "label 'a' is not an int"),
        (None, "expected ints, got None"),
    ],
)
def test_trail_labels_must_be_plain_ints(labels, named):
    with pytest.raises(InvalidTrails, match=re.escape(named)):
        label_trails(one_trail_edge(), labels)


@pytest.mark.parametrize("labels", [range(7, 8), [7], (7,)])
def test_trail_labels_may_be_any_sequence_of_ints(labels):
    assert label_trails(one_trail_edge(), labels) == {(0, 3): 7}
    assert dict(find_sigma_and_trails(INT_BLOCK, iter([2, 0])).sigma) == {0: (0, 1), 2: (1, 2)}


def test_no_sigma_when_deep_vertex_has_no_cross_edge():
    h = build_graph(3, [(0, 1)])
    # (0, 1) has no deep end, and is met before vertex 2 is
    with pytest.raises(InvalidTrails, match=r"edge \(0, 1\) does not join a deep vertex"):
        find_sigma_and_trails(h, {2})
    with pytest.raises(InvalidTrails, match="deep vertex 2 has no incident cross edge"):
        find_sigma_and_trails(h, {1, 2})


def test_no_sigma_when_every_remainder_is_eulerian():
    # the triangle's edges have no deep endpoint, so this is not a cross
    # block and is rejected before any edge is reserved
    h = build_graph(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
    with pytest.raises(InvalidTrails, match="does not join a deep vertex to a shallow one"):
        find_sigma_and_trails(h, {3})


def test_no_sigma_when_an_edge_has_two_deep_ends():
    # (1, 3) joins two deep vertices, so this is not a cross block; the
    # search used to accept it and label_trails then raised ValueError.
    # In the first block (0, 2), with no deep end, is met first.
    h = build_graph(4, [(2, 3), (0, 2), (1, 2), (0, 3), (1, 3)])
    with pytest.raises(InvalidTrails, match=r"edge \(0, 2\) does not join a deep vertex"):
        find_sigma_and_trails(h, [3, 1])
    h = build_graph(4, [(0, 1), (1, 3), (2, 3)])
    with pytest.raises(InvalidTrails, match=r"edge \(1, 3\) does not join a deep vertex"):
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
        except InvalidTrails as exc:
            # only a block that is not a cross block is turned away
            assert "does not join" in str(exc) or "no incident cross edge" in str(exc)
            continue
        assert all(sum(1 for v in e if v in dec.deep) == 1 for e in h.edges)
        label_trails(dec, range(1, 1 + sum(len(t.vertices) - 1 for t in dec.trails)))


def test_validate_rejects_broken_decompositions():
    cross = build_graph(3, [(0, 1), (1, 2)])
    walk = Trail((0, 1, 2), "M")

    with pytest.raises(InvalidTrails, match="incident"):
        TrailDecomposition(cross, (0,), ((0, (1, 2)),), ()).validate()
    with pytest.raises(InvalidTrails, match="deep-side"):
        TrailDecomposition(cross, (0,), ((1, (0, 1)),), ()).validate()
    with pytest.raises(InvalidTrails, match="one edge per deep vertex"):
        TrailDecomposition(cross, (0, 2), ((0, (0, 1)),), ()).validate()
    with pytest.raises(InvalidTrails, match="typed M, endpoints say W"):
        TrailDecomposition(cross, (), (), (walk, walk)).validate()
    with pytest.raises(InvalidTrails, match="is closed"):
        TrailDecomposition(
            cross, (), (), (Trail((0, 1, 0), "M"),)
        ).validate()
    with pytest.raises(InvalidTrails, match="do not partition the cross edges"):
        TrailDecomposition(cross, (), (), ()).validate()


# --- saturated blocks: the first choice strands closed components ----------


def test_fifty_saturated_blocks_repeat_the_k33_sigma():
    # every block strands the 4-cycle 5i+1, 5i+3, 5i+2, 5i+4 under the
    # first choice; a depth-first search over the choices takes time
    # exponential in the number of blocks here
    h, deep = k32_blocks(50)
    assert h.m == 300
    dec = find_sigma_and_trails(h, deep)
    want = {}
    for i in range(50):
        want[5 * i + 3] = (5 * i, 5 * i + 3)
        want[5 * i + 4] = (5 * i + 1, 5 * i + 4)
    assert dict(dec.sigma) == want


@st.composite
def odd_degree_graphs(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    parts = []
    for kind in draw(st.lists(st.sampled_from(["cubic", "k33", "fan"]), min_size=1, max_size=3)):
        if kind == "cubic":
            n = draw(st.sampled_from([4, 6, 8, 12, 20]))
            parts.append((n, pairing_regular(n, 3, rng)))
        elif kind == "k33":
            parts.append((6, list(complete_bipartite(3, 3).edges)))
        else:
            parts.append(k32_fan(draw(st.sampled_from([3, 5]))))
    n = sum(size for size, _ in parts)
    ids = list(range(n))
    rng.shuffle(ids)
    edges = []
    base = 0
    for size, part in parts:
        edges += [(ids[base + u], ids[base + v]) for u, v in part]
        base += size
    return build_graph(n, edges)


@settings(max_examples=60, deadline=None)
@given(odd_degree_graphs())
def test_odd_degree_graphs_always_get_a_sigma(g):
    assert is_sdds(construct_odd_degree(g))
    for root in range(g.n):
        p = level_partition(g, root)
        for depth in range(1, p.d + 1):
            _, cross = seed_layer_subgraphs(g, p, depth)
            find_sigma_and_trails(cross, p.levels[depth]).validate()


@pytest.mark.parametrize("sigma", [((0, (0, 1), 5),), (0,)])
def test_sigma_entries_must_be_vertex_edge_pairs(sigma):
    dec = TrailDecomposition(cross=build_graph(2, [(0, 1)]), deep=(0,), sigma=sigma, trails=())
    with pytest.raises(InvalidTrails, match=r"sigma must hold \(vertex, edge\) pairs"):
        dec.validate()


@pytest.mark.parametrize("entry", [5, (5,), ((0, 1), "N", 5), None])
def test_trail_entries_must_be_vertices_kind_pairs(entry):
    # each once raised a bare TypeError or ValueError from unpacking the entry
    dec = TrailDecomposition(build_graph(2, [(0, 1)]), (), (), (entry,))
    named = f"trail entry {entry!r} is not a (vertices, kind) pair"
    with pytest.raises(InvalidTrails, match=re.escape(named)):
        dec.validate()
    with pytest.raises(InvalidTrails, match=re.escape(named)):
        label_trails(dec, range(1, 2))


def test_trail_vertices_must_be_a_sequence():
    dec = TrailDecomposition(
        cross=build_graph(2, [(0, 1)]), deep=(0,), sigma=(), trails=(Trail(5, "N"),)
    )
    with pytest.raises(InvalidTrails, match="trail vertices must be a tuple or a list"):
        label_trails(dec, range(1, 2))
    with pytest.raises(InvalidTrails, match="trail vertices 5 are not a tuple or a list"):
        dec._replace(deep=()).validate()


@pytest.mark.parametrize("field, value", [("trails", None), ("deep", None), ("deep", 5)])
def test_deep_and_trails_must_be_iterable(field, value):
    # each once raised a bare TypeError from iterating the field
    dec = TrailDecomposition(build_graph(2, [(0, 1)]), (), (), ())._replace(**{field: value})
    named = f"{field} must be iterable, got {value!r}"
    with pytest.raises(InvalidTrails, match=re.escape(named)):
        dec.validate()
    with pytest.raises(InvalidTrails, match=re.escape(named)):
        label_trails(dec, range(1, 1))
    # and with a trail to label, past the empty-block return
    held = dec if field == "trails" else dec._replace(trails=(Trail((0, 1), "N"),))
    with pytest.raises(InvalidTrails, match=re.escape(named)):
        label_trails(held, range(1, 2))
