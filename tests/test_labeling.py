"""Labeling container, verifiers, and the shift/negate transforms."""

from __future__ import annotations

from itertools import permutations

import pytest

from antimagic.errors import BadParameters, InvalidLabeling
from antimagic.families import complete, path, star
from antimagic.graph import build_graph
from antimagic.labeling import (
    EdgeLabeling,
    is_sdds,
    is_strongly_antimagic,
    negate_labeling,
    sdds_shift_threshold,
    shift_labeling,
    verify_shifted,
    vertex_sums,
)


def test_tuple_helpers_keep_the_length_check():
    g = path(3)
    f = EdgeLabeling(g, (2, 1))
    assert f._replace(base=-1) == EdgeLabeling(g, (2, 1), -1)
    assert EdgeLabeling._make(f) == f
    with pytest.raises(InvalidLabeling, match="1 labels for 2 edges"):
        f._replace(labels=(1,))
    with pytest.raises(InvalidLabeling, match="3 labels for 2 edges"):
        EdgeLabeling._make((g, (1, 2, 3), None))


def test_vertex_sums_isolated_vertex_is_zero():
    g = build_graph(4, [(0, 1), (1, 2)])
    f = EdgeLabeling(g, (1, 2))
    assert vertex_sums(f) == (1, 3, 2, 0)


def test_verify_accepts_shifted_path_example():
    f = EdgeLabeling(path(5), (0, 1, 3, 2))
    assert verify_shifted(f, -1)
    assert vertex_sums(f) == (0, 1, 4, 5, 2)


def test_verify_rejects_every_injection_for_path5_at_minus_two():
    g = path(5)
    for labels in permutations(range(-1, 3)):
        assert not verify_shifted(EdgeLabeling(g, labels), -2)


def test_verify_duplicate_label():
    f = EdgeLabeling(path(4), (1, 1, 2))
    v = verify_shifted(f, 0)
    assert not v and v.code == "duplicate-label"
    assert v.witness == ((0, 1), (1, 2), 1)


def test_verify_label_out_of_range():
    f = EdgeLabeling(path(4), (1, 2, 7))
    v = verify_shifted(f, 0)
    assert not v and v.code == "label-out-of-range"
    assert "[1, 3]" in v.detail


def test_verify_vertex_sum_collision():
    f = EdgeLabeling(path(4), (1, 2, 3))
    v = verify_shifted(f, 0)
    assert not v and v.code == "vertex-sum-collision"
    assert v.witness == (1, 3, 3)


def test_is_sdds_accepts_and_rejects():
    g = path(5)
    assert is_sdds(EdgeLabeling(g, (3, 4, 2, 1)))
    v = is_sdds(EdgeLabeling(g, (1, 4, 2, 3)))
    assert not v and v.code == "same-degree-sum-collision"
    assert v.witness == (1, 3, 5)


def test_is_strongly_antimagic():
    g = path(7)
    assert is_strongly_antimagic(EdgeLabeling(g, (1, 3, 4, 5, 6, 2)))
    v = is_strongly_antimagic(EdgeLabeling(g, (1, 2, 3, 4, 5, 6)))
    assert not v and v.code == "degree-order-violation"
    v = is_strongly_antimagic(EdgeLabeling(g, (2, 3, 4, 5, 6, 1)))
    assert not v and v.code == "vertex-sum-collision"


def test_shift_labeling_moves_sums_by_degree():
    g = star(3)
    f = EdgeLabeling(g, (1, 2, 3), base=0)
    shifted = shift_labeling(f, 5)
    assert shifted.labels == (6, 7, 8)
    assert shifted.base == 5
    base_sums = vertex_sums(f)
    for v, s in enumerate(vertex_sums(shifted)):
        assert s == base_sums[v] + 5 * g.degrees()[v]


def test_negate_labeling_base_and_involution():
    g = path(5)
    f = EdgeLabeling(g, (0, 1, 3, 2), base=-1)
    nf = negate_labeling(f)
    assert nf.labels == (0, -1, -3, -2)
    assert nf.base == -(g.m + -1 + 1)
    again = negate_labeling(nf)
    assert again.labels == f.labels and again.base == f.base


def test_negation_maps_verdicts_both_ways():
    g = star(4)
    f = EdgeLabeling(g, (1, 2, 3, 4), base=0)
    assert verify_shifted(f, 0)
    nf = negate_labeling(f)
    assert verify_shifted(nf, -(g.m + 1))


def test_sdds_shift_threshold():
    assert sdds_shift_threshold(path(5)) == 3
    assert sdds_shift_threshold(complete(4)) == 10
    with pytest.raises(BadParameters, match="no edges"):
        sdds_shift_threshold(build_graph(3, []))
