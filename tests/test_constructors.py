"""Constructive routines: forests, odd-degree graphs, and the named families."""

from __future__ import annotations

import random
import re
import time

import pytest

from antimagic.constructors import (
    closed_form_spectrum,
    construct_cp3,
    construct_double_star,
    construct_forest_sdds,
    construct_odd_degree,
    construct_p5prime,
    construct_path_shifted,
    construct_path_strong,
    construct_star,
    construct_two_p4,
    construct_two_s3,
    p3_threshold,
)
from antimagic.errors import BadParameters, WrongGraphClass
from antimagic.families import (
    complete,
    complete_bipartite,
    cp3,
    cube,
    cycle,
    double_star,
    p5prime,
    path,
    petersen,
    star,
    two_p4,
    two_s3,
)
from antimagic.graph import build_graph
from antimagic.labeling import (
    is_sdds,
    is_strongly_antimagic,
    sdds_shift_threshold,
    shift_labeling,
    verify_shifted,
    vertex_sums,
)
from conftest import random_tree


# --- forests ---------------------------------------------------------------


def test_forest_path5_golden():
    f = construct_forest_sdds(path(5))
    assert dict(zip(f.graph.edges, f.labels)) == {(0, 1): 3, (1, 2): 4, (2, 3): 2, (3, 4): 1}
    assert vertex_sums(f) == (3, 7, 6, 3, 1)
    assert is_sdds(f)


def test_forest_two_components_get_ascending_blocks():
    g = build_graph(7, [(0, 1), (1, 2), (3, 4), (4, 5), (4, 6)])
    f = construct_forest_sdds(g)
    labels = dict(zip(f.graph.edges, f.labels))
    first = {labels[(0, 1)], labels[(1, 2)]}
    second = {labels[(3, 4)], labels[(4, 5)], labels[(4, 6)]}
    assert first == {1, 2}
    assert second == {3, 4, 5}
    assert is_sdds(f)


def test_forest_random_trees_are_sdds():
    rng = random.Random(4242)
    for _ in range(40):
        t = random_tree(rng, rng.randint(4, 20))
        f = construct_forest_sdds(t)
        assert is_sdds(f)


def test_forest_rejections():
    with pytest.raises(WrongGraphClass, match=r"component \(0, 1, 2, 3\) contains a cycle"):
        construct_forest_sdds(cycle(4))
    with pytest.raises(WrongGraphClass, match=r"component \(0, 1\) is a single edge"):
        construct_forest_sdds(path(2))
    with pytest.raises(WrongGraphClass, match="vertex 0 has no edges"):
        construct_forest_sdds(build_graph(4, [(1, 2), (2, 3)]))


# --- odd-degree graphs -----------------------------------------------------


def test_odd_k4_golden():
    f = construct_odd_degree(complete(4))
    assert dict(zip(f.graph.edges, f.labels)) == {
        (0, 1): 4, (0, 2): 5, (0, 3): 6, (1, 2): 1, (1, 3): 2, (2, 3): 3
    }
    assert vertex_sums(f) == (15, 7, 9, 11)
    assert is_sdds(f)


def test_odd_k33_golden():
    f = construct_odd_degree(complete_bipartite(3, 3))
    assert dict(zip(f.graph.edges, f.labels)) == {
        (0, 3): 7, (0, 4): 9, (0, 5): 8,
        (1, 3): 5, (1, 4): 3, (1, 5): 2,
        (2, 3): 1, (2, 4): 6, (2, 5): 4,
    }
    assert vertex_sums(f) == (24, 10, 11, 13, 18, 14)
    assert is_sdds(f)


def test_odd_cube_golden_sums():
    f = construct_odd_degree(cube())
    assert vertex_sums(f) == (33, 29, 23, 17, 20, 15, 13, 6)
    assert is_sdds(f)


def test_odd_petersen_golden_sums():
    f = construct_odd_degree(petersen())
    assert vertex_sums(f) == (42, 31, 10, 12, 35, 33, 20, 18, 16, 23)
    assert is_sdds(f)


@pytest.mark.parametrize("leaves", [999, 5001])
def test_odd_star_with_many_leaves(leaves):
    # every leaf is a deep vertex of the one cross block, so a sigma search
    # that recursed once per deep vertex would overflow the stack here
    f = construct_odd_degree(star(leaves))
    assert is_sdds(f)


def test_odd_rejections():
    with pytest.raises(WrongGraphClass, match="vertex 1 has even degree 2"):
        construct_odd_degree(path(3))
    with pytest.raises(WrongGraphClass, match=r"component \(0, 1\) is a single edge"):
        construct_odd_degree(path(2))


# --- paths -----------------------------------------------------------------


def test_path_strong_goldens():
    f7 = construct_path_strong(7)
    assert f7.labels == (1, 3, 4, 5, 6, 2)
    assert vertex_sums(f7) == (1, 4, 7, 9, 11, 8, 2)
    assert is_strongly_antimagic(f7)

    f6 = construct_path_strong(6)
    assert f6.labels == (1, 5, 4, 3, 2)
    assert vertex_sums(f6) == (1, 6, 9, 7, 5, 2)
    assert is_strongly_antimagic(f6)


def test_path_strong_sweep():
    for n in range(3, 31):
        assert is_strongly_antimagic(construct_path_strong(n))
    with pytest.raises(BadParameters, match="need at least three vertices, got 2"):
        construct_path_strong(2)


def test_path_shifted_split_golden():
    f = construct_path_shifted(8, -3)
    assert f.labels == (-1, -2, 0, 1, 3, 4, 2)
    assert vertex_sums(f) == (-1, -3, -2, 1, 4, 7, 6, 2)
    assert verify_shifted(f, -3)


def test_path_shifted_near_edge_case_golden():
    f = construct_path_shifted(7, -2)
    assert f.labels == (-1, 1, 0, 2, 3, 4)
    assert vertex_sums(f) == (-1, 0, 1, 2, 5, 7, 4)
    assert verify_shifted(f, -2)


def test_path_shifted_sweep():
    for n in range(6, 16):
        for k in range(-2 * n, 2 * n + 1):
            f = construct_path_shifted(n, k)
            v = verify_shifted(f, k)
            assert v, (n, k, v.code, v.detail)
    with pytest.raises(BadParameters, match="needs n >= 6, got 5"):
        construct_path_shifted(5, 0)


# --- stars -----------------------------------------------------------------


def test_star_infeasible_band_matches_closed_form():
    for leaves in range(2, 12):
        closed = closed_form_spectrum("star", n=leaves)
        for k in range(-2 * leaves - 3, leaves + 3):
            f = construct_star(leaves, k)
            if f is None:
                assert k in closed, (leaves, k)
            else:
                assert verify_shifted(f, k), (leaves, k)
                assert k not in closed, (leaves, k)


def test_star_rejects_trivial_sizes():
    with pytest.raises(BadParameters, match="need at least two leaves, got 1"):
        construct_star(1, 0)


# --- double stars ----------------------------------------------------------


def test_double_star_golden():
    f = construct_double_star(3, 2, 0)
    assert dict(zip(f.graph.edges, f.labels)) == {
        (0, 1): 6, (0, 2): 5, (0, 3): 3, (0, 4): 1, (1, 5): 4, (1, 6): 2
    }
    assert vertex_sums(f) == (15, 12, 5, 3, 1, 4, 2)
    assert verify_shifted(f, 0)


def test_double_star_sweep_matches_closed_form():
    for a in range(1, 7):
        for b in range(1, a + 1):
            closed = closed_form_spectrum("double_star", a=a, b=b)
            for k in range(-16, 9):
                f = construct_double_star(a, b, k)
                if f is None:
                    assert k in closed, (a, b, k)
                else:
                    v = verify_shifted(f, k)
                    assert v, (a, b, k, v.code, v.detail)
                    assert k not in closed, (a, b, k)


def test_double_star_argument_order_is_symmetric():
    f = construct_double_star(2, 4, 1)
    assert f is not None and verify_shifted(f, 1)
    with pytest.raises(BadParameters):
        construct_double_star(0, 3, 0)


# --- unions of short paths -------------------------------------------------


def test_cp3_goldens():
    f = construct_cp3(3, 1)
    assert dict(zip(f.graph.edges, f.labels)) == {
        (0, 1): 2, (1, 2): 6, (3, 4): 4, (4, 5): 5, (6, 7): 3, (7, 8): 7
    }
    assert vertex_sums(f) == (2, 8, 6, 4, 9, 5, 3, 10, 7)

    f = construct_cp3(2, 1)
    assert dict(zip(f.graph.edges, f.labels)) == {
        (0, 1): 2, (1, 2): 4, (3, 4): 3, (4, 5): 5
    }
    assert construct_cp3(1, 0).labels == (1, 2)


def test_cp3_center_sums_are_consecutive_for_odd_counts():
    for c in (1, 3, 5, 9, 15):
        half = c // 2
        f = construct_cp3(c, half)
        sums = vertex_sums(f)
        centers = sorted(sums[3 * i + 1] for i in range(c))
        assert centers == list(range(5 * half + 3, 7 * half + 4))


def test_cp3_sweep_above_threshold():
    for c in range(1, 13):
        for k in range(c // 2, c // 2 + 6):
            assert verify_shifted(construct_cp3(c, k), k), (c, k)


def test_cp3_rejects_below_threshold():
    with pytest.raises(BadParameters, match="direct construction needs k >= 2, got 1"):
        construct_cp3(5, 1)
    with pytest.raises(BadParameters):
        construct_cp3(0, 0)


def test_sporadic_families_match_closed_forms():
    cases = [
        (construct_two_p4, "two_p4"),
        (construct_two_s3, "two_s3"),
        (construct_p5prime, "p5prime"),
    ]
    for ctor, name in cases:
        closed = closed_form_spectrum(name)
        for k in range(-12, 7):
            f = ctor(k)
            if f is None:
                assert k in closed, (name, k)
            else:
                assert verify_shifted(f, k), (name, k)
                assert k not in closed, (name, k)


def family_sweeps():
    """(constructor, leading arguments, family graph, shifts) over the
    grids and shifts the sweeps above cover."""
    for n in range(6, 16):
        yield construct_path_shifted, (n,), path(n), range(-2 * n, 2 * n + 1)
    for leaves in range(2, 12):
        yield construct_star, (leaves,), star(leaves), range(-2 * leaves - 3, leaves + 3)
    for a in range(1, 7):
        for b in range(1, a + 1):
            yield construct_double_star, (a, b), double_star(a, b), range(-16, 9)
    for c in range(1, 13):
        yield construct_cp3, (c,), cp3(c), range(c // 2, c // 2 + 6)
    for ctor, build in ((construct_two_p4, two_p4), (construct_two_s3, two_s3),
                        (construct_p5prime, p5prime)):
        yield ctor, (), build(), range(-12, 7)


def test_family_constructors_label_the_graph_they_are_given():
    for ctor, args, g, shifts in family_sweeps():
        for k in shifts:
            f = ctor(*args, k, g=g)
            expected = ctor(*args, k)
            if f is None:
                assert expected is None, (ctor.__name__, args, k)
                continue
            assert f.graph is g, (ctor.__name__, args, k)
            assert f == expected, (ctor.__name__, args, k)


def refuses_shift(call, shift):
    message = f"^shift must be an int, got {re.escape(repr(shift))}$"
    with pytest.raises(BadParameters, match=message):
        call(shift)


def test_path_shifted_refuses_a_shift_that_is_not_an_int():
    # a half shift makes half-integer labels that verify_shifted accepts
    refuses_shift(lambda k: construct_path_shifted(30, k), 0.5)
    refuses_shift(lambda k: construct_path_shifted(30, k, g=path(30)), -20.5)
    with pytest.raises(BadParameters, match="needs n >= 6, got 5"):
        construct_path_shifted(5, 0.5)


def test_star_refuses_a_shift_that_is_not_an_int():
    refuses_shift(lambda k: construct_star(3, k), 0.5)
    refuses_shift(lambda k: construct_star(3, k), "1")
    with pytest.raises(BadParameters, match="need at least two leaves, got 1"):
        construct_star(1, 0.5)


def test_double_star_refuses_a_shift_that_is_not_an_int():
    refuses_shift(lambda k: construct_double_star(2, 3, k), True)
    refuses_shift(lambda k: construct_double_star(2, 3, k, g=double_star(2, 3)), 1.0)
    with pytest.raises(BadParameters, match="double star needs a, b >= 1"):
        construct_double_star(0, 3, 0.5)


def test_cp3_refuses_a_shift_that_is_not_an_int():
    refuses_shift(lambda k: construct_cp3(2, k), 1.5)
    refuses_shift(lambda k: construct_cp3(2, k, g=cp3(2)), 2.0)


@pytest.mark.parametrize("ctor", [construct_two_p4, construct_two_s3, construct_p5prime])
def test_tabled_families_refuse_a_shift_that_is_not_an_int(ctor):
    refuses_shift(ctor, 0.5)
    refuses_shift(ctor, -9.5)  # the mirrored half
    refuses_shift(ctor, None)


# --- union threshold -------------------------------------------------------


def test_p3_threshold_values():
    assert p3_threshold(0) == 2
    assert p3_threshold(2) == 18
    assert p3_threshold(3) == 26
    with pytest.raises(BadParameters):
        p3_threshold(-1)


def test_p3_threshold_is_minimal():
    for m in range(0, 8):
        c = p3_threshold(m)

        def gap(cc: int) -> int:
            return cc * cc - (8 * m + 1) * cc - 2 * m * (m + 1)

        assert gap(c) > 0
        assert c == m + 1 or gap(c - 1) <= 0


def seed_p3_threshold(m: int) -> int:
    """p3_threshold as it was before it started at the root (verbatim)."""
    if m < 0:
        raise BadParameters(f"edge count cannot be negative, got {m}")
    c = m + 1
    while True:
        if (1 + m + 2 * c) * (m + 2 * c) < (1 + m + 5 * c) * (c - m):
            return c
        c += 1


def test_p3_threshold_matches_the_counting_loop():
    for m in range(0, 3001):
        assert p3_threshold(m) == seed_p3_threshold(m), m


def test_p3_threshold_answers_huge_edge_counts_at_once():
    m = 10**12

    def holds(c: int) -> bool:
        return (1 + m + 2 * c) * (m + 2 * c) < (1 + m + 5 * c) * (c - m)

    start = time.perf_counter()
    c = p3_threshold(m)
    assert time.perf_counter() - start < 0.1
    assert holds(c) and not holds(c - 1)


def test_forest_shift_threshold_lemma():
    rng = random.Random(11)
    for _ in range(25):
        t = random_tree(rng, rng.randint(4, 16))
        f = construct_forest_sdds(t)
        k = sdds_shift_threshold(t)
        assert verify_shifted(shift_labeling(f, k), k)
