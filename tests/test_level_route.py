"""The level route: every union of trees and all-odd components gets a window.

`construct_sdds` labels each component from its own label block, so a
union of trees with three or more vertices, all-odd-degree components and
at most one isolated vertex gets a same-degree-distinct certificate, and
`finite_window` a window, however many edges it has.
"""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antimagic.constructors import construct_forest_sdds, construct_odd_degree, construct_sdds
from antimagic.errors import BudgetExceeded, NoSddsFound, WrongGraphClass
from antimagic.families import complete, complete_bipartite, cube, path, petersen
from antimagic.graph import build_graph
from antimagic.labeling import is_sdds, verify_shifted
from antimagic.spectrum import finite_window, labeling_at, lift
from conftest import disjoint_union, pairing_regular, random_tree
from test_construct_digest import forest_cases, odd_cases

FIXED = {"k4": complete(4), "k33": complete_bipartite(3, 3), "cube": cube(), "petersen": petersen()}

component = st.one_of(
    st.tuples(st.just("tree"), st.integers(3, 30)),
    st.tuples(st.just("cubic"), st.integers(2, 7).map(lambda half: 2 * half)),
    st.sampled_from(sorted(FIXED)).map(lambda name: (name, 0)),
)


def build_part(kind: str, n: int, rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    if kind == "tree":
        return n, list(random_tree(rng, n).edges)
    if kind == "cubic":
        return n, pairing_regular(n, 3, rng)
    g = FIXED[kind]
    return g.n, list(g.edges)


@settings(max_examples=150, deadline=None)
@given(st.lists(component, min_size=2, max_size=4), st.booleans(), st.integers(0, 2**32))
def test_every_union_gets_a_window_that_lifts(kinds, isolated, seed):
    rng = random.Random(seed)
    parts = [build_part(kind, n, rng) for kind, n in kinds] + [(1, [])] * isolated
    g = disjoint_union(parts, rng)
    win = finite_window(g)
    assert is_sdds(win.certificate)
    if g.m > 10:  # past the search budget only the level route answers
        assert win.method == "sdds" and win.certificate == construct_sdds(g)
    for k in (win.hi + 1, win.lo - 1):
        f = labeling_at(g, k)
        assert f is not None and verify_shifted(f, k)


def sdds_windows(graphs):
    wins = [(g, finite_window(g)) for g in graphs]
    wins = [(g, w) for g, w in wins if w.method == "sdds"]
    assert len(wins) >= len(graphs) // 2
    return wins


@pytest.mark.parametrize(
    "cases, construct", [(forest_cases, construct_forest_sdds), (odd_cases, construct_odd_degree)]
)
def test_pure_classes_keep_their_constructors_certificates(cases, construct):
    for g, win in sdds_windows(cases()):
        assert win.certificate == construct(g)


def test_both_window_ends_lift():
    # every shift k >= h lifts, so both ends of [-(h+m+1), h] do
    for g, win in sdds_windows(forest_cases() + odd_cases()):
        for k in (win.hi, win.lo):
            assert verify_shifted(lift(win, k), k)


def test_path_with_one_isolated_vertex_gets_a_window():
    g = build_graph(13, path(12).edges)
    win = finite_window(g)
    assert (win.lo, win.hi, win.method) == (-22, 10, "sdds")
    assert is_sdds(win.certificate)


def c4_with(n, edges):
    return build_graph(4 + n, [(0, 1), (1, 2), (2, 3), (0, 3)] + [(u + 4, v + 4) for u, v in edges])


@pytest.mark.parametrize(
    "g, answer",
    [
        (build_graph(7, path(5).edges), "two isolated vertices share the sum 0"),
        (
            build_graph(14, [*path(12).edges, (12, 13)]),
            "a single-edge component forces two equal sums",
        ),
        (c4_with(3, path(3).edges), (-6, -1, "strong", (3, 4, 5, 6, 1, 2))),
        (c4_with(12, path(12).edges), "15 edges exceeds the exhaustive-search budget of 10"),
    ],
)
def test_unions_outside_the_route_answer_as_before(g, answer):
    if isinstance(answer, tuple):
        win = finite_window(g)
        assert (win.lo, win.hi, win.method, win.certificate.labels) == answer
        return
    with pytest.raises((NoSddsFound, BudgetExceeded), match=f"^{answer}$"):
        finite_window(g)


@pytest.mark.parametrize(
    "n, edges, message",
    [
        # a path on {0, 1, 2}, then isolated 3 and 4
        (5, [(0, 1), (1, 2)], "vertex 4 has no edges"),
        (6, [(0, 1), (1, 2), (4, 5)], "component (4, 5) is a single edge"),
        # the 4-cycle on {3, 4, 5, 6} has even degrees
        (
            7,
            [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (3, 6)],
            "component (3, 4, 5, 6) contains a cycle and an even degree",
        ),
    ],
)
def test_route_names_the_first_component_outside_its_class(n, edges, message):
    with pytest.raises(WrongGraphClass, match=f"^{re.escape(message)}$"):
        construct_sdds(build_graph(n, edges))
