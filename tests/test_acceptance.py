"""End-to-end acceptance checks, one test per criterion.

Each test prints a single summary line so a verbose run reads as a
checklist. Derived expectations are recomputed here through independent
routes (brute-force enumeration, closed formulas, quadratic roots) rather
than trusting the code under test.
"""

from __future__ import annotations

import math
import random
import time
from itertools import permutations

from antimagic.constructors import (
    ALL_SHIFTS,
    closed_form_spectrum,
    construct_cp3,
    construct_forest_sdds,
    construct_odd_degree,
    construct_path_shifted,
    p3_threshold,
)
from antimagic.families import (
    complete,
    complete_bipartite,
    cp3,
    cube,
    double_star,
    p5prime,
    path,
    petersen,
    star,
    two_p4,
    two_s3,
)
from antimagic.labeling import (
    EdgeLabeling,
    is_sdds,
    negate_labeling,
    sdds_shift_threshold,
    shift_labeling,
    verify_shifted,
    vertex_sums,
)
from antimagic.graph import level_partition
from antimagic.spectrum import decide, spectrum
from antimagic.trails import find_sigma_and_trails
from conftest import random_graph, random_labeling, random_tree
from test_odd_degree_oracle import seed_layer_subgraphs


def enumerate_shift(g, k):
    """Unpruned oracle: try every injection onto {k+1, ..., k+m}."""
    for labels in permutations(range(k + 1, k + g.m + 1)):
        if verify_shifted(EdgeLabeling(g, labels), k):
            return labels
    return None


def test_criterion_1_family_spectra_match_closed_forms():
    started = time.monotonic()

    cases = [
        (star(2), ("star", {"n": 2})),
        (star(3), ("star", {"n": 3})),
        (star(4), ("star", {"n": 4})),
        (star(5), ("star", {"n": 5})),
        (star(6), ("star", {"n": 6})),
        (path(3), ("path", {"n": 3})),
        (path(4), ("path", {"n": 4})),
        (path(5), ("path", {"n": 5})),
        (path(6), ("path", {"n": 6})),
        (path(7), ("path", {"n": 7})),
        (double_star(2, 1), ("double_star", {"a": 2, "b": 1})),
        (double_star(3, 1), ("double_star", {"a": 3, "b": 1})),
        (double_star(2, 2), ("double_star", {"a": 2, "b": 2})),
        (double_star(3, 2), ("double_star", {"a": 3, "b": 2})),
        (p5prime(), ("p5prime", {})),
        (two_p4(), ("two_p4", {})),
        (two_s3(), ("two_s3", {})),
        (cp3(1), ("cp3", {"c": 1})),
        (cp3(2), ("cp3", {"c": 2})),
        (cp3(3), ("cp3", {"c": 3})),
    ]
    for g, (family, params) in cases:
        want = closed_form_spectrum(family, **params)
        got = frozenset(spectrum(g).excluded)
        assert got == want, (family, params, sorted(got), sorted(want))

    # the single edge has no finite window and no feasible shift at all
    assert closed_form_spectrum("path", n=2) is ALL_SHIFTS
    assert spectrum(path(2)).excluded is ALL_SHIFTS
    for k in range(-6, 7):
        assert decide(path(2), k) is None

    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    print(f"\n[criterion 1] PASS: 20 family spectra + single-edge exclusion "
          f"in {elapsed:.2f}s")


def test_criterion_2_random_forest_labelings():
    rng = random.Random(20260816)
    for i in range(200):
        t = random_tree(rng, rng.randint(4, 20))
        f = construct_forest_sdds(t)
        assert is_sdds(f), i
        k = sdds_shift_threshold(t)
        assert verify_shifted(shift_labeling(f, k), k), i
    print("\n[criterion 2] PASS: 200/200 random trees labeled and shifted")


def test_criterion_3_odd_degree_constructions():
    started = time.monotonic()
    for g in (complete(4), complete_bipartite(3, 3), cube(), petersen()):
        f = construct_odd_degree(g)
        assert is_sdds(f)

        p = level_partition(g)
        for depth in range(1, p.d + 1):
            _, cross = seed_layer_subgraphs(g, p, depth)
            dec = find_sigma_and_trails(cross, p.levels[depth])
            dec.validate()
            shallow = set(p.levels[depth - 1])
            for t in dec.trails:
                ends_deep = sum(1 for v in (t.vertices[0], t.vertices[-1])
                                if v not in shallow)
                assert t.kind == {0: "W", 1: "N", 2: "M"}[ends_deep]
                if t.kind in ("W", "M"):
                    assert (len(t.vertices) - 1) % 2 == 0
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    print(f"\n[criterion 3] PASS: 4 odd-regular graphs in {elapsed:.2f}s")


def test_criterion_4_path_constructions_across_shifts():
    started = time.monotonic()
    checked = 0
    for n in range(6, 31):
        for k in range(-2 * n, 2 * n + 1):
            f = construct_path_shifted(n, k)
            v = verify_shifted(f, k)
            assert v, (n, k, v.code)
            checked += 1
    assert checked == 1825

    for k in range(-12, 7):
        assert decide(path(6), k) is not None, k

    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    print(f"\n[criterion 4] PASS: {checked} path labelings and a full "
          f"decision sweep in {elapsed:.2f}s")


def test_criterion_5_short_path_unions_at_scale():
    for c in range(1, 51):
        half = c // 2
        for k in (half, half + 7):
            f = construct_cp3(c, k)
            assert verify_shifted(f, k), (c, k)
        if c % 2 == 1:
            sums = vertex_sums(construct_cp3(c, half))
            centers = sorted(sums[3 * i + 1] for i in range(c))
            assert centers == list(range(5 * half + 3, 7 * half + 4)), c
    print("\n[criterion 5] PASS: unions up to 50 components, center sums "
          "consecutive for odd counts")


def test_criterion_6_negation_symmetry_on_random_labelings():
    rng = random.Random(271828)
    agreements = 0
    for _ in range(1000):
        n = rng.randint(2, 8)
        m = rng.randint(1, min(8, n * (n - 1) // 2))
        g = random_graph(rng, n, m)
        k = rng.randint(-10, 10)
        f = random_labeling(rng, g, k)
        direct = bool(verify_shifted(f, k))
        mirrored = bool(verify_shifted(negate_labeling(f), -(g.m + k + 1)))
        assert direct == mirrored
        agreements += 1
    assert agreements == 1000
    print("\n[criterion 6] PASS: 1000/1000 negation-symmetric verdicts")


def test_criterion_7_decision_search_agrees_with_enumeration():
    started = time.monotonic()
    rng = random.Random(57721)
    for i in range(50):
        n = rng.randint(2, 7)
        m = rng.randint(1, min(6, n * (n - 1) // 2))
        g = random_graph(rng, n, m)
        for k in range(-10, 6):
            fast = decide(g, k)
            slow = enumerate_shift(g, k)
            assert (fast is None) == (slow is None), (i, k)
            if fast is not None:
                assert verify_shifted(fast, k), (i, k)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    print(f"\n[criterion 7] PASS: 50 graphs x 16 shifts vs enumeration "
          f"in {elapsed:.1f}s")


def test_criterion_8_union_threshold_matches_quadratic_roots():
    def oracle(m: int) -> int:
        # smallest integer strictly beyond the positive root of
        # c^2 - (8m+1)c - 2m(m+1), never below the m+1 floor
        num = 8 * m + 1
        root = math.isqrt(num * num + 8 * m * (m + 1))
        return max((num + root) // 2 + 1, m + 1)

    for m, expected in ((0, 2), (2, 18), (3, 26)):
        assert oracle(m) == expected
        assert p3_threshold(m) == expected
    for m in range(0, 12):
        assert p3_threshold(m) == oracle(m)
    print("\n[criterion 8] PASS: union thresholds 2/18/26 match the "
          "quadratic-root oracle")
