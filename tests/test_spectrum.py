"""Exhaustive decision search, provable windows, and spectrum sweeps."""

from __future__ import annotations

import os
import random
import re
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
import itertools
from itertools import permutations
from pathlib import Path

import pytest

from antimagic import constructors, families
from antimagic.constructors import (
    ALL_SHIFTS,
    FAMILIES,
    AllShifts,
    closed_form_spectrum,
    construct_cp3,
    construct_double_star,
    construct_p5prime,
    construct_path_shifted,
    construct_star,
    construct_two_p4,
    construct_two_s3,
)
from antimagic.errors import BadParameters, BudgetExceeded, NoSddsFound
from antimagic.families import complete, cp3, cube, double_star, path, petersen, star
from antimagic.graph import Graph, build_graph
from antimagic.labeling import (
    EdgeLabeling,
    is_sdds,
    is_strongly_antimagic,
    mirror,
    verify_shifted,
)
from antimagic.spectrum import (
    DEFAULT_BUDGET,
    MAX_SWEEP,
    MAX_SWEEP_LABELS,
    decide,
    finite_window,
    labeling_at,
    search_sdds,
    search_strong,
    spectrum,
)
from conftest import random_graph

# the module itself: the package exports the function `spectrum` under its name
spectrum_module = sys.modules["antimagic.spectrum"]


def brute_force(g, k):
    pool = range(k + 1, k + g.m + 1)
    for labels in permutations(pool):
        if verify_shifted(EdgeLabeling(g, labels), k):
            return labels
    return None


# --- decide ------------------------------------------------------------------


def test_decide_finds_labeling_with_base():
    f = decide(path(4), -1)
    assert f is not None
    assert f.base == -1
    assert verify_shifted(f, -1)


def test_decide_exhausts_infeasible_shifts():
    assert decide(path(4), -2) is None
    assert decide(path(5), -2) is None
    assert decide(path(5), -3) is None


def test_decide_single_edge_never_feasible():
    for k in range(-4, 4):
        assert decide(path(2), k) is None


def test_decide_tolerates_isolated_vertices():
    g = build_graph(4, [(0, 1), (1, 2)])
    f = decide(g, 0)
    assert f is not None and verify_shifted(f, 0)
    # pool {0, 1} puts a zero label on some pendant edge, and that
    # endpoint then collides with the isolated vertex's zero sum
    assert decide(g, -1) is None


def test_decide_budget():
    with pytest.raises(BudgetExceeded):
        decide(complete(5), 0, budget=5)


def test_decide_agrees_with_unpruned_enumeration():
    rng = random.Random(314)
    for _ in range(12):
        n = rng.randint(2, 6)
        m = rng.randint(1, min(5, n * (n - 1) // 2))
        g = random_graph(rng, n, m)
        for k in range(-6, 4):
            fast = decide(g, k)
            slow = brute_force(g, k)
            assert (fast is None) == (slow is None), (g, k)
            if fast is not None:
                assert verify_shifted(fast, k)


def test_search_sdds_and_strong():
    f = search_strong(path(4))
    assert f is not None and is_strongly_antimagic(f)
    f = search_sdds(path(4))
    assert f is not None and is_sdds(f)
    assert search_sdds(path(2)) is None


# --- finite_window -------------------------------------------------------------


def test_window_path6_is_strong():
    w = finite_window(path(6))
    assert (w.lo, w.hi, w.method) == (-5, -1, "strong")
    assert is_strongly_antimagic(w.certificate)


def test_window_star4_is_strong():
    w = finite_window(star(4))
    assert (w.lo, w.hi, w.method) == (-4, -1, "strong")
    assert is_strongly_antimagic(w.certificate)


def test_window_petersen_uses_odd_degree_certificate():
    w = finite_window(petersen())
    assert w.method == "sdds"
    assert (w.lo, w.hi) == (-44, 28)
    assert is_sdds(w.certificate)


def test_window_rejects_hopeless_graphs():
    with pytest.raises(NoSddsFound):
        finite_window(path(2))
    with pytest.raises(NoSddsFound):
        finite_window(build_graph(5, [(0, 1), (1, 2)]))
    with pytest.raises(NoSddsFound):
        finite_window(build_graph(3, []))


@pytest.mark.parametrize(
    "edges, message",
    [
        # a single edge and 199,997 isolated vertices: the single edge is named
        ([(0, 1), (2, 3), (3, 4)], "a single-edge component forces two equal sums"),
        ([(0, 1), (1, 2)], "two isolated vertices share the sum 0"),
    ],
)
def test_window_rejects_huge_vertex_count_from_degrees(forbid_components, edges, message):
    with pytest.raises(NoSddsFound, match=f"^{message}$"):
        finite_window(build_graph(200_000, edges))


# --- spectrum ------------------------------------------------------------------


def test_spectrum_path5():
    rep = spectrum(path(5))
    assert rep.excluded == (-3, -2)
    assert (rep.sweep_lo, rep.sweep_hi) == (-4, -1)
    assert rep.entry(-1).status == "feasible"
    assert rep.entry(-2).status == "infeasible"
    for row in rep.entries:
        if row.certificate is not None:
            assert verify_shifted(row.certificate, row.k), row.k


def test_spectrum_override_window_adds_lemma_entries():
    rep = spectrum(path(4), window=(-10, 5))
    assert rep.excluded == (-2,)
    assert len(rep.entries) == 16
    above = rep.entry(3)
    assert above.status == "lemma" and above.via == "strong-shift"
    below = rep.entry(-9)
    assert below.status == "lemma" and below.via == "negation-symmetry"
    for row in rep.entries:
        if row.certificate is not None:
            assert verify_shifted(row.certificate, row.k), row.k


def test_a_report_row_is_read_by_its_offset_in_the_sweep():
    rep = spectrum(path(4), window=(-10, 5))
    assert [rep.entry(k) for k in range(-10, 6)] == list(rep.entries)


@pytest.mark.parametrize("k", [2.5, None, True])
def test_a_report_row_of_a_shift_that_is_not_an_int_raises_bad_parameters(k):
    # these raised a bare KeyError
    with pytest.raises(BadParameters, match="^shift must be an int, got "):
        spectrum(path(4)).entry(k)


def test_a_report_row_outside_the_sweep_raises_bad_parameters():
    rep = spectrum(path(4))
    assert (rep.sweep_lo, rep.sweep_hi) == (-3, -1)
    for k in (100, -4, 0):
        with pytest.raises(BadParameters, match=f"^shift {k} is outside the swept range: -3..-1$"):
            rep.entry(k)


def test_no_row_of_a_report_without_a_window_is_swept():
    rep = spectrum(path(2))
    assert rep.excluded == ALL_SHIFTS and rep.entries == ()
    for k in (-1, 0, 100):
        with pytest.raises(BadParameters, match=f"^shift {k} is outside the swept range: nothing is swept$"):
            rep.entry(k)


def test_spectrum_mirrors_across_the_negation_axis():
    rep = spectrum(cp3(2))
    assert rep.excluded == (-5, -4, -3, -2, -1, 0)
    mirrored = [row for row in rep.entries if row.via == "mirror"]
    assert mirrored and all(row.k < -(4 + 1) / 2 for row in mirrored)
    for row in rep.entries:
        if row.certificate is not None:
            assert verify_shifted(row.certificate, row.k), row.k


def test_spectrum_excludes_every_shift_of_a_windowless_graph():
    # a single-edge component, or two isolated vertices: no shift works
    for g in (path(2), build_graph(4, [(0, 1), (2, 3)]), build_graph(5, [(0, 1), (1, 2)])):
        rep = spectrum(g)
        assert rep.excluded is ALL_SHIFTS
        assert rep.window is None and rep.entries == ()
        doc = {"n": g.n, "m": g.m, "edges": [list(e) for e in g.edges]}
        assert rep.to_dict() == {**doc, "window": None, "excluded_all_shifts": True}
    # a graph with no edge has nothing to label
    with pytest.raises(NoSddsFound, match="^no edges to label$"):
        spectrum(build_graph(1, []))


def test_spectrum_override_sweeps_windowless_graphs():
    rep = spectrum(path(2), window=(-3, 1))
    assert rep.window is None
    assert rep.excluded == (-3, -2, -1, 0, 1)
    doc = rep.to_dict()
    assert doc["outside_above"] == "unknown"
    assert doc["outside_below"] == "unknown"


def test_spectrum_rejects_empty_override():
    with pytest.raises(BadParameters):
        spectrum(path(4), window=(2, 1))


def test_spectrum_rejects_override_wider_than_the_cap():
    assert len(spectrum(path(4), window=(1, MAX_SWEEP)).entries) == MAX_SWEEP
    with pytest.raises(BadParameters, match=rf"^sweep range 0\.\.{MAX_SWEEP} holds {MAX_SWEEP + 1} shifts"):
        spectrum(path(4), window=(0, MAX_SWEEP))


def test_spectrum_caps_sweeps_by_labels(monkeypatch):
    # 2,001 shifts of 2,499 labels, refused before any window is built
    def no_window(*args):
        raise AssertionError("finite_window() called")

    monkeypatch.setattr(spectrum_module, "finite_window", no_window)
    assert 2000 * 2499 <= MAX_SWEEP_LABELS < 2001 * 2499
    message = (
        rf"^sweep range 0\.\.2000 of a 2499-edge graph holds {2001 * 2499} labels,"
        rf" more than the {MAX_SWEEP_LABELS} allowed$"
    )
    with pytest.raises(BadParameters, match=message):
        spectrum(path(2500), window=(0, 2000))
    monkeypatch.undo()
    # shifts times edges up to the cap are swept
    monkeypatch.setattr(spectrum_module, "MAX_SWEEP_LABELS", 30)
    assert len(spectrum(path(4), window=(1, 10)).entries) == 10
    with pytest.raises(BadParameters, match=r"^sweep range 0\.\.10 of a 3-edge graph holds 33 labels"):
        spectrum(path(4), window=(0, 10))
    monkeypatch.undo()
    # a full window is checked as soon as it is known: star(200) sweeps
    # 79,404 shifts of 200 labels
    with pytest.raises(BadParameters, match=r"^sweep range -39802\.\.39601 of a 200-edge graph"):
        spectrum(star(200), family=("star", {"n": 200}))


def test_a_sweep_builds_the_window_once(monkeypatch):
    built = []

    def counting(*args):
        built.append(args[0])
        return finite_window(*args)

    monkeypatch.setattr(spectrum_module, "finite_window", counting)
    # past the budget without a constructor, every row of a windowless
    # graph comes from its one NoSddsFound
    pairs = build_graph(10_000, [(2 * i, 2 * i + 1) for i in range(5000)])
    rep = spectrum(pairs, window=(0, 999))
    assert len(built) == 1
    assert rep.excluded == tuple(range(1000))
    assert {row.via for row in rep.entries} == {"family"}
    # and a graph with a window searches inside it, which the budget refuses
    built.clear()
    with pytest.raises(BudgetExceeded):
        spectrum(cube())
    assert len(built) == 1


@pytest.mark.parametrize(
    "family, need",
    [
        (("nope", {}), "a name from FAMILIES"),
        (("path", {}), r"the parameters \['n'\]"),
        (("path", {"n": 8, "a": 1}), r"the parameters \['n'\]"),
        ("path", "a name from FAMILIES"),
        (("path", 8), r"the parameters \['n'\]"),
    ],
)
def test_a_bad_family_request_raises_bad_parameters(family, need):
    message = rf"^family must be a \(name, params\) pair with {need}, got {re.escape(repr(family))}$"
    with pytest.raises(BadParameters, match=message):
        labeling_at(path(8), 0, family=family)
    with pytest.raises(BadParameters, match=message):
        spectrum(path(8), family=family)
    assert labeling_at(path(8), 0, family=("path", {"n": 8})) is not None


P30 = ("path", {"n": 30})


@pytest.mark.parametrize(
    "call, args, kwargs, message",
    [
        (labeling_at, (path(30), 0.5), {"family": P30}, "shift must be an int, got 0.5"),
        (labeling_at, (path(30), 0, 2.0), {"family": P30}, "budget must be an int, got 2.0"),
        (labeling_at, (path(5), True), {}, "shift must be an int, got True"),
        (decide, (path(4), True), {}, "shift must be an int, got True"),
        (decide, (path(5), 1.5), {}, "shift must be an int, got 1.5"),
        (decide, (path(5), 0, None), {}, "budget must be an int, got None"),
        (search_sdds, (path(5), False), {}, "budget must be an int, got False"),
        (search_strong, (path(5), "10"), {}, "budget must be an int, got '10'"),
        (finite_window, (path(5), 10.0), {}, "budget must be an int, got 10.0"),
        (spectrum, (path(5),), {"budget": None}, "budget must be an int, got None"),
        (spectrum, (path(5),), {"window": (0.5, 2)}, "window bound must be an int, got 0.5"),
        (spectrum, (path(5),), {"window": (0, True)}, "window bound must be an int, got True"),
        (spectrum, (path(5),), {"window": (0, 1, 2)}, r"window must be .*, got \(0, 1, 2\)"),
        (spectrum, (path(5),), {"window": 0}, r"window must be a \(lo, hi\) pair, got 0"),
    ],
)
def test_a_shift_budget_or_window_that_is_not_an_int_raises_bad_parameters(
    call, args, kwargs, message
):
    # a float shift once gave labels such as 1.5, 29.5, ... that verified
    with pytest.raises(BadParameters, match=f"^{message}$"):
        call(*args, **kwargs)


def test_a_window_given_as_a_list_still_sweeps():
    assert spectrum(path(5), window=[-3, 0]) == spectrum(path(5), window=(-3, 0))


@pytest.mark.parametrize(
    "name, params, message",
    [
        ("path", {"n": 2.5}, "path parameter n must be an int, got 2.5"),
        ("double_star", {"a": 1.0, "b": 3}, "double_star parameter a must be an int, got 1.0"),
        ("star", {"n": "3"}, "star parameter n must be an int, got '3'"),
        ("cp3", {"c": True}, "cp3 parameter c must be an int, got True"),
        ("two_p4", {"n": 0.5}, "two_p4 parameter n must be an int, got 0.5"),
    ],
)
def test_a_closed_form_parameter_that_is_not_an_int_raises_bad_parameters(name, params, message):
    with pytest.raises(BadParameters, match=f"^{message}$"):
        closed_form_spectrum(name, **params)


@pytest.mark.parametrize(
    "name, params, key",
    [
        ("two_p4", {"n": 5}, "n"),
        ("path", {"n": 5, "c": 3}, "c"),
        ("star", {"a": 1, "n": 4}, "a"),
        ("double_star", {"a": 1, "b": 3, "n": 0}, "n"),
        ("p5prime", {"b": 2}, "b"),
    ],
)
def test_a_closed_form_refuses_a_parameter_its_family_does_not_take(name, params, key):
    # the family request refuses such a parameter too
    with pytest.raises(BadParameters, match=f"^{name} takes no parameter {key}$"):
        closed_form_spectrum(name, **params)
    g = FAMILIES[name].build(**{k: v for k, v in params.items() if k != key})
    with pytest.raises(BadParameters, match="^family must be a"):
        spectrum(g, family=(name, params))


@pytest.mark.parametrize("n", ["30", 30.0, None, True])
def test_a_family_request_parameter_that_is_not_an_int_raises_bad_parameters(n):
    message = f"^family parameter n must be an int, got {re.escape(repr(n))}$"
    with pytest.raises(BadParameters, match=message):
        spectrum(path(30), family=("path", {"n": n}))
    with pytest.raises(BadParameters, match=message):
        labeling_at(path(30), 0, family=("path", {"n": n}))


@pytest.mark.parametrize(
    "g, family",
    [
        (path(30), ("star", {"n": 29})),  # once reported shift -15 excluded
        (star(29), ("path", {"n": 30})),  # the same n and m, other edges
        (build_graph(6, [(0, 2), (2, 1), (1, 3), (3, 4), (4, 5)]), ("path", {"n": 6})),
        (path(30), ("path", {"n": 31})),
        (cp3(4), ("cp3", {"c": 3})),
        (double_star(2, 3), ("double_star", {"a": 3, "b": 2})),
        (families.two_s3(), ("two_p4", {})),
        (path(6), ("p5prime", {})),
    ],
)
def test_a_family_request_for_another_graph_raises_bad_parameters(g, family):
    graph = f"this {g.n}-vertex, {g.m}-edge graph"
    message = f"^family {re.escape(repr(family))} does not build {graph}$"
    with pytest.raises(BadParameters, match=message):
        spectrum(g, family=family)
    with pytest.raises(BadParameters, match=message):
        labeling_at(g, 0, family=family)


def test_a_family_request_out_of_its_builders_range_raises_bad_parameters():
    with pytest.raises(BadParameters, match="^path needs at least one vertex, got 0$"):
        spectrum(Graph(0, ()), family=("path", {"n": 0}))
    with pytest.raises(BadParameters, match="^need at least one component, got -1$"):
        labeling_at(path(3), 0, family=("cp3", {"c": -1}))


def test_every_family_with_a_construction_has_the_shape_of_what_it_builds():
    assert {name for name, entry in FAMILIES.items() if entry.shape is not None} == {
        name for name, entry in FAMILIES.items() if entry.construct is not None
    }
    for name, entry in FAMILIES.items():
        if entry.shape is None:
            continue
        for values in itertools.product(range(1, 8), repeat=len(entry.params)):
            g = entry.build(**dict(zip(entry.params, values)))
            n, m, edges = entry.shape(**dict(zip(entry.params, values)))
            assert (n, m, tuple(edges)) == (g.n, g.m, g.edges), (name, values)


def test_a_family_request_is_checked_in_constant_memory():
    # a copy of p200000's edges would take about 24 MiB; the check streams them
    g = path(200_000)

    def peak(call):
        tracemalloc.start()
        try:
            assert call().graph is g
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    checked = peak(lambda: labeling_at(g, 0, family=("path", {"n": 200_000})))
    assert checked < peak(lambda: construct_path_shifted(200_000, 0, g=g)) + 2**20


def test_spectra_on_four_threads_match_a_sequential_run():
    # the threads share the one cached plan, each replacing it in turn
    requests = (
        [("star", {"n": n}) for n in range(2, 8)]
        + [("path", {"n": n}) for n in range(3, 9)]
        + [("double_star", {"a": a, "b": b}) for a, b in [(1, 1), (2, 1), (3, 1), (2, 2), (3, 2)]]
        + [("cp3", {"c": c}) for c in (1, 2, 3)]
        + [("two_p4", {}), ("two_s3", {}), ("p5prime", {})]
    )
    graphs = [FAMILIES[name].build(**params) for name, params in requests]
    sequential = [spectrum(g).to_dict() for g in graphs]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(lambda g: spectrum(g).to_dict(), graphs))
    assert threaded == sequential


def test_spectrum_report_dict_shape():
    doc = spectrum(path(5)).to_dict()
    assert doc["n"] == 5 and doc["m"] == 4
    assert doc["window"] == {"lo": -4, "hi": -1, "method": "strong"}
    assert doc["sweep"] == {"lo": -4, "hi": -1}
    assert doc["outside_above"] == "strong-shift"
    assert doc["outside_below"] == "negation-symmetry"
    assert doc["excluded"] == [-3, -2]
    ks = [row["k"] for row in doc["shifts"]]
    assert ks == sorted(ks)
    for row in doc["shifts"]:
        assert row["status"] in {"feasible", "infeasible", "lemma"}
        assert (row["labels"] is None) == (row["status"] == "infeasible")


# --- closed forms --------------------------------------------------------------


def test_closed_form_paths():
    assert closed_form_spectrum("path", n=2) is ALL_SHIFTS
    assert closed_form_spectrum("path", n=3) == frozenset({-2, -1})
    assert closed_form_spectrum("path", n=4) == frozenset({-2})
    assert closed_form_spectrum("path", n=5) == frozenset({-3, -2})
    assert closed_form_spectrum("path", n=9) == frozenset()


def test_closed_form_stars():
    assert closed_form_spectrum("star", n=1) is ALL_SHIFTS
    assert closed_form_spectrum("star", n=4) == frozenset({-3, -2})
    assert closed_form_spectrum("star", n=5) == frozenset({-3})
    assert closed_form_spectrum("star", n=6) == frozenset({-4, -3})


@pytest.mark.parametrize("n", [16, 24])
def test_large_star_spectra_match_the_closed_form(n):
    # in a child process with a timeout, so that a search that is back to
    # near n! orders on the infeasible shifts fails instead of hanging
    src = Path(spectrum.__code__.co_filename).resolve().parent.parent
    code = (
        "from antimagic.families import star\n"
        "from antimagic.constructors import closed_form_spectrum\n"
        "from antimagic.spectrum import spectrum\n"
        f"report = spectrum(star({n}), budget={n})\n"
        f"print(frozenset(report.excluded) == closed_form_spectrum('star', n={n}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True\n"


def test_closed_form_double_stars():
    assert closed_form_spectrum("double_star", a=2, b=2) == frozenset()
    assert closed_form_spectrum("double_star", a=1, b=1) == frozenset({-2})
    assert closed_form_spectrum("double_star", a=2, b=1) == frozenset({-3, -2})
    assert closed_form_spectrum("double_star", a=3, b=1) == frozenset({-3})
    assert closed_form_spectrum("double_star", a=4, b=1) == frozenset()


def test_closed_form_unions_and_sporadics():
    assert closed_form_spectrum("cp3", c=3) == frozenset(range(-7, 1))
    assert closed_form_spectrum("cp3", c=4) == frozenset(range(-10, 2))
    assert closed_form_spectrum("two_p4") == frozenset({-5, -2})
    assert closed_form_spectrum("two_s3") == frozenset({-5, -2})
    assert closed_form_spectrum("p5prime") == frozenset({-3})


def test_closed_form_rejects_unknown():
    with pytest.raises(BadParameters):
        closed_form_spectrum("wheel", n=5)
    with pytest.raises(BadParameters):
        closed_form_spectrum("path")


def test_closed_form_rejects_parameters_below_range():
    for family, params, message in [
        ("star", {"n": 0}, "star needs a leaf count n >= 1"),
        ("double_star", {"a": 0, "b": 3}, "double star needs a, b >= 1"),
        ("cp3", {"c": 0}, "need a component count c >= 1"),
    ]:
        with pytest.raises(BadParameters, match=f"^{message}$"):
            closed_form_spectrum(family, **params)


def test_closed_form_cp3_refuses_what_the_family_builder_refuses(monkeypatch):
    # the set holds about 3c shifts; past the edge cap it is not built
    monkeypatch.setattr(families, "MAX_EDGES", 12)
    assert closed_form_spectrum("cp3", c=6) == frozenset(range(-15, 3))
    with pytest.raises(BadParameters, match=r"^cp3 would have 14 edges, more than the 12 allowed$"):
        closed_form_spectrum("cp3", c=7)
    with pytest.raises(BadParameters, match=r"^cp3 would have 14 edges, more than the 12 allowed$"):
        cp3(7)


def test_closed_form_rejects_families_without_one():
    for family in ("cycle", "complete", "complete_bipartite", "cube", "petersen", ["path"]):
        with pytest.raises(BadParameters):
            closed_form_spectrum(family, n=4, a=2, b=2, c=2)


def test_registry_constructions_agree_with_closed_forms():
    grids = {
        "path": [{"n": n} for n in range(2, 10)],
        "star": [{"n": n} for n in range(1, 7)],
        "double_star": [{"a": a, "b": b} for a in range(1, 5) for b in range(1, 5)],
        "cp3": [{"c": c} for c in range(1, 5)],
        "two_p4": [{}],
        "two_s3": [{}],
        "p5prime": [{}],
    }
    assert set(grids) == {name for name, fam in FAMILIES.items() if fam.construct}
    for name, grid in grids.items():
        fam = FAMILIES[name]
        for params in grid:
            g = fam.build(**params)
            excluded = closed_form_spectrum(name, **params)
            for k in range(-3 * g.m - 3, 3 * g.m + 4):
                f = fam.construct(k, g=g, search=lambda j: decide(g, j), **params)
                if f is None:
                    assert k in excluded, (name, params, k)
                else:
                    assert verify_shifted(f, k), (name, params, k)
                    assert k not in excluded, (name, params, k)


SPECTRUM_GRID = [
    *(("path", {"n": n}) for n in range(2, 62)),
    *(("star", {"n": n}) for n in (*range(1, 17), 23, 30, 45, 60)),
    *(
        ("double_star", {"a": a, "b": b})
        for a, b in (
            *((a, b) for a in (1, 2, 3) for b in range(1, 13)),
            *((1, b) for b in (24, 25, 40, 57)),
            (7, 20),
            (15, 15),
            (10, 49),
            (29, 30),
        )
    ),
    *(("cp3", {"c": c}) for c in range(1, 31)),
]


@pytest.mark.parametrize("name, params", SPECTRUM_GRID, ids=str)
def test_family_spectra_up_to_sixty_edges_match_the_closed_forms(name, params):
    # past the search budget the family's constructor decides each shift
    g = FAMILIES[name].build(**params)
    rep = spectrum(g, family=(name, params))
    want = closed_form_spectrum(name, **params)
    if want is ALL_SHIFTS:
        assert rep.excluded is ALL_SHIFTS
        return
    assert frozenset(rep.excluded) == want
    assert [row.k for row in rep.entries] == list(range(rep.window.lo, rep.window.hi + 1))
    assert {row.via for row in rep.entries} <= (
        {"search", "mirror"} if g.m <= DEFAULT_BUDGET else {"family", "mirror"}
    )
    for row in rep.entries:
        assert (row.certificate is None) == (row.k in want), row.k
        if row.certificate is not None:
            assert row.certificate.graph is g and verify_shifted(row.certificate, row.k), row.k


def public_constructor(name, params, k):
    """The family's public constructor, as a caller outside the registry
    calls it."""
    if name == "path":
        return construct_path_shifted(params["n"], k)
    if name == "star":
        return construct_star(params["n"], k)
    if name == "double_star":
        return construct_double_star(params["a"], params["b"], k)
    if name == "cp3":
        c = params["c"]
        return mirror(lambda j: construct_cp3(c, j) if j >= c // 2 else None, 2 * c, k)
    return {"two_p4": construct_two_p4, "two_s3": construct_two_s3, "p5prime": construct_p5prime}[
        name
    ](k)


@pytest.mark.parametrize(
    "name, grid",
    [
        ("path", [{"n": n} for n in range(6, 41)]),
        ("star", [{"n": n} for n in range(2, 13)]),
        ("double_star", [{"a": a, "b": b} for a in range(1, 6) for b in range(1, 6)]),
        ("cp3", [{"c": c} for c in range(1, 8)]),
        ("two_p4", [{}]),
        ("two_s3", [{}]),
        ("p5prime", [{}]),
    ],
)
def test_registry_constructions_label_the_graph_they_are_handed(name, grid):
    fam = FAMILIES[name]
    for params in grid:
        g = fam.build(**params)
        # -2 and the mirrored side, below the axis 2k = -(m+1), included
        for k in range(-g.m - 4, 5):
            f = fam.construct(k, g=g, search=lambda j: decide(g, j), **params)
            expected = public_constructor(name, params, k)
            if f is None:
                assert expected is None, (name, params, k)
                continue
            assert f.graph is g, (name, params, k)
            assert f == expected, (name, params, k)


@pytest.mark.parametrize(
    "name, ctor, params, k",
    [
        ("path", "construct_path_shifted", {"n": 8}, -3),
        ("path", "construct_path_shifted", {"n": 8}, 2),
        ("star", "construct_star", {"n": 4}, 1),
        ("double_star", "construct_double_star", {"a": 3, "b": 2}, -9),
        ("cp3", "construct_cp3", {"c": 3}, 2),
        ("cp3", "construct_cp3", {"c": 3}, -11),
        ("two_p4", "construct_two_p4", {}, 0),
        ("two_s3", "construct_two_s3", {}, -3),
        ("p5prime", "construct_p5prime", {}, -1),
    ],
)
def test_registry_calls_the_constructors_by_the_names_spectrum_binds(
    monkeypatch, name, ctor, params, k
):
    # a constructor rebound in antimagic.constructors, as a tracer rebinds
    # it, is the one the registry calls
    real, calls = getattr(constructors, ctor), []

    def recorder(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(constructors, ctor, recorder)
    g = FAMILIES[name].build(**params)
    f = FAMILIES[name].construct(k, g=g, search=lambda j: decide(g, j), **params)
    assert calls and all(kwargs["g"] is g for kwargs in calls)
    assert f.graph is g and verify_shifted(f, k)


# one small request per family; each family's builder has the family's name
BUILD_PARAMS = {
    "path": {"n": 5},
    "star": {"n": 3},
    "double_star": {"a": 2, "b": 1},
    "cp3": {"c": 2},
    "two_p4": {},
    "two_s3": {},
    "p5prime": {},
    "cycle": {"n": 4},
    "complete": {"n": 4},
    "complete_bipartite": {"a": 2, "b": 3},
    "cube": {},
    "petersen": {},
}


@pytest.mark.parametrize("name", list(BUILD_PARAMS))
def test_registry_calls_the_builders_by_the_names_constructors_binds(monkeypatch, name):
    # a builder rebound in antimagic.constructors, as a tracer rebinds it,
    # is the one the registry's `build` calls; a registry that stored the
    # builder objects would call the original
    assert set(BUILD_PARAMS) == set(FAMILIES)
    params = BUILD_PARAMS[name]
    real, calls = getattr(constructors, name), []

    def recorder(*args, **kwargs):
        calls.append(args + tuple(kwargs.values()))
        return real(*args, **kwargs)

    monkeypatch.setattr(constructors, name, recorder)
    g = FAMILIES[name].build(**params)
    assert calls == [tuple(params.values())]
    assert g == getattr(families, name)(*params.values())


@pytest.mark.parametrize(
    "name, params",
    [
        *(("path", {"n": n}) for n in range(2, 9)),
        ("star", {"n": 4}),
        ("double_star", {"a": 1, "b": 2}),
        ("cp3", {"c": 2}),
        ("two_p4", {}),
        ("two_s3", {}),
        ("p5prime", {}),
    ],
)
def test_only_the_short_paths_call_the_search_they_are_handed(name, params):
    fam = FAMILIES[name]
    g = fam.build(**params)
    for k in range(-g.m - 3, 4):
        calls = []

        def search(j):
            calls.append(j)
            return decide(g, j)

        f = fam.construct(k, g=g, search=search, **params)
        if name == "path" and 3 <= params["n"] <= 5:
            assert calls == [k], k
            assert f == decide(g, k), k
        else:
            assert calls == [], (name, params, k)


def test_all_shifts_contains_everything():
    assert 0 in ALL_SHIFTS
    assert -(10**9) in ALL_SHIFTS
    assert ALL_SHIFTS == AllShifts()
    assert -5 not in frozenset() and -5 in ALL_SHIFTS
