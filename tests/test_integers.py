"""One test of an integer: `type(x) is int`.

A vertex count, an endpoint, a family size, a shift, a root and every
integer field of a certificate must be exactly an int. A float, a bool,
None, a str or an int subclass such as an IntEnum member raises an
AntimagicError (InvalidGraph, BadParameters, CertificateError) and never
a bare TypeError or ValueError, nor gives a result.
"""

from __future__ import annotations

import re
from enum import IntEnum

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import antimagic
from antimagic.certificate import (
    certificate_to_labeling,
    check_certificate,
    labeling_to_certificate,
)
from antimagic.constructors import (
    closed_form_spectrum,
    construct_cp3,
    construct_double_star,
    construct_p5prime,
    construct_path_shifted,
    construct_path_strong,
    construct_star,
    construct_two_p4,
    construct_two_s3,
    p3_threshold,
)
from antimagic.errors import (
    AntimagicError,
    BadParameters,
    CertificateError,
    InvalidGraph,
    InvalidLabeling,
)
from antimagic.families import (
    complete,
    complete_bipartite,
    cp3,
    cycle,
    double_star,
    path,
    star,
)
from antimagic.graph import Graph, build_graph, canonical_edge, level_partition
from antimagic.labeling import EdgeLabeling, shift_labeling, verify_shifted
from antimagic.spectrum import (
    decide,
    finite_window,
    labeling_at,
    search_sdds,
    search_strong,
    spectrum,
)


class Size(IntEnum):
    THREE = 3
    SIX = 6


# --- the repros, one each ---------------------------------------------------


@pytest.mark.parametrize(
    "n, edges, message",
    [
        (3, [(0, 1.5)], r"edge \(0, 1\.5\) has an endpoint that is not an int"),
        (3, [(0, 1), (True, 2)], r"edge \(True, 2\) has an endpoint that is not an int"),
        (3, [(0, None)], r"edge \(0, None\) has an endpoint that is not an int"),
        (3, [(0, Size.THREE)], r"edge \(0, <Size\.THREE: 3>\) has an endpoint that is not an int"),
        (None, [(0, 1)], "vertex count must be an int, got None"),
        (3.0, [(0, 1)], r"vertex count must be an int, got 3\.0"),
        (3, [(0, 1, 2)], r"edge \(0, 1, 2\) is not a pair \(u, v\)"),
        (3, [(0, 1), 7], r"edge 7 is not a pair \(u, v\)"),
        # edges that are not iterable once raised a bare TypeError
        (3, None, "edges must be iterable, got None"),
        (3, 2.5, r"edges must be iterable, got 2\.5"),
        (3, True, "edges must be iterable, got True"),
    ],
)
def test_build_graph_names_what_is_not_an_int_or_not_a_pair(n, edges, message):
    # a float endpoint once made a graph whose search raised a bare TypeError
    with pytest.raises(InvalidGraph, match=f"^{message}$"):
        build_graph(n, edges)
    if isinstance(edges, list):
        with pytest.raises(InvalidGraph, match=f"^{message}$"):
            build_graph(n, iter(edges))


@pytest.mark.parametrize("edge", [(0, 1.0), (0.0, 1), (False, 1), (0, Size.THREE)])
def test_graph_refuses_an_endpoint_that_is_not_an_int(edge):
    with pytest.raises(InvalidGraph, match="^edges must be ascending pairs"):
        Graph(4, (edge,))


@pytest.mark.parametrize(
    "call, args, message",
    [
        (path, (2.5,), "path vertex count must be an int, got 2.5"),
        (cp3, (2.0,), "cp3 component count must be an int, got 2.0"),
        (complete, (4.0,), "complete graph vertex count must be an int, got 4.0"),
        (double_star, (1, 2.0), "double star leaf count b must be an int, got 2.0"),
        (star, (True,), "star leaf count must be an int, got True"),
        (construct_star, (3.0, 0), "star leaf count must be an int, got 3.0"),
        (construct_path_strong, (5.0,), "path vertex count must be an int, got 5.0"),
        (p3_threshold, (2.5,), "edge count must be an int, got 2.5"),
        (level_partition, (path(5), 2.5), "root must be an int, got 2.5"),
        (construct_cp3, (2, "3"), "shift must be an int, got '3'"),
        (shift_labeling, (construct_path_strong(5), 0.5), "shift must be an int, got 0.5"),
    ],
)
def test_a_size_root_or_shift_that_is_not_an_int_raises_bad_parameters(call, args, message):
    with pytest.raises(BadParameters, match=f"^{message}$"):
        call(*args)


def test_a_certificate_of_a_shift_that_is_not_an_int_is_refused():
    f = construct_path_shifted(8, -3)
    with pytest.raises(BadParameters, match="^shift must be an int, got 2.5$"):
        labeling_to_certificate(f, 2.5)
    with pytest.raises(BadParameters, match="^shift must be an int, got 2.5$"):
        labeling_to_certificate(f._replace(base=2.5))


@pytest.mark.parametrize("k, text", [(None, "None"), ("a", "'a'"), (2.5, "2.5"), (True, "True")])
def test_verify_shifted_refuses_a_shift_that_is_not_an_int(k, text):
    # None and "a" once raised a bare TypeError, 2.5 gave a verdict about [3.5, 9.5]
    f = construct_path_shifted(8, -3)
    with pytest.raises(BadParameters, match=f"^shift must be an int, got {text}$"):
        verify_shifted(f, k)


@pytest.mark.parametrize(
    "base, text", [("x", "'x'"), (2.5, "2.5"), (True, "True"), (Size.THREE, "<Size.THREE: 3>")]
)
def test_a_labeling_refuses_a_base_that_is_neither_none_nor_an_int(base, text):
    # base="x" was once accepted, and a later negate_labeling raised a bare TypeError
    g = path(3)
    with pytest.raises(BadParameters, match=f"^shift must be an int, got {text}$"):
        EdgeLabeling(g, (1, 2), base=base)
    with pytest.raises(BadParameters, match=f"^shift must be an int, got {text}$"):
        EdgeLabeling(g, (1, 2), base=0)._replace(base=base)
    assert EdgeLabeling(g, (1, 2)).base is None


@pytest.mark.parametrize(
    "labels, message",
    [
        ((1, 2.5, 3), r"label 2\.5 on edge \(1, 2\) is not an int"),
        ((1.5, 2, 3), r"label 1\.5 on edge \(0, 1\) is not an int"),
        ((1, 2.0, 3), r"label 2\.0 on edge \(1, 2\) is not an int"),
        ((1, True, 3), r"label True on edge \(1, 2\) is not an int"),
        ((1, "a", 3), r"label 'a' on edge \(1, 2\) is not an int"),
        ((1, Size.THREE, 2), r"label <Size\.THREE: 3> on edge \(1, 2\) is not an int"),
        (None, "labels must be a sequence of ints, got None"),
        (3, "labels must be a sequence of ints, got 3"),
    ],
)
def test_a_labeling_refuses_labels_that_are_not_ints(labels, message):
    # (1, 2.5, 3) was once accepted, and verify_shifted at shift 0 accepted it
    g = path(4)
    with pytest.raises(InvalidLabeling, match=f"^{message}$"):
        EdgeLabeling(g, labels, base=0)
    with pytest.raises(InvalidLabeling, match=f"^{message}$"):
        EdgeLabeling(g, (1, 2, 3), base=0)._replace(labels=labels)


@pytest.mark.parametrize(
    "labels", [{1, 2, 3}, frozenset({1, 2, 3}), {1: 0, 2: 0, 3: 0}], ids=["set", "frozenset", "dict"]
)
def test_a_labeling_refuses_labels_that_are_not_a_sequence(labels):
    # each was once built: which label sat on which edge followed set or key order
    message = re.escape(f"labels must be a sequence of ints, got {labels!r}")
    with pytest.raises(InvalidLabeling, match=f"^{message}$"):
        EdgeLabeling(path(4), labels, base=0)
    with pytest.raises(InvalidLabeling, match=f"^{message}$"):
        EdgeLabeling(path(4), (1, 2, 3), base=0)._replace(labels=labels)


@pytest.mark.parametrize("labels", [[1, 3, 2], (1, 3, 2)], ids=["list", "tuple"])
def test_a_labeling_takes_its_labels_as_a_list_or_a_tuple(labels):
    f = EdgeLabeling(path(4), labels, base=0)
    assert f.labels == (1, 3, 2) and hash(f) == hash(EdgeLabeling(path(4), (1, 3, 2), base=0))
    assert verify_shifted(f, 0)


def test_a_labeling_keeps_a_copy_of_a_list_of_labels():
    # a list changed after the checks was once read by verify_shifted,
    # which then accepted (1, 2.5, 2) at shift 0
    labels = [1, 3, 2]
    f = EdgeLabeling(path(4), labels, base=0)
    labels[1] = 2.5
    assert f.labels == (1, 3, 2) and verify_shifted(f, 0)


@pytest.mark.parametrize(
    "field, message",
    [
        ("n", "field 'n' must be an integer"),
        ("k", "field 'k' must be an integer"),
        ("edges", r"field 'edges' must be a list of \[u, v\] pairs"),
        ("labels", "field 'labels' must be a list of integers"),
        ("vertex_sums", "field 'vertex_sums' must be a list of integers"),
    ],
)
def test_an_intenum_member_in_a_certificate_is_refused_like_a_float(field, message):
    # a member equal to the int it replaces, so the document is otherwise valid
    same = IntEnum("Same", {f"V{v + 3}": v for v in range(-3, 9)})
    doc = labeling_to_certificate(construct_path_shifted(8, -3))
    if field in ("n", "k"):
        doc[field] = same(doc[field])
    elif field == "edges":
        doc["edges"][2][1] = same(3)  # the edge (2, 3)
    else:
        doc[field][0] = same(doc[field][0])
    with pytest.raises(CertificateError, match=f"^{message}$"):
        check_certificate(doc)


# --- the contract -------------------------------------------------------------

NOT_INTS = st.one_of(
    st.floats(),
    st.booleans(),
    st.none(),
    st.text(max_size=3),
    st.sampled_from(Size),
)

P6 = construct_path_shifted(6, 0)
P6_DOC = labeling_to_certificate(P6)
P4 = path(4)

# where None is the documented default: the default root, the labeling's own shift
NONE_IS_DEFAULT = {"level_partition root", "labeling_to_certificate k", "EdgeLabeling base"}

# each call takes its one bad value where an int belongs; the others are valid
CALLS = {
    "path n": lambda x: path(x),
    "cycle n": lambda x: cycle(x),
    "star leaves": lambda x: star(x),
    "double_star a": lambda x: double_star(x, 2),
    "double_star b": lambda x: double_star(2, x),
    "cp3 c": lambda x: cp3(x),
    "complete n": lambda x: complete(x),
    "complete_bipartite a": lambda x: complete_bipartite(x, 2),
    "complete_bipartite b": lambda x: complete_bipartite(2, x),
    "construct_path_strong n": lambda x: construct_path_strong(x),
    "construct_path_shifted n": lambda x: construct_path_shifted(x, 0),
    "construct_path_shifted k": lambda x: construct_path_shifted(6, x),
    "construct_star leaves": lambda x: construct_star(x, 0),
    "construct_star k": lambda x: construct_star(3, x),
    "construct_double_star a": lambda x: construct_double_star(x, 2, 0),
    "construct_double_star b": lambda x: construct_double_star(2, x, 0),
    "construct_double_star k": lambda x: construct_double_star(2, 2, x),
    "construct_cp3 c": lambda x: construct_cp3(x, 2),
    "construct_cp3 k": lambda x: construct_cp3(2, x),
    "construct_two_p4 k": lambda x: construct_two_p4(x),
    "construct_two_s3 k": lambda x: construct_two_s3(x),
    "construct_p5prime k": lambda x: construct_p5prime(x),
    "p3_threshold m": lambda x: p3_threshold(x),
    "level_partition root": lambda x: level_partition(path(4), x),
    "shift_labeling t": lambda x: shift_labeling(P6, x),
    "labeling_to_certificate k": lambda x: labeling_to_certificate(P6, x),
    "build_graph n": lambda x: build_graph(x, [(0, 1)]),
    "build_graph u": lambda x: build_graph(4, [(0, 1), (x, 3)]),
    "build_graph v": lambda x: build_graph(4, [(2, x), (0, 1)]),
    "build_graph iterator v": lambda x: build_graph(4, iter([(0, 1), (2, x)])),
    "Graph n": lambda x: Graph(x, ((0, 1),)),
    "Graph u": lambda x: Graph(4, ((0, 1), (x, 3))),
    "Graph v": lambda x: Graph(4, ((0, x),)),
    "canonical_edge u": lambda x: canonical_edge(x, 3),
    "canonical_edge v": lambda x: canonical_edge(3, x),
    "EdgeLabeling label": lambda x: EdgeLabeling(P6.graph, (x,) + P6.labels[1:]),
    "EdgeLabeling base": lambda x: EdgeLabeling(P6.graph, P6.labels, x),
    "EdgeLabeling._replace labels": lambda x: P6._replace(labels=P6.labels[:-1] + (x,)),
    "verify_shifted k": lambda x: verify_shifted(P6, x),
    "check_certificate n": lambda x: check_certificate({**P6_DOC, "n": x}),
    "certificate_to_labeling k": lambda x: certificate_to_labeling({**P6_DOC, "k": x}),
    "decide k": lambda x: decide(P4, x),
    "decide budget": lambda x: decide(P4, 0, x),
    "search_sdds budget": lambda x: search_sdds(P4, x),
    "search_strong budget": lambda x: search_strong(P4, x),
    "finite_window budget": lambda x: finite_window(P4, x),
    "labeling_at k": lambda x: labeling_at(P4, x),
    "labeling_at budget": lambda x: labeling_at(P4, 0, x),
    "labeling_at family n": lambda x: labeling_at(P4, 0, family=("path", {"n": x})),
    "spectrum budget": lambda x: spectrum(P4, budget=x),
    "spectrum window lo": lambda x: spectrum(P4, (x, 0)),
    "spectrum window hi": lambda x: spectrum(P4, (-1, x)),
    "closed_form_spectrum n": lambda x: closed_form_spectrum("path", n=x),
    "closed_form_spectrum a": lambda x: closed_form_spectrum("double_star", a=x, b=2),
    "closed_form_spectrum b": lambda x: closed_form_spectrum("double_star", a=2, b=x),
    "closed_form_spectrum c": lambda x: closed_form_spectrum("cp3", c=x),
}

# the public names that take no int a caller could get wrong: constants, the
# error base, the fixed graphs, functions of a graph, a labeling or text only,
# and the records the toolkit returns but never reads back from a caller
TAKES_NO_INT = (
    "ALL_SHIFTS",
    "AllShifts",
    "AntimagicError",
    "SpectrumReport",
    "Verdict",
    "WindowResult",
    "components",
    "construct_forest_sdds",
    "construct_odd_degree",
    "cube",
    "is_sdds",
    "is_strongly_antimagic",
    "negate_labeling",
    "p5prime",
    "parse_edge_list",
    "petersen",
    "sdds_shift_threshold",
    "two_p4",
    "two_s3",
    "vertex_sums",
)


def test_every_public_name_that_takes_an_int_is_in_the_contract():
    covered = {name.split()[0].split(".")[0] for name in CALLS}
    assert set(antimagic.__all__) - covered == set(TAKES_NO_INT)


@settings(max_examples=600)
@given(st.sampled_from(sorted(CALLS)), NOT_INTS)
# canonical_edge once raised a bare TypeError here, and the labelings were accepted
@example("canonical_edge u", None)
@example("EdgeLabeling label", None)
@example("EdgeLabeling label", "a")
def test_a_value_that_is_not_an_int_raises_an_antimagic_error(name, value):
    assume(value is not None or name not in NONE_IS_DEFAULT)
    with pytest.raises(AntimagicError):
        CALLS[name](value)
