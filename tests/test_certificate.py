"""JSON certificate serialization and independent re-checking."""

from __future__ import annotations

import json
import random
from enum import IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antimagic.certificate import (
    certificate_to_labeling,
    check_certificate,
    labeling_to_certificate,
)
from antimagic.constructors import construct_path_shifted
from antimagic.errors import AntimagicError, CertificateError, InvalidLabeling
from antimagic.families import path
from antimagic.graph import canonical_edge
from antimagic.labeling import (
    EdgeLabeling,
    Verdict,
    is_sdds,
    is_strongly_antimagic,
    verify_shifted,
)
from conftest import random_graph
from test_graph import outcome, seed_build_graph


def sample_doc():
    return labeling_to_certificate(construct_path_shifted(8, -3))


@pytest.mark.parametrize("doc", [[], "x", 3, None])
def test_check_certificate_refuses_a_document_that_is_not_an_object(doc):
    with pytest.raises(CertificateError, match="^certificate must be a JSON object$"):
        check_certificate(doc)


def test_round_trip_preserves_labels_and_shift():
    doc = sample_doc()
    assert doc["k"] == -3
    assert doc["valid"] is True
    assert doc["vertex_sums"] == [-1, -3, -2, 1, 4, 7, 6, 2]
    f, k = certificate_to_labeling(doc)
    assert k == -3
    expected = construct_path_shifted(8, -3)
    assert (f.graph, f.labels) == (expected.graph, expected.labels)


def test_round_trip_survives_json_text():
    doc = json.loads(json.dumps(sample_doc()))
    verdict, f, k = check_certificate(doc)
    assert verdict and k == -3 and f.graph.n == 8


def test_certificate_needs_some_shift():
    f = EdgeLabeling(path(3), (1, 2))
    doc = labeling_to_certificate(f, k=0)
    assert doc["k"] == 0
    with pytest.raises(CertificateError):
        labeling_to_certificate(f)


def test_edge_order_in_document_does_not_matter():
    doc = sample_doc()
    doc["edges"] = doc["edges"][::-1]
    doc["labels"] = doc["labels"][::-1]
    verdict, _, _ = check_certificate(doc)
    assert verdict


def test_tampered_labels_are_rejected():
    doc = sample_doc()
    doc["labels"][0] = doc["labels"][1]
    verdict, _, _ = check_certificate(doc)
    assert not verdict and verdict.code == "duplicate-label"


def test_tampered_sums_are_rejected():
    doc = sample_doc()
    doc["vertex_sums"][2] += 1
    verdict, _, _ = check_certificate(doc)
    assert not verdict and verdict.code == "vertex-sums-mismatch"


def test_false_validity_flag_is_rejected():
    doc = sample_doc()
    doc["valid"] = False
    verdict, _, _ = check_certificate(doc)
    assert not verdict and verdict.code == "validity-flag-mismatch"


def test_malformed_documents_raise():
    for doc in (
        {"n": 3},
        {"n": 3, "edges": [[0, 1]], "k": "x", "labels": [1]},
        {"n": 3, "edges": [[0, 1]], "k": 0, "labels": [1, 2]},
        {"n": 3, "edges": [[0, 1, 2]], "k": 0, "labels": [1]},
        {"n": "3", "edges": [[0, 1]], "k": 0, "labels": [1]},
        {"n": 3, "edges": [[0, 5]], "k": 0, "labels": [1]},
        {"n": 3, "edges": [[0, 1]], "k": 0, "labels": [True]},
    ):
        with pytest.raises(CertificateError):
            certificate_to_labeling(doc)


@pytest.mark.parametrize(
    ("edges", "labels", "witness"),
    [([], [], (0, 1, 0)), ([[0, 1]], [1], (0, 1, 1)), ([[5, 10**8 - 1]], [1], (0, 1, 0))],
)
def test_huge_vertex_count_is_rejected_from_the_edges(
    edges, labels, witness, forbid_sums_past_prefix
):
    # 10**8 vertices and at most two edge ends: two isolated vertices among
    # the first few already collide, and no sum past them is computed
    doc = {"n": 10**8, "edges": edges, "k": 0, "labels": labels}
    verdict, _, _ = check_certificate(doc)
    assert verdict.code == "vertex-sum-collision"
    assert verdict.witness == witness


# --- the one-pass checks against verbatim copies of the code they replaced --
# (only their exception classes renamed to the ones that replaced them, and
# the edge -> label mapping read off in canonical edge order)


def seed_leading_sums(f, count):
    sums = [0] * count
    for (u, v), lab in zip(f.graph.edges, f.labels):
        if u < count:
            sums[u] += lab
        if v < count:
            sums[v] += lab
    return sums


def seed_vertex_sums(f):
    return tuple(seed_leading_sums(f, f.graph.n))


def seed_verify_shifted(f, k):
    g = f.graph
    seen = {}
    for i, lab in enumerate(f.labels):
        if lab in seen:
            first = g.edges[seen[lab]]
            return Verdict.reject(
                "duplicate-label",
                (first, g.edges[i], lab),
                f"label {lab} used on both {first} and {g.edges[i]}",
            )
        seen[lab] = i
    lo, hi = k + 1, k + g.m
    for i, lab in enumerate(f.labels):
        if not (lo <= lab <= hi):
            return Verdict.reject(
                "label-out-of-range",
                (g.edges[i], lab),
                f"label {lab} on {g.edges[i]} outside [{lo}, {hi}]",
            )
    sums = seed_leading_sums(f, min(g.n, 2 * g.m + 2))
    first_with = {}
    for v, s in enumerate(sums):
        if s in first_with:
            u = first_with[s]
            return Verdict.reject(
                "vertex-sum-collision",
                (u, v, s),
                f"vertices {u} and {v} both sum to {s}",
            )
        first_with[s] = v
    return Verdict.accept()


def seed_is_sdds(f):
    if sorted(f.labels) != list(range(1, f.graph.m + 1)):
        raise InvalidLabeling(
            f"labels must be a permutation of 1..{f.graph.m}, got {sorted(f.labels)}"
        )
    sums = seed_vertex_sums(f)
    deg = f.graph.degrees()
    first_with = {}
    for v, s in enumerate(sums):
        key = (deg[v], s)
        if key in first_with:
            u = first_with[key]
            return Verdict.reject(
                "same-degree-sum-collision",
                (u, v, s),
                f"degree-{deg[v]} vertices {u} and {v} both sum to {s}",
            )
        first_with[key] = v
    return Verdict.accept()


def seed_labeling_to_certificate(f, k=None):
    if k is None:
        k = f.base
    if k is None:
        raise CertificateError("labeling has no recorded shift; pass k explicitly")
    return {
        "n": f.graph.n,
        "edges": [list(e) for e in f.graph.edges],
        "k": k,
        "labels": list(f.labels),
        "vertex_sums": list(seed_vertex_sums(f)),
        "valid": bool(seed_verify_shifted(f, k)),
    }


def _plain_int(value):
    # exact ints only: a bool, a float or an int subclass is not one
    return type(value) is int


def _expect_int(doc, key):
    value = doc.get(key)
    if not _plain_int(value):
        raise CertificateError(f"field {key!r} must be an integer")
    return value


def seed_certificate_to_labeling(doc):
    if not isinstance(doc, dict):
        raise CertificateError("certificate must be a JSON object")
    n = _expect_int(doc, "n")
    k = _expect_int(doc, "k")
    edges = doc.get("edges")
    labels = doc.get("labels")
    if not isinstance(edges, list) or not all(
        isinstance(e, list) and len(e) == 2 and all(_plain_int(x) for x in e)
        for e in edges
    ):
        raise CertificateError("field 'edges' must be a list of [u, v] pairs")
    if not isinstance(labels, list) or not all(_plain_int(x) for x in labels):
        raise CertificateError("field 'labels' must be a list of integers")
    if len(labels) != len(edges):
        raise CertificateError(f"{len(labels)} labels for {len(edges)} edges")
    try:
        g = seed_build_graph(n, [tuple(e) for e in edges])
        mapping = {canonical_edge(u, v): lab for (u, v), lab in zip(edges, labels)}
        f = EdgeLabeling(g, tuple(mapping[e] for e in g.edges), base=k)
    except CertificateError:
        raise
    except AntimagicError as exc:
        raise CertificateError(f"bad graph in certificate: {exc}") from exc
    return f, k


def seed_check_certificate(doc):
    f, k = seed_certificate_to_labeling(doc)
    verdict = seed_verify_shifted(f, k)
    stored_sums = doc.get("vertex_sums")
    if stored_sums is not None:
        if not isinstance(stored_sums, list) or not all(
            _plain_int(x) for x in stored_sums
        ):
            raise CertificateError("field 'vertex_sums' must be a list of integers")
        if verdict and list(seed_vertex_sums(f)) != stored_sums:
            verdict = Verdict.reject(
                "vertex-sums-mismatch",
                tuple(stored_sums),
                "stored vertex sums disagree with the labels",
            )
    stored_valid = doc.get("valid")
    if stored_valid is not None:
        if not isinstance(stored_valid, bool):
            raise CertificateError("field 'valid' must be a boolean")
        if verdict and not stored_valid:
            verdict = Verdict.reject(
                "validity-flag-mismatch",
                (),
                "certificate marked invalid but the labels check out",
            )
    return verdict, f, k


class Label(IntEnum):
    THREE = 3


def judged(check, doc):
    """What a checker makes of a document, in comparable form."""
    result = outcome(check, doc)
    if result[0] != "ok":
        return result
    verdict, f, k = result[1]
    return verdict, f.graph.n, f.graph.edges, f.labels, f.base, k


@st.composite
def labelings(draw):
    """A labeling onto k+1..k+m of a small random graph (isolated vertices
    allowed), maybe with labels repeated or moved out of range."""
    n = draw(st.integers(1, 9))
    m = draw(st.integers(0, n * (n - 1) // 2))
    g = random_graph(random.Random(draw(st.integers(0, 2**32 - 1))), n, m)
    k = draw(st.integers(-12, 4))
    labels = draw(st.permutations(list(range(k + 1, k + m + 1))))
    if labels and draw(st.booleans()):
        i = draw(st.integers(0, m - 1))
        labels[i] = draw(st.integers(k - 2, k + m + 2))
    return EdgeLabeling(g, tuple(labels), base=k), k


TAMPERINGS = (
    "none", "shuffle", "swap", "bool", "float", "intenum", "triple",
    "bool-end", "float-end", "intenum-end",
    "reverse", "repeat-edge", "out-of-range", "sums", "short-sums",
    "sums-bool", "no-sums", "valid-false", "valid-int", "huge-n",
)


@settings(max_examples=400)
@given(labelings(), st.sampled_from(TAMPERINGS), st.randoms(use_true_random=False))
def test_checks_match_the_code_they_replaced(case, tampering, rng):
    f, k = case
    assert verify_shifted(f, k) == seed_verify_shifted(f, k)
    doc = labeling_to_certificate(f, k)
    assert doc == seed_labeling_to_certificate(f, k)
    m = len(doc["edges"])
    if tampering == "shuffle":
        order = list(range(m))
        rng.shuffle(order)
        doc["edges"] = [doc["edges"][i] for i in order]
        doc["labels"] = [doc["labels"][i] for i in order]
    elif tampering == "swap" and m >= 2:
        i, j = rng.sample(range(m), 2)
        doc["labels"][i], doc["labels"][j] = doc["labels"][j], doc["labels"][i]
    elif tampering in ("bool", "float", "intenum") and m:
        odd = {"bool": True, "float": 1.0, "intenum": Label.THREE}[tampering]
        doc["labels"][rng.randrange(m)] = odd
    elif tampering in ("bool-end", "float-end", "intenum-end") and m:
        edge = doc["edges"][rng.randrange(m)]
        odd = {"bool-end": bool(edge[1]), "float-end": float(edge[1]), "intenum-end": Label.THREE}
        edge[1] = odd[tampering]
    elif tampering == "triple" and m:
        doc["edges"][rng.randrange(m)].append(0)
    elif tampering == "reverse" and m:
        i = rng.randrange(m)
        doc["edges"][i] = doc["edges"][i][::-1]
    elif tampering == "repeat-edge" and m >= 2:
        i, j = rng.sample(range(m), 2)
        doc["edges"][j] = doc["edges"][i][::-1] if rng.random() < 0.5 else list(doc["edges"][i])
    elif tampering == "out-of-range" and m:
        doc["edges"][rng.randrange(m)][rng.randrange(2)] = rng.choice([-1, doc["n"]])
    elif tampering == "sums" and doc["n"]:
        doc["vertex_sums"][rng.randrange(doc["n"])] += rng.choice([-1, 1])
    elif tampering == "short-sums":
        doc["vertex_sums"].pop()
    elif tampering == "sums-bool" and doc["n"]:
        doc["vertex_sums"][rng.randrange(doc["n"])] = False
    elif tampering == "no-sums":
        del doc["vertex_sums"]
    elif tampering == "valid-false":
        doc["valid"] = False
    elif tampering == "valid-int":
        doc["valid"] = 1
    elif tampering == "huge-n":
        doc["n"] = 10**8
        del doc["vertex_sums"]
    assert judged(check_certificate, doc) == judged(seed_check_certificate, doc)
    # the witness compares equal either way; its repr must match too
    assert repr(judged(check_certificate, doc)) == repr(judged(seed_check_certificate, doc))


def seed_require_one_to_m(f):
    if sorted(f.labels) != list(range(1, f.graph.m + 1)):
        raise InvalidLabeling(
            f"labels must be a permutation of 1..{f.graph.m}, got {sorted(f.labels)}"
        )


def seed_is_strongly_antimagic(f):
    seed_require_one_to_m(f)
    return is_strongly_antimagic(f)


ONE_TO_M_TAMPERINGS = (
    "none", "bool", "float", "intenum", "zero", "duplicate", "past-m",
    "list", "all-lists", "all-floats",
)
NOT_INT_TAMPERINGS = ("bool", "float", "intenum", "list", "all-lists", "all-floats")


def tamper_one_to_m(labels, tampering):
    m = len(labels)
    if not labels or tampering == "none":
        return labels
    if tampering == "all-lists":
        return [[lab] for lab in labels]
    if tampering == "all-floats":
        return [float(lab) for lab in labels]
    labels[0] = {
        "bool": True,
        "float": float(labels[0]),
        "intenum": Label.THREE,
        "zero": 0,
        "duplicate": labels[-1],
        "past-m": m + 1,
        "list": [labels[0]],
    }[tampering]
    return labels


@settings(max_examples=300)
@given(labelings(), st.sampled_from(ONE_TO_M_TAMPERINGS))
def test_is_sdds_matches_the_code_it_replaced(case, tampering):
    f, k = case
    labels = tamper_one_to_m([lab - k for lab in f.labels], tampering)
    if labels and tampering in NOT_INT_TAMPERINGS:
        # a label that is not an int never reaches the predicates
        with pytest.raises(InvalidLabeling, match="^label .* on edge .* is not an int$"):
            EdgeLabeling(f.graph, tuple(labels))
        return
    g = EdgeLabeling(f.graph, tuple(labels))
    assert repr(outcome(is_sdds, g)) == repr(outcome(seed_is_sdds, g))
    assert repr(outcome(is_strongly_antimagic, g)) == repr(
        outcome(seed_is_strongly_antimagic, g)
    )
