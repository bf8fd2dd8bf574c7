"""JSON certificate serialization and independent re-checking."""

from __future__ import annotations

import json

import pytest

from antimagic.certificate import (
    certificate_to_labeling,
    check_certificate,
    labeling_to_certificate,
)
from antimagic.constructors import construct_path_shifted
from antimagic.errors import CertificateError
from antimagic.families import path
from antimagic.labeling import EdgeLabeling


def sample_doc():
    return labeling_to_certificate(construct_path_shifted(8, -3))


def test_round_trip_preserves_labels_and_shift():
    doc = sample_doc()
    assert doc["k"] == -3
    assert doc["valid"] is True
    assert doc["vertex_sums"] == [-1, -3, -2, 1, 4, 7, 6, 2]
    f, k = certificate_to_labeling(doc)
    assert k == -3
    assert f.as_dict() == construct_path_shifted(8, -3).as_dict()


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
def test_huge_vertex_count_is_rejected_from_the_edges(edges, labels, witness):
    # 10**8 vertices and at most two edge ends: two isolated vertices among
    # the first few already collide, and no sum past them is computed
    doc = {"n": 10**8, "edges": edges, "k": 0, "labels": labels}
    verdict, _, _ = check_certificate(doc)
    assert verdict.code == "vertex-sum-collision"
    assert verdict.witness == witness
