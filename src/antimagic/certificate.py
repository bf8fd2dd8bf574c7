"""Self-contained JSON certificates for shifted labelings.

A certificate records the graph, the claimed shift, and the labels in
canonical edge order, plus derived fields (vertex sums and a validity
flag) so humans can eyeball it. Checking trusts nothing derived: sums
and validity are recomputed from the labels, and stored derived fields
that disagree make the certificate invalid.
"""

from __future__ import annotations

from itertools import chain

from .errors import CertificateError, InvalidGraph, require_int
from .graph import Graph, _canonical_edges
from .labeling import EdgeLabeling, Verdict, _plain_ints, _shifted_verdict, vertex_sums


def labeling_to_certificate(f: EdgeLabeling, k: int | None = None) -> dict:
    """Serialize a labeling as a JSON-ready certificate document."""
    if k is None:
        k = f.base
    if k is None:
        raise CertificateError("labeling has no recorded shift; pass k explicitly")
    require_int("shift", k)
    sums = list(vertex_sums(f))
    return {
        "n": f.graph.n,
        "edges": list(map(list, f.graph.edges)),
        "k": k,
        "labels": list(f.labels),
        "vertex_sums": sums,
        "valid": bool(_shifted_verdict(f, k, sums)),
    }


def _int_pairs(edges: list) -> bool:
    """True when every edge is a list of two ints."""
    pairs = set(map(type, edges)) <= {list} and set(map(len, edges)) <= {2}
    return pairs and _plain_ints(chain.from_iterable(edges))


def _expect_int(doc: dict, key: str) -> int:
    value = doc.get(key)
    if type(value) is not int:
        raise CertificateError(f"field {key!r} must be an integer")
    return value


def certificate_to_labeling(doc: object) -> tuple[EdgeLabeling, int]:
    """Rebuild the labeling a certificate describes.

    Labels are matched to the edges positionally as written in the
    document, then realigned to canonical order. Raises CertificateError
    on any structural problem.

    Edges written as the toolkit writes them, each [u, v] with
    0 <= u < v < n and strictly ascending, make a Graph as they stand,
    whose format check covers their ints; any other list goes through the
    full validation. Faults are named edges first, then labels, count, graph.
    """
    if not isinstance(doc, dict):
        raise CertificateError("certificate must be a JSON object")
    n = _expect_int(doc, "n")
    k = _expect_int(doc, "k")
    edges = doc.get("edges")
    labels = doc.get("labels")
    g = None
    if isinstance(edges, list) and set(map(type, edges)) <= {list}:
        try:
            g = Graph(n, tuple(map(tuple, edges)))
        except InvalidGraph:
            pass
    if g is None and not (isinstance(edges, list) and _int_pairs(edges)):
        raise CertificateError("field 'edges' must be a list of [u, v] pairs")
    if not isinstance(labels, list) or not _plain_ints(labels):
        raise CertificateError("field 'labels' must be a list of integers")
    if len(labels) != len(edges):
        raise CertificateError(f"{len(labels)} labels for {len(edges)} edges")
    if g is None:
        try:
            canon = _canonical_edges(n, edges)
        except InvalidGraph as exc:
            raise CertificateError(f"bad graph in certificate: {exc}") from exc
        # one sort puts the edges in canonical order, and their labels with them
        order = sorted(range(len(canon)), key=canon.__getitem__)
        g = Graph(n, tuple(map(canon.__getitem__, order)))
        labels = tuple(map(labels.__getitem__, order))
    return EdgeLabeling(g, tuple(labels), base=k), k


def check_certificate(doc: object) -> tuple[Verdict, EdgeLabeling, int]:
    """Re-derive everything a certificate claims and judge it.

    The verdict covers both the labeling itself and the consistency of
    the stored derived fields (when present).
    """
    return _check_certificate(doc)[:3]


def _check_certificate(
    doc: object,
) -> tuple[Verdict, EdgeLabeling, int, list[int] | None]:
    """check_certificate's result, plus every vertex sum when n <= 2m+1.

    One pass computes the sums, for the verdict and for the stored sums
    alike. Past n = 2m+1 two vertices are isolated and the certificate is
    invalid whatever its labels: the sums are None, and the verdict sums
    only the vertices it needs.
    """
    f, k = certificate_to_labeling(doc)
    sums = list(vertex_sums(f)) if f.graph.n <= 2 * f.graph.m + 1 else None
    verdict = _shifted_verdict(f, k, sums)
    assert isinstance(doc, dict)  # certificate_to_labeling guarantees it
    stored_sums = doc.get("vertex_sums")
    if stored_sums is not None:
        if not isinstance(stored_sums, list) or not _plain_ints(stored_sums):
            raise CertificateError("field 'vertex_sums' must be a list of integers")
        # an accepted verdict implies n <= 2m+1, so the sums are at hand
        if verdict and sums != stored_sums:
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
    return verdict, f, k, sums
