"""Command-line front end.

Subcommands: construct (build a k-shifted labeling), verify (re-check a
certificate), decide (exhaustive small-graph search), spectrum (sweep a
shift range), threshold-p3 (component count that absorbs a given edge
budget). JSON goes to stdout, a one-line human summary to stderr.

Exit codes: 0 for success/feasible/valid, 2 for infeasible/invalid,
1 for usage, input, or budget problems.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii

from .certificate import _check_certificate, labeling_to_certificate
from .constructors import ALL_SHIFTS, FAMILIES, SHORTHANDS, p3_threshold
from .errors import AntimagicError, BadParameters, CertificateError
from .graph import Graph, parse_edge_list
from .spectrum import DEFAULT_BUDGET, decide, labeling_at, spectrum

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_REJECT = 2

_SHORTHAND_HELP = ", ".join(f"{short}N ({name})" for short, name in SHORTHANDS.items())
_FAMILY_HELP = f"{', '.join(FAMILIES)}; shorthands {_SHORTHAND_HELP}"


class _Parser(argparse.ArgumentParser):
    """Parser whose usage errors exit with status 1 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _emit(doc: dict, out: str | None) -> None:
    """Write `json.dumps(doc, indent=2, sort_keys=True)` and a newline to
    stdout or to the file `out`, piece by piece."""
    if out is None:
        _write_json(doc, sys.stdout)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            _write_json(doc, fh)


def _write_json(doc: dict, fh) -> None:
    fh.writelines(_json_pieces(doc, "\n"))
    fh.write("\n")


def _json_pieces(value: object, nl: str):
    """The text of `json.dumps(value, indent=2, sort_keys=True)`, nested
    where `nl` (a newline and the indentation) starts each line, in pieces.

    A list of plain ints or of [u, v] plain-int pairs, the bulk of a
    certificate, becomes one string per element joined once. Dicts with
    str keys and other lists are walked; a str, a plain int, a bool and
    None are written directly; anything else (a float, a tuple, a dict
    with a non-str key) is left to json.dumps, whose text has no raw
    newline but those between its lines.
    """
    kind = type(value)
    if kind is str:
        yield encode_basestring_ascii(value)
    elif kind is int:
        yield int.__repr__(value)
    elif value is None:
        yield "null"
    elif kind is bool:
        yield "true" if value else "false"
    elif kind is dict and set(map(type, value)) <= {str}:
        if not value:
            yield "{}"
            return
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(value):
            yield sep + encode_basestring_ascii(key) + ": "
            yield from _json_pieces(value[key], inner)
            sep = "," + inner
        yield nl + "}"
    elif kind is list:
        if not value:
            yield "[]"
            return
        inner = nl + "  "
        kinds = set(map(type, value))
        if kinds == {int}:
            yield "[" + inner
            yield ("," + inner).join(map(int.__repr__, value))
        elif (
            kinds == {list}
            and set(map(len, value)) == {2}
            and set(map(type, chain.from_iterable(value))) == {int}
        ):
            deeper = inner + "  "
            yield "[" + inner
            yield ("," + inner).join([f"[{deeper}{u},{deeper}{v}{inner}]" for u, v in value])
        else:
            sep = "[" + inner
            for item in value:
                yield sep
                yield from _json_pieces(item, inner)
                sep = "," + inner
        yield nl + "]"
    else:
        yield json.dumps(value, indent=2, sort_keys=True).replace("\n", nl)


def _build_family(args: argparse.Namespace) -> tuple[Graph, tuple[str, dict]]:
    """Resolve --family into a graph plus its registry name and parameters."""
    name = args.family.strip().lower().replace("-", "_")
    short = re.fullmatch(r"(\D+)(\d+)", name)
    if short and short.group(1) in SHORTHANDS:
        name = SHORTHANDS[short.group(1)]
        params = dict.fromkeys(FAMILIES[name].params, int(short.group(2)))
    elif name in FAMILIES:
        params = {key: getattr(args, key, None) for key in FAMILIES[name].params}
        for key, value in params.items():
            if value is None:
                raise BadParameters(f"family {name!r} needs --{key}")
    else:
        raise BadParameters(f"unknown family {args.family!r}")
    return FAMILIES[name].build(**params), (name, params)


def _load_graph(args: argparse.Namespace) -> tuple[Graph, tuple[str, dict] | None]:
    if getattr(args, "graph", None):
        return parse_edge_list(_read_text(args.graph)), None
    return _build_family(args)


def _cmd_construct(args: argparse.Namespace) -> int:
    g, desc = _load_graph(args)
    f = labeling_at(g, args.k, args.budget, desc)
    if f is None:
        _emit({"feasible": False, "k": args.k, "n": g.n, "m": g.m}, args.out)
        print(f"infeasible: no {args.k}-shifted labeling exists", file=sys.stderr)
        return EXIT_REJECT
    doc = labeling_to_certificate(f, args.k)
    if not doc["valid"]:
        raise AntimagicError(
            "internal error: constructed labeling failed verification"
        )
    m = g.m
    del g, f  # the document holds every edge again: free the graph before the emit
    _emit(doc, args.out)
    print(f"feasible: labels {args.k + 1}..{args.k + m} placed on {m} edges", file=sys.stderr)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        doc = json.loads(_read_text(args.certificate))
    except json.JSONDecodeError as exc:
        raise CertificateError(f"certificate is not valid JSON: {exc}") from exc
    # the sums are None past n = 2m+1, where two vertices are isolated
    verdict, f, k, sums = _check_certificate(doc)
    out = {
        "valid": bool(verdict),
        "k": k,
        "n": f.graph.n,
        "m": f.graph.m,
        "vertex_sums": sums,
        "code": verdict.code,
        "witness": list(verdict.witness) if verdict.witness is not None else None,
        "detail": verdict.detail,
    }
    _emit(out, args.out)
    if verdict:
        print(f"valid certificate (n={f.graph.n}, m={f.graph.m}, k={k})", file=sys.stderr)
        return EXIT_OK
    print(f"invalid certificate: {verdict.code}: {verdict.detail}", file=sys.stderr)
    return EXIT_REJECT


def _cmd_decide(args: argparse.Namespace) -> int:
    g, _ = _load_graph(args)
    f = decide(g, args.k, args.budget)
    if f is None:
        _emit({"feasible": False, "k": args.k, "n": g.n, "m": g.m}, args.out)
        print(f"infeasible: exhaustive search rules out k={args.k}", file=sys.stderr)
        return EXIT_REJECT
    _emit(labeling_to_certificate(f, args.k), args.out)
    print(f"feasible: found a {args.k}-shifted labeling", file=sys.stderr)
    return EXIT_OK


def _parse_window(text: str) -> tuple[int, int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise BadParameters(f"window must look like LO:HI, got {text!r}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise BadParameters(f"window bounds must be integers, got {text!r}") from exc
    return lo, hi


def _cmd_spectrum(args: argparse.Namespace) -> int:
    g, desc = _load_graph(args)
    override = _parse_window(args.window) if args.window else None
    report = spectrum(g, window=override, budget=args.budget, family=desc)
    _emit(report.to_dict(), args.out)
    if report.excluded == ALL_SHIFTS:
        print("every shift is infeasible for this graph", file=sys.stderr)
        return EXIT_OK
    window_note = (
        "no provable window"
        if report.window is None
        else f"window [{report.window.lo}, {report.window.hi}] via {report.window.method}"
    )
    print(
        f"{window_note}; swept {report.sweep_lo}..{report.sweep_hi}; "
        f"excluded shifts: {list(report.excluded)}",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_threshold(args: argparse.Namespace) -> int:
    value = p3_threshold(args.edges)
    _emit({"edges": args.edges, "threshold": value}, args.out)
    print(
        f"unions with at least {value} three-vertex paths absorb {args.edges} edges",
        file=sys.stderr,
    )
    return EXIT_OK


def _add_graph_arguments(p: argparse.ArgumentParser) -> None:
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--graph", metavar="PATH", help="edge-list file, or - for stdin")
    source.add_argument("--family", metavar="NAME", help=_FAMILY_HELP)
    p.add_argument("--n", type=int, help="vertex or leaf count for --family")
    p.add_argument("--a", type=int, help="first size parameter for --family")
    p.add_argument("--b", type=int, help="second size parameter for --family")
    p.add_argument("--c", type=int, help="component count for cp3")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process and shared by every `main` call.

    Parsing leaves it unchanged, and the handlers it names look up the
    toolkit's functions as module globals when they run.
    """
    parser = _Parser(
        prog="antimagic",
        description="Construct, verify, and decide shifted-antimagic labelings.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    c = sub.add_parser("construct", help="build a k-shifted labeling")
    _add_graph_arguments(c)
    c.add_argument("--k", type=int, required=True, help="shift to construct for")
    c.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    c.add_argument("--out", metavar="PATH", help="write JSON here instead of stdout")
    c.set_defaults(handler=_cmd_construct)

    v = sub.add_parser("verify", help="re-check a certificate file")
    v.add_argument("certificate", help="certificate JSON path, or - for stdin")
    v.add_argument("--out", metavar="PATH")
    v.set_defaults(handler=_cmd_verify)

    d = sub.add_parser("decide", help="exhaustively decide one shift")
    _add_graph_arguments(d)
    d.add_argument("--k", type=int, required=True, help="shift to decide")
    d.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    d.add_argument("--out", metavar="PATH")
    d.set_defaults(handler=_cmd_decide)

    s = sub.add_parser("spectrum", help="sweep shifts and report feasibility")
    _add_graph_arguments(s)
    s.add_argument(
        "--window",
        metavar="LO:HI",
        help="override the swept range (write --window=LO:HI for negatives)",
    )
    s.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    s.add_argument("--out", metavar="PATH")
    s.set_defaults(handler=_cmd_spectrum)

    t = sub.add_parser(
        "threshold-p3",
        help="three-vertex-path count that makes any union absolutely antimagic",
    )
    t.add_argument("--edges", type=int, required=True, help="edge count of the base graph")
    t.add_argument("--out", metavar="PATH")
    t.set_defaults(handler=_cmd_threshold)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except AntimagicError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
