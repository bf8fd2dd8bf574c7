"""Exception types raised across the toolkit, one per kind of bad input.

Everything derives from AntimagicError so callers can catch toolkit
failures with a single except clause. Infeasibility of a labeling
problem is never an exception; constructors return None and the
spectrum engine records a verdict instead. `require_int` is the one
check that a shift, budget, window bound, root, family size or count,
or family parameter is an int.
"""

import reprlib


class AntimagicError(Exception):
    """Base class for all toolkit errors."""


class InvalidGraph(AntimagicError):
    """An edge list is not a simple graph on vertices 0..n-1: a loop, a
    repeated vertex pair, an edge that is not a pair, a vertex count or
    endpoint that is not an int or is out of range, edges that are not
    iterable, or edges handed to `Graph` that are not a tuple."""


class ParseError(AntimagicError):
    """Malformed edge-list text, the message naming the offending line, or
    an edge list that is not a str."""


class CertificateError(AntimagicError):
    """A labeling certificate file is malformed."""


class BadParameters(AntimagicError):
    """A parameter is out of range or not an int: a family size, a shift
    below a construction's threshold, a budget, a window, a root, or a
    graph with no vertices or edges where the operation needs some."""


class InvalidLabeling(AntimagicError):
    """A labeling does not fit its use: labels missing or miscounted, not
    ints or not a sequence, or not a permutation of 1..m."""


class WrongGraphClass(AntimagicError):
    """A construction was given a graph outside its class: a cycle where a
    tree (or, in `construct_sdds`, an all-odd component) is needed, a
    single-edge component, isolated vertices (`construct_sdds` allows one),
    or an even degree where every degree must be odd."""


class InvalidTrails(AntimagicError):
    """A sigma choice, trail decomposition or trail label block breaks the
    structure the odd-degree construction relies on."""


class BudgetExceeded(AntimagicError):
    """Graph is too large for exhaustive search under the given budget."""


class NoSddsFound(AntimagicError):
    """No labeling with distinct same-degree sums could be established."""


def require_int(what: str, value: object) -> None:
    """Raise BadParameters unless `value` is a plain int (a bool is not)."""
    if type(value) is not int:
        raise BadParameters(f"{what} must be an int, got {reprlib.repr(value)}")
