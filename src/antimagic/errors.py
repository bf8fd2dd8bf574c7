"""Exception types raised across the toolkit.

Everything derives from AntimagicError so callers can catch toolkit
failures with a single except clause. Infeasibility of a labeling
problem is never an exception; constructors return None and the
spectrum engine records a verdict instead.
"""


class AntimagicError(Exception):
    """Base class for all toolkit errors."""


# -- graph construction and queries ----------------------------------------

class LoopEdge(AntimagicError):
    """An edge joins a vertex to itself."""


class DuplicateEdge(AntimagicError):
    """The same unordered vertex pair appears twice."""


class EndpointOutOfRange(AntimagicError):
    """An edge endpoint is not a vertex id in [0, n)."""


class RootOutOfRange(AntimagicError):
    """Requested breadth-first root is not a vertex of the graph."""


class LevelOutOfRange(AntimagicError):
    """Requested layer index has no cross block (must be 1..d)."""


class ParseError(AntimagicError):
    """Malformed edge-list text; message names the offending line."""


# -- labelings ---------------------------------------------------------------

class IncompleteLabeling(AntimagicError):
    """A total labeling was required but some edge has no label."""


class UnlabeledIncidentEdge(AntimagicError):
    """A partial vertex sum touched an edge without a label."""


class LabelsNotOneToM(AntimagicError):
    """Operation requires labels to be a permutation of 1..m."""


class EmptyGraph(AntimagicError):
    """Operation is undefined on a graph with no edges."""


class CertificateError(AntimagicError):
    """A labeling certificate file is malformed."""


# -- constructors ------------------------------------------------------------

class NotForest(AntimagicError):
    """Input contains a cycle where a forest was required."""


class HasK2Component(AntimagicError):
    """A single-edge component makes distinct same-degree sums impossible."""


class IsolatedVertices(AntimagicError):
    """Two or more degree-0 vertices both carry the sum 0."""


class EvenDegreeVertex(AntimagicError):
    """Construction requires every vertex degree to be odd."""


class NoValidSigma(AntimagicError):
    """The sigma search was given something other than a cross block."""


class RangeSizeMismatch(AntimagicError):
    """Label range size differs from the number of trail edges."""


class OddWMTrail(AntimagicError):
    """A trail with both endpoints on one side must have even length."""


class PathTooShort(AntimagicError):
    """Path construction needs more vertices than were given."""


class TooFewLeaves(AntimagicError):
    """Star construction needs at least two leaves."""


class BadParameters(AntimagicError):
    """Family parameters are out of the constructible range."""


class KBelowThreshold(AntimagicError):
    """Requested base is below the direct construction threshold."""


# -- spectrum engine ---------------------------------------------------------

class BudgetExceeded(AntimagicError):
    """Graph is too large for exhaustive search under the given budget."""


class NoSddsFound(AntimagicError):
    """No labeling with distinct same-degree sums could be established."""
