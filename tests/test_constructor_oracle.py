"""The family constructors against verbatim copies of the code they replaced.

The constructors below each spelled out their own negation mirror, with
their own test for which side of the axis a shift lies on, and the cp3
mirror lived only in the command line. They now build only the upper
half, 2k >= -(m+1), and `labeling.mirror` negates the rest. On a grid of
sizes and shifts well past both ends of every excluded band, each must
give the very same labeling (or None), or raise the same exception with
the same message.
"""

from __future__ import annotations

import pytest

from antimagic import constructors
from antimagic.constructors import _cp3_pairs, _strong_path_labels, construct_path_strong
from antimagic.errors import BadParameters
from antimagic.families import cp3, double_star, p5prime, path, two_p4, two_s3
from antimagic.graph import Edge
from antimagic.labeling import EdgeLabeling, negate_labeling, shift_labeling
from antimagic.spectrum import decide

# --- verbatim copies of the replaced constructors ----------------------------
# (only their exception classes renamed to the ones that replaced them, and
# their edge -> label mappings read off in canonical edge order)


def construct_path_shifted(n: int, k: int) -> EdgeLabeling:
    """A k-shifted labeling of the path on n >= 6 vertices, any integer k.

    Nonnegative shifts lift the strong labeling. Shifts down to -(n//2)
    either use an explicit pattern (k = -2) or split the path at the
    zero-labeled edge into a negated prefix and a strong suffix. Anything
    lower is the mirror image of one of those.
    """
    if n < 6:
        raise BadParameters(f"the every-shift construction needs n >= 6, got {n}")
    if k >= 0:
        return shift_labeling(construct_path_strong(n), k)
    if k < -(n // 2):
        return negate_labeling(construct_path_shifted(n, -(n + k)))
    if k == -2:
        if n % 2 == 1:
            labels = [-1, 1, 0] + [i - 2 for i in range(4, n)]
        else:
            labels = [0, -1] + [n - i for i in range(3, n)]
        return EdgeLabeling(path(n), tuple(labels), base=-2)
    q = -k
    head = [-lab for lab in _strong_path_labels(q)] if q >= 3 else []
    tail = _strong_path_labels(n - q)
    return EdgeLabeling(path(n), tuple(head + [0] + tail), base=k)


def _deal(labels_desc: list[int], count_a: int, count_b: int) -> tuple[list[int], list[int]]:
    """Alternate labels a, b, a, b, ... with overflow going to side a."""
    a: list[int] = []
    b: list[int] = []
    for lab in labels_desc:
        if len(a) < count_a and (len(a) <= len(b) or len(b) >= count_b):
            a.append(lab)
        else:
            b.append(lab)
    return a, b


def _double_star_plan(
    big: int, small: int, k: int, m: int, pos: int, neg: int
) -> tuple[int, list[int], list[int]] | None:
    """Label values for a double star: (bridge, big-side leaves, small-side).

    Assumes at least as many positive labels as negative ones; the caller
    mirrors the other half of the shift axis. Returns None for the shifts
    the family genuinely misses.
    """
    labels = list(range(k + 1, k + m + 1))
    diff = pos - neg
    if neg == 0:
        desc = labels[::-1]
        a_list, b_list = _deal(desc[1:], big, small)
        return desc[0], a_list, b_list
    if small == 1:
        if diff >= 2:
            rest = sorted(set(labels) - {pos, 0}, reverse=True)
            return pos, rest, [0]
        if diff == 1 and big >= 4:
            rest = sorted(set(labels) - {-(neg - 1), -neg}, reverse=True)
            return -(neg - 1), rest, [-neg]
        return None
    if diff >= 2:
        # cancel the negatives in +j/-j leaf pairs, small side first
        pu = min(neg, small // 2)
        pv = neg - pu
        b_pairs = [x for j in range(1, pu + 1) for x in (j, -j)]
        a_pairs = [x for j in range(pu + 1, neg + 1) for x in (j, -j)]
        rest = list(range(pos, neg, -1)) + [0]
        free_b = small - 2 * pu
        free_a = big - 2 * pv
        if free_b == 0:
            return rest[0], a_pairs + rest[1:], b_pairs
        assert free_a > 0, "pairs cannot exhaust the bigger side at this gap"
        a_extra, b_extra = _deal(rest[1:], free_a, free_b)
        return rest[0], a_pairs + a_extra, b_pairs + b_extra
    if diff == 1:
        pairs = neg - 2
        pu = min((small - 2) // 2, pairs)
        pv = pairs - pu
        b_pairs = [x for j in range(1, pu + 1) for x in (j, -j)]
        a_pairs = [x for j in range(pu + 1, pairs + 1) for x in (j, -j)]
        three = [pos, neg, neg - 1]
        two = [-neg, -(neg - 1)]
        if small - 2 * pu == 2:
            return 0, a_pairs + three, b_pairs + two
        return 0, a_pairs + two, b_pairs + three
    asc = [x for x in labels if x != 0]
    return 0, asc[small:], asc[:small]


def construct_double_star(a: int, b: int, k: int) -> EdgeLabeling | None:
    """k-shifted labeling of the double star with a and b leaves, or None.

    The leaf counts decide everything: with both centers holding two or
    more leaves every shift works; a single-leaf center misses one or two
    shifts near the mirror axis.
    """
    if a < 1 or b < 1:
        raise BadParameters(f"double star needs a, b >= 1, got ({a}, {b})")
    g = double_star(a, b)
    m = a + b + 1
    neg = max(0, min(k + m, -1) - k)
    pos = max(0, k + m) - max(0, k)
    if pos < neg:
        sub = construct_double_star(a, b, -(m + k + 1))
        return None if sub is None else negate_labeling(sub)
    plan = _double_star_plan(max(a, b), min(a, b), k, m, pos, neg)
    if plan is None:
        return None
    bridge, big_leaves, small_leaves = plan
    v_list, u_list = (big_leaves, small_leaves) if a >= b else (small_leaves, big_leaves)
    mapping: dict[Edge, int] = {(0, 1): bridge}
    for i, lab in enumerate(v_list):
        mapping[(0, 2 + i)] = lab
    for i, lab in enumerate(u_list):
        mapping[(1, a + 2 + i)] = lab
    return EdgeLabeling(g, tuple(mapping[e] for e in g.edges), base=k)


def construct_two_p4(k: int) -> EdgeLabeling | None:
    """k-shifted labeling of two disjoint four-vertex paths, or None."""
    if k >= -1:
        labels = (k + 1, k + 5, k + 2, k + 3, k + 6, k + 4)
    elif k == -3:
        labels = (-2, -1, 0, 2, 3, 1)
    elif k in (-2, -5):
        return None
    else:
        return negate_labeling(construct_two_p4(-(k + 7)))
    return EdgeLabeling(two_p4(), labels, base=k)


def construct_two_s3(k: int) -> EdgeLabeling | None:
    """k-shifted labeling of two disjoint three-leaf stars, or None."""
    if k >= -1:
        labels = (k + 1, k + 3, k + 6, k + 2, k + 4, k + 5)
    elif k == -3:
        labels = (-2, -1, 0, 1, 2, 3)
    elif k in (-2, -5):
        return None
    else:
        return negate_labeling(construct_two_s3(-(k + 7)))
    return EdgeLabeling(two_s3(), labels, base=k)


def construct_p5prime(k: int) -> EdgeLabeling | None:
    """k-shifted labeling of the five-vertex path with an extra middle leaf.

    Labels are in canonical edge order: the four path edges interleaved
    with the pendant edge at the middle vertex.
    """
    if k >= 0:
        labels = (k + 2, k + 4, k + 5, k + 1, k + 3)
    elif k == -1:
        labels = (1, 3, 4, 0, 2)
    elif k == -2:
        labels = (3, 2, 1, -1, 0)
    elif k == -3:
        return None
    else:
        return negate_labeling(construct_p5prime(-(k + 6)))
    return EdgeLabeling(p5prime(), labels, base=k)


def construct_cp3(c: int, k: int) -> EdgeLabeling:
    """k-shifted labeling of c disjoint three-vertex paths, for k >= c//2.

    Component i gets one label pair, smaller value on its first edge, so
    endpoint sums are the labels themselves and the center sums form runs
    sitting strictly above them. Shifts below c//2 down to the other end
    of the excluded band are impossible, and anything lower is reached by
    negating this construction; both are the caller's business.
    """
    if c < 1:
        raise BadParameters(f"need at least one component, got {c}")
    if k < c // 2:
        raise BadParameters(f"direct construction needs k >= {c // 2}, got {k}")
    t = k - c // 2
    mapping: dict[Edge, int] = {}
    for i, (small, large) in enumerate(_cp3_pairs(c)):
        mapping[(3 * i, 3 * i + 1)] = small + t
        mapping[(3 * i + 1, 3 * i + 2)] = large + t
    g = cp3(c)
    return EdgeLabeling(g, tuple(mapping[e] for e in g.edges), base=k)


def cli_cp3(c: int, k: int) -> EdgeLabeling | None:
    # the cp3 branch of the command line's construct dispatch
    if k >= c // 2:
        return construct_cp3(c, k)
    if k < -((5 * c) // 2):
        return negate_labeling(construct_cp3(c, -(2 * c + k + 1)))
    return None


# --- the comparison ---------------------------------------------------------


def outcome(construct, *args, **kwargs):
    try:
        f = construct(*args, **kwargs)
    except Exception as exc:  # the same failure must surface both ways
        return type(exc), str(exc)
    return None if f is None else (f.graph, f.labels, f.base)


def shifts(m: int) -> range:
    return range(-3 * m - 3, 3 * m + 4)


@pytest.mark.parametrize("n", range(1, 41))
def test_path_shifted_matches_replaced_code(n):
    for k in shifts(max(n - 1, 0)):
        want = outcome(construct_path_shifted, n, k)
        assert outcome(constructors.construct_path_shifted, n, k) == want, (n, k)


@pytest.mark.parametrize("a", range(0, 9))
def test_double_star_matches_replaced_code(a):
    for b in range(0, 9):
        for k in shifts(a + b + 1):
            want = outcome(construct_double_star, a, b, k)
            assert outcome(constructors.construct_double_star, a, b, k) == want, (a, b, k)


@pytest.mark.parametrize(
    "name, m", [("construct_two_p4", 6), ("construct_two_s3", 6), ("construct_p5prime", 5)]
)
def test_small_unions_match_replaced_code(name, m):
    for k in shifts(m):
        want = outcome(globals()[name], k)
        assert outcome(getattr(constructors, name), k) == want, k


@pytest.mark.parametrize("c", range(0, 9))
def test_cp3_matches_replaced_code(c):
    for k in shifts(2 * c):
        want = outcome(construct_cp3, c, k)
        assert outcome(constructors.construct_cp3, c, k) == want, (c, k)
        if c >= 1:
            want = outcome(cli_cp3, c, k)
            g = cp3(c)
            construct = constructors.FAMILIES["cp3"].construct
            got = outcome(construct, k, g=g, search=lambda j: decide(g, j), c=c)
            assert got == want, (c, k)
