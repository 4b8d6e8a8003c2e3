"""Planar binary rooted trees.

A tree is stored as its serialization: "." for a leaf, "(L,R)" for an
internal node, no whitespace.  Lexicographic order on these strings is
the canonical basis order, so strings double as basis keys.

Grafting: vee joins two trees at a new root, over and under graft one
tree on the first or last leaf of another, and split undoes vee.
Cutting: path_cuts lists every cut of a tree along the path from a leaf
to the root in one pass, and path_cut(t, i) is its entry i.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .errors import UsageError

LEAF = "."
Y = "(.,.)"  # the unique tree with two leaves
# the deepest nesting validate accepts: the recursive tree kernels take up to two
# frames per level, which leaves room under the default recursion limit for callers
MAX_DEPTH = 400


def leaf_count(t):
    return t.count(LEAF)


def validate(t):
    """Raise UsageError unless t is a well-formed tree string at most MAX_DEPTH levels deep."""
    pos, ok = _scan(t, 0, MAX_DEPTH)
    if not ok or pos != len(t):
        raise UsageError("malformed tree: %r" % t)


def _scan(s, i, room):
    """(end, ok) of the tree starting at s[i], at most `room` levels deep."""
    if i < len(s) and s[i] == LEAF:
        return i + 1, True
    if i >= len(s) or s[i] != "(":
        return i, False
    if not room:
        raise UsageError("tree nested too deeply (%d characters)" % len(s))
    i, ok = _scan(s, i + 1, room - 1)
    if not ok or i >= len(s) or s[i] != ",":
        return i, False
    i, ok = _scan(s, i + 1, room - 1)
    if not ok or i >= len(s) or s[i] != ")":
        return i, False
    return i + 1, True


def vee(t, s):
    """Create a new root and graft t (left) and s (right) under it."""
    return "(" + t + "," + s + ")"


def split(u):
    """Inverse of vee: the two subtrees of the root."""
    if u == LEAF:
        raise ValueError("cannot split a leaf")
    if u[1] == LEAF or u[-2] == LEAF:  # a leaf on either side: no scan
        return (LEAF, u[3:-1]) if u[1] == LEAF else (u[1:-3], LEAF)
    depth = 0
    for i, ch in enumerate(u):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 1:
            return u[1:i], u[i + 1:-1]
    raise ValueError("malformed tree: %r" % u)


def over(t, s):
    """t/s: graft t on the first (leftmost) leaf of s."""
    i = s.index(LEAF)
    return s[:i] + t + s[i + 1:]


def under(t, s):
    """t\\s: graft s on the last (rightmost) leaf of t."""
    i = t.rindex(LEAF)
    return t[:i] + s + t[i + 1:]


@lru_cache(maxsize=None)
def enumerate_trees(n):
    """All trees with n leaves, sorted by their string form.

    The list length is the Catalan number c_{n-1}.  Refused above
    MAX_DEPTH + 1 leaves, where the comb nests deeper than validate accepts.
    """
    if n < 1:
        raise UsageError("need at least one leaf")
    if n > MAX_DEPTH + 1:
        raise UsageError("need at most %d leaves" % (MAX_DEPTH + 1))
    if n == 1:
        return (LEAF,)
    out = []
    for i in range(1, n):
        for l in enumerate_trees(i):
            for r in enumerate_trees(n - i):
                out.append(vee(l, r))
    return tuple(sorted(out))


def catalan(n):
    return comb(2 * n, n) // (n + 1)


def left_comb(n):
    """The tree with n+1 leaves whose internal nodes sit on the left branch."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return "(" * n + LEAF + ",.)" * n


def right_comb(n):
    """Mirror of left_comb: all internal nodes on the right branch."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return "(.," * n + LEAF + ")" * n


def path_cut(t, i):
    """Cut t along the path from leaf i to the root.

    Leaves are numbered 0..n left to right; valid cuts are 1 <= i <= n-1.
    Both output trees keep a copy of the dividing path, so the left part
    has i+1 leaves and the right part n-i+1.
    """
    n = leaf_count(t) - 1
    if not 1 <= i <= n - 1:
        raise UsageError("cut index %d out of range for a tree with %d leaves" % (i, n + 1))
    return path_cuts(t)[i]


def path_cuts(t, a0="", a1="", b0="", b1=""):
    """Every path cut of t, leaf 0 first, splitting each node once.

    Entry i is the cut along the path from leaf i to the root, trivial
    cuts included: entry 0 is (LEAF, t) and the last is (t, LEAF).  Each
    cut (a, b) comes wrapped as (a0 + a + a1, b0 + b + b1): a node hands its
    subtrees that context, so no cut is rebuilt on the way up.
    """
    if t == LEAF:
        return [(a0 + LEAF + a1, b0 + LEAF + b1)]
    l, r = split(t)
    return (path_cuts(l, a0, a1, b0 + "(", "," + r + ")" + b1)
            + path_cuts(r, a0 + "(" + l + ",", ")" + a1, b0, b1))
