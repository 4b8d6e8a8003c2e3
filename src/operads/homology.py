"""Chain bicomplex on the free duplicial algebra and its total homology.

C_pq in internal degree n is spanned by (p+q+1)-tuples of basis monomials
with total degree n.  Every antidiagonal carries the same tuple basis, so
Tot_m is keyed by pairs (p, tuple) with p = 0..m.  The total differential
D = d^h + d^v is one map on these keys: merging slots i, i+1 with the
right operation for i < p lands in block p-1 (d^h), with the left
operation for i >= p stays in block p (d^v), each with sign (-1)^i.
D∘D = 0 holds exactly, and by bidegree it splits into d^h d^h = 0,
d^v d^v = 0 and d^h d^v + d^v d^h = 0.  The checks and dimensions below
take a slice built once by `build_bicomplex`.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations, product as iproduct

from .errors import UsageError
from .linalg import LinComb, coords, exact_rank
from .models import _key_items, get_model


def _degree_tuples(n, slots):
    """All ways to write n as an ordered sum of `slots` positive degrees, in
    lexicographic order: one for each set of slots - 1 cut points in 1..n-1."""
    return [tuple(b - a for a, b in zip((0,) + cuts, cuts + (n,)))
            for cuts in combinations(range(1, n), slots - 1)]


class BicomplexSlice:
    def __init__(self, n, bases, right, left):
        self.n = n
        self.bases = bases  # m -> ordered list of (m+1)-tuples of Dup keys
        # the two product kernels; Dup's are one-key products, read off their key maps
        self.right = right  # d^h: merges slots i < p, (p, tuple) -> block p-1
        self.left = left    # d^v: merges slots i >= p, (p, tuple) -> block p

    @cached_property
    def _merges(self):
        """(right, left) as (key, key) -> (key, coefficient) items, resolved once per slice."""
        return _key_items(self.right), _key_items(self.left)

    def tot_dim(self, m):
        return (m + 1) * len(self.bases[m])

    def tot_keys(self, m):
        """The keys (p, tuple) of Tot_m, blocks ordered by p = 0..m."""
        return [(p, tup) for p in range(m + 1) for tup in self.bases[m]]

    def d(self, key):
        """D(p, tuple) = sum over i of (-1)^i (..., a_i * a_{i+1}, ...) in Tot_{m-1}."""
        p, tup = key
        right, left = self._merges
        terms = []
        for i in range(len(tup) - 1):
            merge, block = (right, p - 1) if i < p else (left, p)
            terms.extend(((block, tup[:i] + (k,) + tup[i + 2:]), (-1) ** i * c)
                         for k, c in merge(tup[i], tup[i + 1]))
        return LinComb(terms)


def build_bicomplex(n):
    """Assemble the internal-degree-n slice over one generator."""
    if n < 1:
        raise UsageError("internal degree must be >= 1")
    model = get_model("dup", 1)
    monomials = {d: list(model.basis(d)) for d in range(1, n + 1)}
    bases = {
        m: sorted(combo for degs in _degree_tuples(n, m + 1)
                  for combo in iproduct(*(monomials[d] for d in degs)))
        for m in range(n)
    }
    return BicomplexSlice(n=n, bases=bases, right=model.key_products["right"],
                          left=model.key_products["left"])


def check_differentials(bc):
    """D∘D = 0 on every key of Tot_m, m >= 2, exactly, on the slice bc."""
    return not any(bc.d(key).map_keys(bc.d)
                   for m in range(2, bc.n) for key in bc.tot_keys(m))


def total_matrix(bc, m):
    """Sparse rows of D on Tot_m, blocks ordered by p = 0..m on both sides."""
    return coords(map(bc.d, bc.tot_keys(m)), bc.tot_keys(m - 1))


def total_dims(bc):
    """dim Tot_m of the slice bc, m = 0..n-1."""
    return [bc.tot_dim(m) for m in range(bc.n)]


def total_homology_dims(bc):
    """Homology dims of (Tot, d^h + d^v) on the slice bc, m = 0..n-1, by exact rank."""
    n = bc.n
    ranks = [0] * (n + 1)  # ranks[m] = rank of D_m: Tot_m -> Tot_{m-1}
    for m in range(1, n):
        ranks[m] = exact_rank(total_matrix(bc, m))
    return [bc.tot_dim(m) - ranks[m] - ranks[m + 1] for m in range(n)]


def homology_report(n, check_only=False):
    """JSON-ready report; homology indices carry the shift H_m <-> H_{m+1}."""
    bc = build_bicomplex(n)
    report = {
        "internalDegree": n,
        "totDims": total_dims(bc),
        "differentialChecks": check_differentials(bc),
        "shiftConvention": "H_m(Tot) corresponds to operadic H_{m+1}",
    }
    if not check_only:
        report["homologyDims"] = total_homology_dims(bc)
    return report
