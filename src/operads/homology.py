"""Chain bicomplex on the free duplicial algebra and its total homology.

C_pq in internal degree n is spanned by (p+q+1)-tuples of basis monomials
with total degree n.  The horizontal differential multiplies adjacent
slots with the right operation, the vertical one with the left operation;
squares vanish and the two anticommute, exactly.  Every antidiagonal
carries the same tuple basis, so bases are stored once per antidiagonal
and matrices are tagged by bidegree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct

from .linalg import LinComb, coords, exact_rank, mat_mul
from .models import get_model


def _degree_tuples(n, slots):
    """All ways to write n as an ordered sum of `slots` positive degrees."""
    if slots == 1:
        return [(n,)]
    out = []
    for d in range(1, n - slots + 2):
        for rest in _degree_tuples(n - d, slots - 1):
            out.append((d,) + rest)
    return out


@dataclass
class BicomplexSlice:
    n: int
    bases: dict          # m -> ordered list of (m+1)-tuples of Dup keys
    dh: dict             # (p, q) -> matrix to (p-1, q), rows=target basis
    dv: dict             # (p, q) -> matrix to (p, q-1)

    def tot_dim(self, m):
        return (m + 1) * len(self.bases[m]) if m in self.bases else 0


def _differential(src, dst, product, slots):
    """Matrix of sum over i in slots of (-1)^i (..., a_i * a_{i+1}, ...)."""
    def image(tup):
        return LinComb(
            (tup[:i] + (key,) + tup[i + 2:], (-1) ** i * c)
            for i in slots
            for key, c in product(LinComb.of(tup[i]), LinComb.of(tup[i + 1])).items()
        )
    return coords((image(tup) for tup in src), dst)


def build_bicomplex(n):
    """Assemble the internal-degree-n slice over one generator."""
    if n < 1:
        raise ValueError("internal degree must be >= 1")
    model = get_model("dup", 1)
    right = model.products["right"]
    left = model.products["left"]
    monomials = {d: list(model.basis(d)) for d in range(1, n + 1)}

    bases = {}
    for m in range(n):
        tuples = []
        for degs in sorted(_degree_tuples(n, m + 1)):
            for combo in iproduct(*(monomials[d] for d in degs)):
                tuples.append(combo)
        tuples.sort()
        bases[m] = tuples

    dh = {}
    dv = {}
    for m in range(1, n):
        src = bases[m]
        dst = bases[m - 1]
        for p in range(m + 1):
            q = m - p
            dh[(p, q)] = _differential(src, dst, right, range(p))
            dv[(p, q)] = _differential(src, dst, left, range(p, p + q))
    return BicomplexSlice(n=n, bases=bases, dh=dh, dv=dv)


def _is_zero(mat):
    return all(not c for row in mat for c in row)


def check_differentials(slice_or_n):
    """d^h d^h = 0, d^v d^v = 0, d^h d^v + d^v d^h = 0, exactly."""
    bc = build_bicomplex(slice_or_n) if isinstance(slice_or_n, int) else slice_or_n
    n = bc.n
    for m in range(2, n):
        for p in range(m + 1):
            q = m - p
            if p >= 1:
                if not _is_zero(mat_mul(bc.dh[(p - 1, q)], bc.dh[(p, q)])):
                    return False
            if q >= 1:
                if not _is_zero(mat_mul(bc.dv[(p, q - 1)], bc.dv[(p, q)])):
                    return False
            if p >= 1 and q >= 1:
                hv = mat_mul(bc.dh[(p, q - 1)], bc.dv[(p, q)])
                vh = mat_mul(bc.dv[(p - 1, q)], bc.dh[(p, q)])
                if hv != [[-x for x in row] for row in vh]:
                    return False
    return True


def total_matrix(bc, m):
    """D = d^h + d^v on Tot_m, blocks ordered by p = 0..m on both sides."""
    n_src = len(bc.bases[m])
    n_dst = len(bc.bases[m - 1])
    rows = m * n_dst
    cols = (m + 1) * n_src
    mat = [[Fraction(0)] * cols for _ in range(rows)]
    for p in range(m + 1):
        q = m - p
        coff = p * n_src
        if p >= 1:
            roff = (p - 1) * n_dst
            blk = bc.dh[(p, q)]
            for i in range(n_dst):
                row = mat[roff + i]
                for j in range(n_src):
                    row[coff + j] += blk[i][j]
        if q >= 1:
            roff = p * n_dst
            blk = bc.dv[(p, q)]
            for i in range(n_dst):
                row = mat[roff + i]
                for j in range(n_src):
                    row[coff + j] += blk[i][j]
    return mat


def total_dims(slice_or_n):
    bc = build_bicomplex(slice_or_n) if isinstance(slice_or_n, int) else slice_or_n
    return [bc.tot_dim(m) for m in range(bc.n)]


def total_homology_dims(slice_or_n):
    """Homology dims of (Tot, d^h + d^v), m = 0..n-1, by exact rank."""
    bc = build_bicomplex(slice_or_n) if isinstance(slice_or_n, int) else slice_or_n
    n = bc.n
    ranks = [0] * (n + 1)  # ranks[m] = rank of D_m: Tot_m -> Tot_{m-1}
    for m in range(1, n):
        ranks[m] = exact_rank(total_matrix(bc, m))
    return [bc.tot_dim(m) - ranks[m] - ranks[m + 1] for m in range(n)]


def euler_characteristic(slice_or_n):
    bc = build_bicomplex(slice_or_n) if isinstance(slice_or_n, int) else slice_or_n
    return sum((-1) ** m * bc.tot_dim(m) for m in range(bc.n))


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
