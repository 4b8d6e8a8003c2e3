"""Expected answers computed without the operads package.

Every function here is closed-form counting or arithmetic modulo a prime,
written from the mathematics alone, so a benchmark check that compares the
program's output with it does not share code (or bugs) with the program.
"""

from __future__ import annotations

from math import comb

# A Mersenne prime: no denominator the program produces (factorials and
# small integers) is divisible by it.
PRIME = (1 << 61) - 1


def catalan(n):
    """Catalan numbers by the convolution recurrence, not the binomial form."""
    c = [1]
    for m in range(n):
        c.append(sum(c[i] * c[m - i] for i in range(m + 1)))
    return c[n]


def mobius(n):
    out, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    return -out if m > 1 else out


def witt(n, k):
    """Necklace count (1/n) sum_{d|n} mu(d) k^(n/d): dim of Lie_n on k letters."""
    total = sum(mobius(d) * k ** (n // d) for d in range(1, n + 1) if n % d == 0)
    return total // n


def dup_prim_dim(n, k):
    """Alphabet-scaling law for the duplicial primitives: Catalan(n-1) k^n."""
    return catalan(n - 1) * k ** n


def basis_size(kind, n, k):
    """Degree-n basis size: words k^n, dup trees k^n Cat(n), mag trees k^n Cat(n-1)."""
    if kind == "words":
        return k ** n
    if kind == "dup":
        return k ** n * catalan(n)
    if kind == "mag":
        return k ** n * catalan(n - 1)
    raise ValueError("unknown basis kind %r" % kind)


def checked_pairs(kind, k, max_degree):
    """Pairs (a, b) of basis elements with deg a + deg b <= max_degree."""
    return sum(
        basis_size(kind, a, k) * basis_size(kind, b, k)
        for a in range(1, max_degree)
        for b in range(1, max_degree - a + 1)
    )


def _series_power(coeffs, e, n):
    """[t^0..t^n] of (sum_d coeffs[d] t^d)^e, truncated."""
    out = [1] + [0] * n
    for _ in range(e):
        nxt = [0] * (n + 1)
        for i, a in enumerate(out):
            if a:
                for d in range(1, n - i + 1):
                    nxt[i + d] += a * coeffs[d]
        out = nxt
    return out


def total_complex_dims(n):
    """dim Tot_m = (m+1) [t^n] (sum_{d>=1} Cat(d) t^d)^(m+1), m = 0..n-1."""
    coeffs = [0] + [catalan(d) for d in range(1, n + 1)]
    return [(m + 1) * _series_power(coeffs, m + 1, n)[n] for m in range(n)]


def euler_characteristic(dims):
    return sum((-1) ** m * d for m, d in enumerate(dims))


def eulerian_ranks(n, k):
    """[rank e(1)_n, ..., rank e(n)_n]: dim of S^i(Lie) in degree n.

    The coefficient of t^n u^i in prod_d (1 - u t^d)^(-witt(d, k)); the
    ranks sum to k^n (Poincare-Birkhoff-Witt) and rank e(n)_n = C(n+k-1, n).
    """
    # poly[deg][i]: coefficient of t^deg u^i
    poly = [[0] * (n + 1) for _ in range(n + 1)]
    poly[0][0] = 1
    for d in range(1, n + 1):
        ell = witt(d, k)
        nxt = [[0] * (n + 1) for _ in range(n + 1)]
        for deg in range(n + 1):
            for i in range(n + 1):
                a = poly[deg][i]
                if not a:
                    continue
                j = 0
                while deg + j * d <= n and i + j <= n:
                    nxt[deg + j * d][i + j] += a * comb(ell + j - 1, j)
                    j += 1
        poly = nxt
    return poly[n][1:]


# --- arithmetic modulo PRIME ------------------------------------------------

def mod_p(x):
    """A Fraction or int reduced modulo PRIME."""
    num = getattr(x, "numerator", x)
    den = getattr(x, "denominator", 1)
    return num * pow(den, -1, PRIME) % PRIME


def rank_mod_p(rows):
    """Rank modulo PRIME of a list of equal-length rows of rationals.

    rank mod p <= rank over Q, so a full rank mod p proves the rows are
    linearly independent over Q.
    """
    a = [[mod_p(x) for x in row] for row in rows]
    rank = 0
    ncols = len(a[0]) if a else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][c], -1, PRIME)
        prow = [x * inv % PRIME for x in a[rank]]
        a[rank] = prow
        for i in range(rank + 1, len(a)):
            f = a[i][c]
            if f:
                a[i] = [(x - f * y) % PRIME for x, y in zip(a[i], prow)]
        rank += 1
    return rank

