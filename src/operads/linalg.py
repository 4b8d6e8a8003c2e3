"""Exact rational linear algebra and formal linear combinations.

Everything in this package is built on LinComb, a finite linear
combination of hashable basis keys with exact coefficients, stored as int
numerators over one positive denominator in lowest terms.  `LinComb.sum`
is the one accumulator of linear combinations: it brings its summands to
one denominator, adds ints and divides out the gcd once.  A Fraction is
built only at the boundary: `items` of a non-integral combination,
`coeff`, `frac_str`.  A matrix on its way to elimination is a list of
sparse rows, {column: coefficient} dicts of the nonzero entries: `coords`
is the one way from LinCombs to such rows, and one sparse fraction-free
integer elimination (`_echelon`, behind `exact_rank`, `kernel_basis` and
`same_column_space`) is the one way to ranks, kernel vectors and column
spaces.  `GradedEndo` keeps the image LinComb of each basis key, and
makes dense matrices, through `coords`, only when output reads them;
`mat_mul` and `sparse_rows` are the dense reference its per-key algebra is
tested against.  No floating point anywhere.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm


def as_slots(key):
    """View a basis key as a tuple of tensor slots.

    Atomic keys (strings) are one slot; tuples are already slot tuples.
    """
    return key if isinstance(key, tuple) else (key,)


def serialize_key(key):
    """Canonical string form of a basis key; tensor slots joined by '|'."""
    if isinstance(key, tuple):
        return "|".join(str(k) for k in key)
    return str(key)


def _coef(c):
    """An exact coefficient: an int, else a Fraction.

    A Fraction whose denominator is 1 becomes its numerator; a float is
    converted exactly.
    """
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _over(terms, den):
    """The LinComb of the nonzero int numerators `terms` over den > 0, in lowest terms.

    Takes ownership of the dict.
    """
    if den != 1:
        g = gcd(den, *terms.values())
        if g != 1:
            den //= g
            terms = {k: c // g for k, c in terms.items()}
    res = LinComb.__new__(LinComb)
    res.terms, res.den = terms, den
    return res


class LinComb:
    """A finite map basis key -> nonzero exact coefficient.

    The coefficient of a key is terms[key] / den: `terms` holds nonzero int
    numerators, never a Fraction or a float, and `den` is a positive int
    with gcd(den, numerators) = 1, so den is 1 exactly when every
    coefficient is an integer (and for zero).  That form is unique, so ==
    compares both fields.  Instances are treated as immutable values; all
    arithmetic returns new objects.
    """

    __slots__ = ("terms", "den")

    def __init__(self, terms=None):
        clean, fractional = {}, False
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for k, c in items:
                if type(c) is not int:
                    c = _coef(c)
                    fractional = fractional or type(c) is not int
                if not c:
                    continue
                acc = clean.get(k, 0) + c
                if acc:
                    clean[k] = acc
                else:
                    del clean[k]
        den = 1
        if fractional:
            # the lcm of reduced denominators leaves the numerators coprime to it
            den = lcm(*(c.denominator for c in clean.values()))
            clean = {k: c.numerator * (den // c.denominator) for k, c in clean.items()}
        self.terms, self.den = clean, den

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def of(cls, key, coeff=1):
        res = cls.__new__(cls)
        if type(coeff) is int:
            res.terms, res.den = {key: coeff} if coeff else {}, 1
        else:
            c = Fraction(coeff)
            res.terms, res.den = ({key: c.numerator}, c.denominator) if c else ({}, 1)
        return res

    @classmethod
    def sum(cls, pairs, den=1):
        """The sum of scalar * lc over (lc, scalar) pairs, divided by den, in one dict.

        Terms that cancel are dropped.  The numerators are added in ints over
        a running common denominator: a summand whose denominator does not
        divide it brings the sum so far to their lcm, so integral input costs
        one modulo per summand.  The first nonzero summand is copied (or
        scaled) whole; every later term is added in place.  The gcd is
        divided out once, at the end.
        """
        out, common = {}, 1
        get = out.get
        for lc, s in pairs:
            if not s or not lc.terms:
                continue
            d = lc.den
            if type(s) is not int:
                s = Fraction(s)
                d *= s.denominator
                s = s.numerator
            if common % d:
                m = lcm(common, d) // common
                common *= m
                out = {k: c * m for k, c in out.items()}
                get = out.get
            if d != common:
                s *= common // d
            if not out:
                out = dict(lc.terms) if s == 1 else {k: c * s for k, c in lc.terms.items()}
                get = out.get
                continue
            for k, c in lc.terms.items():
                x = get(k, 0) + c * s
                if x:
                    out[k] = x
                else:
                    del out[k]
        return _over(out, common * den)

    def items(self):
        """(key, coefficient) pairs: ints when den is 1, else Fractions."""
        den = self.den
        if den == 1:
            return self.terms.items()
        return [(k, Fraction(c, den)) for k, c in self.terms.items()]

    def coeff(self, key):
        """The coefficient of key, always as a Fraction."""
        return Fraction(self.terms.get(key, 0), self.den)

    def support(self):
        return set(self.terms)

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    def __eq__(self, other):
        if isinstance(other, LinComb):
            return self.den == other.den and self.terms == other.terms
        if other == 0:
            return not self.terms
        return NotImplemented

    def __add__(self, other):
        return LinComb.sum(((self, 1), (other, 1)))

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return LinComb.sum(((self, 1), (other, -1)))

    def scale(self, scalar):
        return LinComb.sum(((self, scalar),))

    __rmul__ = scale
    __mul__ = scale

    def tensor(self, other):
        out = {}
        for k1, c1 in self.terms.items():
            t1 = as_slots(k1)
            for k2, c2 in other.terms.items():
                key = t1 + as_slots(k2)
                acc = out.get(key, 0) + c1 * c2
                if acc:
                    out[key] = acc
                elif key in out:
                    del out[key]
        return _over(out, self.den * other.den)

    def map_keys(self, fn):
        """Linear extension of a key -> LinComb map."""
        return LinComb.sum(((fn(k), c) for k, c in self.terms.items()), self.den)

    def sorted_items(self):
        return sorted(self.items(), key=lambda kc: serialize_key(kc[0]))

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = ["{}*{}".format(c, serialize_key(k)) for k, c in self.sorted_items()]
        return " + ".join(parts)


_NESTING, _open = 16, 0  # the most _Memo steps open at once, and those open now (one thread)


class _Deeper(Exception):
    """A miss past _NESTING open steps, as args (memo, key)."""


class _Memo:
    """key -> step(key, self), each key computed once.

    The step recurses through its argument, not a closure naming the memo,
    so reference counting alone frees a dropped memo and whatever owns it.
    A kept value is read, never changed, by the sums built from it.  A miss
    _NESTING open steps deep unwinds to the outermost call, which evaluates
    the misses from an explicit stack, deepest first, retrying each above:
    a chain of keys of any length needs a bounded Python stack.
    """
    __slots__ = ("step", "values")

    def __init__(self, step):
        self.step, self.values = step, {}

    def __call__(self, key):
        global _open
        value = self.values.get(key)
        if value is not None:
            return value
        if _open == _NESTING:
            raise _Deeper(self, key)
        pending, outermost = [(self, key)], not _open
        while pending:
            memo, k = pending[-1]
            _open += 1
            try:
                memo.values[k] = memo.step(k, memo)
                pending.pop()
            except _Deeper as deeper:
                if not outermost:
                    raise
                pending.append(deeper.args)
            finally:
                _open -= 1
        return self.values[key]


def _power_memo(first, coproduct, product):
    """key -> [f(key), f*f(key), ...], convolution powers on a reduced coproduct.

    f^{*n}(key) is the sum of c product(f(k1), f^{*(n-1)}(k2)) over the
    terms c k1 x k2 of coproduct(key), whose slots have lower degree, so a
    key of degree d has at most d powers and no list needs a degree bound;
    a term with f(k1) = 0 is skipped, so a list may end early.
    f(key) = first(key, [f*f(key), f*f*f(key), ...]): the higher powers of
    a key read f only below its degree, so first may be defined through
    them.
    """
    def step(key, powers):
        terms = []
        for (k1, k2), c in coproduct(key).items():
            left = powers(k1)[0]
            if not left:
                continue
            for n, right in enumerate(powers(k2)):
                if n == len(terms):
                    terms.append([])
                terms[n].append((product(left, right), c))
        higher = [LinComb.sum(t) for t in terms]
        return [first(key, higher)] + higher
    return _Memo(step)


def frac_str(c):
    """Rationals render as "p/q", or "p" when the denominator is 1."""
    return str(Fraction(c))


def lincomb_json(lc):
    """JSON-ready dict {serialized key: "p/q"} with sorted keys."""
    return {serialize_key(k): frac_str(c) for k, c in sorted(
        lc.items(), key=lambda kv: serialize_key(kv[0])
    )}


def tensor_transpose(a):
    """Switch the two slots of every key: (k1,k2) -> (k2,k1)."""
    out = {}
    for k, c in a.terms.items():
        if not isinstance(k, tuple) or len(k) != 2:
            raise ValueError("tensor_transpose expects 2-slot tensor keys, got %r" % (k,))
        out[(k[1], k[0])] = c
    return _over(out, a.den)


# --- coordinates ----------------------------------------------------------

def coords(lincombs, basis=None):
    """Sparse rows of the matrix whose j-th column is the j-th LinComb.

    A row is a {column: coefficient} dict of its nonzero entries.  Rows are
    the keys of `basis` in order (an empty dict for a key no LinComb
    reaches), or, when basis is None, the keys in order of first
    appearance.  A key outside a declared basis raises ValueError.  The
    LinCombs are consumed one at a time, so a generator works; no dense row
    is ever built.
    """
    if basis is None:
        pos, rows = {}, []
    else:
        pos = {k: i for i, k in enumerate(basis)}
        rows = [{} for _ in pos]
    for j, lc in enumerate(lincombs):
        den = lc.den
        for k, c in lc.terms.items():
            i = pos.get(k)
            if i is None:
                if basis is not None:
                    raise ValueError("key outside the declared basis: %r" % (k,))
                i = pos[k] = len(rows)
                rows.append({})
            rows[i][j] = c if den == 1 else Fraction(c, den)
    return rows


def sparse_rows(m):
    """The sparse rows of a dense matrix: {column: entry}, zeros left out."""
    return [{j: x for j, x in enumerate(row) if x} for row in m]


# --- sparse fraction-free elimination --------------------------------------

def _echelon(sparse):
    """Sparse integer row echelon of sparse rational rows.

    The rows are {column: nonzero int or Fraction} dicts, as `coords` makes
    them.  Returns (ech, pivots): ech[r] is a {column: int} dict whose first
    column is pivots[r].  Pivot columns are taken left to right and never
    permuted, so they are the lexicographically first column basis.  A row
    of ints is taken as it is, any other has its denominators cleared, and
    every row is kept divided by its content; within a column the candidate
    row with the fewest nonzeros is the pivot (ties to the lower index), and
    a step touches only the rows that have an entry in that column.  Input
    is not modified.
    """
    rows = [_primitive(_integral([row])[1][0]) for row in sparse if row]
    where = defaultdict(set)  # column -> active rows with an entry there
    for i, row in enumerate(rows):
        for j in row:
            where[j].add(i)
    ech, pivots = [], []
    active = len(rows)
    for c in sorted(where):
        cands = where[c]
        if not cands:
            continue
        p = min(cands, key=lambda i: (len(rows[i]), i))
        prow = rows[p]
        for j in prow:
            where[j].discard(p)
        active -= 1
        b = prow[c]
        for i in list(cands):
            row = rows[i]
            a = row[c]
            g = gcd(a, b)
            a, bg = a // g, b // g
            new = {j: bg * x for j, x in row.items()} if bg != 1 else dict(row)
            for j, y in prow.items():
                x = new.get(j, 0) - a * y
                if x:
                    if j not in new:
                        where[j].add(i)
                    new[j] = x
                elif j in new:
                    del new[j]
                    where[j].discard(i)
            if new:
                rows[i] = _primitive(new)
            else:
                active -= 1
        ech.append(prow)
        pivots.append(c)
        if not active:
            break
    return ech, pivots


def _integral(rows):
    """(d, rows times d) for sparse rows, d the lcm of all their denominators.

    Rows whose entries are all ints come back as they are, with d = 1.
    """
    if all(type(x) is int for row in rows for x in row.values()):
        return 1, rows
    d = lcm(*(x.denominator for row in rows for x in row.values()))
    return d, [{j: x.numerator * (d // x.denominator) for j, x in row.items()} for row in rows]


def _primitive(row):
    """An integer row divided by the gcd of its entries."""
    g = gcd(*row.values())
    return row if g == 1 else {j: x // g for j, x in row.items()}


def exact_rank(rows):
    """Rank of the matrix with the given sparse rows."""
    return len(_echelon(rows)[1])


def kernel_basis(rows, ncols):
    """Basis of the right kernel of sparse rows over columns 0..ncols-1.

    One vector per free column, in column order: a LinComb over column
    indices that is 1 at its free column and 0 at every other free column
    (the reduced-echelon kernel).  Back-substitution keeps each pivot's
    solution as int numerators over one denominator, and divides by the
    pivot exactly whenever it can, so an integral kernel builds no Fraction.
    """
    ech, pivots = _echelon(rows)
    row_of = {c: r for r, c in enumerate(pivots)}
    # back-substitute, last pivot first, to the reduced echelon form:
    # x[pivots[r]] is the sum of nums[f] / den * x[f] over free columns f,
    # with (nums, den) = solved[r]
    solved = [None] * len(pivots)
    for r in range(len(pivots) - 1, -1, -1):
        row = ech[r]
        den = lcm(*(solved[s][1] for j in row if (s := row_of.get(j)) is not None and s != r))
        acc = {}
        for j, x in row.items():
            s = row_of.get(j)
            if s is None:
                acc[j] = acc.get(j, 0) + x * den
            elif s != r:
                nums, d = solved[s]
                x *= den // d
                for f, y in nums.items():
                    acc[f] = acc.get(f, 0) + x * y
        # divide by the pivot: exactly, as far as the gcd allows
        lead = -row[pivots[r]] * den
        acc = {f: x for f, x in acc.items() if x}
        g = gcd(lead, *acc.values()) * (-1 if lead < 0 else 1)
        solved[r] = ({f: x // g for f, x in acc.items()}, lead // g)
    entries = {f: [] for f in range(ncols) if f not in row_of}
    for p, (nums, d) in zip(pivots, solved):
        for f, x in nums.items():
            entries[f].append((p, x, d))
    basis = []
    for f, column in entries.items():
        den = lcm(*(d for _, _, d in column))
        vec = {f: den}
        vec.update((p, x * (den // d)) for p, x, d in column)
        basis.append(_over(vec, den))
    return basis


def mat_mul(a, b):
    """The dense product a b, multiplied as sparse integer rows.

    Each factor has its denominators cleared once; a row of the product is
    the sum of the rows of b weighted by the nonzero entries of the row of
    a, and is divided by the two denominators only when it is written out,
    so an integral entry is stored as an int.
    """
    if not a or not b:
        return []
    da, ia = _integral(sparse_rows(a))
    db, ib = _integral(sparse_rows(b))
    den, width = da * db, len(b[0])
    out = []
    for row in ia:
        acc = {}
        for k, x in row.items():
            for j, y in ib[k].items():
                acc[j] = acc.get(j, 0) + x * y
        dense = [0] * width
        for j, x in acc.items():
            dense[j] = x // den if x % den == 0 else Fraction(x, den)
        out.append(dense)
    return out


def same_column_space(a, b):
    """Do the LinCombs in a and those in b span the same subspace?  Exact ranks."""
    r = exact_rank(coords(a))
    return r == exact_rank(coords(b)) == exact_rank(coords([*a, *b]))


class GradedEndo:
    """A degree-indexed linear map over declared bases, kept as image columns.

    ``bases[n]`` is the ordered basis of the degree-n component and
    ``cols[n][j]`` the image LinComb of ``bases[n][j]`` in that basis;
    ``mats`` is the dense view (columns = images), built on first read.
    """

    def __init__(self, bases, cols):
        self.bases = bases
        self.cols = cols

    @classmethod
    def from_function(cls, bases, fn):
        """The endomorphism whose column of each basis key is fn(key), a LinComb.

        fn is called once per key, with the key, and its values are kept
        and read, never changed, so a memo may hand out what it keeps.  An
        image key outside the basis of its degree raises ValueError.
        """
        cols = {}
        for n, basis in bases.items():
            cols[n] = images = list(map(fn, basis))
            outside = set().union(*(lc.terms for lc in images)).difference(basis)
            if outside:
                raise ValueError("key outside the declared basis: %r" % (outside.pop(),))
        return cls(bases, cols)

    @classmethod
    def identity(cls, bases):
        return cls.from_function(bases, LinComb.of)

    @cached_property
    def mats(self):
        """The dense matrices, degree by degree, made from the columns by `coords`."""
        mats = {}
        for n, col in self.cols.items():
            width = range(len(col))
            mats[n] = [[row.get(j, 0) for j in width] for row in coords(col, self.bases[n])]
        return mats

    def compose(self, other):
        """self after other: each image of other, mapped key by key through self."""
        cols = {}
        for n, col in other.cols.items():
            image = dict(zip(self.bases[n], self.cols[n])).__getitem__
            cols[n] = [lc.map_keys(image) for lc in col]
        return GradedEndo(self.bases, cols)

    def __add__(self, other):
        return GradedEndo(self.bases, {n: [a + b for a, b in zip(col, other.cols[n])]
                                       for n, col in self.cols.items()})

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, scalar):
        return GradedEndo(self.bases, {n: [lc.scale(scalar) for lc in col]
                                       for n, col in self.cols.items()})

    def rank(self, n):
        return exact_rank(coords(self.cols[n], self.bases[n]))

    def __eq__(self, other):
        return isinstance(other, GradedEndo) and self.cols == other.cols
