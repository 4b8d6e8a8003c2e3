"""Degreewise structure checks: the map phi, primitives, PBW expansions.

The map phi sends an n-ary operation mu to the functional reading off the
coefficient of x1 x ... x xn in delta(mu(x1,...,xn)) over n distinct
letters.  Its rank decides whether a model sits in the isomorphism or the
split-epimorphism regime, which in turn drives the idempotent engine and
the PBW-analogue expansion.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import UsageError
from .linalg import LinComb, _Memo, _over, coords, exact_rank, kernel_basis
from .models import (LETTERS, _relabel, _require_key, _stems, _word_stem, by_label, key_parts,
                     reduction, require_keys, require_splitting, tree_key, words)
from .series import gen_series
from .trees import enumerate_trees, leaf_count


def multilinear_basis(model, n, letters=LETTERS):
    """Degree-n basis keys decorated with the word letters[:n], x1...xn by default.

    Built directly: filtering basis(n) would list (alphabet size)^n words.
    """
    word = letters[:n]
    template = model.basis(1)[0]
    if ":" not in template:
        return [word]
    leaves = leaf_count(key_parts(template)[0]) + n - 1
    return [tree_key(t, word) for t in enumerate_trees(leaves)]


def _one_letter_basis(model, n):
    """The degree-n basis keys on the word x...x, in basis order, built without listing basis(n)."""
    keys = multilinear_basis(model, n, LETTERS[0] * n)
    return keys if model.is_key(keys[0]) else []  # one shared word: nil's degree bound decides all


def generator_key(model, letter):
    """The degree-1 basis key decorated with the given letter."""
    return multilinear_basis(model, 1, letter)[0]


def _nonsymmetric_splitting(model):
    """The model's splitting, refused on a symmetric cooperad, where phi cannot be read."""
    splitting = require_splitting(model)
    if model.classical:
        raise UsageError(
            "h2 is unsupported on model %s: its cooperad Com is symmetric" % model.name)
    return splitting


def _generator_part(splitting, g):
    """key -> the LinComb over labels of its cooperations' coefficients at (g, ..., g).

    Tree splittings read decompose.  On the one associative label, by
    coassociativity, paths(x) is [x = g] plus c paths(b) over the terms
    c g x b of the reduced coproduct memo, in a memo local to the caller:
    one number per key, where decompose would keep every tensor power.
    """
    if splitting.cuts is None:
        return lambda key: LinComb({t[0]: c for t, c in splitting.decompose(key).items()
                                    if t.count(g) == len(t) - 1})
    delta = splitting.cuts[1]
    paths = _Memo(lambda key, paths: (key == g) + sum(
        c * paths(b) for (a, b), c in delta(key).items() if a == g))
    return lambda key: LinComb.of(None, paths(key))


def phi_map(model, n):
    """Matrix of phi in degree n as (sparse rows, column count).

    Rows are the cooperad basis, columns the operations.  Entry (i, j) is
    the coefficient of x1 x ... x xn in the i-th labeled cooperation of the
    j-th key on the word x1...xn.  The nonsymmetric models only slice
    words, so it is read on the model's own one-letter keys t:x...x at
    (g:x)^(x n), one generator part per column: on the associative
    splitting a key's generator paths, off the reduced coproduct memo
    without reading decompose; on a tree splitting the terms of its
    decomposition.
    """
    splitting = _nonsymmetric_splitting(model)
    x = LETTERS[0]
    part = _generator_part(splitting, generator_key(model, x))
    keys = multilinear_basis(model, n, x * n)
    return coords(map(part, keys), splitting.labels(n)), len(keys)


class H2Report(NamedTuple):
    verdict: str  # "iso", "epi-with-splitting" or "fail"; check_h2 refuses any other model
    per_degree: list

    def to_json_dict(self):
        return {
            "verdict": self.verdict,
            "perDegree": [
                {"degree": n, "dimA": da, "dimC": dc, "rankPhi": r}
                for (n, da, dc, r) in self.per_degree
            ],
        }


def check_h2(model, max_degree):
    """Classify phi degreewise: isomorphism, split epimorphism, or failure.

    Refused below degree 2 (where every model reads iso), without a
    splitting, and on the classical model, whose cooperad Com is symmetric
    while the multilinear basis is not.
    """
    if max_degree < 2:
        raise UsageError("h2 needs max degree >= 2")
    _nonsymmetric_splitting(model)
    rows = []  # (degree, dim A, dim C, rank phi)
    for n in range(1, max_degree + 1):
        mat, dim_a = phi_map(model, n)
        rows.append((n, dim_a, len(mat), exact_rank(mat)))
    if all(dim_a == dim_c == rank for _, dim_a, dim_c, rank in rows):
        return H2Report(verdict="iso", per_degree=rows)
    onto = all(rank == dim_c for _, _, dim_c, rank in rows)
    if onto and _splitting_section_ok(model, max_degree):
        return H2Report(verdict="epi-with-splitting", per_degree=rows)
    return H2Report(verdict="fail", per_degree=rows)


def _splitting_section_ok(model, max_degree):
    """Check phi(s(n)) = id on the cooperad side, exactly, per degree.

    With x = x1 x ... x xn, read on one-letter keys as in phi_map, the
    generator part of op_j(x) must be label_i with coefficient 1 for i = j
    and 0 otherwise (on the associative label: its generator paths add up
    to 1), so one generator part per operation reads every i.
    """
    splitting = model.splitting
    g = generator_key(model, LETTERS[0])
    part = _generator_part(splitting, g)
    for n in range(2, max_degree + 1):
        labels = splitting.labels(n)
        for j in labels:
            image = splitting.operation(j)(LinComb.of((g,) * n)).map_keys(part)
            if any(image.coeff(i) != (1 if i == j else 0) for i in labels):
                return False
    return True


def primitive_part(model, n):
    """Exact basis of the joint kernel of all generating reduced coproducts.

    One block of rows per generating coproduct (a row per tensor key its
    images reach) over a column per basis key.  Where the model declares
    them all word-preserving (on more than one letter), the kernel is taken
    on the one-letter keys t:x...x alone, and each of its vectors is put
    back on every word w in order: the vectors come kernel vector first,
    then word, as the direct elimination gives them.  Where they all commute
    with renaming the letters instead (classical's unshuffle), the kernel is
    taken one letter content at a time and one content per orbit of the
    letter permutations (see _orbit_kernel).  Refused below degree 1.
    """
    if n < 1:
        raise UsageError("degree must be >= 1")
    coproducts = [model.key_coproducts[sym] for sym in model.generating_coproducts]
    mode = reduction(model, coproducts)
    basis = _one_letter_basis(model, n) if mode == "lift" else list(model.basis(n))
    require_keys(model, basis)

    def rows(keys):
        return [row for coproduct in coproducts for row in coords(map(coproduct, keys))]
    if mode == "orbit":
        return _orbit_kernel(rows, basis, model.alphabet)
    vectors = _kernel(rows(basis), basis)
    if mode is None:
        return vectors
    every = words(model.alphabet, n)
    return [_relabel(stems, w) for stems in map(_stems, vectors) for w in every]


def _kernel(rows, keys):
    """The reduced-echelon basis of the right kernel of sparse rows, as LinCombs over keys."""
    return [_over({keys[j]: c for j, c in v.terms.items()}, v.den)
            for v in kernel_basis(rows, len(keys))]


def _orbit_kernel(rows, basis, alphabet):
    """_kernel(rows(basis), basis) for coproducts that commute with renaming the letters.

    rows(keys) are the coproducts' rows over the columns keys.  The
    coproducts keep letter content too, so the kernel splits into one block
    per content, and a renaming s of the letters maps the block of content
    c onto that of s(c).  The first block of each orbit is eliminated; its
    vectors renamed by s span each other block of the orbit, and
    kernel_basis of them (their orthogonal complement), then of that,
    brings them to the block's reduced form.  A reduced vector ends at its
    free column, so merging the blocks by the basis index of each vector's
    last key gives the direct order.
    """
    letters = LETTERS[:alphabet]
    blocks = {}
    for key in basis:
        word = _word_stem(key)[1]
        blocks.setdefault(tuple(map(word.count, letters)), []).append(key)
    first, vectors = {}, []
    for content, keys in blocks.items():
        orbit = tuple(sorted(content))
        if orbit not in first:
            first[orbit] = content, _kernel(rows(keys), keys)
            vectors += first[orbit][1]
            continue
        source, found = first[orbit]
        # s pairs the letters of the two contents by count; no tree holds a letter
        rename = str.maketrans(
            "".join(letters[i] for i in sorted(range(alphabet), key=source.__getitem__)),
            "".join(letters[i] for i in sorted(range(alphabet), key=content.__getitem__)))
        pos = {k: j for j, k in enumerate(keys)}
        renamed = [{pos[k.translate(rename)]: c for k, c in v.terms.items()} for v in found]
        perp = [v.terms for v in kernel_basis(renamed, len(keys))]
        vectors += _kernel(perp, keys)
    index = {k: i for i, k in enumerate(basis)}
    return sorted(vectors, key=lambda v: max(map(index.__getitem__, v.terms)))


class PbwComponent(NamedTuple):
    arity: int
    label: object  # None for the associative cooperad, a tree for dual bases
    tensor: LinComb


def pbw_expand(model, a):
    """Decompose a into primitive tensor components, one per cooperation.

    Each key of a is read once off the splitting's components memo, which
    holds its labeled cooperations with e already in every slot; the memo
    lists a key's nonzero components only, so the cost follows the output.
    Components come by arity, then in cooperad basis order (sorted labels),
    and reassembling them through the splitting operations returns the
    input exactly; see pbw_reassemble.  A key that is not a basis element
    of the model is refused.
    """
    components = require_splitting(model).components
    for key in a.terms:
        _require_key(model, key)
    parts = by_label(a.map_keys(components))
    return [PbwComponent(arity=k, label=label, tensor=parts[k][label])
            for k in sorted(parts) for label in sorted(parts[k])]


def pbw_reassemble(model, comps):
    operation = model.splitting.operation
    return LinComb.sum((operation(comp.label)(comp.tensor), 1) for comp in comps)


class StructureIsoReport(NamedTuple):
    ok: bool
    per_degree: list

    def to_json_dict(self):
        return {
            "ok": self.ok,
            "perDegree": [
                {"degree": n, "dimA": da, "composite": comp}
                for (n, da, comp) in self.per_degree
            ],
        }


# model -> names of the series C and P with A = C o P
_STRUCTURE_TRIPLES = {"as": ("As", "Vect"), "dup": ("As", "Mag"), "mag": ("Mag", "Vect"),
                      "bidup": ("Dup", "Vect")}


def verify_structure_iso(model, max_degree):
    """Compare dim A_n with coefficient n of f^C(f^P), for the model's series C and P."""
    if model.name not in _STRUCTURE_TRIPLES:
        raise UsageError("no structure-iso dimension data for model %s" % model.name)
    if max_degree < 1:
        raise UsageError("structure-iso needs max degree >= 1")
    c, p = _STRUCTURE_TRIPLES[model.name]
    composite = gen_series(c, max_degree).compose(gen_series(p, max_degree))
    rows = []
    for n in range(1, max_degree + 1):
        comp = composite.coeff(n)
        if comp.denominator != 1:
            raise ValueError("%s o %s has a fractional coefficient in degree %d" % (c, p, n))
        rows.append((n, len(multilinear_basis(model, n)), comp.numerator))
    return StructureIsoReport(ok=all(da == comp for (_, da, comp) in rows), per_degree=rows)
