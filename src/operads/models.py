"""Free bialgebra models on explicit combinatorial bases.

Words over a finite alphabet carry the free associative and Zinbiel
algebras; planar binary trees decorated with words carry the free
magmatic and duplicial algebras.  Each model packages its graded basis,
named products and named reduced coproducts behind one interface so the
relation checker and the idempotent engine can treat them uniformly.
A model with a coalgebra splitting also lists, per arity, its labeled
cooperations paired with their splitting operations; the associative
cooperad is the one-label case.  All of one model's cooperations, of every
arity, read its generating coproducts through one key-level memo per
coproduct, so each basis key is cut at most once while the model lives.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Callable

from .linalg import LinComb, as_slots, coords, exact_rank, in_span, memoized, tensor_transpose
from . import trees
from .trees import LEAF, Y, leaf_count

LETTERS = "xyzuvwabcdefghij"


def words(alphabet, n):
    """All words of length n over the first `alphabet` letters."""
    if alphabet > len(LETTERS):
        raise ValueError("alphabet size must be <= %d" % len(LETTERS))
    return ["".join(w) for w in itertools.product(LETTERS[:alphabet], repeat=n)]


def bilinear(key_fn):
    """Extend a key-level binary map returning LinCombs to LinComb pairs."""
    def ext(a, b):
        return LinComb.sum(
            (key_fn(k1, k2), c1 * c2) for k1, c1 in a.items() for k2, c2 in b.items()
        )
    return ext


def linear(key_fn):
    def ext(a):
        return a.map_keys(key_fn)
    return ext


# --- decorated tree keys ---------------------------------------------------

def tree_key(tree, word):
    return tree + ":" + word


def key_parts(key):
    tree, _, word = key.partition(":")
    return tree, word


# --- free associative algebra ----------------------------------------------

def as_concat(a, b):
    """Concatenation product on words, extended bilinearly."""
    return bilinear(lambda u, v: LinComb.of(u + v))(a, b)


def _deconcat_key(w):
    return LinComb((( w[:i], w[i:] ), 1) for i in range(1, len(w)))


def as_deconcat(a):
    """Reduced deconcatenation: w -> sum of proper two-block cuts."""
    return a.map_keys(_deconcat_key)


def _unshuffles(w):
    out = []
    n = len(w)
    for r in range(1, n):
        for picks in itertools.combinations(range(n), r):
            left = "".join(w[i] for i in picks)
            rest = "".join(w[i] for i in range(n) if i not in picks)
            out.append((left, rest))
    return out


def as_shuffle_coproduct(a):
    """Reduced unshuffle coproduct (the cocommutative Hopf coproduct)."""
    return a.map_keys(lambda w: LinComb(((p, 1) for p in _unshuffles(w))))


@lru_cache(maxsize=None)
def _shuffles(u, v):
    if not u:
        return (v,)
    if not v:
        return (u,)
    return tuple(u[0] + w for w in _shuffles(u[1:], v)) + tuple(
        v[0] + w for w in _shuffles(u, v[1:])
    )


def shuffle_product(a, b):
    return bilinear(
        lambda u, v: LinComb((w, 1) for w in _shuffles(u, v))
    )(a, b)


def zinb_half_shuffle(a, b):
    """Half-shuffle u < v: the first letter of u stays first."""
    def key_fn(u, v):
        if not u or not v:
            raise ValueError("half-shuffle needs positive-degree arguments")
        return LinComb((u[0] + w, 1) for w in _shuffles(u[1:], v))
    return bilinear(key_fn)(a, b)


# --- free magmatic algebra --------------------------------------------------

def _mag_prod_key(k1, k2):
    t1, w1 = key_parts(k1)
    t2, w2 = key_parts(k2)
    return LinComb.of(tree_key(trees.vee(t1, t2), w1 + w2))


def mag_product(a, b):
    return bilinear(_mag_prod_key)(a, b)


def mag_split(key):
    """The unique factorization of a non-generator Mag basis key."""
    t, w = key_parts(key)
    l, r = trees.split(t)
    nl = leaf_count(l)
    return tree_key(l, w[:nl]), tree_key(r, w[nl:])


def _mag_dual_key(key):
    t, _ = key_parts(key)
    if t == LEAF:
        return LinComb.zero()
    return LinComb.of(mag_split(key))


def mag_dual_coproduct(a):
    """delta(t vee s; uw) = (t;u) x (s;w); zero on generators."""
    return a.map_keys(_mag_dual_key)


@lru_cache(maxsize=None)
def _mag_liv_key(key):
    t, _ = key_parts(key)
    if t == LEAF:
        return LinComb.zero()
    ka, kb = mag_split(key)
    terms = [((ka, kb), 1)]
    for (a1, a2), c in _mag_liv_key(ka).items():
        terms += [((a1, _vee_keys(a2, kb)), c), ((_vee_keys(a1, kb), a2), c)]
    return LinComb(terms)


def _vee_keys(k1, k2):
    t1, w1 = key_parts(k1)
    t2, w2 = key_parts(k2)
    return tree_key(trees.vee(t1, t2), w1 + w2)


def mag_livernet_coproduct(a):
    """The coproduct defined recursively by the Livernet compatibility."""
    return a.map_keys(_mag_liv_key)


@lru_cache(maxsize=None)
def _mag_hopf_key(key):
    t, _ = key_parts(key)
    if t == LEAF:
        return LinComb.zero()
    ka, kb = mag_split(key)
    da = _mag_hopf_key(ka)
    db = _mag_hopf_key(kb)
    terms = [((ka, kb), 1), ((kb, ka), 1)]
    for (a1, a2), c in da.items():
        terms += [((a1, _vee_keys(a2, kb)), c), ((_vee_keys(a1, kb), a2), c)]
    for (b1, b2), c in db.items():
        terms += [((_vee_keys(ka, b1), b2), c), ((b1, _vee_keys(ka, b2)), c)]
    for (a1, a2), c1 in da.items():
        for (b1, b2), c2 in db.items():
            terms.append(((_vee_keys(a1, b1), _vee_keys(a2, b2)), c1 * c2))
    return LinComb(terms)


def mag_hopf_coproduct(a):
    """The cocommutative coproduct built by recursion on the Hopf relation."""
    return a.map_keys(_mag_hopf_key)


# --- free duplicial algebra --------------------------------------------------

def _dup_left_key(k1, k2):
    t1, w1 = key_parts(k1)
    t2, w2 = key_parts(k2)
    return LinComb.of(tree_key(trees.under(t1, t2), w1 + w2))


def _dup_right_key(k1, k2):
    t1, w1 = key_parts(k1)
    t2, w2 = key_parts(k2)
    return LinComb.of(tree_key(trees.over(t1, t2), w1 + w2))


def dup_left(a, b):
    """x < y, realized by the Under grafting t\\s."""
    return bilinear(_dup_left_key)(a, b)


def dup_right(a, b):
    """x > y, realized by the Over grafting t/s."""
    return bilinear(_dup_right_key)(a, b)


def _dup_coproduct_key(key):
    t, w = key_parts(key)
    n = len(w)
    out = []
    for i in range(1, n):
        r, s = trees.path_cut(t, i)
        out.append(((tree_key(r, w[:i]), tree_key(s, w[i:])), 1))
    return LinComb(out)


def dup_coproduct(a):
    """Path-cut coproduct: one term per interior leaf of the tree."""
    return a.map_keys(_dup_coproduct_key)


def _right_edge_cuts(t):
    """Splittings t = t1 \\ t2 with both factors non-leaves."""
    out = []
    prefix = []
    cur = t
    while cur != LEAF:
        l, r = trees.split(cur)
        prefix.append(l)
        cur = r
        if cur != LEAF:
            t2 = cur
            # rebuild t1 = t with the subtree t2 replaced by a leaf
            t1 = LEAF
            for left in reversed(prefix):
                t1 = trees.vee(left, t1)
            out.append((t1, t2))
    return out


def _left_edge_cuts(t):
    """Splittings t = t1 / t2 with both factors non-leaves."""
    out = []
    suffix = []
    cur = t
    while cur != LEAF:
        l, r = trees.split(cur)
        suffix.append(r)
        cur = l
        if cur != LEAF:
            t1 = cur
            t2 = LEAF
            for right in reversed(suffix):
                t2 = trees.vee(t2, right)
            out.append((t1, t2))
    return out


def _dup_dleft_key(key):
    t, w = key_parts(key)
    out = []
    for t1, t2 in _right_edge_cuts(t):
        p = leaf_count(t1) - 1
        out.append(((tree_key(t1, w[:p]), tree_key(t2, w[p:])), 1))
    return LinComb(out)


def _dup_dright_key(key):
    t, w = key_parts(key)
    out = []
    for t1, t2 in _left_edge_cuts(t):
        p = leaf_count(t1) - 1
        out.append(((tree_key(t1, w[:p]), tree_key(t2, w[p:])), 1))
    return LinComb(out)


def dup_dleft(a):
    """Right-edge cutting coproduct, dual to the > product."""
    return a.map_keys(_dup_dleft_key)


def dup_dright(a):
    """Left-edge cutting coproduct, dual to the < product."""
    return a.map_keys(_dup_dright_key)


# --- Lie inside the tensor algebra -------------------------------------------

def lie_bracket(a, b):
    return as_concat(a, b) - as_concat(b, a)


def left_nested_bracket(word):
    """[..[[x1,x2],x3]..,xn] expanded into words; a single letter is itself."""
    acc = LinComb.of(word[0])
    for ch in word[1:]:
        acc = lie_bracket(acc, LinComb.of(ch))
    return acc


def lie_subspace(alphabet, n):
    """An ordered basis of the degree-n Lie polynomials, by bracket span."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    all_words = words(alphabet, n)
    basis = []
    for w in all_words:
        cand = left_nested_bracket(w)
        if cand and exact_rank(coords(basis + [cand], all_words)) > len(basis):
            basis.append(cand)
    return basis


def lie_cobracket(a):
    """delta - tau delta, with delta the deconcatenation.

    Restricted to Lie polynomials this lands in the span of Lie tensor Lie
    through degree three.  It escapes that span in degree four: for
    X = [[[x,y],x],x] the value contains 2(xy+yx)(x)xx - 2xx(x)(xy+yx),
    and xy+yx is not a Lie polynomial.  No rescaling or antisymmetrized
    variant of the deconcatenation repairs this; see the package tests for
    the exact witnesses.
    """
    d = as_deconcat(a)
    return d - tensor_transpose(d)


def lie_tensor_escape(alphabet, n):
    """Does the cobracket leave the span of Lie x Lie in degree n?"""
    span = [
        a.tensor(b)
        for i in range(1, n)
        for a in lie_subspace(alphabet, i)
        for b in lie_subspace(alphabet, n - i)
    ]
    return not all(in_span(span, lie_cobracket(x)) for x in lie_subspace(alphabet, n))


# --- model plumbing -----------------------------------------------------------

def iterated_coproduct(coproduct, k):
    """The k-iterated reduced coproduct (k+1 output slots); k=0 is Id."""
    def on_first(key):
        slots = as_slots(key)
        head = coproduct(LinComb.of(slots[0]))
        return head.tensor(LinComb.of(slots[1:])) if len(slots) > 1 else head

    def iterate(lc):
        cur = lc
        for _ in range(k):
            cur = LinComb.sum((on_first(key), c) for key, c in cur.items())
            if not cur:
                break
        return cur
    return iterate


def fold_product(product, tensor_lc, scalar):
    """Right-nested product of the slots of every tensor key, times scalar."""
    def fold(key):
        slots = as_slots(key)
        acc = LinComb.of(slots[-1])
        for s in reversed(slots[:-1]):
            acc = product(LinComb.of(s), acc)
        return acc
    return LinComb.sum((fold(key), c * scalar) for key, c in tensor_lc.items())


def _monomial_splitting(coproduct, product, scalar=lambda n: 1):
    """The associative cooperad as a one-label splitting.

    Its one n-ary cooperation is the (n-1)-iterated reduced coproduct,
    paired with the right-nested n-fold product times scalar(n).  Every
    arity iterates the same memoized coproduct.
    """
    delta = memoized(coproduct)

    def splitting(n):
        def operation(tensor_lc):
            return fold_product(product, tensor_lc, scalar(n))
        return [(None, iterated_coproduct(delta, n - 1), operation)]
    return splitting


@dataclass(frozen=True)
class BialgebraModel:
    name: str
    alphabet: int
    basis: Callable[[int], list]
    degree: Callable[[object], int]
    products: dict
    coproducts: dict
    generating_coproducts: tuple
    # arity n -> [(label, cooperation, operation)]: the n-ary cooperations
    # of the cooperad side, each paired with its splitting operation; the
    # cooperations of all arities share one key-level memo per generating
    # coproduct for the model's lifetime
    splitting: Callable[[int], list] | None = None
    classical: bool = False


def _word_degree(key):
    return len(key)


def _tree_key_degree(key):
    return len(key_parts(key)[1])


def as_model(alphabet=1):
    """Free associative algebra with the deconcatenation coproduct."""
    return BialgebraModel(
        name="as",
        alphabet=alphabet,
        basis=lambda n: words(alphabet, n),
        degree=_word_degree,
        products={"mul": as_concat},
        coproducts={"delta": as_deconcat},
        generating_coproducts=("delta",),
        splitting=_monomial_splitting(as_deconcat, as_concat),
    )


def classical_model(alphabet=2):
    """Tensor algebra with the unshuffle coproduct (classical Hopf case)."""
    return BialgebraModel(
        name="classical",
        alphabet=alphabet,
        basis=lambda n: words(alphabet, n),
        degree=_word_degree,
        products={"mul": as_concat},
        coproducts={"delta": as_shuffle_coproduct},
        generating_coproducts=("delta",),
        splitting=_monomial_splitting(
            as_shuffle_coproduct, as_concat,
            scalar=lambda k: Fraction(1, factorial(k)),
        ),
        classical=True,
    )


def zinbiel_model(alphabet=2):
    """Free Zinbiel algebra: half-shuffle product, deconcatenation coproduct."""
    return BialgebraModel(
        name="zinb",
        alphabet=alphabet,
        basis=lambda n: words(alphabet, n),
        degree=_word_degree,
        products={"left": zinb_half_shuffle, "star": shuffle_product},
        coproducts={"delta": as_deconcat},
        generating_coproducts=("delta",),
    )


def _mag_basis(alphabet):
    def basis(n):
        return [
            tree_key(t, w)
            for t in trees.enumerate_trees(n)
            for w in words(alphabet, n)
        ]
    return basis


def mag_tree_cooperation(t, delta):
    """The cooperation dual to the tree t in the comagmatic cooperad.

    delta is the dual coproduct (mag_dual_coproduct, possibly memoized).
    """
    if t == LEAF:
        return lambda lc: lc
    l, r = trees.split(t)
    fl = mag_tree_cooperation(l, delta)
    fr = mag_tree_cooperation(r, delta)

    def coop(lc):
        return LinComb.sum(
            (fl(LinComb.of(k1)).tensor(fr(LinComb.of(k2))), c)
            for (k1, k2), c in delta(lc).items()
        )
    return coop


def mag_tree_operation(t):
    """The n-ary product indexed by a tree with n leaves."""
    def op(tensor_lc):
        return LinComb.sum(
            (_mag_tree_apply(t, as_slots(key)), c) for key, c in tensor_lc.items()
        )
    return op


def _mag_tree_apply(t, slots):
    if t == LEAF:
        return LinComb.of(slots[0])
    l, r = trees.split(t)
    nl = leaf_count(l)
    return mag_product(_mag_tree_apply(l, slots[:nl]), _mag_tree_apply(r, slots[nl:]))


def _mag_dual_pairs():
    """The comagmatic splitting: one tree-indexed pair per tree with n leaves."""
    delta = memoized(mag_dual_coproduct)

    def splitting(n):
        return [
            (t, mag_tree_cooperation(t, delta), mag_tree_operation(t))
            for t in trees.enumerate_trees(n)
        ]
    return splitting


def mag_model(alphabet=1):
    """Free magmatic algebra with its dual, Livernet and Hopf coproducts."""
    return BialgebraModel(
        name="mag",
        alphabet=alphabet,
        basis=_mag_basis(alphabet),
        degree=_tree_key_degree,
        products={"mul": mag_product},
        coproducts={
            "delta": mag_dual_coproduct,
            "liv": mag_livernet_coproduct,
            "hopf": mag_hopf_coproduct,
        },
        generating_coproducts=("delta",),
        splitting=_mag_dual_pairs(),
    )


def _dup_basis(alphabet):
    def basis(n):
        return [
            tree_key(t, w)
            for t in trees.enumerate_trees(n + 1)
            for w in words(alphabet, n)
        ]
    return basis


def dup_model(alphabet=1):
    """Free duplicial algebra with the path-cut coproduct."""
    return BialgebraModel(
        name="dup",
        alphabet=alphabet,
        basis=_dup_basis(alphabet),
        degree=_tree_key_degree,
        products={"left": dup_left, "right": dup_right},
        coproducts={
            "delta": dup_coproduct,
            "dleft": dup_dleft,
            "dright": dup_dright,
        },
        generating_coproducts=("delta",),
        splitting=_monomial_splitting(dup_coproduct, dup_right),
    )


def dup_tree_cooperation(t, dleft, dright):
    """The cooperation dual to the duplicial monomial of the tree t.

    Mirrors the unique writing of t with n+1 leaves as
    (m(t_left) > x) < m(t_right) at the root.  dleft and dright are the
    edge-cutting coproducts (dup_dleft and dup_dright, possibly memoized).
    """
    if t == Y:
        return lambda lc: lc
    l, r = trees.split(t)

    if r == LEAF:
        fl = dup_tree_cooperation(l, dleft, dright)

        def coop(lc):
            return LinComb.sum(
                (fl(LinComb.of(ka)).tensor(LinComb.of(km)), c)
                for (ka, km), c in dright(lc).items() if _tree_key_degree(km) == 1
            )
        return coop

    fr = dup_tree_cooperation(r, dleft, dright)

    if l == LEAF:
        def coop(lc):
            return LinComb.sum(
                (LinComb.of(ku).tensor(fr(LinComb.of(kb))), c)
                for (ku, kb), c in dleft(lc).items() if _tree_key_degree(ku) == 1
            )
        return coop

    fl = dup_tree_cooperation(l, dleft, dright)

    def coop(lc):
        return LinComb.sum(
            (fl(LinComb.of(ka)).tensor(LinComb.of(km)).tensor(fr(LinComb.of(kb))), c * c2)
            for (ku, kb), c in dleft(lc).items()
            for (ka, km), c2 in dright(LinComb.of(ku)).items()
            if _tree_key_degree(km) == 1
        )
    return coop


def dup_tree_operation(t):
    """The n-ary duplicial monomial indexed by a tree with n+1 leaves."""
    def op(tensor_lc):
        return LinComb.sum(
            (_dup_tree_apply(t, as_slots(key)), c) for key, c in tensor_lc.items()
        )
    return op


def _dup_tree_apply(t, slots):
    if t == Y:
        return LinComb.of(slots[0])
    l, r = trees.split(t)
    if r == LEAF:
        return dup_right(_dup_tree_apply(l, slots[:-1]), LinComb.of(slots[-1]))
    p = leaf_count(l) - 1  # degree carried by the left factor
    right = _dup_tree_apply(r, slots[p + 1:])
    if l == LEAF:
        return dup_left(LinComb.of(slots[0]), right)
    u = dup_right(_dup_tree_apply(l, slots[:p]), LinComb.of(slots[p]))
    return dup_left(u, right)


def _bidup_dual_pairs():
    """The biduplicial splitting: one tree-indexed pair per tree with n+1 leaves."""
    dleft, dright = memoized(dup_dleft), memoized(dup_dright)

    def splitting(n):
        return [
            (t, dup_tree_cooperation(t, dleft, dright), dup_tree_operation(t))
            for t in trees.enumerate_trees(n + 1)
        ]
    return splitting


def bidup_model(alphabet=1):
    """Free duplicial algebra seen as a biduplicial bialgebra."""
    return BialgebraModel(
        name="bidup",
        alphabet=alphabet,
        basis=_dup_basis(alphabet),
        degree=_tree_key_degree,
        products={"left": dup_left, "right": dup_right},
        coproducts={"dleft": dup_dleft, "dright": dup_dright},
        generating_coproducts=("dleft", "dright"),
        splitting=_bidup_dual_pairs(),
    )


def lie_model(alphabet=2):
    """Lie polynomials inside the tensor algebra, with bracket and cobracket.

    Basis elements are LinCombs of words (the bracket-span basis), not
    atomic keys; the relation checker handles both.
    """
    return BialgebraModel(
        name="lie",
        alphabet=alphabet,
        basis=lambda n: lie_subspace(alphabet, n),
        degree=_word_degree,
        products={"mul": lie_bracket},
        coproducts={"delta": lie_cobracket},
        generating_coproducts=("delta",),
    )


def nil_model(alphabet=2):
    """Associative algebra truncated at degree 2: triple products vanish."""
    def trunc_concat(a, b):
        out = as_concat(a, b)
        return LinComb((k, c) for k, c in out.items() if len(k) <= 2)

    def basis(n):
        return words(alphabet, n) if n <= 2 else []

    return BialgebraModel(
        name="nil",
        alphabet=alphabet,
        basis=basis,
        degree=_word_degree,
        products={"mul": trunc_concat},
        coproducts={"delta": as_deconcat},
        generating_coproducts=("delta",),
    )


_MODEL_FACTORIES = {
    "as": as_model,
    "classical": classical_model,
    "zinb": zinbiel_model,
    "mag": mag_model,
    "dup": dup_model,
    "bidup": bidup_model,
    "lie": lie_model,
    "nil": nil_model,
}


def get_model(name, alphabet=None):
    if name not in _MODEL_FACTORIES:
        raise KeyError("unknown model %r (choose from %s)" % (name, sorted(_MODEL_FACTORIES)))
    factory = _MODEL_FACTORIES[name]
    return factory() if alphabet is None else factory(alphabet)


def model_names():
    return sorted(_MODEL_FACTORIES)
