"""Free bialgebra models on explicit combinatorial bases.

Words over a finite alphabet carry the free associative and Zinbiel
algebras; planar binary trees decorated with words carry the free
magmatic and duplicial algebras.  On trees every product is one graft
(vee, over or under) and every cut coproduct one kernel over a cut
family: the root split, the path cuts, or the right or left edge cuts.
Every named product and reduced coproduct is defined once, on basis keys,
as in the paper: a product is a kernel (key, key) -> LinComb and a
coproduct a kernel key -> LinComb, under its module-level name.  As, Mag
and Dup are set operads, so concatenation and the three graftings send two
keys to one key with coefficient 1: each of them is declared as its key map
(k1, k2) -> key (see _monomial), and a product extended to LinCombs, the
left side of a relation check and the bicomplex differential add c1 c2 at
that key without building a LinComb per pair.  Each model packages its
graded basis and its kernels behind one interface, and BialgebraModel
extends the kernels to LinCombs in one place, so the relation checker and
the idempotent engine can treat them uniformly.
A model with a coalgebra splitting keeps per-key memos of each key's
labeled cooperations and of its PBW components (the same with the versal
idempotent in every slot), and looks up the splitting operation of each
label; the associative cooperad is the case of one label, whose two memos
are one builder over the reduced coproduct memo.  A free algebra is a
Schur functor, so renaming the letters commutes with every product and
coproduct of a free model, and one table, _RENAMING, says how each kernel
does.  A "lift" kernel keeps words: a coproduct that only slices a key's
word, or a product that joins two words in slot order.  A map made of
those is the alphabet-1 map times the identity on words, so it is read on
the one-letter keys (stem x...x) with the word put back.  An "orbit"
kernel moves letters within a key's letter content (the shuffle kernels,
mag's liv and hopf), and a map made of those and lift kernels is answered
once per orbit of the letter permutations.  reduction reads the table;
_standardized reads a per-key map of one output slot (the versal,
Eulerian and geometric idempotents) in the mode it gives.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, partial, wraps
from math import factorial
from typing import Callable

from .errors import UsageError
from .linalg import (LinComb, _Memo, _echelon, _over, _power_memo, as_slots, coords, exact_rank,
                     tensor_transpose)
from . import trees
from .trees import LEAF, Y, leaf_count

LETTERS = "xyzuvwabcdefghij"


def words(alphabet, n):
    """All words of length n over the first `alphabet` letters."""
    if alphabet > len(LETTERS):
        raise ValueError("alphabet size must be <= %d" % len(LETTERS))
    return ["".join(w) for w in itertools.product(LETTERS[:alphabet], repeat=n)]


# One-key product kernels -> their key maps (k1, k2) -> key, filled by _monomial.
# Keyed on the kernel object: a kernel wrapped or replaced is not declared.
_KEY_MAPS = {}


def _monomial(key_map):
    """The product kernel (k1, k2) -> LinComb.of(key_map(k1, k2)), declared in _KEY_MAPS.

    As, Mag and Dup are set operads: the product of two basis keys is one
    basis key with coefficient 1, so a reader with keys in hand adds c1 c2
    at key_map(k1, k2) and builds no LinComb.
    """
    @wraps(key_map)
    def kernel(k1, k2):
        return LinComb.of(key_map(k1, k2))
    _KEY_MAPS[kernel] = key_map
    return kernel


def _key_items(kernel):
    """(k1, k2) -> the (key, coefficient) items of kernel(k1, k2).

    A kernel declared in _KEY_MAPS is resolved here, once: its items are
    its key map's one key with coefficient 1, and no LinComb is built.
    """
    key_map = _KEY_MAPS.get(kernel)
    if key_map is None:
        return lambda k1, k2: kernel(k1, k2).items()
    return lambda k1, k2: ((key_map(k1, k2), 1),)


def bilinear(key_fn):
    """Extend a key-level binary map returning LinCombs to LinComb pairs.

    The image of each key pair, times c1 c2, goes straight into one dict of
    int numerators over a.den b.den; a non-integral image sends all the
    pairs through LinComb.sum instead.  A one-key product declared in
    _KEY_MAPS adds c1 c2 at its key map's key(k1, k2) and calls no kernel;
    any other kernel, a wrapped one too, is called once per pair.
    """
    key_map = _KEY_MAPS.get(key_fn)
    if key_map is not None:
        def ext(a, b):
            right = b.terms.items()
            out = {}
            get = out.get
            for k1, c1 in a.terms.items():
                for k2, c2 in right:
                    k = key_map(k1, k2)
                    x = get(k, 0) + c1 * c2
                    if x:
                        out[k] = x
                    else:
                        del out[k]
            return _over(out, a.den * b.den)
        return ext

    def ext(a, b):
        right = b.terms.items()
        out = {}
        get = out.get
        for k1, c1 in a.terms.items():
            for k2, c2 in right:
                image = key_fn(k1, k2)
                if image.den != 1:
                    return LinComb.sum(((key_fn(u, v), d * e) for u, d in a.terms.items()
                                        for v, e in right), a.den * b.den)
                c = c1 * c2
                for k, d in image.terms.items():
                    x = get(k, 0) + c * d
                    if x:
                        out[k] = x
                    else:
                        del out[k]
        return _over(out, a.den * b.den)
    return ext


# --- decorated tree keys ---------------------------------------------------

def tree_key(tree, word):
    return tree + ":" + word


def key_parts(key):
    tree, _, word = key.partition(":")
    return tree, word


def _graft_keys(graft, k1, k2):
    """The key of graft(tree1, tree2), decorated with the two words joined."""
    t1, _, w1 = k1.partition(":")
    t2, _, w2 = k2.partition(":")
    return graft(t1, t2) + ":" + w1 + w2


def _cut_keys(key, cuts, extra):
    """Sum of (t1:w[:p]) x (t2:w[p:]) over (t1, t2) in cuts(t), p = leaves(t1) - extra.

    Each cut is one term with coefficient 1: every cut family passed here lists distinct
    cuts (path cut i has i + 1 left leaves, edge cuts' factors strictly shrink, one root split)."""
    t, _, w = key.partition(":")
    out = {}
    for t1, t2 in cuts(t):
        p = t1.count(LEAF) - extra
        out[t1 + ":" + w[:p], t2 + ":" + w[p:]] = 1
    return _over(out, 1)


def _word_stem(key):
    """(stem, word) of a basis key: "t:" and w of a tree key t:w, "" and a word key."""
    stem, sep, word = key.rpartition(":")
    return stem + sep, word


def _stems(lc):
    """lc, a LinComb of keys of one degree, over their stems."""
    return _over({_word_stem(k)[0]: c for k, c in lc.terms.items()}, lc.den)


def _relabel(stems, word):
    """The LinComb over stem + word of stems, a LinComb over key stems."""
    return _over({s + word: c for s, c in stems.terms.items()}, stems.den)


# --- free associative algebra ----------------------------------------------

@_monomial
def as_concat(u, v):
    """Concatenation of two words."""
    return u + v


def as_deconcat(w):
    """Reduced deconcatenation: w -> sum of proper two-block cuts."""
    return LinComb(((w[:i], w[i:]), 1) for i in range(1, len(w)))


def as_shuffle_coproduct(w):
    """Reduced unshuffle coproduct (the cocommutative Hopf coproduct).

    Letter by letter, each (left, right) pair sends the next letter to
    either side and equal pairs merge; the improper pairs go last.
    """
    pairs = {("", ""): 1}
    for a in w:
        grown = {}
        get = grown.get
        for (u, v), m in pairs.items():
            pair = (u + a, v)
            grown[pair] = get(pair, 0) + m
            pair = (u, v + a)
            grown[pair] = get(pair, 0) + m
        pairs = grown
    pairs.pop((w, ""), None)
    pairs.pop(("", w), None)
    return _over(pairs, 1)


@lru_cache(maxsize=None)
def _shuffles(u, v):
    if not u:
        return (v,)
    if not v:
        return (u,)
    return tuple(u[0] + w for w in _shuffles(u[1:], v)) + tuple(
        v[0] + w for w in _shuffles(u, v[1:])
    )


def shuffle_product(u, v):
    return LinComb((w, 1) for w in _shuffles(u, v))


def zinb_half_shuffle(u, v):
    """Half-shuffle u < v: the first letter of u stays first."""
    if not u or not v:
        raise ValueError("half-shuffle needs positive-degree arguments")
    return LinComb((u[0] + w, 1) for w in _shuffles(u[1:], v))


# --- free magmatic algebra --------------------------------------------------

def _vee_keys(k1, k2):
    return _graft_keys(trees.vee, k1, k2)


@_monomial
def mag_product(k1, k2):
    """The vee grafting t v s, decorated with the two words joined."""
    return _vee_keys(k1, k2)


def mag_split(key):
    """The unique factorization of a non-generator Mag basis key."""
    t, _, w = key.partition(":")
    l, r = trees.split(t)
    nl = l.count(LEAF)
    return l + ":" + w[:nl], r + ":" + w[nl:]


def mag_dual_coproduct(key):
    """delta(t vee s; uw) = (t;u) x (s;w); zero on generators."""
    return _cut_keys(key, lambda t: [] if t == LEAF else [trees.split(t)], 0)


@lru_cache(maxsize=None)
def _mag_liv_key(key):
    if key[0] == LEAF:  # a generator, .:letter
        return LinComb.zero()
    ka, kb = mag_split(key)
    terms = [((ka, kb), 1)]
    for (a1, a2), c in _mag_liv_key(ka).items():
        terms += [((a1, _vee_keys(a2, kb)), c), ((_vee_keys(a1, kb), a2), c)]
    return LinComb(terms)


def mag_livernet_coproduct(key):
    """The coproduct defined recursively by the Livernet compatibility."""
    return _mag_liv_key(key)


@lru_cache(maxsize=None)
def _mag_hopf_key(key):
    if key[0] == LEAF:  # a generator, .:letter
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


def mag_hopf_coproduct(key):
    """The cocommutative coproduct built by recursion on the Hopf relation."""
    return _mag_hopf_key(key)


# --- free duplicial algebra --------------------------------------------------

# keys split inline, graftings looked up as trees.under/over at call time: a trace counts each
@_monomial
def dup_left(k1, k2):
    """x < y, realized by the Under grafting t\\s."""
    return _graft_keys(trees.under, k1, k2)


@_monomial
def dup_right(k1, k2):
    """x > y, realized by the Over grafting t/s."""
    return _graft_keys(trees.over, k1, k2)


def dup_coproduct(key):
    """Path-cut coproduct: one term per interior leaf of the tree."""
    return _cut_keys(key, lambda t: trees.path_cuts(t)[1:-1], 1)


def _right_edge_cuts(t):
    """Splittings t = t1 \\ t2 with both factors non-leaves, top edge first.

    t2 is a subtree on the right edge, t1 the tree above it with a leaf in its place.
    """
    out, above, below = [], "", ""
    while t[-2:] == "))":  # the right subtree is not a leaf
        l, r = trees.split(t)
        out.append((above + "(" + l + ",.)" + below, r))
        above, below, t = above + "(" + l + ",", ")" + below, r
    return out


def _left_edge_cuts(t):
    """Splittings t = t1 / t2 with both factors non-leaves, top edge first.

    t1 is a subtree on the left edge, t2 the tree above it with a leaf in its place.
    """
    out, above, below = [], "", ""
    while t[:2] == "((":  # the left subtree is not a leaf
        l, r = trees.split(t)
        out.append((l, above + "(.," + r + ")" + below))
        above, below, t = above + "(", "," + r + ")" + below, l
    return out


def dup_dleft(key):
    """Right-edge cutting coproduct, dual to the > product."""
    return _cut_keys(key, _right_edge_cuts, 1)


def dup_dright(key):
    """Left-edge cutting coproduct, dual to the < product."""
    return _cut_keys(key, _left_edge_cuts, 1)


def nil_concat(u, v):
    """Concatenation truncated at degree 2: longer products vanish."""
    return as_concat(u, v) if len(u) + len(v) <= 2 else LinComb.zero()


# --- Lie inside the tensor algebra -------------------------------------------

def lie_bracket(u, v):
    """The commutator uv - vu of two words; [u, u] = 0."""
    return LinComb(((u + v, 1), (v + u, -1)))


def left_nested_bracket(word):
    """[..[[x1,x2],x3]..,xn] expanded into words; a single letter is itself."""
    acc = LinComb.of(word[0])
    for ch in word[1:]:
        acc = acc.map_keys(lambda u: lie_bracket(u, ch))
    return acc


def lie_subspace(alphabet, n):
    """An ordered basis of the degree-n Lie polynomials, by bracket span.

    The left-nested brackets of the words in order that lie outside the span
    of those before them: the pivot columns of one echelon form.
    """
    if n < 1:
        raise ValueError("degree must be >= 1")
    brackets = [left_nested_bracket(w) for w in words(alphabet, n)]
    return [brackets[j] for j in _echelon(coords(brackets))[1]]


def lie_cobracket(w):
    """delta - tau delta, with delta the deconcatenation.

    Restricted to Lie polynomials this lands in the span of Lie tensor Lie
    through degree three.  It escapes that span in degree four: for
    X = [[[x,y],x],x] the value contains 2(xy+yx)(x)xx - 2xx(x)(xy+yx),
    and xy+yx is not a Lie polynomial.  No rescaling or antisymmetrized
    variant of the deconcatenation repairs this; see the package tests for
    the exact witnesses.
    """
    d = as_deconcat(w)
    return d - tensor_transpose(d)


def lie_tensor_escape(alphabet, n):
    """Does the cobracket leave the span of Lie x Lie in degree n?

    Exactly when adding the cobracket images to that span raises its rank.
    """
    lie = {d: lie_subspace(alphabet, d) for d in range(1, n + 1)}
    span = [a.tensor(b) for i in range(1, n) for a in lie[i] for b in lie[n - i]]
    images = [x.map_keys(lie_cobracket) for x in lie[n]]
    return exact_rank(coords(span + images)) > exact_rank(coords(span))


# How each kernel commutes with renaming the letters, keyed on the kernel
# object: a kernel wrapped or replaced, before or after a model is built, is
# not in the table.  "lift": it keeps words, each image of t:w being that of
# t:x...x with w put back by position.  "orbit": a permutation s of the
# letters, put on the word of every key in every slot, sends the image of k
# to the image of s(k), and a key's letter content to s of it; the shuffle
# kernels and mag's liv and hopf move letters within that content.  A lift
# kernel commutes with renaming too.  lie's are left out: its basis entries
# are LinCombs, not keys.
_RENAMING = {**dict.fromkeys((as_concat, as_deconcat, nil_concat, mag_product, mag_dual_coproduct,
                              dup_left, dup_right, dup_coproduct, dup_dleft, dup_dright), "lift"),
             **dict.fromkeys((as_shuffle_coproduct, shuffle_product, zinb_half_shuffle,
                              mag_livernet_coproduct, mag_hopf_coproduct), "orbit")}


def _standard(word):
    """Do the word's letters first appear in LETTERS order (x, then y, ...)?

    Such a word is the least, in basis order, of its relabellings.
    """
    return LETTERS.startswith("".join(dict.fromkeys(word)))


def _standardized(fn, mode):
    """key -> fn(key) for a key map fn of one output slot, read once per class of keys.

    mode is reduction's answer for the kernels fn is made of.  None: fn
    itself.  "lift": fn read at the key's one-letter twin (stem x...x),
    with the key's word put back; the stems of each twin's image are kept
    for the next word.  "orbit": a standard key is read as it is, any other
    at its first-occurrence relabelling (its letters renamed x, y, ... in
    order of first appearance), with the image's letters renamed back; a
    stem holds no letter, so the whole key is renamed.
    """
    if mode is None:
        return fn
    if mode == "lift":
        stems = _Memo(lambda twin, _: _stems(fn(twin)))

        def lifted(key):
            stem, word = _word_stem(key)
            return _relabel(stems(stem + LETTERS[0] * len(word)), word)
        return lifted

    def standardized(key):
        seen = "".join(dict.fromkeys(_word_stem(key)[1]))
        if _standard(seen):
            return fn(key)
        image = fn(key.translate(str.maketrans(seen, LETTERS[:len(seen)])))
        back = str.maketrans(LETTERS[:len(seen)], seen)
        return _over({k.translate(back): c for k, c in image.terms.items()}, image.den)
    return standardized


# --- model plumbing -----------------------------------------------------------

def iterated_coproduct(coproduct, k):
    """The k-iterated reduced coproduct (k+1 output slots) on LinCombs; k=0 is Id.

    coproduct is key-level: a basis key -> its image LinComb.  Each step cuts
    the first slot, Delta x id x ... x id, so the result is the literal
    (Delta x id) ... Delta even where Delta is not coassociative.
    """
    def cut_first(key):
        slots = as_slots(key)
        cut, rest = coproduct(slots[0]), slots[1:]
        return _over({pair + rest: d for pair, d in cut.terms.items()}, cut.den) if rest else cut

    def iterate(lc):
        for _ in range(k):
            lc = lc.map_keys(cut_first)
        return lc
    return iterate


@dataclass(frozen=True)
class Splitting:
    """The cooperad side C of a model, with its splitting s: C -> A.

    decompose sends a basis key to all of its labeled cooperations of every
    arity at once: a LinComb over keys (label, slot_1, ..., slot_n), whose
    arity is the number of slots.  labels(n) is a basis of C_n, and
    operation(label) the splitting operation s(label) on tensor LinCombs.
    versal(key) is e(key) for the versal idempotent e, by the PBW recursion
    e(x) = x - sum over n >= 2 and c in C_n of s(c)(e x ... x e)(c(x)),
    and components(key), which pbw_expand reads, is (id x e^n)(decompose(key)):
    per-model memos with no degree bound.  A tree splitting writes its
    cooperad's recursion once (see _tree_splitting); an associative one
    reads the reduced coproduct, and cuts is (its kernel, its per-key memo),
    the memo that convolution on that coproduct and both of its cooperation
    memos share (see _associative_splitting).  kernels are the
    coproduct and product kernels the memos compute with: reduction of
    them, read off the _RENAMING table, is the mode in which the versal
    memo is read through _standardized.
    """
    decompose: Callable[[object], LinComb]
    labels: Callable[[int], list]
    operation: Callable[[object], Callable]
    versal: Callable[[object], LinComb]
    components: Callable[[object], LinComb]
    kernels: tuple
    cuts: tuple | None = None


def require_splitting(model):
    """The model's Splitting; the versal idempotent, PBW, omega and phi need one."""
    if model.splitting is None:
        raise UsageError("model %s has no splitting scheme" % model.name)
    return model.splitting


def by_label(decomposition):
    """{arity: {label: tensor LinComb}} of a decomposition; arity 1 keeps plain keys."""
    parts = {}
    for key, c in decomposition.items():
        slots = key[1] if len(key) == 2 else key[1:]
        parts.setdefault(len(key) - 1, {}).setdefault(key[0], {})[slots] = c
    return {n: {label: LinComb(t) for label, t in group.items()} for n, group in parts.items()}


def _operations(apply):
    """label -> the operation sending each tensor key to apply(label, its slots as LinCombs)."""
    def operation(label):
        def op(tensor_lc):
            return LinComb.sum(((apply(label, tuple(map(LinComb.of, as_slots(key)))), c)
                                for key, c in tensor_lc.terms.items()), tensor_lc.den)
        return op
    return operation


def _tree_splitting(step, labels, apply, coproducts, products):
    """A splitting with one tree per label, s(label) = apply(label, slot LinCombs, *extended).

    extended are the product kernels extended to LinCombs, built once.
    step(key, memo, unit, *coproducts) is the cooperad's root recursion: the
    terms of arity >= 2 of a key, read off the memo of its root factors, and
    its arity-1 term on the slot unit(key, those terms).  decompose puts the
    key in that slot, components e(key): the key less s(label)(slots) over
    the other terms, which carry e in every slot already.  step and apply
    reach the model's kernels only through the ones handed to them, so the
    splitting's kernels are coproducts + products, what its memos compute
    with.
    """
    extended = tuple(map(bilinear, products))

    def versal_unit(key, higher):
        return LinComb.of(key) - LinComb.sum(
            (apply(t[0], tuple(map(LinComb.of, t[1:])), *extended), c) for t, c in higher)

    components = _Memo(lambda key, memo: step(key, memo, versal_unit, *coproducts))

    def versal(key):
        comps = components(key)
        return _over({t[1]: c for t, c in comps.terms.items() if len(t) == 2}, comps.den)
    return Splitting(
        _Memo(lambda key, memo: step(key, memo, lambda key, _: LinComb.of(key), *coproducts)),
        labels, _operations(lambda label, slots: apply(label, slots, *extended)), versal,
        components, coproducts + products)


def _associative_splitting(coproduct, product, exponential=False):
    """The associative cooperad: the one label None in every arity.

    Its arity-n part is Delta^[n-1], which by coassociativity is the n-th
    tensor power of the identity under the reduced coproduct, so decompose
    and components are one builder over one memo of that coproduct per
    model: cooperations(first) lists the tensor powers of first per key,
    with None put in front; first is the identity for decompose and the
    versal idempotent e for components.  The operation on a term
    (s_1, ..., s_n) is the right-nested product s_1 (s_2 (... s_n)), times
    1/n! when exponential.  The versal memo reads the coproduct memo alone,
    never decompose: the arity-n terms of x with first slot a are a followed
    by the arity-(n-1) terms of b, over the terms c a x b of Delta(x).  With
    scalar 1 the terms of b add up to b itself, so e(x) = x - sum of
    c e(a) b.  With 1/n! the arity-n terms of x add up to e^{*n}(x) / n!, so
    e(x) = x - sum over n >= 2 of e^{*n}(x) / n!, read off the per-key list
    [e, e*e, ...] of convolution powers.

    With scalar 1 and a product declared in _KEY_MAPS, e kills products:
    e(x) = 0 as soon as a term a x b of Delta(x) has key_map(a, b) = x, and
    a left factor a with e(a) = 0 adds nothing.  The rule needs the product
    associative and the nui relation Delta(uv) = u x v + Delta(u) v +
    u Delta(v), which hold for (as_deconcat, as_concat) and
    (dup_coproduct, dup_right).  By nui, x = uv puts u x v in Delta(x) with
    coefficient 1, and by induction on the degree
        e(uv) = uv - e(u) v - sum e(u_1)(u_2 v) - sum e(u v_1) v_2
              = uv - e(u) v - (u - e(u)) v - 0 = 0,
    the middle sum being (u - e(u)) v by the recursion at u and the last
    one zero by induction.  The test is read off the key's own terms of
    Delta, so the coproduct memo is filled for every key the versal memo
    reads.  It does not cover the exponential branch (classical, where
    e(xy) = (xy - yx)/2), the tree splittings, or a product kernel not in
    _KEY_MAPS (a wrapped one): these take the whole recursion.
    """
    # pieces are interned: the memo keeps one string per distinct key
    delta = _Memo(lambda key, _: LinComb(
        (tuple(map(sys.intern, pair)), c) for pair, c in coproduct(key).items()))
    kernel, product = product, bilinear(product)

    def cooperations(first):
        """key -> the LinComb over (None, s_1, ..., s_n) of first's tensor powers at key."""
        powers = _power_memo(lambda key, _: first(key), delta, LinComb.tensor)
        return lambda key: LinComb.of(None).tensor(LinComb.sum((p, 1) for p in powers(key)))

    def fold(_, images):
        acc = images[-1]
        for image in images[-2::-1]:
            acc = product(image, acc)
        return acc.scale(Fraction(1, factorial(len(images))) if exponential else 1)

    if exponential:
        powers = _power_memo(lambda key, higher: LinComb.sum(
            [(LinComb.of(key), 1)]
            + [(p, Fraction(-1, factorial(n))) for n, p in enumerate(higher, 2)]),
            delta, product)

        def versal(key):
            return powers(key)[0]
    else:
        key_map = _KEY_MAPS.get(kernel)

        def step(key, e):
            rests = {}  # the terms c a x b of Delta(key), grouped by a
            for (a, b), c in delta(key).items():
                if key_map is not None and key_map(a, b) == key:
                    return LinComb.zero()  # key = ab, and e kills products
                rests.setdefault(a, {})[b] = c
            terms = [(LinComb.of(key), 1)]
            for a, rest in rests.items():
                left = e(a)
                if left:
                    terms.append((product(left, LinComb(rest)), -1))
            return LinComb.sum(terms)
        versal = _Memo(step)
    return Splitting(cooperations(LinComb.of), lambda n: [None], _operations(fold), versal,
                     cooperations(versal), (coproduct, kernel), (coproduct, delta))


@dataclass(frozen=True)
class BialgebraModel:
    """A graded basis, named products and coproducts, and an optional Splitting.

    Each operation is given once, on basis keys: key_products maps a name to
    a kernel (key, key) -> LinComb, key_coproducts to a kernel
    key -> LinComb.  products and coproducts are their linear extensions to
    LinCombs, built here and nowhere else; a caller with keys in hand calls
    the kernel.  A product kernel declared as a one-key product (see
    _monomial) is extended through its key map, one dict entry per pair of
    terms and no kernel call; any other one, a wrapper of one too, is called
    once per pair.  The versal, Eulerian and geometric idempotents,
    primitive_part and check_relation read a map made only of "lift"
    kernels of the _RENAMING table off the one-letter keys, and answer one
    orbit of the letter permutations at a time where its kernels are all
    in the table and some one is an "orbit" kernel (see reduction): the
    kernel objects a model holds decide, not their names, so a model
    holding another kernel under the same name takes the direct path.
    """
    name: str
    alphabet: int
    basis: Callable[[int], list]
    key_products: dict
    key_coproducts: dict
    generating_coproducts: tuple
    # structural basis membership of a key string, without listing a basis
    is_key: Callable[[str], bool]
    splitting: Splitting | None = None
    classical: bool = False

    @cached_property
    def products(self):
        return {sym: bilinear(fn) for sym, fn in self.key_products.items()}

    @cached_property
    def coproducts(self):
        return {sym: partial(LinComb.map_keys, fn=fn) for sym, fn in self.key_coproducts.items()}

    def lookup(self, table, sym):
        """self.<table>[sym], table a (co)product table's name; refused if sym is not in it."""
        ops = getattr(self, table)
        if sym not in ops:
            raise UsageError("model %s has no %s %r"
                             % (self.name, table.removeprefix("key_")[:-1], sym))
        return ops[sym]


def reduction(model, kernels):
    """How a map made of these kernels is computed on more than one letter (see _standardized).

    Read off the _RENAMING entry of each kernel: "lift" when every one is a
    lift kernel, read it on the one-letter keys and put the word back;
    "orbit" when every one is in the table and some one is not a lift
    kernel, answer one representative of each orbit of the letter
    permutations.  None on one letter, or when some kernel is not in the
    table: the direct computation.
    """
    modes = {_RENAMING.get(k) for k in kernels}
    if model.alphabet < 2 or None in modes:
        return None
    return "orbit" if "orbit" in modes else "lift"


def _require_key(model, key):
    """Refuse a key that is not a basis element of the model."""
    if not (isinstance(key, str) and model.is_key(key)):
        raise UsageError("key %r is not a basis element of model %s" % (key, model.name))


def require_keys(model, basis):
    """Refuse a listed basis of LinCombs (lie's): a matrix needs keys as coordinates."""
    if basis and isinstance(basis[0], LinComb):
        raise UsageError("model %s has no basis keys: its basis entries are linear combinations"
                         % model.name)


def _keys(alphabet, extra_leaves=None, top_degree=None):
    """basis and is_key, as BialgebraModel keywords, of the keys: words over the alphabet,
    or tree:word with len(word) + extra_leaves leaves (trees first); none past top_degree."""
    letters = set(LETTERS[:alphabet])

    def basis(n):
        if top_degree is not None and n > top_degree:
            return []
        if extra_leaves is None:
            return words(alphabet, n)
        return [tree_key(t, w) for t in trees.enumerate_trees(n + extra_leaves)
                for w in words(alphabet, n)]

    def is_key(key):
        t, sep, w = key.partition(":") if extra_leaves is not None else ("", ":", key)
        ok = bool(sep) and 0 < len(w) <= (top_degree or len(w)) and set(w) <= letters
        if ok and extra_leaves is not None:
            try:
                trees.validate(t)
            except ValueError:
                return False
            return leaf_count(t) == len(w) + extra_leaves
        return ok
    return {"basis": basis, "is_key": is_key}


def _tree_key_degree(key):
    return len(key_parts(key)[1])


def as_model(alphabet=1):
    """Free associative algebra with the deconcatenation coproduct."""
    return BialgebraModel(
        name="as",
        alphabet=alphabet,
        key_products={"mul": as_concat},
        key_coproducts={"delta": as_deconcat},
        generating_coproducts=("delta",),
        **_keys(alphabet),
        splitting=_associative_splitting(as_deconcat, as_concat),
    )


def classical_model(alphabet=2):
    """Tensor algebra with the unshuffle coproduct (classical Hopf case)."""
    return BialgebraModel(
        name="classical",
        alphabet=alphabet,
        key_products={"mul": as_concat},
        key_coproducts={"delta": as_shuffle_coproduct},
        generating_coproducts=("delta",),
        **_keys(alphabet),
        splitting=_associative_splitting(as_shuffle_coproduct, as_concat, exponential=True),
        classical=True,
    )


def zinbiel_model(alphabet=2):
    """Free Zinbiel algebra: half-shuffle product, deconcatenation coproduct."""
    return BialgebraModel(
        name="zinb",
        alphabet=alphabet,
        key_products={"left": zinb_half_shuffle, "star": shuffle_product},
        key_coproducts={"delta": as_deconcat},
        generating_coproducts=("delta",),
        **_keys(alphabet),
    )


def _mag_tree_apply(t, images, product):
    """The product indexed by a tree with n leaves, on n LinCombs; product takes LinCombs."""
    if t == LEAF:
        return images[0]
    l, r = trees.split(t)
    nl = leaf_count(l)
    return product(_mag_tree_apply(l, images[:nl], product),
                   _mag_tree_apply(r, images[nl:], product))


def _mag_step(key, memo, unit, delta):
    """The comagmatic cooperad: one label per tree, its arity the leaf count.

    The cooperation of a tree t sends a key whose tree is t with a subtree
    grafted on each leaf to those decorated subtrees, every other key to 0:
    past the leaf, the terms of the two root factors joined under vee.
    """
    higher = []
    for (kl, kr), c in delta(key).items():  # the one term of the root's two factors
        right = memo(kr).items()
        higher += [((trees.vee(l[0], r[0]),) + l[1:] + r[1:], c * c1 * c2)
                   for l, c1 in memo(kl).items() for r, c2 in right]
    return LinComb([((LEAF, k), c) for k, c in unit(key, higher).items()] + higher)


def mag_model(alphabet=1):
    """Free magmatic algebra with its dual, Livernet and Hopf coproducts."""
    return BialgebraModel(
        name="mag",
        alphabet=alphabet,
        key_products={"mul": mag_product},
        key_coproducts={
            "delta": mag_dual_coproduct,
            "liv": mag_livernet_coproduct,
            "hopf": mag_hopf_coproduct,
        },
        generating_coproducts=("delta",),
        **_keys(alphabet, extra_leaves=0),
        splitting=_tree_splitting(_mag_step, trees.enumerate_trees, _mag_tree_apply,
                                  (mag_dual_coproduct,), (mag_product,)),
    )


def dup_model(alphabet=1):
    """Free duplicial algebra with the path-cut coproduct."""
    return BialgebraModel(
        name="dup",
        alphabet=alphabet,
        key_products={"left": dup_left, "right": dup_right},
        key_coproducts={
            "delta": dup_coproduct,
            "dleft": dup_dleft,
            "dright": dup_dright,
        },
        generating_coproducts=("delta",),
        **_keys(alphabet, extra_leaves=1),
        splitting=_associative_splitting(dup_coproduct, dup_right),
    )


def _dup_tree_apply(t, images, left, right):
    """The duplicial monomial indexed by a tree with n+1 leaves, on n LinCombs, by < and >."""
    if t == Y:
        return images[0]
    l, r = trees.split(t)
    if r == LEAF:
        return right(_dup_tree_apply(l, images[:-1], left, right), images[-1])
    p = leaf_count(l) - 1  # degree carried by the left factor
    after = _dup_tree_apply(r, images[p + 1:], left, right)
    if l == LEAF:
        return left(images[0], after)
    return left(right(_dup_tree_apply(l, images[:p], left, right), images[p]), after)


def _bidup_step(key, memo, unit, dleft, dright):
    """The biduplicial cooperad: one label per tree, n+1 leaves in arity n.

    A tree other than Y is the monomial (m(t_l) > x) < m(t_r) at its root.
    dright cuts off the last generator x when t_r is a leaf; otherwise dleft
    cuts off m(t_r), and the rest gives the terms of its own decomposition
    on trees (t_l, leaf) ending in a generator.
    """
    higher = []
    for (ka, km), c in dright(key).items():
        if _tree_key_degree(km) == 1:
            higher += [((trees.vee(a[0], LEAF),) + a[1:] + (km,), c * c2)
                       for a, c2 in memo(ka).items()]
    for (ku, kb), c in dleft(key).items():
        right = memo(kb).items()
        for u, c2 in memo(ku).items():
            # u's tree is (t_l, leaf) and its last slot a generator
            if _tree_key_degree(u[-1]) != 1:
                continue
            tl, tr = trees.split(u[0])
            if tr == LEAF:
                higher += [((trees.vee(tl, r[0]),) + u[1:] + r[1:], c * c2 * c3)
                           for r, c3 in right]
    return LinComb([((Y, k), c) for k, c in unit(key, higher).items()] + higher)


def bidup_model(alphabet=1):
    """Free duplicial algebra seen as a biduplicial bialgebra."""
    return BialgebraModel(
        name="bidup",
        alphabet=alphabet,
        key_products={"left": dup_left, "right": dup_right},
        key_coproducts={"dleft": dup_dleft, "dright": dup_dright},
        generating_coproducts=("dleft", "dright"),
        **_keys(alphabet, extra_leaves=1),
        splitting=_tree_splitting(_bidup_step, lambda n: trees.enumerate_trees(n + 1),
                                  _dup_tree_apply, (dup_dleft, dup_dright), (dup_left, dup_right)),
    )


def lie_model(alphabet=2):
    """Lie polynomials inside the tensor algebra, with bracket and cobracket.

    Basis elements are LinCombs of words (the bracket-span basis), not
    atomic keys, so no key is a basis element; the relation checker
    handles both.
    """
    return BialgebraModel(
        name="lie",
        alphabet=alphabet,
        basis=lambda n: lie_subspace(alphabet, n),
        key_products={"mul": lie_bracket},
        key_coproducts={"delta": lie_cobracket},
        generating_coproducts=("delta",),
        is_key=lambda key: False,
    )


def nil_model(alphabet=2):
    """Associative algebra truncated at degree 2: triple products vanish."""
    return BialgebraModel(
        name="nil",
        alphabet=alphabet,
        key_products={"mul": nil_concat},
        key_coproducts={"delta": as_deconcat},
        generating_coproducts=("delta",),
        **_keys(alphabet, top_degree=2),
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
    if alphabet is not None and alphabet < 1:
        raise UsageError("alphabet size must be >= 1")
    if alphabet is not None and alphabet > len(LETTERS):
        raise UsageError("alphabet size must be <= %d" % len(LETTERS))
    if name not in _MODEL_FACTORIES:
        raise KeyError("unknown model %r (choose from %s)" % (name, ", ".join(model_names())))
    factory = _MODEL_FACTORIES[name]
    return factory() if alphabet is None else factory(alphabet)


def model_names():
    return sorted(_MODEL_FACTORIES)
