"""Degreewise structure checks: the map phi, primitives, PBW expansions.

The map phi sends an n-ary operation mu to the functional reading off the
coefficient of x1 x ... x xn in delta(mu(x1,...,xn)) over n distinct
letters.  Its rank decides whether a model sits in the isomorphism or the
split-epimorphism regime, which in turn drives the idempotent engine and
the PBW-analogue expansion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .linalg import LinComb, as_slots, coords, exact_rank, kernel_basis
from .models import LETTERS, get_model, key_parts, tree_key
from .trees import enumerate_trees, leaf_count
from .idempotents import versal_idempotent_map


def multilinear_basis(model, n):
    """Degree-n basis keys decorated with the identity word x1...xn.

    Built directly rather than by filtering basis(n), whose size grows
    like (alphabet size)^n.
    """
    idw = LETTERS[:n]
    template = model.basis(1)[0]
    if ":" not in template:
        return [idw]
    l1 = leaf_count(key_parts(template)[0])
    l2 = leaf_count(key_parts(model.basis(2)[0])[0])
    leaves = l1 + (l2 - l1) * (n - 1)
    return [tree_key(t, idw) for t in enumerate_trees(leaves)]


def generator_key(model, letter):
    """The degree-1 basis key decorated with the given letter."""
    template = model.basis(1)[0]
    if ":" in template:
        return tree_key(key_parts(template)[0], letter)
    return letter


def phi_map(model, n):
    """Matrix of phi in degree n: rows = cooperad basis, cols = operations."""
    big = get_model(model.name, n) if model.alphabet < n else model
    cols = multilinear_basis(big, n)
    target = tuple(generator_key(big, LETTERS[i]) for i in range(n))
    if n == 1:
        target = target[0]
    return [
        [coop(LinComb.of(key)).coeff(target) for key in cols]
        for _, coop, _ in big.splitting(n)
    ]


@dataclass
class H2Report:
    verdict: str  # "iso", "epi-with-splitting", "fail", "unsupported"
    per_degree: list = field(default_factory=list)

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

    Unsupported without a splitting, and on the classical model, whose
    cooperad Com is symmetric while the multilinear basis is not.
    """
    if model.splitting is None or model.classical:
        return H2Report(verdict="unsupported")
    rows = []
    all_iso = True
    all_epi = True
    for n in range(1, max_degree + 1):
        mat = phi_map(model, n)
        dim_c = len(mat)
        dim_a = len(mat[0]) if mat else 0
        rank = exact_rank(mat)
        rows.append((n, dim_a, dim_c, rank))
        if not (dim_a == dim_c == rank):
            all_iso = False
        if rank != dim_c:
            all_epi = False
    if all_iso:
        return H2Report(verdict="iso", per_degree=rows)
    if all_epi and _splitting_section_ok(model, max_degree):
        return H2Report(verdict="epi-with-splitting", per_degree=rows)
    return H2Report(verdict="fail", per_degree=rows)


def _splitting_section_ok(model, max_degree):
    """Check phi(s(n)) = id on the cooperad side, exactly, per degree.

    With x = x1 x ... x xn the coefficient of x in coop_i(op_j(x)) must be
    1 for i = j and 0 otherwise, over every pair of the arity-n triples.
    """
    for n in range(2, max_degree + 1):
        big = get_model(model.name, n)
        target = tuple(generator_key(big, LETTERS[i]) for i in range(n))
        triples = big.splitting(n)
        for j, (_, _, op) in enumerate(triples):
            monomial = op(LinComb.of(target))
            for i, (_, coop, _) in enumerate(triples):
                if coop(monomial).coeff(target) != (1 if i == j else 0):
                    return False
    return True


def primitive_part(model, n):
    """Exact basis of the joint kernel of all generating reduced coproducts."""
    basis = list(model.basis(n))
    if n == 1:
        return [LinComb.of(k) for k in basis]
    mat = coords(
        LinComb(
            ((sym, tkey), c)
            for sym in model.generating_coproducts
            for tkey, c in model.coproducts[sym](LinComb.of(key)).items()
        )
        for key in basis
    )
    if not mat:
        return [LinComb.of(k) for k in basis]
    vecs = kernel_basis(mat)
    return [
        LinComb((basis[i], v[i]) for i in range(len(basis)) if v[i])
        for v in vecs
    ]


@dataclass(frozen=True)
class PbwComponent:
    arity: int
    label: object  # None for the associative cooperad, a tree for dual bases
    tensor: LinComb


def _apply_slotwise(fn, tensor_lc):
    def image(key):
        piece = None
        for slot in as_slots(key):
            img = fn(LinComb.of(slot))
            piece = img if piece is None else piece.tensor(img)
            if not piece:
                break
        return piece
    return LinComb.sum((image(key), c) for key, c in tensor_lc.items())


def pbw_expand(model, a, max_degree=None):
    """Decompose a into primitive tensor components, one per cooperation.

    Reassembling the components through the splitting operations returns
    the input exactly; see pbw_reassemble.
    """
    if not a:
        return []
    if max_degree is None:
        max_degree = max(model.degree(k) for k in a.support())
    e = versal_idempotent_map(model, max_degree)
    comps = []
    for k in range(1, max_degree + 1):
        for label, coop, _ in model.splitting(k):
            comp = _apply_slotwise(e, coop(a))
            if comp:
                comps.append(PbwComponent(arity=k, label=label, tensor=comp))
    return comps


def pbw_reassemble(model, comps):
    ops = {
        n: {label: op for label, _, op in model.splitting(n)}
        for n in {comp.arity for comp in comps}
    }
    return LinComb.sum((ops[comp.arity][comp.label](comp.tensor), 1) for comp in comps)


def composite_dims(c_dim, p_dim, n):
    """dim of (C o P)_n for one-generator nonsymmetric composites."""
    # weighted count of k-tuples with total degree n
    total = 0
    counts = [1] + [0] * n  # counts[d] after k factors
    for k in range(1, n + 1):
        new = [0] * (n + 1)
        for d in range(k - 1, n):
            if counts[d]:
                for dn in range(1, n - d + 1):
                    new[d + dn] += counts[d] * p_dim(dn)
        counts = new
        total += c_dim(k) * counts[n]
    return total


@dataclass
class StructureIsoReport:
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


def verify_structure_iso(c_dim, model, p_dim, max_degree):
    """Compare dim A_n with the composite count sum over cooperation shapes."""
    rows = []
    ok = True
    for n in range(1, max_degree + 1):
        big = get_model(model.name, n) if model.alphabet < n else model
        dim_a = len(multilinear_basis(big, n))
        comp = composite_dims(c_dim, p_dim, n)
        rows.append((n, dim_a, comp))
        if dim_a != comp:
            ok = False
    return StructureIsoReport(ok=ok, per_degree=rows)
