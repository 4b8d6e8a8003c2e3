"""Exact-arithmetic computations in free algebras and coalgebras over operads."""

from .linalg import (
    GradedEndo,
    LinComb,
    exact_rank,
    frac_str,
    kernel_basis,
    lincomb_json,
    same_column_space,
    serialize_key,
    tensor_transpose,
)
from .trees import (
    LEAF,
    Y,
    catalan,
    enumerate_trees,
    leaf_count,
    left_comb,
    over,
    path_cut,
    right_comb,
    under,
    validate,
    vee,
)
from .models import (
    BialgebraModel,
    get_model,
    key_parts,
    left_nested_bracket,
    lie_bracket,
    lie_cobracket,
    lie_subspace,
    model_names,
    tree_key,
    words,
)
from .relations import (
    CompatExpr,
    RelationReport,
    Term,
    check_nap_colaw,
    check_relation,
    eval_compat,
    get_relation,
    load_library,
    relation_names,
)
from .idempotents import (
    ConvolutionContext,
    convolve,
    dynkin,
    eulerian,
    geometric_idempotent,
    omega,
    versal_idempotent,
)
from .structure import (
    H2Report,
    PbwComponent,
    check_h2,
    multilinear_basis,
    pbw_expand,
    pbw_reassemble,
    phi_map,
    primitive_part,
    verify_structure_iso,
)
from .series import (
    TruncatedSeries,
    catalan_series,
    check_koszul_dual,
    check_triple_identity,
    expm1,
    gen_series,
    log1p,
    series_names,
    sqrt1m,
)
from .homology import (
    BicomplexSlice,
    build_bicomplex,
    check_differentials,
    euler_characteristic,
    homology_report,
    total_dims,
    total_homology_dims,
)

__version__ = "0.1.0"
