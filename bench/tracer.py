"""Per-layer spans and counters, installed from outside the program.

`install()` replaces public functions of the operads modules with timing
wrappers.  A name bound by `from .linalg import exact_rank` is a separate
attribute of each importing module, so every module attribute that holds
the original object is replaced.  Spans nest; a span's self time is its
duration minus the time its child spans cover.  Hot spans are aggregated
per name; operation-level spans are kept as records.  Everything stays in
memory until `report()`.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

from operads import homology, idempotents, linalg, models, relations, series, structure, trees
from operads.linalg import GradedEndo, LinComb

_PRODUCTS = (
    "as_concat", "shuffle_product", "zinb_half_shuffle", "mag_product",
    "dup_left", "dup_right", "lie_bracket",
)
_COPRODUCTS = (
    "as_deconcat", "as_shuffle_coproduct", "mag_dual_coproduct",
    "mag_livernet_coproduct", "mag_hopf_coproduct", "dup_coproduct",
    "dup_dleft", "dup_dright", "lie_cobracket",
)
_TREE_FUNCTIONS = (
    "validate", "vee", "split", "over", "under", "enumerate_trees", "catalan",
    "left_comb", "right_comb", "path_cut", "leaf_count",
)
_IDEMPOTENT_ENTRIES = ("versal_idempotent", "eulerian", "geometric_idempotent", "omega", "dynkin")
_SERIES_FUNCTIONS = (
    "gen_series", "catalan_series", "check_triple_identity", "check_koszul_dual",
    "sqrt1m", "log1p", "expm1",
)
_MODEL_CACHES = ("_shuffles", "_mag_liv_key", "_mag_hopf_key")


def _replace_everywhere(orig, replacement):
    """Rebind every operads module attribute that holds `orig`."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "operads" or name.startswith("operads.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, replacement)


def _matrix_stats(m):
    cells = nnz = bits = 0
    for row in m or ():
        cells += len(row)
        for x in row:
            if x:
                nnz += 1
                b = max(abs(x.numerator).bit_length(), x.denominator.bit_length())
                if b > bits:
                    bits = b
    return cells, nnz, bits


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.records = []      # (name, start, end, depth) of recorded spans
        self._stack = []       # time covered by child spans, per open span

    def span(self, name, fn, before=None, after=None, record=False):
        """A wrapper timing fn under `name`; before/after count arguments/results.

        Time spent counting is charged to no span.
        """
        stack, self_s, calls = self._stack, self.self_s, self.calls

        def wrapper(*args, **kwargs):
            if before is not None:
                c0 = perf_counter()
                before(args)
                if stack:
                    stack[-1] += perf_counter() - c0
            t0 = perf_counter()
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                covered = stack.pop()
                self_s[name] += t1 - t0 - covered
                calls[name] += 1
                if stack:
                    stack[-1] += t1 - t0
                if record:
                    self.records.append((name, t0, t1, len(stack)))
            if after is not None:
                c0 = perf_counter()
                after(result)
                if stack:
                    stack[-1] += perf_counter() - c0
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_attr(self, module, attr, name, **kw):
        orig = getattr(module, attr)
        _replace_everywhere(orig, self.span(name, orig, **kw))

    def install(self):
        counts = self.counts

        def count(key, size):
            def add(obj):
                counts[key] += size(obj)
            return add

        def elim_stats(args):
            cells, nnz, bits = _matrix_stats(args[0])
            counts["elim_cells"] += cells
            counts["elim_nnz"] += nnz
            if bits > counts["elim_max_bits"]:
                counts["elim_max_bits"] = bits

        for attr in ("exact_rank", "kernel_basis"):
            self.wrap_attr(linalg, attr, "linalg.elim", before=elim_stats)
        self.wrap_attr(linalg, "same_column_space", "linalg.elim")
        self.wrap_attr(linalg, "mat_mul", "linalg.matmul")

        from_function = GradedEndo.__dict__["from_function"].__func__
        GradedEndo.from_function = classmethod(self.span(
            "linalg.endo", from_function,
            before=count("endo_columns", lambda a: sum(len(b) for b in a[1].values())),
        ))

        add = LinComb.__add__

        def counted_add(a, b):
            counts["lincomb_adds"] += 1
            counts["lincomb_add_terms"] += len(a.terms)
            return add(a, b)
        LinComb.__add__ = counted_add

        for attr in _PRODUCTS:
            self.wrap_attr(models, attr, "models.product",
                           after=count("product_terms", len))
        for attr in _COPRODUCTS:
            self.wrap_attr(models, attr, "models.coproduct",
                           after=count("coproduct_terms", len))

        def traced_model(factory):
            def build(*args, **kwargs):
                model = factory(*args, **kwargs)
                if not hasattr(model.basis, "__wrapped__"):
                    object.__setattr__(model, "basis", self.span(
                        "models.basis", model.basis, after=count("basis_keys", len)))
                return model
            return build
        for attr in ("get_model", "classical_model"):
            _replace_everywhere(getattr(models, attr), traced_model(getattr(models, attr)))

        for attr in _TREE_FUNCTIONS:
            self.wrap_attr(trees, attr, "trees")

        self.wrap_attr(relations, "eval_compat", "relations.eval_compat")
        for attr in ("check_relation", "check_nap_colaw"):
            self.wrap_attr(relations, attr, "relations.check",
                           after=count("pairs_checked", lambda r: r.checked_pairs))

        for attr in _IDEMPOTENT_ENTRIES:
            self.wrap_attr(idempotents, attr, "idempotents.map")
        materialize = idempotents.materialize

        def traced_materialize(model, fn, max_degree):
            return materialize(model, self.span("idempotents.map", fn), max_degree)
        _replace_everywhere(materialize, traced_materialize)

        iterated = idempotents.iterated_coproduct

        def counted_iterated(coproduct, k):
            iterate = iterated(coproduct, k)

            def run(lc):
                counts["iterated_coproduct_calls"] += 1
                return iterate(lc)
            return run
        _replace_everywhere(iterated, counted_iterated)

        self.wrap_attr(structure, "primitive_part", "structure.prim")
        self.wrap_attr(structure, "phi_map", "structure.phi")
        self.wrap_attr(structure, "pbw_expand", "structure.pbw")
        self.wrap_attr(structure, "pbw_reassemble", "structure.pbw")

        self.wrap_attr(homology, "build_bicomplex", "homology.build")
        self.wrap_attr(homology, "total_matrix", "homology.total_matrix",
                       after=count("tot_cells", lambda m: sum(len(r) for r in m)))
        self.wrap_attr(homology, "check_differentials", "homology.check")

        for attr in _SERIES_FUNCTIONS:
            self.wrap_attr(series, attr, "series")

    def report(self):
        """Per-layer metrics (self times, calls, counts, cache statistics) and raw spans."""
        s, calls, counts = self.self_s, self.calls, self.counts
        model_caches = [getattr(models, name).cache_info() for name in _MODEL_CACHES]
        hits = sum(c.hits for c in model_caches)
        lookups = hits + sum(c.misses for c in model_caches)
        # the lru_cache object itself, behind the tracing wrapper
        enum = trees.enumerate_trees.__wrapped__.cache_info()
        enum_lookups = enum.hits + enum.misses
        metrics = {
            "linalg.elim_s": (s["linalg.elim"], "s"),
            "linalg.elim_calls": (calls["linalg.elim"], "count"),
            "linalg.elim_cells": (counts["elim_cells"], "count"),
            "linalg.elim_nnz": (counts["elim_nnz"], "count"),
            "linalg.elim_max_bits": (counts["elim_max_bits"], "bits"),
            "linalg.matmul_s": (s["linalg.matmul"], "s"),
            "linalg.matmul_calls": (calls["linalg.matmul"], "count"),
            "linalg.endo_s": (s["linalg.endo"], "s"),
            "linalg.endo_columns": (counts["endo_columns"], "count"),
            "linalg.lincomb_adds": (counts["lincomb_adds"], "count"),
            "linalg.lincomb_add_terms": (counts["lincomb_add_terms"], "count"),
            "models.product_s": (s["models.product"], "s"),
            "models.product_calls": (calls["models.product"], "count"),
            "models.product_terms": (counts["product_terms"], "count"),
            "models.coproduct_s": (s["models.coproduct"], "s"),
            "models.coproduct_calls": (calls["models.coproduct"], "count"),
            "models.coproduct_terms": (counts["coproduct_terms"], "count"),
            "models.basis_s": (s["models.basis"], "s"),
            "models.basis_keys": (counts["basis_keys"], "count"),
            "models.cache_hit_ratio": (hits / lookups if lookups else 0.0, "ratio"),
            "models.cache_lookups": (lookups, "count"),
            "models.cache_entries": (sum(c.currsize for c in model_caches), "count"),
            "trees.s": (s["trees"], "s"),
            "trees.calls": (calls["trees"], "count"),
            "trees.enumerate_cache_hit_ratio": (
                enum.hits / enum_lookups if enum_lookups else 0.0, "ratio"),
            "trees.enumerate_cache_lookups": (enum_lookups, "count"),
            "relations.eval_compat_s": (s["relations.eval_compat"], "s"),
            "relations.eval_compat_calls": (calls["relations.eval_compat"], "count"),
            "relations.pairs_checked": (counts["pairs_checked"], "count"),
            "idempotents.map_s": (s["idempotents.map"], "s"),
            "idempotents.iterated_coproduct_calls": (counts["iterated_coproduct_calls"], "count"),
            "idempotents.eulerian_cache_entries": (len(idempotents._EULERIAN_CACHE), "count"),
            "structure.prim_s": (s["structure.prim"], "s"),
            "structure.phi_s": (s["structure.phi"], "s"),
            "structure.pbw_s": (s["structure.pbw"], "s"),
            "homology.build_s": (s["homology.build"], "s"),
            "homology.total_matrix_s": (s["homology.total_matrix"], "s"),
            "homology.tot_cells": (counts["tot_cells"], "count"),
            "homology.check_s": (s["homology.check"], "s"),
            "series.s": (s["series"], "s"),
        }
        spans = {
            "self_s": dict(s),
            "calls": dict(calls),
            "records": [
                {"name": n, "start": a, "end": b, "depth": d} for n, a, b, d in self.records
            ],
        }
        return metrics, spans
