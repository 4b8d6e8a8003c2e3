"""Command-line surface: every operation, machine-readable, deterministic.

Exit codes: 0 when the requested check holds (or for plain computations),
1 when a mathematical check is falsified (the report carries a witness),
2 on usage errors, 3 on an internal error (a bug in this program), 141
when standard output is closed before everything is written (as a shell
reports a process killed by SIGPIPE), so a cut-off run never reads as a pass.
Usage errors are `operads.errors.UsageError`s: the library raises them for its
own input rules (tree syntax, degrees, the (co)products a call names, what a
model can compute), with the same text for a library caller.  This module adds
only unknown names, the eulerian index against --max-degree and dynkin off the
classical model.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import traceback
from fractions import Fraction

from . import trees
from .errors import UsageError
from .linalg import (
    GradedEndo,
    LinComb,
    coords,
    frac_str,
    lincomb_json,
    same_column_space,
)
from .models import _require_key, get_model, lie_tensor_escape
from .relations import (
    check_nap_colaw,
    check_relation,
    get_relation,
    relation_names,
)
from .idempotents import (
    ConvolutionContext,
    dynkin,
    eulerian,
    geometric_idempotent,
    model_bases,
    versal_idempotent,
)
from .structure import (
    check_h2,
    generator_key,
    pbw_expand,
    pbw_reassemble,
    primitive_part,
    verify_structure_iso,
)
from .series import (
    check_koszul_dual,
    check_triple_identity,
    gen_series,
    series_names,
)
from .homology import build_bicomplex, check_differentials, homology_report, total_homology_dims


def parse_element(model, text):
    """Parse `c1*K1 + c2*K2`; keys are TREE:WORD or plain words.

    A coefficient is an integer, a decimal or p/q.  An exponent is refused,
    so the length of the text bounds the digits of every coefficient.
    """
    compact = text.replace(" ", "")
    if not compact:
        raise UsageError("empty element")
    tokens = [t for t in re.split(r"(?=[+-])", compact) if t]
    terms = []
    for tok in tokens:
        sign = -1 if tok[0] == "-" else 1
        tok = tok[1:] if tok[0] in "+-" else tok
        if "*" in tok:
            coeff_text, key = tok.split("*", 1)
            if "e" in coeff_text.lower():
                raise UsageError("bad coefficient %r: write an integer, a decimal or p/q"
                                 % coeff_text)
            try:
                coeff = Fraction(coeff_text)
            except (ValueError, ZeroDivisionError):
                raise UsageError("bad coefficient %r" % coeff_text)
        else:
            coeff, key = 1, tok
        _require_key(model, key)
        terms.append((key, sign * coeff))
    return LinComb(terms)


def _emit(report, fmt="json"):
    if fmt == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print("\n".join(report) if isinstance(report, list) else report)


def _get_model_arg(args):
    try:
        return get_model(args.model, args.alphabet)
    except KeyError as exc:
        raise UsageError(exc.args[0])


# --- subcommand handlers -----------------------------------------------------

def cmd_trees(args):
    if args.action == "enumerate":
        _emit(list(trees.enumerate_trees(args.leaves)), args.format)
        return 0
    if args.action == "graft":
        for t in (args.left, args.right):
            trees.validate(t)
        fn = {"over": trees.over, "under": trees.under, "vee": trees.vee}[args.kind]
        _emit(fn(args.left, args.right), "text")
        return 0
    trees.validate(args.tree)
    _emit(list(trees.path_cut(args.tree, args.index)))
    return 0


def cmd_coproduct(args):
    model = _get_model_arg(args)
    coproduct = model.lookup("coproducts", args.coproduct)
    _emit(lincomb_json(coproduct(parse_element(model, args.element))))
    return 0


def cmd_product(args):
    model = _get_model_arg(args)
    product = model.lookup("products", args.product)
    a = parse_element(model, args.left)
    b = parse_element(model, args.right)
    _emit(lincomb_json(product(a, b)))
    return 0


def cmd_check(args):
    model = _get_model_arg(args)
    if args.relation == "nap-colaw":
        report = check_nap_colaw(model, args.coproduct, args.max_degree)
    else:
        try:
            get_relation(args.relation)
        except KeyError:
            raise UsageError("unknown relation %r (choose from %s)"
                             % (args.relation, ", ".join(relation_names() + ["nap-colaw"])))
        report = check_relation(
            model, args.coproduct, args.product, args.relation, args.max_degree
        )
    d = report.to_json_dict()
    if not args.witness:
        d.pop("firstFailure", None)
    _emit(d)
    return 0 if report.holds else 1


def cmd_prim(args):
    model = _get_model_arg(args)
    basis = primitive_part(model, args.degree)
    _emit({"model": model.name, "degree": args.degree,
           "dimension": len(basis),
           "basis": [lincomb_json(b) for b in basis]})
    return 0


def cmd_pbw(args):
    model = _get_model_arg(args)
    lc = parse_element(model, args.element)
    comps = pbw_expand(model, lc)
    back = pbw_reassemble(model, comps)
    ok = back == lc
    _emit({
        "element": lincomb_json(lc),
        "components": [
            {"arity": c.arity,
             **({"label": c.label} if c.label is not None else {}),
             "tensor": lincomb_json(c.tensor)}
            for c in comps
        ],
        "reassembled": lincomb_json(back),
        "matchesInput": ok,
    })
    return 0 if ok else 1


def cmd_idempotent(args):
    model = _get_model_arg(args)
    n = args.max_degree
    kind = args.kind
    if kind == "versal":
        endo = versal_idempotent(model, max_degree=n)
    elif kind.startswith("eulerian:"):
        index = kind[len("eulerian:"):]
        if not re.fullmatch(r"[0-9]+", index):
            raise UsageError("eulerian index must be an integer")
        i = int(index)
        if i > n:
            raise UsageError("eulerian index must be <= --max-degree")
        endo = eulerian(ConvolutionContext(model), i, n)
    elif kind == "dynkin":
        if not model.classical:
            raise UsageError("dynkin is defined on the classical model only")
        endo = dynkin(n, model.alphabet)
    elif kind == "geometric":
        endo = geometric_idempotent(ConvolutionContext(model), n)
    else:
        raise UsageError("unknown idempotent kind %r" % kind)
    report = {"model": model.name, "kind": kind, "maxDegree": n}
    if args.report == "ranks":
        report["ranks"] = {str(d): endo.rank(d) for d in sorted(endo.cols)}
        _emit(report)
    else:
        _emit_matrices(report, endo)
    return 0


def _json_list(items, indent):
    """The items, already JSON text, as json.dumps(indent=2) lays out a list at this depth."""
    pad = "\n" + " " * indent
    return "[" + ",".join(pad + item for item in items) + pad[:-2] + "]" if items else "[]"


def _emit_matrices(report, endo):
    """_emit(report) with "matrices" holding each degree's basis and dense matrix, row by row.

    The bytes are those of json.dumps(indent=2, sort_keys=True), degrees in
    string order ("10" before "2"), but only one row's text is held: each row
    is read off the sparse rows of `coords`, its zero entries filled in.
    """
    head, tail = json.dumps({**report, "matrices": 0}, indent=2, sort_keys=True).split(
        '"matrices": 0')
    write = sys.stdout.write
    write(head + '"matrices": {')
    for index, d in enumerate(sorted(endo.cols, key=str)):
        basis = endo.bases[d]
        write('%s\n    "%d": {\n      "basis": %s,\n      "matrix": ' % (
            "," if index else "", d, _json_list([json.dumps(str(k)) for k in basis], 8)))
        zero, rows = ['"0"'] * len(basis), coords(endo.cols[d], basis)
        for r, row in enumerate(rows):
            cells = zero.copy()
            for j, c in row.items():
                cells[j] = '"%s"' % frac_str(c)
            write(("," if r else "[") + "\n        " + _json_list(cells, 10))
        write("\n      ]\n    }" if rows else "[]\n    }")
    write("\n  }" + tail + "\n")


def cmd_verify(args):
    model = _get_model_arg(args)
    if args.what == "h2":
        report = check_h2(model, args.max_degree)
        _emit(report.to_json_dict())
        return 0 if report.verdict in ("iso", "epi-with-splitting") else 1
    report = verify_structure_iso(model, args.max_degree)
    _emit(report.to_json_dict())
    return 0 if report.ok else 1


def cmd_series(args):
    if args.show and (args.check or args.names):
        raise UsageError("series --show takes no --check or --names")
    if args.show:
        names = [args.show]
    elif args.check:
        names = [n for n in (args.names or "").split(",") if n]
    else:
        raise UsageError("series needs --show or --check")
    for name in names:
        if name not in series_names():
            raise UsageError("unknown series %r (choose from %s)"
                             % (name, ", ".join(series_names())))
    if args.show:
        s = gen_series(args.show, args.order)
        _emit({"name": args.show, "order": args.order,
               "coefficients": [frac_str(c) for c in s.coeffs]})
        return 0
    if args.check == "triple":
        if len(names) != 3:
            raise UsageError("--check triple needs --names C,A,P")
        ok = check_triple_identity(names[0], names[1], names[2], args.order)
    else:  # argparse allows triple and koszul only
        if len(names) != 2:
            raise UsageError("--check koszul needs --names P,PDUAL")
        ok = check_koszul_dual(names[0], names[1], args.order)
    _emit({"check": args.check, "names": names, "order": args.order, "holds": ok})
    return 0 if ok else 1


def cmd_homology(args):
    report = homology_report(args.internal_degree, check_only=args.check_only)
    _emit(report)
    return 0 if report["differentialChecks"] else 1


# --- the suite ----------------------------------------------------------------

def _suite_catalan():
    expected = [1, 2, 5, 14, 42, 132]
    model = get_model("dup", 1)
    got = [len(model.basis(n)) for n in range(1, 7)]
    yield "catalan dup dims 1..6", got == expected


def _suite_relations():
    checks = [
        ("as", "delta", "mul", "nui", 6),
        ("dup", "delta", "left", "nui", 6),
        ("dup", "delta", "right", "nui", 6),
        ("mag", "delta", "mul", "magmatic", 6),
        ("mag", "liv", "mul", "livernet", 5),
        ("dup", "dleft", "left", "bidup_dleft_left", 5),
        ("dup", "dright", "right", "bidup_dright_right", 5),
        ("dup", "dleft", "right", "bidup_dleft_right", 5),
        ("dup", "dright", "left", "bidup_dright_left", 5),
        ("zinb", "delta", "left", "semi_hopf_left", 5),
    ]
    for mname, dsym, msym, rel, deg in checks:
        model = get_model(mname)
        report = check_relation(model, dsym, msym, rel, deg)
        yield "relation %s on %s (%s, %s) deg %d" % (rel, mname, dsym, msym, deg), report.holds
    nap = check_nap_colaw(get_model("mag"), "liv", 5)
    yield "nap colaw on mag liv coproduct deg 5", nap.holds


def _suite_idempotents():
    jobs = [("dup", 6), ("as", 6), ("mag", 6), ("classical", 5)]
    for mname, deg in jobs:
        model = get_model(mname)
        e = versal_idempotent(model, max_degree=deg)
        yield "versal e^2 = e on %s deg %d" % (mname, deg), e.compose(e) == e
        ranks = [e.rank(n) for n in range(1, deg + 1)]
        prim = [len(primitive_part(model, n)) for n in range(1, deg + 1)]
        yield "rank e = dim Prim on %s deg %d" % (mname, deg), ranks == prim
        if mname == "dup":
            yield "dup Prim dims are shifted Catalan", (
                prim == [trees.catalan(n - 1) for n in range(1, deg + 1)]
            )
        if mname == "classical":
            yield "classical Prim dims 2,1,2,3,6", prim == [2, 1, 2, 3, 6]


def _suite_eulerian():
    model = get_model("classical")
    deg = 5
    ctx = ConvolutionContext(model)
    versal = versal_idempotent(model, max_degree=deg)
    e = [eulerian(ctx, i, deg) for i in range(1, deg + 1)]
    yield "versal equals eulerian e(1) deg 5", versal == e[0]
    zero = e[0].scale(0)
    yield "eulerian family orthogonal idempotents", all(
        e[i].compose(e[j]) == (e[i] if i == j else zero)
        for i in range(deg) for j in range(deg)
    )
    yield "eulerian family sums to identity", sum(e[1:], e[0]) == GradedEndo.identity(
        model_bases(model, deg)
    )
    dk = dynkin(deg, model.alphabet)
    same = all(same_column_space(dk.cols[n], e[0].cols[n]) for n in range(1, deg + 1))
    yield "image of dynkin equals image of e(1)", same


def _dot(model, a, b):
    return model.products["left"](a, b) - model.products["right"](a, b)


def _suite_pbw_tables():
    model = get_model("dup", 3)
    lt = model.products["left"]
    rt = model.products["right"]
    x, y, z = (LinComb.of(generator_key(model, c)) for c in "xyz")
    rows = [
        ("x>y", rt(x, y), [rt(x, y)]),
        ("x<y", lt(x, y), [_dot(model, x, y), rt(x, y)]),
        ("x>y>z", rt(x, rt(y, z)), [rt(x, rt(y, z))]),
        ("(x<y)>z", rt(lt(x, y), z),
         [rt(_dot(model, x, y), z), rt(x, rt(y, z))]),
        ("x>(y<z)", rt(x, lt(y, z)),
         [rt(x, _dot(model, y, z)), rt(x, rt(y, z))]),
        ("x<(y>z)", lt(x, rt(y, z)),
         [_dot(model, _dot(model, x, y), z) - _dot(model, x, _dot(model, y, z)),
          rt(_dot(model, x, y), z), rt(x, rt(y, z))]),
        ("x<(y<z)", lt(x, lt(y, z)),
         [_dot(model, _dot(model, x, y), z),
          rt(_dot(model, x, y), z), rt(x, _dot(model, y, z)), rt(x, rt(y, z))]),
    ]
    for label, lhs, terms in rows:
        rhs = LinComb.sum((t, 1) for t in terms)
        comps = pbw_expand(model, lhs)
        ok = (lhs == rhs) and (pbw_reassemble(model, comps) == lhs)
        yield "dup pbw row %s" % label, ok

    cm = get_model("classical", 3)
    mul = cm.products["mul"]
    x, y, z = (parse_element(cm, c) for c in "xyz")
    xy = mul(x, y)
    comps = pbw_expand(cm, xy)
    half = Fraction(1, 2)
    ok2 = (
        len(comps) == 2
        and comps[0].tensor == (xy - mul(y, x)).scale(half)
        and pbw_reassemble(cm, comps) == xy
    )
    yield "classical pbw degree 2", ok2
    xyz = mul(xy, z)
    comps = pbw_expand(cm, xyz)
    ok3 = pbw_reassemble(cm, comps) == xyz and comps[-1].arity == 3
    yield "classical pbw degree 3", ok3


def _suite_lily():
    model = get_model("lie")
    yield ("lie cobracket lands in Lie x Lie deg 2..3",
           not any(lie_tensor_escape(2, n) for n in (2, 3)))
    yield ("lie cobracket escapes Lie x Lie at deg 4 (known defect)",
           lie_tensor_escape(2, 4))
    yield ("lily relation on lie elements deg 3",
           check_relation(model, "delta", "mul", "lily", 3).holds)
    report = check_relation(model, "delta", "mul", "lily", 4)
    yield ("lily relation breaks at degree pair (1,3) (known defect)",
           not report.holds and report.first_failure[0] == (1, 3))


def _suite_series():
    yield "series f^As = f^Com o f^Lie order 12", check_triple_identity("Com", "As", "Lie", 12)
    yield "series f^Dup = f^As o f^Mag order 12", check_triple_identity("As", "Dup", "Mag", 12)
    yield "series koszul Dup/Dup! order 12", check_koszul_dual("Dup", "Dup!", 12)
    yield "series koszul Mag/Nil order 12", check_koszul_dual("Mag", "Nil", 12)
    yield "series koszul As/As order 12", check_koszul_dual("As", "As", 12)
    sab = gen_series("Sab", 5).dims()
    yield "sabinin dims 1,1,8,78,1104", sab == [1, 1, 8, 78, 1104]
    yield "negative control Com o Com != As order 4", not check_triple_identity(
        "Com", "As", "Com", 4
    )


def _suite_homology():
    slices = [build_bicomplex(n) for n in range(1, 6)]
    for bc in slices:
        yield "bicomplex differentials internal degree %d" % bc.n, check_differentials(bc)
    yield "homology dims degree 1", total_homology_dims(slices[0]) == [1]
    for bc in slices[1:]:
        yield "homology vanishes internal degree %d" % bc.n, total_homology_dims(bc) == [0] * bc.n


def _suite_h2():
    expected = {
        "as": "iso",
        "mag": "iso",
        "bidup": "iso",
        "dup": "epi-with-splitting",
    }
    for name, verdict in expected.items():
        report = check_h2(get_model(name), 6)
        yield "h2 verdict %s for %s deg 6" % (verdict, name), report.verdict == verdict


# The suite: (bundle name, generator of (label, verdict) pairs), in the order
# of the `suite --<name>` flags and of the printed report.  The acceptance
# tests run these same generators.
SUITE_BUNDLES = [
    ("catalan", _suite_catalan),
    ("relations", _suite_relations),
    ("idempotents", _suite_idempotents),
    ("eulerian", _suite_eulerian),
    ("pbw-tables", _suite_pbw_tables),
    ("lily", _suite_lily),
    ("series", _suite_series),
    ("homology", _suite_homology),
    ("h2", _suite_h2),
]


def cmd_suite(args):
    selected = [name for name, _ in SUITE_BUNDLES
                if args.all or getattr(args, name.replace("-", "_"))]
    if not selected:
        raise UsageError("suite needs at least one bundle flag (or --all)")
    failures = 0
    total = 0
    for name, bundle in SUITE_BUNDLES:
        if name not in selected:
            continue
        print("[%s]" % name)
        for label, ok in bundle():
            total += 1
            if not ok:
                failures += 1
            print("  %s %s" % ("pass" if ok else "FAIL", label))
    print("suite: %d/%d checks passed" % (total - failures, total))
    return 0 if failures == 0 else 1


# --- parser -------------------------------------------------------------------

def _model_command(sub, name, summary, fn):
    """The subcommand `name` run by fn on one model: --model and --alphabet first."""
    p = sub.add_parser(name, help=summary)
    p.set_defaults(fn=fn)
    p.add_argument("--model", required=True)
    p.add_argument("--alphabet", type=int, default=None)
    return p


def build_parser():
    parser = argparse.ArgumentParser(
        prog="operads",
        description="Exact computations in free (co)algebras over operads.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("trees", help="enumerate, graft and cut planar binary trees")
    tsub = p.add_subparsers(dest="action", required=True)
    pe = tsub.add_parser("enumerate")
    pe.add_argument("--leaves", type=int, required=True)
    pe.add_argument("--format", choices=["json", "text"], default="json")
    pg = tsub.add_parser("graft")
    pg.add_argument("--kind", choices=["over", "under", "vee"], required=True)
    pg.add_argument("--left", required=True)
    pg.add_argument("--right", required=True)
    pc = tsub.add_parser("cut")
    pc.add_argument("--tree", required=True)
    pc.add_argument("--index", type=int, required=True)
    p.set_defaults(fn=cmd_trees)

    p = _model_command(sub, "coproduct", "apply a named coproduct to an element", cmd_coproduct)
    p.add_argument("--coproduct", default="delta")
    p.add_argument("--element", required=True)

    p = _model_command(sub, "product", "apply a named product to two elements", cmd_product)
    p.add_argument("--product", default="mul")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)

    p = _model_command(sub, "check", "check a compatibility relation exhaustively", cmd_check)
    p.add_argument("--coproduct", default="delta")
    p.add_argument("--product", default="mul")
    p.add_argument("--relation", required=True)
    p.add_argument("--max-degree", type=int, default=5)
    p.add_argument("--witness", action="store_true")

    p = _model_command(sub, "prim", "basis of the primitive part in one degree", cmd_prim)
    p.add_argument("--degree", type=int, required=True)

    p = _model_command(sub, "pbw", "expand an element into primitive components", cmd_pbw)
    p.add_argument("--element", required=True)

    p = _model_command(sub, "idempotent", "materialize an idempotent degreewise", cmd_idempotent)
    p.add_argument("--kind", required=True,
                   help="versal | eulerian:I | dynkin | geometric")
    p.add_argument("--max-degree", type=int, default=5)
    p.add_argument("--report", choices=["ranks", "matrix"], default="ranks")

    p = _model_command(sub, "verify", "degreewise structure verifications", cmd_verify)
    p.add_argument("--what", choices=["h2", "structure-iso"], required=True)
    p.add_argument("--max-degree", type=int, default=5)

    p = sub.add_parser("series", help="generating series and their identities")
    p.add_argument("--show")
    p.add_argument("--check", choices=["triple", "koszul"])
    p.add_argument("--names")
    p.add_argument("--order", type=int, default=12)
    p.set_defaults(fn=cmd_series)

    p = sub.add_parser("homology", help="duplicial bicomplex homology")
    p.add_argument("--internal-degree", type=int, required=True)
    p.add_argument("--check-only", action="store_true")
    p.set_defaults(fn=cmd_homology)

    p = sub.add_parser("suite", help="run bundled verification suites")
    for name, _ in SUITE_BUNDLES:
        p.add_argument("--" + name, action="store_true")
    p.add_argument("--all", action="store_true")
    p.set_defaults(fn=cmd_suite)

    return parser


# an element may start with a minus sign ("-xy"), which argparse would take
# for an option: such an option is joined to the word after it, as --element=-xy
_ELEMENT_OPTIONS = ("--element", "--left", "--right")


def _attach_elements(argv):
    out = []
    for arg in argv:
        if out and out[-1] in _ELEMENT_OPTIONS:
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None):
    if hasattr(sys, "set_int_max_str_digits"):
        # exact coefficients of any size print; parse_element bounds their input
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    args = parser.parse_args(_attach_elements(sys.argv[1:] if argv is None else argv))
    try:
        code = args.fn(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader of stdout has gone (`| head`); point stdout at devnull so
        # the flush at exit cannot raise again, and report the cut-off output
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        code = 2
    except Exception as exc:  # a bug in this program, not in its input
        print("internal error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        traceback.print_exc()
        code = 3
    sys.exit(code)


if __name__ == "__main__":
    main()
