"""Command-line interface: exit codes, grammar, determinism."""

import json
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction

import pytest

from operads import cli, models
from operads.cli import SUITE_BUNDLES, UsageError, main, parse_element
from operads.idempotents import (ConvolutionContext, eulerian, geometric_idempotent,
                                 versal_idempotent)
from operads.linalg import LinComb
from operads.models import get_model, model_names, tree_key, words
from operads.trees import MAX_DEPTH, catalan, enumerate_trees, left_comb, right_comb
from records import replace

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "operads.cli", *argv],
        capture_output=True,
        text=True,
    )
    return proc


# --- element grammar -------------------------------------------------------

def test_parse_element_words():
    model = get_model("as", 2)
    lc = parse_element(model, "2*xy - 1/3*yx + x")
    assert lc == LinComb({"xy": 2, "yx": LinComb.of("x").coeff("x") * -1 / 3, "x": 1})


def test_parse_element_trees():
    model = get_model("dup", 1)
    lc = parse_element(model, "(.,.):x + 2*((.,.),.):xx")
    assert lc.coeff("(.,.):x") == 1
    assert lc.coeff("((.,.),.):xx") == 2


def test_parse_element_rejects_garbage():
    model = get_model("as", 2)
    for bad in ("", "qq", "2*", "x**y", "1/0*x", "xy+zz", "xy+yy+zz"):
        with pytest.raises(UsageError):
            parse_element(model, bad)


def _listed_keys(model, max_degree=5):
    """The membership oracle: the keys of the listed bases of degree <= max_degree.

    The lie basis lists LinCombs, which equal no key.
    """
    return {k for n in range(1, max_degree + 1) for k in model.basis(n) if isinstance(k, str)}


def test_key_validation_never_lists_a_basis():
    # every genuine basis key among the candidates has degree <= 4
    candidates = [w for n in range(1, 5) for w in words(3, n)] + [
        tree_key(t, w)
        for leaves in range(1, 7) for t in enumerate_trees(leaves)
        for n in range(1, 5) for w in words(2, n)
    ] + [
        ":", ":x", "x:", ".", "(.,.)", "(.,.):", ".:x:", "(.,.):x:x", "(.,.):xz",
        "((.,.):xy", "(.,.)):xy", "(.,.,.):xx", "(..):x", "(.;.):x", "X", "xq",
        "(.,.):X", "(" * 3000 + ":x",
    ]

    def boom(n):
        raise AssertionError("key validation listed the degree-%d basis" % n)

    for name in model_names():
        for alphabet in (1, 2):
            model = get_model(name, alphabet)
            listed = _listed_keys(model)
            blind = replace(model, basis=boom)
            for key in candidates:
                if key in listed:
                    assert parse_element(blind, key) == LinComb.of(key)
                    continue
                with pytest.raises(UsageError) as exc:
                    parse_element(blind, key)
                assert str(exc.value) == (
                    "key %r is not a basis element of model %s" % (key, name))


# --- exit codes -------------------------------------------------------------

def test_exit_zero_on_holding_check():
    proc = run_cli("check", "--model", "as", "--relation", "nui", "--max-degree", "4")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["holds"] is True


def test_exit_one_on_falsified_check():
    proc = run_cli(
        "check", "--model", "as", "--relation", "hopf", "--max-degree", "3",
        "--witness",
    )
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert report["holds"] is False
    assert "firstFailure" in report


def test_exit_two_on_usage_errors(capsys):
    # well-formed trees nested deeper than the recursive tree scan can go
    deep = ["(" * d + "." + ",.)" * d for d in (995, 1200)]
    for argv in (
        ["check", "--model", "nope", "--relation", "nui"],
        ["check", "--model", "as", "--relation", "nope"],
        ["coproduct", "--model", "as", "--element", "zz"],
        ["product", "--model", "as", "--left", "x", "--right", "@"],
        ["series"],
        ["series", "--check", "triple", "--names", "As"],
        ["idempotent", "--model", "as", "--kind", "nope"],
        ["suite"],
        ["check", "--model", "as", "--relation", "nui", "--max-degree", "1"],
        ["check", "--model", "as", "--relation", "nui", "--max-degree", "0"],
        ["check", "--model", "as", "--relation", "nui", "--max-degree", "-3"],
        ["check", "--model", "mag", "--coproduct", "liv", "--relation", "nap-colaw",
         "--max-degree", "0"],
        ["prim", "--model", "dup", "--degree", "0"],
        ["prim", "--model", "dup", "--degree", "-1"],
        ["verify", "--model", "dup", "--what", "h2", "--max-degree", "0"],
        ["verify", "--model", "dup", "--what", "h2", "--max-degree", "1"],
        ["verify", "--model", "dup", "--what", "structure-iso", "--max-degree", "0"],
        ["idempotent", "--model", "dup", "--kind", "versal", "--max-degree", "0"],
        ["prim", "--model", "lie", "--degree", "2"],
        ["idempotent", "--model", "lie", "--kind", "geometric", "--max-degree", "3"],
        *(["trees", "cut", "--tree", t, "--index", "1"] for t in deep),
        *(["trees", "graft", "--kind", "over", "--left", t, "--right", "."] for t in deep),
    ):
        proc = run_cli(*argv)
        assert proc.returncode == 2, argv
        assert proc.stderr.startswith("error:")
    # refused by the library or the handler, each naming what is wrong with the input
    for argv, message in (
        (["idempotent", "--model", "dup", "--kind", "geometric"],
         "model dup has no product 'mul'"),
        (["idempotent", "--model", "bidup", "--kind", "geometric"],
         "model bidup has no product 'mul'"),
        (["idempotent", "--model", "zinb", "--kind", "geometric"],
         "model zinb has no product 'mul'"),
        (["idempotent", "--model", "dup", "--kind", "eulerian:1"],
         "model dup has no product 'mul'"),
        (["idempotent", "--model", "bidup", "--kind", "eulerian:1"],
         "model bidup has no product 'mul'"),
        (["idempotent", "--model", "zinb", "--kind", "eulerian:1"],
         "model zinb has no product 'mul'"),
        (["idempotent", "--model", "classical", "--kind", "eulerian:4", "--max-degree", "3"],
         "eulerian index must be <= --max-degree"),
        (["check", "--model", "as", "--relation", "semi_hopf_left"],
         "relation semi_hopf_left needs product 'star', which model as lacks"),
        (["trees", "enumerate", "--leaves", "0"], "need at least one leaf"),
        (["trees", "graft", "--kind", "over", "--left", "(.,.", "--right", "."],
         "malformed tree: '(.,.'"),
        (["trees", "cut", "--tree", "(.,.", "--index", "1"], "malformed tree: '(.,.'"),
        (["trees", "graft", "--kind", "under", "--left", ".", "--right", deep[1]],
         "tree nested too deeply (4801 characters)"),
        (["trees", "cut", "--tree", "((.,.),.)", "--index", "2"],
         "cut index 2 out of range for a tree with 3 leaves"),
        (["trees", "cut", "--tree", "((.,.),.)", "--index", "0"],
         "cut index 0 out of range for a tree with 3 leaves"),
        (["series", "--show", "Dup", "--order", "0"], "order must be >= 1"),
        (["series", "--show", "Dup", "--check", "triple", "--names", "As"],
         "series --show takes no --check or --names"),
        (["series", "--show", "Dup", "--names", "Dup,Nil"],
         "series --show takes no --check or --names"),
        (["series", "--check", "triple", "--names", "Com,As,Lie", "--order", "0"],
         "order must be >= 1"),
        (["series", "--check", "koszul", "--names", "Dup,Nil", "--order", "-1"],
         "order must be >= 1"),
        (["homology", "--internal-degree", "0"], "internal degree must be >= 1"),
        (["prim", "--model", "as", "--alphabet", "20", "--degree", "1"],
         "alphabet size must be <= 16"),
        (["verify", "--model", "zinb", "--what", "h2", "--max-degree", "3"],
         "model zinb has no splitting scheme"),
        (["verify", "--model", "classical", "--what", "h2", "--max-degree", "3"],
         "h2 is unsupported on model classical: its cooperad Com is symmetric"),
        (["prim", "--model", "lie", "--degree", "2"],
         "model lie has no basis keys: its basis entries are linear combinations"),
        (["idempotent", "--model", "lie", "--kind", "versal"],
         "model lie has no splitting scheme"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert capsys.readouterr().err == "error: %s\n" % message, argv


def _exit_code(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    capsys.readouterr()
    return exc.value.code


def test_deep_trees_are_answered_or_refused_never_an_internal_error(capsys):
    # every recursive tree kernel runs on a tree validate accepts; a deeper
    # tree is refused up front, however deep
    coproducts = [("mag", c, 0) for c in ("delta", "liv", "hopf")] + [
        (m, c, 1) for m, cs in (("dup", ("delta", "dleft", "dright")),
                                ("bidup", ("dleft", "dright"))) for c in cs]
    try:
        for depth in (100, MAX_DEPTH, MAX_DEPTH + 1, 500, 700, 987, 1200):
            expected = 0 if depth <= MAX_DEPTH else 2
            for tree in ("(" * depth + "." + ",.)" * depth, "(.," * depth + "." + ")" * depth):
                argv = ["trees", "cut", "--tree", tree, "--index", "1"]
                assert _exit_code(argv, capsys) == expected, (depth, argv[:2])
                for name, coproduct, extra in coproducts:
                    key = tree + ":" + "x" * (depth + 1 - extra)
                    argv = ["coproduct", "--model", name, "--alphabet", "1",
                            "--coproduct", coproduct, "--element", key]
                    assert _exit_code(argv, capsys) == expected, (depth, name, coproduct)
    finally:
        # the Livernet and Hopf memos would keep every deep key for the session
        models._mag_liv_key.cache_clear()
        models._mag_hopf_key.cache_clear()


def test_tree_listings_past_the_deepest_comb_are_refused(capsys):
    for argv in (["trees", "enumerate", "--leaves", "1100"],
                 ["prim", "--model", "dup", "--degree", "1000"],
                 ["prim", "--model", "mag", "--degree", "1100"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        assert err == "error: need at most %d leaves\n" % (MAX_DEPTH + 1), argv


def test_deep_pbw_keys_are_answered_or_refused_never_an_internal_error(capsys):
    # the memos evaluate a chain of keys deeper than the stack on their own
    # explicit stack, so a comb as deep as validate allows gets its answer
    combs = [("dup", "left", 1), ("mag", "left", 0), ("bidup", "left", 1),
             ("mag", "right", 0), ("bidup", "right", 1)]
    for depth in (100, 200, 300, MAX_DEPTH):
        for name, side, extra in combs:
            tree = left_comb(depth) if side == "left" else right_comb(depth)
            argv = ["pbw", "--model", name, "--alphabet", "1",
                    "--element", tree + ":" + "x" * (depth + 1 - extra)]
            with pytest.raises(SystemExit) as exc:
                main(argv)
            out, err = capsys.readouterr()
            assert exc.value.code in (0, 2), (depth, name, side, err[-300:])
            if exc.value.code == 0:
                assert json.loads(out)["matchesInput"] is True
            else:
                assert err.startswith("error: ") and "Traceback" not in err, err


def _run(argv, capsys):
    """(exit code, stdout) of main(argv) in this process."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code, capsys.readouterr().out


def test_an_element_may_start_with_a_minus_sign(capsys):
    coproduct = ["coproduct", "--model", "as", "--alphabet", "2"]
    for argv in (["--element", "-xy"], ["--element=-xy"]):
        code, out = _run(coproduct + argv, capsys)
        assert code == 0 and json.loads(out) == {"x|y": "-1"}
    product = ["product", "--model", "as", "--alphabet", "2"]
    code, out = _run(product + ["--left", "-x", "--right", "y"], capsys)
    assert code == 0 and json.loads(out) == {"xy": "-1"}
    # an unknown option is still refused, also beside an element that starts with "-"
    for argv in (["--bogus", "1", "--element", "-xy"], ["--element", "-xy", "-z"]):
        assert _exit_code(coproduct + argv, capsys) == 2


def _readme_commands():
    text = open(README).read()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("operads ")]


def test_every_readme_command_runs(capsys):
    commands = _readme_commands()
    assert len(commands) >= 10
    for argv in commands:
        # the one example of a falsified identity, shown with its witness
        expected = 1 if argv[:1] == ["check"] and "hopf" in argv and "--witness" in argv else 0
        assert _exit_code(argv, capsys) == expected, argv


def test_nap_colaw_names_a_missing_coproduct():
    proc = run_cli("check", "--model", "as", "--relation", "nap-colaw",
                   "--coproduct", "nope", "--max-degree", "3")
    assert proc.returncode == 2
    assert proc.stderr.strip() == "error: model as has no coproduct 'nope'"


def test_exit_three_on_internal_error(monkeypatch, capsys):
    def broken(args):
        raise TypeError("unhashable type: 'LinComb'")

    monkeypatch.setattr("operads.cli.cmd_prim", broken)
    with pytest.raises(SystemExit) as exc:
        main(["prim", "--model", "dup", "--degree", "2"])
    assert exc.value.code == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: TypeError: unhashable type: 'LinComb'")
    # the handler imports traceback itself, and still prints where the error was raised
    assert "Traceback (most recent call last):" in err and "in broken" in err


def test_exit_three_when_a_computation_raises(monkeypatch, capsys):
    # a ValueError or KeyError from inside a computation is a bug, not a usage error
    for error in (ValueError("empty sequence"), KeyError("mul")):
        def broken(model, n, error=error):
            raise error

        monkeypatch.setattr("operads.cli.primitive_part", broken)
        with pytest.raises(SystemExit) as exc:
            main(["prim", "--model", "dup", "--degree", "2"])
        assert exc.value.code == 3
        err = capsys.readouterr().err
        assert err.startswith("internal error: %s: " % type(error).__name__)


@pytest.mark.parametrize("index", ["+1", " 1", "1 ", "0_1", "\u0661", "-1", "1.0", "0x1", "",
                                   "1\n"])
def test_eulerian_index_is_ascii_decimal_digits(index, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["idempotent", "--model", "classical", "--kind", "eulerian:" + index,
              "--max-degree", "3"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: eulerian index must be an integer\n"


def _endo(model, kind, deg):
    if kind == "versal":
        return versal_idempotent(model, deg)
    if kind == "geometric":
        return geometric_idempotent(ConvolutionContext(model), deg)
    return eulerian(ConvolutionContext(model), int(kind.split(":")[1]), deg)


@pytest.mark.parametrize("name, alphabet, kind, deg", [
    ("dup", 2, "versal", 4),
    ("classical", 2, "eulerian:2", 5),
    # degree keys in string order: "1", "10", "11", "2", ...
    ("classical", 1, "eulerian:1", 11),
    # degrees 3 and 4 have empty bases
    ("nil", 2, "geometric", 4),
])
def test_streamed_matrix_report_is_the_dense_report(name, alphabet, kind, deg, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["idempotent", "--model", name, "--alphabet", str(alphabet), "--kind", kind,
              "--max-degree", str(deg), "--report", "matrix"])
    assert exc.value.code == 0
    endo = _endo(get_model(name, alphabet), kind, deg)
    dense = {"model": name, "kind": kind, "maxDegree": deg, "matrices": {
        str(d): {"basis": [str(k) for k in endo.bases[d]],
                 "matrix": [[str(Fraction(c)) for c in row] for row in endo.mats[d]]}
        for d in endo.mats}}
    assert capsys.readouterr().out == json.dumps(dense, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("argv", [
    # small output: the pipe breaks when stdout is flushed at the end
    ("verify", "--model", "as", "--alphabet", "2", "--what", "structure-iso",
     "--max-degree", "3"),
    # large output: the pipe breaks in the middle of printing
    ("trees", "enumerate", "--leaves", "10"),
    # the matrix report, written a row at a time
    ("idempotent", "--model", "dup", "--alphabet", "2", "--kind", "versal", "--max-degree", "5",
     "--report", "matrix"),
])
def test_closed_stdout_exits_141_without_a_traceback(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader has gone before the first write
    try:
        proc = subprocess.run([sys.executable, "-m", "operads.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == ""


def test_check_on_the_lie_model_still_runs():
    proc = run_cli("check", "--model", "lie", "--relation", "lily", "--max-degree", "3")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["holds"] is True


# --- a few commands end to end ----------------------------------------------

def test_trees_enumerate_and_graft():
    proc = run_cli("trees", "enumerate", "--leaves", "3")
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == ["((.,.),.)", "(.,(.,.))"]
    proc = run_cli("trees", "graft", "--kind", "over", "--left", "(.,.)",
                   "--right", "(.,.)")
    assert proc.stdout.strip() == "((.,.),.)"


# (command, model, operation, elements, printed JSON): every named coproduct
# and product of every model with basis keys, on two-key elements with a
# fractional coefficient, alphabet 2; the JSON is recorded output, not
# recomputed by the code under test
PINNED_OPERATIONS = [
    ("coproduct", "as", "delta", ("xy - 1/2*yx",), {"x|y": "1", "y|x": "-1/2"}),
    ("product", "as", "mul", ("x + 1/2*y", "y - 2*xy"),
     {"xxy": "-2", "xy": "1", "yxy": "-1", "yy": "1/2"}),
    ("coproduct", "classical", "delta", ("xyx + 2/3*yy",),
     {"xx|y": "1", "xy|x": "1", "x|xy": "1", "x|yx": "1", "yx|x": "1", "y|xx": "1",
      "y|y": "4/3"}),
    ("product", "classical", "mul", ("x - 1/3*yx", "y + 1/2*xx"),
     {"xxx": "1/2", "xy": "1", "yxxx": "-1/6", "yxy": "-1/3"}),
    ("coproduct", "zinb", "delta", ("xy + 1/2*yx",), {"x|y": "1", "y|x": "1/2"}),
    ("product", "zinb", "left", ("xy + 1/2*y", "yx - 1/3*x"),
     {"xxy": "-1/3", "xyx": "-1/3", "xyxy": "1", "xyyx": "2", "yx": "-1/6", "yyx": "1/2"}),
    ("product", "zinb", "star", ("xy + 1/2*y", "yx - 1/3*x"),
     {"xxy": "-2/3", "xy": "-1/6", "xyx": "-1/3", "xyxy": "1", "xyyx": "2", "yx": "-1/6",
      "yxxy": "2", "yxy": "1/2", "yxyx": "1", "yyx": "1"}),
    ("coproduct", "nil", "delta", ("xy - 3/2*yy",), {"x|y": "1", "y|y": "-3/2"}),
    ("product", "nil", "mul", ("x - 1/2*y", "y + 2/5*x"),
     {"xx": "2/5", "xy": "1", "yx": "-1/5", "yy": "-1/2"}),
    ("coproduct", "mag", "delta", ("((.,.),.):xyx + 1/2*(.,(.,.)):yxx",),
     {"(.,.):xy|.:x": "1", ".:y|(.,.):xx": "1/2"}),
    ("coproduct", "mag", "liv", ("((.,.),.):xyx + 1/2*(.,(.,.)):yxx",),
     {"(.,.):xx|.:y": "1", "(.,.):xy|.:x": "1", ".:x|(.,.):yx": "1", ".:y|(.,.):xx": "1/2"}),
    ("coproduct", "mag", "hopf", ("((.,.),.):xyx + 1/2*(.,(.,.)):yxx",),
     {"(.,.):xx|.:y": "3/2", "(.,.):xy|.:x": "1", "(.,.):yx|.:x": "2", ".:x|(.,.):xy": "1",
      ".:x|(.,.):yx": "2", ".:y|(.,.):xx": "3/2"}),
    ("product", "mag", "mul", ("(.,.):xy + 1/2*.:x", ".:y - 1/3*(.,.):yx"),
     {"((.,.),(.,.)):xyyx": "-1/3", "((.,.),.):xyy": "1", "(.,(.,.)):xyx": "-1/6",
      "(.,.):xy": "1/2"}),
    ("coproduct", "dup", "delta", ("((.,.),.):xy - 2/3*(.,(.,.)):yx",),
     {"(.,.):x|(.,.):y": "1", "(.,.):y|(.,.):x": "-2/3"}),
    ("coproduct", "dup", "dleft", ("((.,.),.):xy - 2/3*(.,(.,.)):yx",),
     {"(.,.):y|(.,.):x": "-2/3"}),
    ("coproduct", "dup", "dright", ("((.,.),.):xy - 2/3*(.,(.,.)):yx",),
     {"(.,.):x|(.,.):y": "1"}),
    ("product", "dup", "left", ("(.,.):x - 1/2*((.,.),.):xy", "(.,(.,.)):yx + 1/4*(.,.):y"),
     {"((.,.),(.,(.,.))):xyyx": "-1/2", "((.,.),(.,.)):xyy": "-1/8",
      "(.,(.,(.,.))):xyx": "1", "(.,(.,.)):xy": "1/4"}),
    ("product", "dup", "right", ("(.,.):x - 1/2*((.,.),.):xy", "(.,(.,.)):yx + 1/4*(.,.):y"),
     {"(((.,.),.),(.,.)):xyyx": "-1/2", "(((.,.),.),.):xyy": "-1/8",
      "((.,.),(.,.)):xyx": "1", "((.,.),.):xy": "1/4"}),
    ("coproduct", "bidup", "dleft", ("(((.,.),.),.):xyy + 1/3*(.,((.,.),.)):yxy",),
     {"(.,.):y|((.,.),.):xy": "1/3"}),
    ("coproduct", "bidup", "dright", ("(((.,.),.),.):xyy + 1/3*(.,((.,.),.)):yxy",),
     {"((.,.),.):xy|(.,.):y": "1", "(.,.):x|((.,.),.):yy": "1"}),
    ("product", "bidup", "left", ("(.,.):y + 2/3*(.,(.,.)):xx", "(.,.):x - 1/5*((.,.),.):xy"),
     {"(.,((.,.),.)):yxy": "-1/5", "(.,(.,((.,.),.))):xxxy": "-2/15",
      "(.,(.,(.,.))):xxx": "2/3", "(.,(.,.)):yx": "1"}),
    ("product", "bidup", "right", ("(.,.):y + 2/3*(.,(.,.)):xx", "(.,.):x - 1/5*((.,.),.):xy"),
     {"(((.,(.,.)),.),.):xxxy": "-2/15", "(((.,.),.),.):yxy": "-1/5",
      "((.,(.,.)),.):xxx": "2/3", "((.,.),.):yx": "1"}),
]


def test_coproduct_and_product_json(capsys):
    covered = set()
    for command, name, op, elements, want in PINNED_OPERATIONS:
        flags = ("--element",) if command == "coproduct" else ("--left", "--right")
        argv = [command, "--model", name, "--alphabet", "2", "--" + command, op]
        argv += [x for flag, element in zip(flags, elements) for x in (flag, element)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0, argv
        assert capsys.readouterr().out == json.dumps(want, indent=2, sort_keys=True) + "\n", argv
        covered.add((command, name, op))
    for name in model_names():
        if name != "lie":
            model = get_model(name)
            assert {("coproduct", name, op) for op in model.coproducts} <= covered, name
            assert {("product", name, op) for op in model.products} <= covered, name


def test_large_coefficients_print_exactly_and_exponents_are_refused(capsys):
    big = "9" * 5000
    with pytest.raises(SystemExit) as exc:
        main(["coproduct", "--model", "as", "--alphabet", "2", "--element", big + "*xy"])
    assert exc.value.code == 0
    assert json.loads(capsys.readouterr().out) == {"x|y": big}
    left, right = "7" * 3000, "3" * 2999 + "1"
    with pytest.raises(SystemExit) as exc:
        main(["product", "--model", "as", "--left", left + "*x", "--right=-" + right + "*x"])
    assert exc.value.code == 0
    product = json.loads(capsys.readouterr().out)["xx"]
    assert product == str(-int(left) * int(right)) and len(product) == 6001
    for argv in (["coproduct", "--model", "as", "--alphabet", "2", "--element", "1e5000*xy"],
                 ["product", "--model", "as", "--left", "1e3000*x", "--right", "1E3000*x"],
                 ["pbw", "--model", "as", "--element", "1e5000*x"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert capsys.readouterr().err.startswith("error: bad coefficient '1"), argv


def test_prim_and_idempotent_reports():
    proc = run_cli("prim", "--model", "dup", "--degree", "3")
    report = json.loads(proc.stdout)
    assert report["dimension"] == 2
    proc = run_cli("idempotent", "--model", "as", "--kind", "versal",
                   "--max-degree", "4")
    report = json.loads(proc.stdout)
    assert report["ranks"] == {"1": 1, "2": 0, "3": 0, "4": 0}


def test_pbw_of_zero_element():
    proc = run_cli("pbw", "--model", "dup", "--element", "0*(.,.):x")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["components"] == []
    assert report["matchesInput"] is True


def test_series_and_homology_commands():
    proc = run_cli("series", "--show", "Dup", "--order", "5")
    assert json.loads(proc.stdout)["coefficients"] == ["1", "2", "5", "14", "42"]
    proc = run_cli("series", "--check", "triple", "--names", "Com,As,Lie",
                   "--order", "8")
    assert proc.returncode == 0
    proc = run_cli("series", "--check", "koszul", "--names", "Dup,Nil",
                   "--order", "4")
    assert proc.returncode == 1
    proc = run_cli("homology", "--internal-degree", "3")
    report = json.loads(proc.stdout)
    assert report["homologyDims"] == [0, 0, 0]
    assert proc.returncode == 0


def test_an_unknown_model_is_refused_with_the_library_text(capsys):
    with pytest.raises(KeyError) as lookup:
        get_model("nope")
    with pytest.raises(SystemExit) as code:
        main(["check", "--model", "nope", "--relation", "nui"])
    assert code.value.code == 2
    assert capsys.readouterr().err == "error: %s\n" % lookup.value.args[0]


def test_an_unknown_series_gets_one_refusal_on_both_paths(capsys):
    # --order 0 too: the name is refused before any series is built
    errs = []
    for argv in (["series", "--show", "Foo", "--order", "0"],
                 ["series", "--check", "triple", "--names", "Foo,As,Lie", "--order", "0"]):
        with pytest.raises(SystemExit) as code:
            main(argv)
        assert code.value.code == 2
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1]
    assert errs[0].startswith("error: unknown series 'Foo' (choose from As, Com, Lie, ")


def test_verify_h2_command():
    proc = run_cli("verify", "--model", "dup", "--what", "h2", "--max-degree", "4")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "epi-with-splitting"


_COMPOSITE_CLOSED_FORMS = {
    "as": lambda n: 1,
    "mag": lambda n: catalan(n - 1),
    "dup": catalan,
    "bidup": catalan,
}


@pytest.mark.parametrize("name", list(_COMPOSITE_CLOSED_FORMS))
def test_verify_structure_iso_composites_are_closed_form_ints(name):
    closed_form = _COMPOSITE_CLOSED_FORMS[name]
    proc = run_cli("verify", "--model", name, "--what", "structure-iso", "--max-degree", "8")
    assert proc.returncode == 0
    rows = json.loads(proc.stdout)["perDegree"]
    assert [row["degree"] for row in rows] == list(range(1, 9))
    for row in rows:
        assert type(row["composite"]) is int
        assert row["composite"] == closed_form(row["degree"]) == row["dimA"]


def test_suite_is_deterministic_and_green():
    first = run_cli("suite", "--all")
    second = run_cli("suite", "--all")
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert "FAIL" not in first.stdout
    last = first.stdout.strip().splitlines()[-1]
    assert last.startswith("suite: ")
    passed, total = last.split()[1].split("/")
    assert passed == total


def test_suite_report_has_the_shape_the_benchmark_reads(capsys):
    # bench/workloads.py times each bundle from its [name] header and expects
    # exactly 60 check lines
    names = [name for name, _ in SUITE_BUNDLES]
    with pytest.raises(SystemExit):
        main(["suite", "--help"])
    usage = capsys.readouterr().out.split("\n\n")[0]
    assert re.findall(r"\[--([\w-]+)\]", usage) == names + ["all"]
    with pytest.raises(SystemExit) as exc:
        main(["suite", "--all"])
    assert exc.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line[1:-1] for line in lines if line.startswith("[")] == names
    labels = [line[len("  pass "):] for line in lines if line.startswith("  ")]
    assert len(labels) == 60 and len(set(labels)) == 60


def test_suite_single_bundle():
    proc = run_cli("suite", "--catalan")
    assert proc.returncode == 0
    assert "[catalan]" in proc.stdout
    assert "[series]" not in proc.stdout


def test_the_suite_builds_each_model_once(monkeypatch, capsys):
    # the bundles of one run share one model per (name, alphabet); the library's
    # own get_model calls (dynkin, build_bicomplex) are not counted here
    built = []

    def counted(name, alphabet=None):
        model = get_model(name, alphabet)
        built.append((model.name, model.alphabet))
        return model
    monkeypatch.setattr(cli, "get_model", counted)
    with pytest.raises(SystemExit) as exc:
        main(["suite", "--all"])
    assert exc.value.code == 0
    assert "FAIL" not in capsys.readouterr().out
    assert sorted(built) == [("as", 1), ("bidup", 1), ("classical", 2), ("classical", 3),
                             ("dup", 1), ("dup", 3), ("lie", 2), ("mag", 1), ("zinb", 2)]


def test_shared_models_change_no_verdict(capsys):
    # a single-bundle run builds its own models; the full run shares them
    def report(*flags):
        with pytest.raises(SystemExit) as exc:
            main(["suite", *flags])
        assert exc.value.code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1].startswith("suite: ")
        return lines[:-1]
    alone = [line for name, _ in SUITE_BUNDLES for line in report("--" + name)]
    assert report("--all") == alone
    assert len(alone) == 69


def test_main_exits_with_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["trees", "enumerate", "--leaves", "2"])
    assert exc.value.code == 0
    assert json.loads(capsys.readouterr().out) == ["(.,.)"]
