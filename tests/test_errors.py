"""Input refusals: one type, raised by the library entry point that owns each rule.

Degree minimums, the (co)products a model lacks and tree syntax are refused
by the library, with the text the command line prints after "error: ";
the command line itself refuses only flags and unknown names.
"""

import pytest

from operads import cli, errors, idempotents
from operads.errors import UsageError
from operads.homology import build_bicomplex
from operads.idempotents import (
    ConvolutionContext,
    dynkin,
    eulerian,
    geometric_idempotent,
    omega,
    versal_idempotent,
)
from operads.linalg import LinComb
from operads.models import get_model
from operads.relations import check_nap_colaw, check_relation
from operads.series import TruncatedSeries, gen_series
from operads.structure import (check_h2, pbw_expand, phi_map, primitive_part,
                               verify_structure_iso)
from operads.trees import enumerate_trees, path_cut, validate


def test_the_cli_raises_the_library_type():
    assert cli.UsageError is errors.UsageError
    assert issubclass(UsageError, ValueError)


def _classical_ctx():
    return ConvolutionContext(get_model("classical", 2))


_NO_KEYS = "model lie has no basis keys: its basis entries are linear combinations"

REFUSALS = [
    ("pbw_expand zinb", lambda: pbw_expand(get_model("zinb"), LinComb.of("x")),
     "model zinb has no splitting scheme"),
    ("primitive_part lie", lambda: primitive_part(get_model("lie"), 2), _NO_KEYS),
    ("geometric lie", lambda: geometric_idempotent(ConvolutionContext(get_model("lie")), 3),
     _NO_KEYS),
    ("ConvolutionContext dup", lambda: ConvolutionContext(get_model("dup")),
     "model dup has no product 'mul'"),
    ("ConvolutionContext bidup", lambda: ConvolutionContext(get_model("bidup")),
     "model bidup has no product 'mul'"),
    ("versal_idempotent zinb", lambda: versal_idempotent(get_model("zinb"), 3),
     "model zinb has no splitting scheme"),
    ("omega nil", lambda: omega(get_model("nil"), 2, 3), "model nil has no splitting scheme"),
    ("check_h2 zinb", lambda: check_h2(get_model("zinb"), 3),
     "model zinb has no splitting scheme"),
    ("check_h2 classical", lambda: check_h2(get_model("classical"), 3),
     "h2 is unsupported on model classical: its cooperad Com is symmetric"),
    ("phi_map classical", lambda: phi_map(get_model("classical"), 3),
     "h2 is unsupported on model classical: its cooperad Com is symmetric"),
    ("get_model alphabet 0", lambda: get_model("as", 0), "alphabet size must be >= 1"),
    ("get_model alphabet 17", lambda: get_model("as", 17), "alphabet size must be <= 16"),
    ("dynkin alphabet 0", lambda: dynkin(3, 0), "alphabet size must be >= 1"),
    ("dynkin alphabet 20", lambda: dynkin(3, 20), "alphabet size must be <= 16"),
    ("enumerate_trees 0", lambda: enumerate_trees(0), "need at least one leaf"),
    ("validate malformed", lambda: validate("(.,."), "malformed tree: '(.,.'"),
    ("path_cut out of range", lambda: path_cut("((.,.),.)", 2),
     "cut index 2 out of range for a tree with 3 leaves"),
    ("TruncatedSeries 0", lambda: TruncatedSeries(0), "order must be >= 1"),
    ("gen_series order 0", lambda: gen_series("Dup", 0), "order must be >= 1"),
    ("build_bicomplex 0", lambda: build_bicomplex(0), "internal degree must be >= 1"),
    ("eulerian index 0", lambda: eulerian(_classical_ctx(), 0, 3),
     "eulerian index must be >= 1"),
    # a check over no pairs, or a basis in degree <= 0, is refused, not answered
    ("check_relation hopf deg 1", lambda: check_relation(
        get_model("as", 1), "delta", "mul", "hopf", 1), "a relation needs max degree >= 2"),
    ("check_nap_colaw deg 0", lambda: check_nap_colaw(get_model("mag"), "liv", 0),
     "nap-colaw needs max degree >= 1"),
    ("primitive_part deg 0", lambda: primitive_part(get_model("dup"), 0),
     "degree must be >= 1"),
    ("primitive_part deg -1", lambda: primitive_part(get_model("as"), -1),
     "degree must be >= 1"),
    ("check_h2 deg 0", lambda: check_h2(get_model("dup"), 0), "h2 needs max degree >= 2"),
    ("check_h2 deg 1", lambda: check_h2(get_model("dup"), 1), "h2 needs max degree >= 2"),
    ("versal_idempotent deg 0", lambda: versal_idempotent(get_model("dup"), 0),
     "max degree must be >= 1"),
    ("eulerian deg 0", lambda: eulerian(_classical_ctx(), 1, 0), "max degree must be >= 1"),
    ("verify_structure_iso deg 0", lambda: verify_structure_iso(get_model("dup"), 0),
     "structure-iso needs max degree >= 1"),
    ("verify_structure_iso nil", lambda: verify_structure_iso(get_model("nil"), 3),
     "no structure-iso dimension data for model nil"),
    # a (co)product the model lacks, named by the call or by the relation
    ("check_relation semi_hopf_left as", lambda: check_relation(
        get_model("as"), "delta", "mul", "semi_hopf_left", 3),
     "relation semi_hopf_left needs product 'star', which model as lacks"),
    ("check_relation coproduct nope", lambda: check_relation(
        get_model("as"), "nope", "mul", "nui", 3), "model as has no coproduct 'nope'"),
    ("check_relation product nope", lambda: check_relation(
        get_model("as"), "delta", "nope", "nui", 3), "model as has no product 'nope'"),
    ("check_nap_colaw coproduct nope", lambda: check_nap_colaw(get_model("as"), "nope", 3),
     "model as has no coproduct 'nope'"),
]


@pytest.mark.parametrize("call, message", [r[1:] for r in REFUSALS], ids=[r[0] for r in REFUSALS])
def test_the_library_refuses_with_the_cli_text(call, message):
    with pytest.raises(UsageError) as exc:
        call()
    assert str(exc.value) == message


def test_lookups_by_name_keep_raising_key_error():
    for call in (lambda: get_model("nope"), lambda: gen_series("Nope", 3)):
        with pytest.raises(KeyError):
            call()


def test_a_refused_eulerian_call_caches_no_family(monkeypatch):
    monkeypatch.setattr(idempotents, "_EULERIAN_CACHE", {})
    lie = ConvolutionContext(get_model("lie"))
    for call in (lambda: eulerian(lie, 1, 3), lambda: eulerian(_classical_ctx(), 1, 0),
                 lambda: eulerian(_classical_ctx(), 0, 3)):
        with pytest.raises(UsageError):
            call()
        assert idempotents._EULERIAN_CACHE == {}
    eulerian(_classical_ctx(), 1, 2)
    assert list(idempotents._EULERIAN_CACHE) == [("classical", 2)]


# one row per rule the library owns: (id, argv, the library call the command makes)
PARITY = [
    ("relation degree",
     ["check", "--model", "as", "--alphabet", "1", "--relation", "hopf", "--max-degree", "1"],
     lambda: check_relation(get_model("as", 1), "delta", "mul", "hopf", 1)),
    ("nap-colaw degree",
     ["check", "--model", "mag", "--coproduct", "liv", "--relation", "nap-colaw",
      "--max-degree", "0"], lambda: check_nap_colaw(get_model("mag"), "liv", 0)),
    ("prim degree", ["prim", "--model", "dup", "--degree", "0"],
     lambda: primitive_part(get_model("dup"), 0)),
    ("h2 degree", ["verify", "--model", "dup", "--what", "h2", "--max-degree", "1"],
     lambda: check_h2(get_model("dup"), 1)),
    ("materialize degree",
     ["idempotent", "--model", "dup", "--kind", "versal", "--max-degree", "0"],
     lambda: versal_idempotent(get_model("dup"), 0)),
    ("structure-iso degree",
     ["verify", "--model", "dup", "--what", "structure-iso", "--max-degree", "0"],
     lambda: verify_structure_iso(get_model("dup"), 0)),
    ("structure-iso model", ["verify", "--model", "nil", "--what", "structure-iso"],
     lambda: verify_structure_iso(get_model("nil"), 5)),
    ("relation symbols", ["check", "--model", "as", "--relation", "semi_hopf_left"],
     lambda: check_relation(get_model("as"), "delta", "mul", "semi_hopf_left", 5)),
    ("check coproduct", ["check", "--model", "as", "--coproduct", "nope", "--relation", "nui"],
     lambda: check_relation(get_model("as"), "nope", "mul", "nui", 5)),
    ("check product", ["check", "--model", "as", "--product", "nope", "--relation", "nui"],
     lambda: check_relation(get_model("as"), "delta", "nope", "nui", 5)),
    ("nap-colaw coproduct",
     ["check", "--model", "as", "--coproduct", "nope", "--relation", "nap-colaw"],
     lambda: check_nap_colaw(get_model("as"), "nope", 5)),
    ("coproduct", ["coproduct", "--model", "as", "--coproduct", "nope", "--element", "x"],
     lambda: get_model("as").lookup("coproducts", "nope")),
    ("product", ["product", "--model", "as", "--product", "nope", "--left", "x", "--right", "x"],
     lambda: get_model("as").lookup("products", "nope")),
    ("convolution product", ["idempotent", "--model", "dup", "--kind", "geometric"],
     lambda: ConvolutionContext(get_model("dup"))),
    ("tree listing", ["trees", "enumerate", "--leaves", "1100"], lambda: enumerate_trees(1100)),
    ("pbw key", ["pbw", "--model", "dup", "--element", "garbage"],
     lambda: pbw_expand(get_model("dup"), LinComb.of("garbage"))),
]


@pytest.mark.parametrize("argv, call", [r[1:] for r in PARITY], ids=[r[0] for r in PARITY])
def test_the_cli_prints_the_library_refusal(argv, call, capsys):
    with pytest.raises(UsageError) as exc:
        call()
    with pytest.raises(SystemExit) as code:
        cli.main(argv)
    assert code.value.code == 2
    assert capsys.readouterr().err == "error: " + str(exc.value) + "\n"
