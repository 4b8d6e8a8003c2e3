"""Input refusals: one type, raised by the library with the command line's text."""

import pytest

from operads import cli, errors
from operads.errors import UsageError
from operads.homology import build_bicomplex
from operads.idempotents import (
    ConvolutionContext,
    eulerian,
    geometric_idempotent,
    omega,
    versal_idempotent,
)
from operads.linalg import LinComb
from operads.models import get_model
from operads.series import TruncatedSeries, gen_series
from operads.structure import check_h2, pbw_expand, phi_map, primitive_part
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
    ("enumerate_trees 0", lambda: enumerate_trees(0), "need at least one leaf"),
    ("validate malformed", lambda: validate("(.,."), "malformed tree: '(.,.'"),
    ("path_cut out of range", lambda: path_cut("((.,.),.)", 2),
     "cut index 2 out of range for a tree with 3 leaves"),
    ("TruncatedSeries 0", lambda: TruncatedSeries(0), "order must be >= 1"),
    ("gen_series order 0", lambda: gen_series("Dup", 0), "order must be >= 1"),
    ("build_bicomplex 0", lambda: build_bicomplex(0), "internal degree must be >= 1"),
    ("eulerian index 0", lambda: eulerian(_classical_ctx(), 0, 3),
     "eulerian index must be >= 1"),
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
