"""The duplicial Koszul bicomplex and its total-complex homology."""

import dataclasses
import itertools

import pytest

from operads import cli, homology
from operads.homology import (
    build_bicomplex,
    check_differentials,
    homology_report,
    total_dims,
    total_homology_dims,
    total_matrix,
)
from operads.linalg import exact_rank
from operads.trees import catalan


def alternating_sum(dims):
    """The Euler characteristic of a list of dimensions indexed from 0."""
    return sum((-1) ** m * d for m, d in enumerate(dims))


def test_bases_count_matches_composition_formula():
    # Tot_m in internal degree n is (m+1) copies of the (m+1)-fold
    # duplicial monomial tuples of total degree n
    for n in range(1, 6):
        bc = build_bicomplex(n)
        dims = total_dims(bc)
        assert len(dims) == n
        for m in range(n):
            assert dims[m] == (m + 1) * len(bc.bases[m])
        assert dims[0] == catalan(n)


def test_total_dims_degree_5_pinned():
    assert total_dims(build_bicomplex(5)) == [42, 96, 81, 32, 5]


@pytest.mark.parametrize("n", range(1, 6))
def test_differentials_square_to_zero_and_anticommute(n):
    assert check_differentials(build_bicomplex(n))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_swapped_products_fail_the_differential_check(n):
    # negative control: with right and left exchanged, d^h and d^v no
    # longer anticommute, and the check must say so
    bc = build_bicomplex(n)
    swapped = dataclasses.replace(bc, right=bc.left, left=bc.right)
    assert check_differentials(bc) is True
    assert check_differentials(swapped) is False


def test_wrapped_products_take_the_generic_path_to_the_same_differential():
    bc = build_bicomplex(5)
    calls = []

    def plain(fn):
        def merged(k1, k2):
            calls.append((k1, k2))
            return fn(k1, k2)
        return merged
    wrapped = dataclasses.replace(bc, right=plain(bc.right), left=plain(bc.left))
    for m in range(1, 5):
        for key in bc.tot_keys(m):
            assert list(wrapped.d(key).terms.items()) == list(bc.d(key).terms.items())
    # D merges m adjacent slot pairs of each key of Tot_m
    assert len(calls) == sum(m * bc.tot_dim(m) for m in range(1, 5))


def test_total_matrix_composes_to_zero():
    bc = build_bicomplex(4)
    for m in range(1, 4):
        d_m = total_matrix(bc, m)
        d_next = total_matrix(bc, m + 1) if m + 1 < 4 else None
        if d_next:
            # row i of D_m D_{m+1}: the rows of D_{m+1} summed by row i of D_m
            comp = []
            for row in d_m:
                acc = {}
                for k, x in row.items():
                    for j, y in d_next[k].items():
                        acc[j] = acc.get(j, 0) + x * y
                comp.append(acc)
            assert all(all(c == 0 for c in row.values()) for row in comp)


def test_homology_is_concentrated_in_the_bottom_degree():
    assert total_homology_dims(build_bicomplex(1)) == [1]
    for n in range(2, 6):
        assert total_homology_dims(build_bicomplex(n)) == [0] * n


@pytest.mark.parametrize("n", [6, 7, 8])
def test_homology_vanishes_and_matches_euler_characteristic(n):
    bc = build_bicomplex(n)
    dims = total_homology_dims(bc)
    assert dims == [0] * n
    assert alternating_sum(total_dims(bc)) == alternating_sum(dims)


def test_euler_characteristic_matches_alternating_sum():
    slices = [build_bicomplex(n) for n in range(1, 6)]
    for bc in slices:
        assert alternating_sum(total_dims(bc)) == alternating_sum(total_homology_dims(bc))
    assert [alternating_sum(total_dims(bc)) for bc in slices] == [1, 0, 0, 0, 0]


def test_homology_report_shape():
    report = homology_report(3)
    assert report["internalDegree"] == 3
    assert report["differentialChecks"] is True
    assert report["totDims"] == total_dims(build_bicomplex(3))
    assert report["homologyDims"] == [0, 0, 0]
    assert "shiftConvention" in report
    light = homology_report(3, check_only=True)
    assert "homologyDims" not in light


def test_the_suite_builds_each_slice_once(monkeypatch):
    built = []

    def counted(n):
        built.append(n)
        return build_bicomplex(n)
    monkeypatch.setattr(homology, "build_bicomplex", counted)
    monkeypatch.setattr(cli, "build_bicomplex", counted)
    verdicts = [ok for _, ok in cli._suite_homology()]
    assert len(verdicts) == 10 and all(verdicts)
    assert built == [1, 2, 3, 4, 5]


def test_degree_tuples_are_the_compositions_in_lexicographic_order():
    for n in range(1, 9):
        for k in range(1, n + 1):
            # each of k positive parts summing to n is at most n - k + 1
            assert homology._degree_tuples(n, k) == [
                t for t in itertools.product(range(1, n - k + 2), repeat=k) if sum(t) == n], (n, k)
