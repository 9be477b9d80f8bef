"""Tests for monomorphy enumeration, minor constancy, window transfer."""

from itertools import combinations

import pytest

import genutil
from spectramono.charpoly import RealPolynomial, char_poly, determinant, poly_x_squared_minus
from spectramono.combinat import colex_subsets
from spectramono.constructions import hat, paley_tournament
from spectramono.core import (
    HermitianStructure,
    c_representation,
    constant_structure,
    i_representation,
    substructure,
    transitive_tournament,
)
from spectramono.errors import InputError
from spectramono.monomorphy import (
    _compare_polys,
    det_constancy,
    is_k_spectrally_monomorphic,
    monomorphy_profile,
    pouzet_transfer_check,
)
from spectramono.scalars import APPROX, EXACT, GaussianScalar, rational

UNIT_C = GaussianScalar.exact("3/5", "4/5")

X = RealPolynomial([0, 1], EXACT)


def dominated_paley_seven():
    return i_representation(hat(paley_tournament(7)))


class TestIsKSpectrallyMonomorphic:
    def test_k_one(self):
        r = genutil.rng(21)
        g = genutil.random_hermitian(r, 5)
        report = is_k_spectrally_monomorphic(g, 1)
        assert report.monomorphic
        assert report.common_poly == X
        assert report.subsets_checked == 5

    def test_k_equals_n(self):
        g = i_representation(transitive_tournament(4))
        report = is_k_spectrally_monomorphic(g, 4)
        assert report.monomorphic
        assert report.common_poly == char_poly(g)
        assert report.subsets_checked == 1

    def test_transitive_c_representation(self):
        g = c_representation(transitive_tournament(5), UNIT_C)
        assert is_k_spectrally_monomorphic(g, 3).monomorphic

    def test_paley_k_five(self):
        report = is_k_spectrally_monomorphic(dominated_paley_seven(), 5)
        assert report.monomorphic
        expected = X.multiply(poly_x_squared_minus(3)).multiply(poly_x_squared_minus(7))
        assert report.common_poly == expected

    def test_paley_k_four(self):
        report = is_k_spectrally_monomorphic(dominated_paley_seven(), 4)
        assert not report.monomorphic
        assert report.witness == ((0, 1, 2, 3), (0, 1, 2, 4))
        assert report.subsets_checked == 2

    def test_witness_reverifies(self):
        g = dominated_paley_seven()
        report = is_k_spectrally_monomorphic(g, 4)
        first, second = report.witness
        p_first = char_poly(substructure(g, first))
        p_second = char_poly(substructure(g, second))
        assert (p_first, p_second) == report.witness_polys
        assert p_first != p_second

    def test_k_out_of_range(self):
        g = constant_structure(3, GaussianScalar.one())
        with pytest.raises(InputError):
            is_k_spectrally_monomorphic(g, 0)
        with pytest.raises(InputError):
            is_k_spectrally_monomorphic(g, 4)

    def test_exact_mode_never_fragile(self):
        g = dominated_paley_seven()
        assert not is_k_spectrally_monomorphic(g, 4).fragile
        assert not is_k_spectrally_monomorphic(g, 5).fragile


class TestMonomorphyProfile:
    def test_constant_structure(self):
        g = constant_structure(5, GaussianScalar.exact(2))
        profile = monomorphy_profile(g)
        assert all(profile[k].monomorphic for k in range(1, 6))

    def test_dominated_paley_seven(self):
        profile = monomorphy_profile(dominated_paley_seven())
        verdicts = {k: profile[k].monomorphic for k in range(1, 9)}
        assert verdicts == {
            1: True, 2: True, 3: True, 4: False,
            5: True, 6: True, 7: True, 8: True,
        }
        assert profile[8].common_poly == poly_x_squared_minus(7).power(4)

    def test_agrees_with_per_k_calls(self):
        g = dominated_paley_seven()
        profile = monomorphy_profile(g)
        for k in range(1, 9):
            single = is_k_spectrally_monomorphic(g, k)
            assert profile[k].monomorphic == single.monomorphic
            assert profile[k].common_poly == single.common_poly
            assert profile[k].witness == single.witness


def test_every_i_representation_is_three_monomorphic():
    """Triple label products of an i-weighted tournament are purely
    imaginary, so every 3-subset has characteristic polynomial x^3 - 3x,
    dominating vertex or not."""
    r = genutil.rng(22)
    expected = RealPolynomial([0, -3, 0, 1], EXACT)
    for _ in range(20):
        t = genutil.random_tournament(r, 6)
        report = is_k_spectrally_monomorphic(i_representation(t), 3)
        assert report.monomorphic
        assert report.common_poly == expected


def _substructure_enumeration(g, k):
    """(polys, witness, subsets_checked, fragile) of the colex enumeration
    written out with char_poly on every substructure."""
    polys = []
    subsets = []
    fragile_any = False
    for subset in colex_subsets(g.n, k):
        poly = char_poly(substructure(g, subset))
        subsets.append(subset)
        polys.append(poly)
        if len(polys) == 1:
            continue
        equal, fragile = _compare_polys(polys[0], poly, g.mode)
        fragile_any = fragile_any or fragile
        if not equal:
            return (polys[0], poly), (subsets[0], subset), len(subsets), fragile_any
    return (polys[0],), None, len(subsets), fragile_any


def test_enumeration_matches_char_poly_of_substructures():
    """The enumeration slices one label matrix per structure; it must report
    what char_poly of each substructure reports, coefficient for
    coefficient, on integral, rational and approx labels."""
    r = genutil.rng(25)

    def integral(r, n):
        return i_representation(genutil.random_tournament(r, n))

    def approx(r, n):
        labels = genutil.random_hermitian(r, n).labels
        return HermitianStructure(
            [[GaussianScalar.approx(float(e.re), float(e.im)) for e in row] for row in labels]
        )

    families = (
        integral,
        genutil.random_hermitian,
        genutil.random_coprime_hermitian,
        approx,
    )
    seen_modes = set()
    for family in families:
        for _ in range(6):
            n = r.randrange(2, 8)
            g = family(r, n)
            seen_modes.add(g.mode)
            for k in range(1, n + 1):
                report = is_k_spectrally_monomorphic(g, k)
                polys, witness, checked, fragile = _substructure_enumeration(g, k)
                got = (report.common_poly,) if report.monomorphic else report.witness_polys
                assert [p.coefficients for p in got] == [p.coefficients for p in polys]
                assert report.witness == witness
                assert report.subsets_checked == checked
                assert report.fragile == fragile
    assert seen_modes == {EXACT, APPROX}


def test_downward_transfer():
    """k-monomorphy carries down to every p <= min(k, n - k)."""
    g = dominated_paley_seven()
    assert is_k_spectrally_monomorphic(g, 5).monomorphic
    for p in range(1, min(5, 8 - 5) + 1):
        assert is_k_spectrally_monomorphic(g, p).monomorphic


def test_corollary_transfer_on_transitive_representation():
    """With n >= 2k - 1, k-monomorphy gives p-monomorphy for all p <= k."""
    g = c_representation(transitive_tournament(9), UNIT_C)
    assert is_k_spectrally_monomorphic(g, 5).monomorphic
    for p in range(1, 6):
        assert is_k_spectrally_monomorphic(g, p).monomorphic


class TestDetConstancy:
    def test_order_one(self):
        r = genutil.rng(23)
        g = genutil.random_hermitian(r, 5)
        report = det_constancy(g, 1)
        assert report.constant
        assert report.value == GaussianScalar.exact(0)

    def test_paley_order_three(self):
        report = det_constancy(dominated_paley_seven(), 3)
        assert report.constant
        assert report.value == GaussianScalar.exact(0)

    def test_paley_order_four(self):
        g = dominated_paley_seven()
        report = det_constancy(g, 4)
        assert not report.constant
        values = {v.re for v in report.witness_values}
        assert values == {rational(1), rational(9)}
        for subset, value in zip(report.witness, report.witness_values):
            assert determinant(substructure(g, subset)) == value

    def test_order_validation(self):
        g = constant_structure(3, GaussianScalar.one())
        with pytest.raises(InputError):
            det_constancy(g, 0)


class TestPouzetTransfer:
    def test_constant_table(self):
        table = {z: 5 for z in combinations(range(6), 2)}
        report = pouzet_transfer_check(table, 2, 1, n=6)
        assert report.hypothesis_holds
        assert report.conclusion_holds
        assert report.window_sum == rational(15)  # C(3,2) * 5
        assert report.constant_value == rational(5)
        assert report.lemma_applicable

    def test_determinant_table_of_monomorphic_structure(self):
        g = dominated_paley_seven()
        table = {
            z: determinant(substructure(g, z)).re
            for z in combinations(range(8), 3)
        }
        report = pouzet_transfer_check(table, 3, 2, n=8)
        assert report.lemma_applicable  # 8 >= 2*3 + 2
        assert report.hypothesis_holds
        assert report.conclusion_holds

    def test_indicator_breaks_hypothesis(self):
        table = {z: 0 for z in combinations(range(5), 2)}
        table[(0, 1)] = 1
        report = pouzet_transfer_check(table, 2, 1, n=5)
        assert not report.hypothesis_holds
        assert report.hypothesis_witness is not None
        assert not report.conclusion_holds

    def test_single_window_is_vacuous(self):
        """With n = p + r there is one window: the hypothesis cannot fail,
        yet the table need not be constant. The lemma range excludes this."""
        table = {z: 0 for z in combinations(range(3), 2)}
        table[(0, 1)] = 7
        report = pouzet_transfer_check(table, 2, 1, n=3)
        assert report.hypothesis_holds
        assert not report.conclusion_holds
        assert not report.lemma_applicable

    def test_hypothesis_implies_conclusion_in_range(self):
        """Random constant-plus-balanced tables that pass the hypothesis in
        the applicable range always come out constant."""
        r = genutil.rng(24)
        for _ in range(10):
            base = r.randrange(-5, 6)
            table = {z: base for z in combinations(range(7), 2)}
            report = pouzet_transfer_check(table, 2, 2, n=7)
            assert report.lemma_applicable
            assert report.hypothesis_holds and report.conclusion_holds

    def test_infers_n(self):
        table = {z: 1 for z in combinations(range(5), 2)}
        report = pouzet_transfer_check(table, 2, 1)
        assert report.n == 5

    def test_missing_subset(self):
        table = {z: 1 for z in combinations(range(5), 2)}
        del table[(1, 3)]
        with pytest.raises(InputError):
            pouzet_transfer_check(table, 2, 1, n=5)

    def test_unsorted_key(self):
        with pytest.raises(InputError):
            pouzet_transfer_check({(1, 0): 1}, 2, 0, n=2)

    def test_range_validation(self):
        table = {z: 1 for z in combinations(range(3), 2)}
        with pytest.raises(InputError):
            pouzet_transfer_check(table, 2, 2, n=3)
