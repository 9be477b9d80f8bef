"""Tests for monomorphy enumeration, minor constancy, window transfer."""

from itertools import combinations

import pytest

import genutil
from spectramono import monomorphy
from spectramono.charpoly import RealPolynomial, char_poly, determinant, poly_x_squared_minus
from spectramono.combinat import colex_subsets
from spectramono.constructions import hat, paley_tournament
from spectramono.core import (
    HermitianStructure,
    Selector,
    apply_selector,
    c_representation,
    constant_structure,
    i_representation,
    substructure,
    transitive_tournament,
)
from spectramono.errors import InputError, InvariantError
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


def _counting_recurrence(monkeypatch):
    """Route monomorphy's recurrence through a wrapper; the returned list
    collects the order of every matrix it reduces."""
    calls = []
    recurrence = monomorphy._recurrence

    def counting(a, mode, points=()):
        calls.append(len(a))
        return recurrence(a, mode, points)

    monkeypatch.setattr(monomorphy, "_recurrence", counting)
    return calls


def test_enumeration_matches_char_poly_of_substructures(monkeypatch):
    """The enumeration slices one label matrix per structure and reduces
    each distinct submatrix once; it must report what char_poly of each
    substructure reports, coefficient for coefficient, on integral,
    rational and approx labels, with and without repeated submatrices."""
    r = genutil.rng(25)
    calls = _counting_recurrence(monkeypatch)

    def integral(r, n):
        return i_representation(genutil.random_tournament(r, n))

    def approx(r, n):
        labels = genutil.random_hermitian(r, n).labels
        return HermitianStructure(
            [[GaussianScalar.approx(float(e.re), float(e.im)) for e in row] for row in labels]
        )

    def constant(r, n):
        return constant_structure(n, GaussianScalar.exact(genutil.random_rational(r)))

    def changed_i_representation(r, n):
        return _with_one_pair_changed(r, integral(r, n))

    def changed_constant(r, n):
        return _with_one_pair_changed(r, constant(r, n))

    families = (
        integral,
        genutil.random_hermitian,
        genutil.random_coprime_hermitian,
        approx,
        constant,
        changed_i_representation,
        changed_constant,
    )
    seen_modes = set()
    negatives_after_hits = 0
    for family in families:
        for _ in range(12):
            n = r.randrange(2, 8)
            g = family(r, n)
            seen_modes.add(g.mode)
            for k in range(1, n + 1):
                calls.clear()
                report = is_k_spectrally_monomorphic(g, k)
                polys, witness, checked, fragile = _substructure_enumeration(g, k)
                got = (report.common_poly,) if report.monomorphic else report.witness_polys
                assert [p.coefficients for p in got] == [p.coefficients for p in polys]
                assert report.witness == witness
                assert report.subsets_checked == checked
                assert report.fragile == fragile
                if witness is not None and len(calls) < checked:
                    negatives_after_hits += 1
    assert seen_modes == {EXACT, APPROX}
    # witnesses found after memo hits, not only on the first few subsets
    assert negatives_after_hits >= 20


class TestContentMemo:
    """Exact enumeration reduces each distinct submatrix, and each gauge
    class of submatrices, once per call."""

    def test_i_representation_runs_at_most_eight_recurrences(self, monkeypatch):
        """3-subsets of an i-representation carry three labels +-i, so at
        most 8 distinct submatrices occur among the 20 subsets of 6."""
        calls = _counting_recurrence(monkeypatch)
        r = genutil.rng(71)
        for _ in range(20):
            calls.clear()
            report = is_k_spectrally_monomorphic(
                i_representation(genutil.random_tournament(r, 6)), 3
            )
            assert report.monomorphic and report.subsets_checked == 20
            assert 1 <= len(calls) <= 8

    def test_approx_mode_runs_one_recurrence_per_subset(self, monkeypatch):
        calls = _counting_recurrence(monkeypatch)
        g = genutil.approx_copy(i_representation(genutil.random_tournament(genutil.rng(72), 6)))
        report = is_k_spectrally_monomorphic(g, 3)
        assert report.monomorphic and report.subsets_checked == 20
        assert calls == [3] * 20

    def test_memo_stops_inserting_at_its_bound(self, monkeypatch):
        """Pair subsets in colex order, whose gauge class is the norm of
        their label: the first bound + 1 carry distinct entries (0, 1, ...,
        bound), the next carries i * bound, then bound + 1 comes twice, and
        all later ones repeat the first. The entry memo holds 0..bound - 1
        and the class memo, which 0 cannot enter, the norms of 1..bound.
        So i * bound is a class hit, the repeat of bound + 1, seen after
        both memos filled, is reduced again, and the repeats of the first
        entry never are."""
        bound = monomorphy._MEMO_BOUND
        calls = []

        def constant_recurrence(a, mode, points=()):
            calls.append(a[0][1])
            return [1, 0, -1], []

        monkeypatch.setattr(monomorphy, "_recurrence", constant_recurrence)
        n = 2
        while n * (n - 1) // 2 < bound + 40:
            n += 1
        m = [[(0, 0)] * n for _ in range(n)]
        tail = [(0, bound), (bound + 1, 0), (bound + 1, 0)]
        for index, (a, b) in enumerate(colex_subsets(n, 2)):
            if index <= bound:
                value = (index, 0)
            elif index - bound - 1 < len(tail):
                value = tail[index - bound - 1]
            else:
                value = (0, 0)
            m[a][b] = value
            m[b][a] = (value[0], -value[1])
        report = monomorphy._enumerate(m, 1, 2, None)
        assert report.monomorphic
        assert report.subsets_checked == n * (n - 1) // 2
        assert report.common_poly == RealPolynomial([-1, 0, 1], EXACT)
        assert calls == [(v, 0) for v in range(bound + 1)] + [(bound + 1, 0)] * 2


def _twisted_families(r):
    """Exact structures twisted by genutil.random_selector (unit or modulus
    5 values, scale 1, 4, 9, 1/4 or 9/4): c-representations with label
    3/5+4/5i, i-representations and constants, of random and transitive
    tournaments, each also with one pair set to 0 and with one pair
    changed; and random Hermitian structures, which are not 2-monomorphic."""

    def twisted(g):
        return apply_selector(g, genutil.random_selector(r, g.n))

    def zeroed(g):
        u, v = sorted(r.sample(range(g.n), 2))
        if r.random() < 0.5:
            u = 0  # a zero in the lead row of every subset holding both
        rows = [list(row) for row in g.labels]
        rows[u][v] = rows[v][u] = GaussianScalar.exact(0)
        return HermitianStructure(rows)

    for n in range(4, 9):
        value = GaussianScalar.exact(genutil.random_rational(r) or 1)
        bases = [
            c_representation(transitive_tournament(n), UNIT_C),
            c_representation(genutil.random_tournament(r, n), UNIT_C),
            i_representation(transitive_tournament(n)),
            i_representation(genutil.random_tournament(r, n)),
            constant_structure(n, value),
        ]
        for g in bases:
            g = twisted(g)
            yield g
            yield zeroed(g)
            yield _with_one_pair_changed(r, g)
        yield genutil.random_hermitian(r, n)


def _expected_report(g, k):
    polys, witness, checked, fragile = _substructure_enumeration(g, k)
    if witness is None:
        return monomorphy.MonomorphyReport(
            k=k, monomorphic=True, common_poly=polys[0], subsets_checked=checked
        )
    return monomorphy.MonomorphyReport(
        k=k,
        monomorphic=False,
        witness=witness,
        witness_polys=polys,
        subsets_checked=checked,
        fragile=fragile,
    )


def _real_structure(n, labels):
    """The structure with the given real label on each pair (u, v), u < v."""
    rows = [[GaussianScalar.exact(0)] * n for _ in range(n)]
    for (u, v), value in labels.items():
        rows[u][v] = rows[v][u] = GaussianScalar.exact(value)
    return HermitianStructure(rows)


class TestGaugeClassMemo:
    """On a miss of the entry memo, exact enumeration keys a subset by the
    norms and phase products of its lead row (_class_key), so twisted and
    relabelled copies of a slice share one recurrence."""

    def test_reports_match_char_poly_of_substructures(self, monkeypatch):
        """Full reports of is_k_spectrally_monomorphic and
        monomorphy_profile for every k equal the colex loop of char_poly
        on every substructure."""
        keys = []
        class_key = monomorphy._class_key

        def recording(m, subset):
            keys.append(class_key(m, subset))
            return keys[-1]

        monkeypatch.setattr(monomorphy, "_class_key", recording)
        class_hits = negatives_after_class_hits = 0
        for g in _twisted_families(genutil.rng(111)):
            profile = monomorphy_profile(g)
            for k in range(1, g.n + 1):
                keys.clear()
                expected = _expected_report(g, k)
                assert is_k_spectrally_monomorphic(g, k) == expected
                assert profile[k] == expected
                keyed = [key for key in keys if key is not None]
                hits = len(keyed) - len(set(keyed))
                class_hits += hits
                if hits and not expected.monomorphic:
                    negatives_after_class_hits += 1
        assert class_hits >= 1000
        assert negatives_after_class_hits >= 50

    def test_norms_separate_equal_phase_products(self):
        """Slices (0, 1, 2), labels 1, 1, 4, and (0, 1, 3), labels 1, 2, 2,
        share the phase product W_0 = 4 but not their norms, and their
        polynomials x^3 - 18x - 8 and x^3 - 9x - 8 differ: a key without
        the norms would report the witness only at (1, 2, 3)."""
        labels = {(0, 1): 1, (0, 2): 1, (0, 3): 2, (1, 2): 4, (1, 3): 2, (2, 3): 2}
        g = _real_structure(4, labels)
        m, _ = g._matrix
        first = monomorphy._class_key(m, (0, 1, 2))
        second = monomorphy._class_key(m, (0, 1, 3))
        assert first[2:] == second[2:] == ((4, 0),)
        assert first[:2] == (1, 1) and second[:2] == (1, 4)
        report = is_k_spectrally_monomorphic(g, 3)
        assert report == _expected_report(g, 3)
        assert report.witness == ((0, 1, 2), (0, 1, 3))
        assert [p.coefficients for p in report.witness_polys] == [(-8, -18, 0, 1), (-8, -9, 0, 1)]

    def test_zero_in_lead_row_has_no_class_key(self):
        """With a(0, 1) = 0, slices (0, 1, 2) and (0, 1, 3) have the same
        norms from 0 and phase products 0, yet x^3 - 2x and x^3 - 5x differ:
        a(1, 2) and a(1, 3) enter no such key, so none is formed."""
        labels = {(0, 1): 0, (0, 2): 1, (0, 3): 1, (1, 2): 1, (1, 3): 2, (2, 3): 1}
        g = _real_structure(4, labels)
        m, _ = g._matrix
        assert monomorphy._class_key(m, (0, 1, 2)) is None
        assert monomorphy._class_key(m, (0, 2, 3)) is not None
        report = is_k_spectrally_monomorphic(g, 3)
        assert report == _expected_report(g, 3)
        assert report.witness == ((0, 1, 2), (0, 1, 3))

    def test_twisted_i_representation_runs_at_most_two_recurrences(self, monkeypatch):
        """Every phase product of a 3-subset of an i-representation is i or
        -i times one modulus, twisted or not: two gauge classes."""
        calls = _counting_recurrence(monkeypatch)
        r = genutil.rng(112)
        for _ in range(20):
            calls.clear()
            g = i_representation(genutil.random_tournament(r, 7))
            g = apply_selector(g, genutil.random_selector(r, 7))
            report = is_k_spectrally_monomorphic(g, 3)
            assert report.monomorphic and report.subsets_checked == 35
            assert 1 <= len(calls) <= 2


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
        """Labels i * s^2: the minors are m^4 or 9 m^4 with m = s^2, compared
        on the cleared integer matrix and reported divided by D^4."""
        for s in ("1", "1/3"):
            selector = Selector.constant(8, GaussianScalar.exact(s))
            g = apply_selector(dominated_paley_seven(), selector)
            report = det_constancy(g, 4)
            assert not report.constant
            values = {v.re for v in report.witness_values}
            m4 = rational(s) ** 8
            assert values == {m4, 9 * m4}
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


def _jacobi_ks(n):
    """The k that the Jacobi route serves on n vertices (besides k = n)."""
    return [k for k in range(1, n) if n - k <= 3 and 2 * k > n]


def _integral_hermitian(r, n, span=3):
    labels = [[GaussianScalar.exact(0, 0) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            labels[i][j] = GaussianScalar.exact(r.randint(-span, span), r.randint(-span, span))
            labels[j][i] = labels[i][j].conj()
    return HermitianStructure(labels)


def _with_one_pair_changed(r, g):
    """g with the label of one random pair replaced by its conjugate, or
    by twice itself when it is real, so that some but not all subsets see
    the change."""
    n = g.n
    u, v = sorted(r.sample(range(n), 2))
    rows = [list(row) for row in g.labels]
    label = rows[u][v]
    new = label.conj() if label.im != 0 else label.scale(2)
    rows[u][v], rows[v][u] = new, new.conj()
    return HermitianStructure(rows)


def _jacobi_structures():
    """Exact structures on 3 to 9 vertices: positives and negatives with
    integral, Pythagorean-rational and coprime-denominator labels."""
    r = genutil.rng(61)
    twist = lambda g: apply_selector(g, genutil.random_selector(r, g.n))
    out = [dominated_paley_seven(), twist(dominated_paley_seven())]
    for n in range(3, 10):
        transitive = transitive_tournament(n)
        positives = [
            i_representation(transitive),
            c_representation(transitive, UNIT_C),
            twist(c_representation(transitive, UNIT_C)),
            constant_structure(n, GaussianScalar.exact(rational("2/7"))),
            # labels over 5 * 7 * 11 * 13
            apply_selector(
                c_representation(transitive, UNIT_C),
                Selector.constant(n, GaussianScalar.exact(1), rational("1/1001")),
            ),
        ]
        out += positives
        out += [_with_one_pair_changed(r, g) for g in positives for _ in range(2)]
        out += [
            _integral_hermitian(r, n),
            i_representation(genutil.random_tournament(r, n)),
            twist(c_representation(genutil.random_tournament(r, n), UNIT_C)),
            genutil.random_unit_hermitian(r, n),
            genutil.random_coprime_hermitian(r, n),
            genutil.random_hermitian(r, n),
        ]
    out.append(_with_one_pair_changed(r, dominated_paley_seven()))
    return out


class TestJacobiRoute:
    """Large k in exact mode: after a direct prefix, subsets are compared
    through complementary minors of adj(x I - A). Every report field must
    be what the colex loop of char_poly(substructure(g, s)) gives."""

    def test_matches_direct_colex_loop(self):
        routed_positives = routed_negatives = 0
        for g in _jacobi_structures():
            profile = monomorphy_profile(g)
            for k in _jacobi_ks(g.n):
                polys, witness, checked, fragile = _substructure_enumeration(g, k)
                for report in (is_k_spectrally_monomorphic(g, k), profile[k]):
                    assert report.k == k
                    assert report.monomorphic == (witness is None)
                    assert report.witness == witness
                    assert report.subsets_checked == checked
                    assert report.fragile is False
                    if witness is None:
                        assert report.common_poly == polys[0]
                        assert report.witness_polys is None
                    else:
                        assert report.common_poly is None
                        assert report.witness_polys == polys
                if checked > monomorphy._direct_count(g.n, k):
                    if witness is None:
                        routed_positives += 1
                    else:
                        routed_negatives += 1
        # both outcomes of the route are exercised, not only the prefix
        assert routed_positives >= 40
        assert routed_negatives >= 20

    def test_witness_found_in_the_prefix_builds_no_adjugate(self, monkeypatch):
        calls = []
        monkeypatch.setattr(monomorphy, "_adjugates", lambda a, count: calls.append(count))
        g = genutil.random_hermitian(genutil.rng(62), 9)
        report = is_k_spectrally_monomorphic(g, 7)
        assert report.subsets_checked == 2
        assert calls == []

    def test_profile_builds_one_label_matrix_and_one_adjugate(self, monkeypatch):
        matrices, adjugates = [], []
        label_matrix, build = monomorphy._label_matrix, monomorphy._adjugates

        def counting_matrix(g):
            matrices.append(g.n)
            return label_matrix(g)

        def counting_build(a, count):
            adjugates.append(count)
            return build(a, count)

        monkeypatch.setattr(monomorphy, "_label_matrix", counting_matrix)
        monkeypatch.setattr(monomorphy, "_adjugates", counting_build)
        profile = monomorphy_profile(i_representation(hat(paley_tournament(11))))
        assert [k for k in range(1, 13) if profile[k].monomorphic] == [1, 2, 3, 9, 10, 11, 12]
        assert matrices == [12]
        assert adjugates == [11]

    def test_reference_minors_are_checked_against_the_reference_poly(self, monkeypatch):
        """Points misreported by one leave every subset's minors alike; only
        the reference check sees that they no longer match its polynomial."""
        build = monomorphy._adjugates

        def shifted(a, count):
            poly, points, values, adjugates = build(a, count)
            return poly, [x + 1 for x in points], values, adjugates

        monkeypatch.setattr(monomorphy, "_adjugates", shifted)
        g = dominated_paley_seven()
        for k in (5, 6, 7):
            with pytest.raises(InvariantError):
                is_k_spectrally_monomorphic(g, k)
        with pytest.raises(InvariantError):
            monomorphy_profile(g)

    def test_differing_minors_with_equal_polys_are_an_invariant_error(self, monkeypatch):
        """A subset whose minors differ from the reference's while its
        polynomial does not is a broken route, never a witness."""
        minors = monomorphy._complementary_minors

        def corrupted(adjugates, n, t, count):
            values = minors(adjugates, n, t, count)
            return [v + 1 for v in values] if 0 in t else values

        monkeypatch.setattr(monomorphy, "_complementary_minors", corrupted)
        g = dominated_paley_seven()
        for k in (5, 6, 7):
            with pytest.raises(InvariantError):
                is_k_spectrally_monomorphic(g, k)

    def test_approx_mode_stays_direct(self, monkeypatch):
        monkeypatch.setattr(monomorphy, "_adjugates", None)
        g = genutil.approx_copy(dominated_paley_seven())
        report = is_k_spectrally_monomorphic(g, 7)
        assert report.monomorphic and report.subsets_checked == 8
