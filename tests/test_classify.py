"""Tests for canonical reduction, the per-range classifiers, c3 counting."""

import random
import re

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import genutil
from spectramono.charpoly import char_poly
from spectramono.classify import (
    CRepTransitive,
    IRepDRTHat,
    IRepDominatedNonTransitive,
    NotMonomorphic,
    RealConstant,
    c3_via_determinants,
    classify_k3,
    classify_k4,
    classify_mid_k,
    classify_n_minus_3,
    reduce_to_canonical_labels,
)
from spectramono.constructions import hat, paley_tournament, pair_cycle_counts
from spectramono.core import (
    ConstantRepresentationWarning,
    HermitianStructure,
    Selector,
    Tournament,
    apply_selector,
    c_representation,
    constant_structure,
    i_representation,
    substructure,
    transitive_tournament,
)
from spectramono import charpoly, classify, core
from spectramono.errors import (
    InputError,
    InvariantError,
    ReductionError,
    TheoremRangeError,
)
from spectramono.monomorphy import is_k_spectrally_monomorphic
from spectramono.scalars import GaussianScalar, rational

UNIT_C = GaussianScalar.exact("3/5", "4/5")
I = GaussianScalar.i_unit()


def flip_arc(t, a, b):
    """Reverse the arc between a and b."""
    rows = list(t.rows)
    if t.dominates(a, b):
        rows[a] &= ~(1 << b)
        rows[b] |= 1 << a
    else:
        rows[b] &= ~(1 << a)
        rows[a] |= 1 << b
    return Tournament(t.n, rows)


def relabel(g, corrupt_pair, value):
    """Copy g with one off-diagonal pair replaced (Hermitian-consistently)."""
    rows = [list(row) for row in g.labels]
    x, y = corrupt_pair
    rows[x][y] = value
    rows[y][x] = value.conj()
    return HermitianStructure(rows)


class TestCanonicalReduction:
    def test_round_trip(self):
        r = genutil.rng(31)
        for _ in range(10):
            g = genutil.random_unit_hermitian(r, 5)
            try:
                red = reduce_to_canonical_labels(g)
            except ReductionError:
                continue
            assert apply_selector(red.canonical, red.selector) == g
            assert red.gamma.is_real() or red.gamma.im > 0

    def test_vertex_zero_dominates(self):
        red = reduce_to_canonical_labels(i_representation(hat(paley_tournament(7))))
        assert red.tournament.out_degree(0) == 7

    def test_orbit_invariance(self):
        """A selector twist changes gamma only by the positive scale |d|^2
        and never changes the extracted tournament."""
        r = genutil.rng(32)
        base = i_representation(hat(paley_tournament(7)))
        red = reduce_to_canonical_labels(base)
        for _ in range(5):
            d = genutil.random_selector(r, 8)
            twisted = reduce_to_canonical_labels(apply_selector(base, d))
            assert twisted.tournament == red.tournament
            assert twisted.gamma == red.gamma.scale(d.modulus_squared())
            assert twisted.modulus_squared == red.modulus_squared * d.modulus_squared() ** 2

    def test_real_constant(self):
        g = constant_structure(5, GaussianScalar.exact(-2))
        red = reduce_to_canonical_labels(g)
        assert red.real
        assert red.gamma == GaussianScalar.exact(-2)
        assert red.canonical == g
        assert red.tournament == transitive_tournament(5)

    def test_phase_failure_cites_pair(self):
        r = genutil.rng(33)
        g = i_representation(genutil.random_tournament(r, 5))
        bad = relabel(g, (2, 3), UNIT_C)
        with pytest.raises(ReductionError) as info:
            reduce_to_canonical_labels(bad)
        assert info.value.reason == "phase_outside_pair"
        assert info.value.pair == (2, 3)

    def test_selector_check_catches_a_faulty_selector(self, monkeypatch):
        """The re-application check must compare the selector's action with
        every input label. A sign slip in one selector value keeps its
        modulus, so only that check can notice it."""
        r = genutil.rng(34)
        t = genutil.random_tournament(r, 6)
        # integral says whether the labels clear with D == 1
        cases = [
            (i_representation(t), True),  # labels +-i, msq = 1
            (apply_selector(i_representation(t), Selector.constant(6, GaussianScalar.exact(2))), True),
            (c_representation(t, UNIT_C), False),  # labels 3/5 +- 4/5 i
            (apply_selector(i_representation(t), Selector.constant(6, GaussianScalar.exact("1/2"))), False),
        ]
        seen = []
        original_matrix = classify._label_matrix

        def spy_matrix(g):
            m, d = original_matrix(g)
            seen.append(d == 1)
            return m, d

        monkeypatch.setattr(classify, "_label_matrix", spy_matrix)
        for g, integral in cases:
            red = reduce_to_canonical_labels(g)
            assert apply_selector(red.canonical, red.selector) == g
            assert seen.pop() is integral

        original_selector = classify._lifted_selector

        def sign_slip(*args):
            d = original_selector(*args)
            re, im = d[-1]
            return d[:-1] + [(-re, -im)]

        monkeypatch.setattr(classify, "_lifted_selector", sign_slip)
        for g, integral in cases:
            with pytest.raises(InvariantError):
                reduce_to_canonical_labels(g)
            assert seen.pop() is integral

    @pytest.mark.parametrize(
        "slip, message",
        [
            (lambda re, im: (2 * re, 2 * im), "selector values must share one modulus"),
            (lambda re, im: (0, 0), "selector values must be nonzero"),
        ],
    )
    def test_int_selector_check_still_fires(self, monkeypatch, slip, message):
        """The exact selector is checked on the int norms of its values:
        one value of another modulus, or a zero value, is a broken
        invariant even when the re-application check lets it through."""
        r = genutil.rng(35)
        t = genutil.random_tournament(r, 6)
        original_selector = classify._lifted_selector

        def slipped(*args):
            d = original_selector(*args)
            return d[:3] + [slip(*d[3])] + d[4:]

        monkeypatch.setattr(classify, "_lifted_selector", slipped)
        monkeypatch.setattr(classify, "_check_action", lambda *args: None)
        for g in (i_representation(t), c_representation(transitive_tournament(6), UNIT_C)):
            with pytest.raises(InvariantError, match=message):
                reduce_to_canonical_labels(g)

    def test_selector_check_reads_every_ordered_pair(self, monkeypatch):
        """The re-application compares the action with the input at every
        ordered pair, not only above the diagonal: a slip in the products
        below it alone is caught, and named at the first pair it hits. The
        canonical form of a transitive c-representation carries gamma
        (positive imaginary part) above the diagonal and conj(gamma) below,
        so the slip corrupts each product whose label is conj(gamma)."""
        original = core.pair_product

        def slip_below(a, b, c):
            pr, pi = original(a, b, c)
            return (-pr, -pi) if b[1] < 0 else (pr, pi)

        monkeypatch.setattr(core, "pair_product", slip_below)
        exact = c_representation(transitive_tournament(6), UNIT_C)
        failed = "canonical reduction selector failed to reproduce input at (1,0)"
        for g, error, message in (
            (exact, InvariantError, failed),
            (genutil.approx_copy(exact), InputError, "the reduced form misses the input at (1,0)"),
        ):
            with pytest.raises(error, match=re.escape(message)):
                reduce_to_canonical_labels(g)

    def test_phase_outside_pair_on_both_component_paths(self, monkeypatch):
        """The phase text shows the rescaled phases whether the label matrix
        clears with D == 1 or with D > 1."""
        seen = []
        original_matrix = classify._label_matrix

        def spy_matrix(g):
            m, d = original_matrix(g)
            seen.append(d == 1)
            return m, d

        monkeypatch.setattr(classify, "_label_matrix", spy_matrix)
        g = i_representation(transitive_tournament(5))
        integral_bad = relabel(g, (1, 3), GaussianScalar.one())
        half = Selector.constant(5, GaussianScalar.exact("1/2"))
        fractional_bad = apply_selector(integral_bad, half)
        # phases are reported divided by msq: i * 1 * conj(i) / 1 = 1, and
        # (1/4)^3 / (1/16) = 1/4 once every label is scaled by 1/4
        cases = (
            (integral_bad, True, "is 1, outside {1i, -1i}"),
            (fractional_bad, False, "is 1/4, outside {1/4i, -1/4i}"),
        )
        for bad, integral, text in cases:
            with pytest.raises(ReductionError) as info:
                reduce_to_canonical_labels(bad)
            assert seen.pop() is integral
            assert info.value.reason == "phase_outside_pair"
            assert info.value.pair == (1, 3)
            assert text in info.value.detail

    def test_zero_label_reason(self):
        g = relabel(constant_structure(5, GaussianScalar.one()), (1, 4), GaussianScalar.zero())
        with pytest.raises(ReductionError) as info:
            reduce_to_canonical_labels(g)
        assert info.value.reason == "not_two_monomorphic"

    def test_needs_five_vertices(self):
        with pytest.raises(InputError):
            reduce_to_canonical_labels(constant_structure(4, GaussianScalar.one()))


class TestClassifyK3:
    def test_transitive_c_representation(self):
        g = c_representation(transitive_tournament(6), UNIT_C)
        result = classify_k3(g)
        assert result.monomorphic
        assert isinstance(result.variant, CRepTransitive)
        assert result.variant.label == UNIT_C
        assert result.variant.order == (0, 1, 2, 3, 4, 5)
        assert apply_selector(result.canonical, result.witness_selector) == g

    def test_reversed_transitive_order(self):
        g = c_representation(transitive_tournament(6).reverse(), UNIT_C)
        result = classify_k3(g)
        assert isinstance(result.variant, CRepTransitive)
        assert result.variant.order == (0, 5, 4, 3, 2, 1)

    def test_conjugate_label_canonicalized(self):
        """Labels c and conj(c) describe the same class; the positive
        imaginary part is reported."""
        g = c_representation(transitive_tournament(6), UNIT_C.conj())
        result = classify_k3(g)
        assert result.variant.label == UNIT_C

    def test_real_constant(self):
        g = constant_structure(7, GaussianScalar.exact(-2))
        result = classify_k3(g)
        assert result.monomorphic
        assert result.variant == RealConstant(value=GaussianScalar.exact(-2))

    def test_i_representation_without_dominating_vertex(self):
        """Every i-representation is 3-monomorphic; no dominating vertex in
        the input is needed since the reduction installs one."""
        r = genutil.rng(34)
        from spectramono.core import is_transitive

        for _ in range(10):
            t = genutil.random_tournament(r, 6)
            if is_transitive(t):
                continue
            result = classify_k3(i_representation(t))
            assert result.monomorphic
            if isinstance(result.variant, IRepDominatedNonTransitive):
                assert result.variant.label == I
                assert result.variant.tournament.out_degree(0) == 5

    def test_general_label_on_cycle_fails(self):
        t = flip_arc(transitive_tournament(5), 1, 4)
        result = classify_k3(c_representation(t, UNIT_C))
        assert not result.monomorphic
        assert isinstance(result.variant, NotMonomorphic)
        first, second = result.variant.witness
        polys = result.variant.witness_polys
        g = c_representation(t, UNIT_C)
        assert char_poly(substructure(g, first)) == polys[0]
        assert char_poly(substructure(g, second)) == polys[1]
        assert polys[0] != polys[1]

    def test_all_zero_is_outside_every_class(self):
        g = constant_structure(5, GaussianScalar.zero())
        result = classify_k3(g)
        assert not result.monomorphic
        assert "zero" in result.variant.reason
        assert result.variant.witness is None

    def test_mixed_moduli(self):
        g = relabel(constant_structure(5, GaussianScalar.one()), (3, 4), GaussianScalar.exact(2))
        result = classify_k3(g)
        assert not result.monomorphic
        assert result.variant.witness is not None

    def test_range(self):
        with pytest.raises(TheoremRangeError):
            classify_k3(constant_structure(4, GaussianScalar.one()))

    def test_agreement_with_enumeration(self):
        r = genutil.rng(35)
        for _ in range(60):
            t = Tournament.from_pair_bits(5, r.randrange(1 << 10))
            c = r.choice([I, UNIT_C, GaussianScalar.exact("5/13", "12/13")])
            g = c_representation(t, c)
            assert classify_k3(g).monomorphic == is_k_spectrally_monomorphic(g, 3).monomorphic


class TestClassifyK4:
    def test_paley_hat_is_not_four_monomorphic(self):
        result = classify_k4(i_representation(hat(paley_tournament(7))))
        assert not result.monomorphic
        assert result.variant.witness == ((0, 1, 2, 3), (0, 1, 2, 4))

    def test_transitive_survives(self):
        g = c_representation(transitive_tournament(7), I)
        result = classify_k4(g)
        assert result.monomorphic
        assert isinstance(result.variant, CRepTransitive)

    def test_real_constant(self):
        g = constant_structure(7, GaussianScalar.exact("1/2"))
        assert isinstance(classify_k4(g).variant, RealConstant)

    def test_range(self):
        with pytest.raises(TheoremRangeError):
            classify_k4(constant_structure(6, GaussianScalar.one()))

    def test_agreement_with_enumeration(self):
        r = genutil.rng(36)
        for _ in range(40):
            t = Tournament.from_pair_bits(7, r.randrange(1 << 21))
            c = r.choice([I, UNIT_C])
            g = c_representation(t, c)
            assert classify_k4(g).monomorphic == is_k_spectrally_monomorphic(g, 4).monomorphic


class TestClassifyMidK:
    def test_matches_k4_at_lower_edge(self):
        g = i_representation(hat(paley_tournament(7)))
        result = classify_mid_k(g, 4)
        assert not result.monomorphic
        assert result.variant.witness == ((0, 1, 2, 3), (0, 1, 2, 4))

    def test_transitive_all_mid_k(self):
        g = c_representation(transitive_tournament(9), UNIT_C)
        for k in range(4, 6):
            result = classify_mid_k(g, k)
            assert result.monomorphic
            assert isinstance(result.variant, CRepTransitive)

    def test_range(self):
        g = c_representation(transitive_tournament(8), UNIT_C)
        with pytest.raises(TheoremRangeError):
            classify_mid_k(g, 3)
        with pytest.raises(TheoremRangeError):
            classify_mid_k(g, 5)
        with pytest.raises(TheoremRangeError):
            classify_mid_k(c_representation(transitive_tournament(7), UNIT_C), 4)

    def test_k_must_be_an_int(self):
        g = c_representation(transitive_tournament(9), UNIT_C)
        with pytest.raises(InputError, match=r"^k must be an int, got 4\.0$"):
            classify_mid_k(g, 4.0)


class TestClassifyNMinus3:
    def test_recovers_doubly_regular_base(self):
        g = i_representation(hat(paley_tournament(7)))
        result = classify_n_minus_3(g)
        assert result.k == 5
        assert result.monomorphic
        assert isinstance(result.variant, IRepDRTHat)
        assert result.variant.tournament == paley_tournament(7)
        assert result.variant.certificate.t == 1
        assert apply_selector(result.canonical, result.witness_selector) == g

    def test_non_regular_base_fails(self):
        t = flip_arc(paley_tournament(7), 0, 1)
        result = classify_n_minus_3(i_representation(hat(t)))
        assert not result.monomorphic
        assert "doubly regular" in result.variant.reason
        assert result.variant.witness is not None

    def test_transitive(self):
        g = c_representation(transitive_tournament(8), UNIT_C)
        result = classify_n_minus_3(g)
        assert result.k == 5
        assert isinstance(result.variant, CRepTransitive)

    def test_six_vertex_boundary_is_k3(self):
        """At n = 6 the refinement has no room (no 5-vertex doubly regular
        tournament exists) and the k = 3 characterization is the statement."""
        r = genutil.rng(37)
        from spectramono.core import is_transitive

        t = genutil.random_tournament(r, 6)
        while is_transitive(t):
            t = genutil.random_tournament(r, 6)
        result = classify_n_minus_3(i_representation(t))
        assert result.k == 3
        assert result.monomorphic

    def test_range(self):
        with pytest.raises(TheoremRangeError):
            classify_n_minus_3(constant_structure(5, GaussianScalar.one()))

    def test_agreement_with_enumeration(self):
        r = genutil.rng(38)
        for n in (6, 7, 8):
            for _ in range(8):
                t = genutil.random_tournament(r, n)
                g = c_representation(t, r.choice([I, UNIT_C]))
                result = classify_n_minus_3(g)
                enumerated = is_k_spectrally_monomorphic(g, result.k)
                assert result.monomorphic == enumerated.monomorphic


class TestC3ViaDeterminants:
    def test_doubly_regular_pairs(self):
        g = i_representation(hat(paley_tournament(7)))
        assert c3_via_determinants(g, 0, 1, 2) == 2
        assert c3_via_determinants(g, 0, 3, 7) == 2

    def test_transitive_pairs(self):
        g = i_representation(hat(transitive_tournament(7)))
        assert c3_via_determinants(g, 0, 2, 5) == 0

    def test_planted_single_cycle(self):
        t = hat(flip_arc(transitive_tournament(7), 1, 4))
        g = i_representation(t)
        # the only 3-cycle through the flipped pair's neighbour pair {1,2}
        # (vertices 2,3 after hat's shift) is via old vertex 4
        assert c3_via_determinants(g, 0, 2, 3) == 1

    def test_cross_check_against_direct_count(self):
        r = genutil.rng(39)
        for _ in range(15):
            t = hat(genutil.random_tournament(r, 6))
            g = i_representation(t)
            x, y = sorted(r.sample(range(1, 7), 2))
            assert c3_via_determinants(g, 0, x, y) == pair_cycle_counts(t, x, y)[0]

    def test_scaled_labels(self):
        """Labels 4i instead of i: determinants grow by m^4 = 256 and the
        count is unchanged."""
        t = hat(paley_tournament(7))
        g = apply_selector(i_representation(t), Selector.constant(8, GaussianScalar.exact(2)))
        assert g.label(0, 1) == GaussianScalar.exact(0, 4)
        assert c3_via_determinants(g, 0, 1, 2) == 2

    def test_fractional_labels(self):
        """Labels i/4: the route clears the denominator 4 once and divides
        each 4 x 4 determinant by 4^4 again."""
        t = hat(paley_tournament(7))
        quarter = Selector.constant(8, GaussianScalar.exact("1/2"))
        g = apply_selector(i_representation(t), quarter)
        assert g.label(0, 1) == GaussianScalar.exact(0, "1/4")
        assert c3_via_determinants(g, 0, 1, 2) == 2
        assert c3_via_determinants(g, 0, 3, 7) == 2

    def test_both_routes_are_checked_on_every_subset(self, monkeypatch):
        """Elimination and the recurrence's P(0) must agree, and the
        elimination determinant must be real, on each 4-subset."""
        g = i_representation(hat(paley_tournament(7)))
        recurrence, det = charpoly._recurrence, charpoly._det

        def shifted_constant_term(a, mode, points=()):
            descending, adjugates = recurrence(a, mode, points)
            return descending[:-1] + [descending[-1] + 1], adjugates

        monkeypatch.setattr(charpoly, "_recurrence", shifted_constant_term)
        with pytest.raises(InvariantError, match="routes disagree"):
            c3_via_determinants(g, 0, 1, 2)
        monkeypatch.setattr(charpoly, "_recurrence", recurrence)
        monkeypatch.setattr(
            charpoly, "_det", lambda a, n, mode: (det(a, n, mode)[0], rational(1))
        )
        with pytest.raises(InvariantError, match="must be real"):
            c3_via_determinants(g, 0, 1, 2)

    def test_requires_dominating_vertex(self):
        g = i_representation(hat(paley_tournament(7)))
        with pytest.raises(InputError):
            c3_via_determinants(g, 1, 2, 3)

    def test_requires_imaginary_labels(self):
        g = c_representation(transitive_tournament(7), UNIT_C)
        with pytest.raises(InputError):
            c3_via_determinants(g, 0, 1, 2)

    def test_requires_distinct_vertices(self):
        g = i_representation(hat(paley_tournament(7)))
        with pytest.raises(InputError):
            c3_via_determinants(g, 0, 1, 1)

    def test_requires_four_vertices(self):
        g = i_representation(transitive_tournament(3))
        with pytest.raises(InputError, match=r"^need n >= 4, got 3$"):
            c3_via_determinants(g, 0, 1, 2)


class TestIntegerKernels:
    """Rational labels are cleared once into the Gaussian-integer matrix
    A = D * M, and every exact kernel runs on A: the reduction's phase
    products and re-application, both elimination routes, the recurrence
    and the closed form at k <= 3 receive plain ints, never rationals, when
    D > 1."""

    def _spy(self, monkeypatch, module, name, seen):
        original = getattr(module, name)

        def spy(*args):
            seen.append((name, args))
            return original(*args)

        monkeypatch.setattr(module, name, spy)

    def _components(self, value):
        if isinstance(value, (list, tuple)):
            for item in value:
                yield from self._components(item)
        else:
            yield value

    def test_exact_kernels_receive_ints(self, monkeypatch):
        from spectramono import monomorphy
        from spectramono.charpoly import determinant, principal_minor_sum
        from spectramono.monomorphy import det_constancy

        r = genutil.rng(41)
        quarter = Selector.constant(6, GaussianScalar.exact("1/2"))
        structures = [
            apply_selector(c_representation(transitive_tournament(6), UNIT_C), genutil.random_selector(r, 6)),
            apply_selector(c_representation(genutil.random_tournament(r, 6), UNIT_C), quarter),
            apply_selector(i_representation(genutil.random_tournament(r, 6)), quarter),
            genutil.random_hermitian(r, 6),
        ]
        third_hat = apply_selector(
            i_representation(hat(paley_tournament(7))),
            Selector.constant(8, GaussianScalar.exact("1/3")),
        )
        seen = []
        # the reduction forms its phase products through core.pair_product
        self._spy(monkeypatch, core, "pair_product", seen)
        self._spy(monkeypatch, charpoly, "_det", seen)
        self._spy(monkeypatch, monomorphy, "_recurrence", seen)
        self._spy(monkeypatch, monomorphy, "_closed_form", seen)
        for g in structures:
            assert any(e.re.denominator > 1 or e.im.denominator > 1 for row in g.labels for e in row)
            classify_k3(g)
            determinant(g)
            for p in (2, 3, 4):
                det_constancy(g, p)
                principal_minor_sum(g, p)
            is_k_spectrally_monomorphic(g, 4)
        assert c3_via_determinants(third_hat, 0, 1, 2) == 2
        names = {name for name, _ in seen}
        assert names == {"pair_product", "_det", "_recurrence", "_closed_form"}
        # plain ints on the fractions backend; gmpy2's numerators are mpz
        integers = {int, type(rational(1).numerator)}
        for name, args in seen:
            # the kernels take the matrix first; pair_product takes three pairs
            for c in self._components(args if name == "pair_product" else args[0]):
                assert type(c) in integers, (name, c)


class TestApproxClassifyK3:
    def test_float_copies_keep_the_variant(self):
        """classify_k3 on the float copy of an exact input gives the exact
        input's variant class, tournament and order: i-representations,
        transitive and non-transitive c-representations with label
        3/5+4/5i, each also twisted by a unit selector and relabelled."""
        r = genutil.rng(40)
        seen = set()
        for _ in range(40):
            n = r.randrange(5, 8)
            shape = r.randrange(3)
            if shape == 0:
                g = i_representation(genutil.random_tournament(r, n))
            elif shape == 1:
                g = c_representation(transitive_tournament(n), UNIT_C)
            else:
                g = c_representation(genutil.random_tournament(r, n), UNIT_C)
            if r.random() < 0.7:
                perm = list(range(n))
                r.shuffle(perm)
                twist = genutil.random_unit_selector(r, n)
                g = apply_selector(genutil.permuted(g, perm), twist)
            exact = classify_k3(g)
            approx = classify_k3(genutil.approx_copy(g))
            assert type(approx.variant) is type(exact.variant)
            assert approx.monomorphic == exact.monomorphic
            for field in ("tournament", "order", "witness"):
                assert getattr(approx.variant, field, None) == getattr(
                    exact.variant, field, None
                )
            seen.add(type(exact.variant))
        assert seen == {CRepTransitive, IRepDominatedNonTransitive, NotMonomorphic}

    def test_jittered_labels_never_break_an_invariant(self):
        """Float copies of twisted c-representations with every label
        component jittered within +-3e-10 (eps is 1e-9) get a verdict, or an
        InputError when the reduction's selector drifts past eps, never an
        InvariantError. A positive verdict is one the exact input has too,
        and its selector reproduces the input."""
        verdicts = errors = 0
        for g, h in genutil.jittered_c_representations():
            exact = classify_k3(g)
            for classify_ in (classify_k3, classify_n_minus_3):
                try:
                    approx = classify_(h)
                except InputError as exc:
                    assert "too close to the tolerance" in str(exc)
                    errors += 1
                    continue
                verdicts += 1
                if approx.monomorphic:
                    assert type(approx.variant) is type(exact.variant)
                    reproduced = apply_selector(approx.canonical, approx.witness_selector)
                    assert reproduced == h
        assert verdicts + errors == 2 * 119

    def test_jittered_constant_labels_never_break_an_invariant(self):
        """Jittered float copies of twisted constant structures (label 1)
        can pass the enumeration's coefficient tests at every k while the
        reduction's label tests rule monomorphy out. At k = 3, 4 and n - 3
        that is an InputError for labels too close to the tolerance, never
        an InvariantError."""
        disagreements = 0
        for n in (7, 8):
            for amplitude in (1e-10, 3e-10, 1e-9, 2e-9):
                with pytest.warns(ConstantRepresentationWarning):
                    pairs = genutil.jittered_c_representations(
                        count=40, amplitude=amplitude, n=n, label=GaussianScalar.exact(1)
                    )
                for _, h in pairs:
                    for classify_ in (classify_k3, classify_k4, classify_n_minus_3):
                        try:
                            classify_(h)
                        except InputError as exc:
                            assert "too close to the tolerance" in str(exc)
                            disagreements += "polynomials agree" in str(exc)
        assert disagreements > 0


SHAPES = ("random", "transitive", "hat", "hat_paley7")


@seed(20261018)
@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=5, max_value=8),
    shape=st.sampled_from(SHAPES),
    i_rep=st.booleans(),
    salt=st.integers(min_value=0, max_value=2**32 - 1),
    data=st.data(),
)
def test_verdicts_invariant_under_relabelling_and_twist(n, shape, i_rep, salt, data):
    """A vertex permutation followed by a unit selector twist changes
    neither monomorphy nor the variant class of classify_k3 and
    classify_n_minus_3."""
    r = random.Random(salt)
    if shape == "random":
        t = genutil.random_tournament(r, n)
    elif shape == "transitive":
        t = transitive_tournament(n)
    elif shape == "hat":
        t = hat(genutil.random_tournament(r, n - 1))
    else:
        t = hat(paley_tournament(7))
    g = i_representation(t) if i_rep else c_representation(t, UNIT_C)
    perm = data.draw(st.permutations(range(t.n)))
    h = apply_selector(genutil.permuted(g, perm), genutil.random_unit_selector(r, t.n))
    classifiers = [classify_k3] + ([classify_n_minus_3] if t.n >= 6 else [])
    for classify_ in classifiers:
        before, after = classify_(g), classify_(h)
        assert after.monomorphic == before.monomorphic
        assert type(after.variant) is type(before.variant)
