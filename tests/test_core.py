"""Tests for structures, tournaments, selectors, normalization, equivalence."""

import pytest

import genutil
from spectramono.core import (
    ConstantRepresentationWarning,
    HermitianStructure,
    Selector,
    Tournament,
    apply_selector,
    are_equivalent,
    c_representation,
    constant_structure,
    descending_score_order,
    first_three_cycle,
    i_representation,
    is_transitive,
    normalize_at,
    substructure,
    transitive_tournament,
)
from spectramono.errors import (
    ExactnessError,
    InputError,
    InvariantError,
    ModeMixError,
    NotTwoMonomorphicError,
)
from spectramono.scalars import EXACT, GaussianScalar, rational

ONE = GaussianScalar.one()
I = GaussianScalar.i_unit()

UNIT_C = GaussianScalar.exact("3/5", "4/5")

THREE_CYCLE = Tournament.from_matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])


def hermitian(pairs, n):
    """Build a structure from {(x, y): label} with x < y, conjugates filled in."""
    zero = GaussianScalar.zero()
    rows = [[zero] * n for _ in range(n)]
    for (x, y), v in pairs.items():
        rows[x][y] = v
        rows[y][x] = v.conj()
    return HermitianStructure(rows)


class TestHermitianStructure:
    def test_rejects_nonconjugate_labels(self):
        zero = GaussianScalar.zero()
        with pytest.raises(InvariantError):
            HermitianStructure([[zero, I], [I, zero]])

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(InvariantError):
            HermitianStructure([[ONE, I], [I.conj(), GaussianScalar.zero()]])

    def test_rejects_mode_mix(self):
        zero = GaussianScalar.zero()
        with pytest.raises(ModeMixError):
            HermitianStructure(
                [[zero, GaussianScalar.approx(1.0)], [GaussianScalar.one(), zero]]
            )

    def test_rejects_ragged_matrix(self):
        zero = GaussianScalar.zero()
        with pytest.raises(InputError):
            HermitianStructure([[zero, ONE], [ONE]])

    def test_immutable(self):
        g = constant_structure(3, ONE)
        with pytest.raises(AttributeError):
            g.n = 5

    def test_label_bounds(self):
        g = constant_structure(3, ONE)
        assert g.label(0, 1) == ONE
        with pytest.raises(InputError):
            g.label(0, 3)

    def test_common_modulus(self):
        g = i_representation(THREE_CYCLE)
        assert g.common_modulus_squared() == rational(1)

    def test_common_modulus_rejects_zero_label(self):
        g = hermitian({(0, 1): ONE, (0, 2): ONE}, 3)  # (1,2) left zero
        with pytest.raises(NotTwoMonomorphicError):
            g.common_modulus_squared()

    def test_common_modulus_rejects_mixed_moduli(self):
        g = hermitian(
            {(0, 1): ONE, (0, 2): ONE, (1, 2): GaussianScalar.exact(1, 1)}, 3
        )
        with pytest.raises(NotTwoMonomorphicError):
            g.common_modulus_squared()


class TestTournament:
    def test_matrix_round_trip(self):
        m = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
        assert Tournament.from_matrix(m).matrix() == m

    def test_rejects_self_loop(self):
        with pytest.raises(InvariantError):
            Tournament(2, [0b01, 0b01])

    def test_rejects_unoriented_pair(self):
        with pytest.raises(InvariantError):
            Tournament(2, [0, 0])

    def test_rejects_doubly_oriented_pair(self):
        with pytest.raises(InvariantError):
            Tournament(2, [0b10, 0b01])

    def test_pair_bits_enumeration_is_exhaustive(self):
        seen = {Tournament.from_pair_bits(3, code) for code in range(8)}
        assert len(seen) == 8

    def test_degrees_and_arcs(self):
        t = THREE_CYCLE
        assert [t.out_degree(v) for v in range(3)] == [1, 1, 1]
        assert sorted(t.arcs()) == [(0, 1), (1, 2), (2, 0)]
        assert t.dominates(2, 0) and not t.dominates(0, 2)

    def test_reverse_involution(self):
        r = genutil.rng(5)
        for _ in range(20):
            t = genutil.random_tournament(r, r.randrange(2, 8))
            assert t.reverse().reverse() == t

    def test_subtournament(self):
        t = transitive_tournament(5)
        s = t.subtournament([4, 1, 3])
        assert s == transitive_tournament(3)

    def test_transitivity(self):
        assert is_transitive(transitive_tournament(6))
        assert not is_transitive(THREE_CYCLE)

    def test_first_three_cycle(self):
        assert first_three_cycle(THREE_CYCLE) == (0, 1, 2)
        assert first_three_cycle(transitive_tournament(5)) is None

    def test_score_order(self):
        assert descending_score_order(transitive_tournament(4)) == (0, 1, 2, 3)
        assert descending_score_order(THREE_CYCLE) == (0, 1, 2)


class TestSelector:
    def test_rejects_zero_value(self):
        with pytest.raises(InvariantError):
            Selector([ONE, GaussianScalar.zero()])

    def test_rejects_mixed_moduli(self):
        with pytest.raises(InvariantError):
            Selector([ONE, GaussianScalar.exact(1, 1)])

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(InvariantError):
            Selector([ONE], 0)

    def test_modulus_squared_includes_scale(self):
        d = Selector([GaussianScalar.exact(3, 4)], rational("1/5"))
        assert d.modulus_squared() == rational(5)

    def test_inverse_composes_to_identity(self):
        r = genutil.rng(6)
        for _ in range(20):
            d = genutil.random_selector(r, 4)
            e = d.pointwise_product(d.inverse())
            assert e.modulus_squared() == rational(1)
            assert all(v.is_real() and v.re > 0 for v in e.values)


class TestApplySelector:
    def test_unit_example(self):
        g = i_representation(THREE_CYCLE)
        d = Selector([ONE, I, I])
        h = apply_selector(g, d)
        # d(0) g(0,1) conj(d(1)) = 1 * i * (-i) = 1
        assert h.label(0, 1) == ONE
        assert h.label(1, 2) == I
        assert h.label(0, 2) == -ONE

    def test_constant_scale(self):
        g = constant_structure(4, ONE)
        two = GaussianScalar.exact(2)
        assert apply_selector(g, Selector.constant(4, two)) == constant_structure(
            4, GaussianScalar.exact(4)
        )

    def test_split_scale_reaches_nonsquare_modulus(self):
        """scale_sq = 3 realizes |delta|^2 = 3 with no irrational value."""
        g = constant_structure(3, ONE)
        d = Selector.ones(3).pointwise_product(Selector([ONE] * 3, 3))
        assert apply_selector(g, d) == constant_structure(3, GaussianScalar.exact(3))

    def test_group_action(self):
        r = genutil.rng(7)
        for _ in range(15):
            n = r.randrange(2, 6)
            g = genutil.random_hermitian(r, n)
            a = genutil.random_selector(r, n)
            b = genutil.random_selector(r, n)
            left = apply_selector(apply_selector(g, a), b)
            right = apply_selector(g, a.pointwise_product(b))
            assert left == right

    def test_inverse_undoes(self):
        r = genutil.rng(8)
        for _ in range(15):
            n = r.randrange(2, 6)
            g = genutil.random_hermitian(r, n)
            d = genutil.random_selector(r, n)
            assert apply_selector(apply_selector(g, d), d.inverse()) == g

    def test_size_mismatch(self):
        with pytest.raises(InputError):
            apply_selector(constant_structure(3, ONE), Selector.ones(4))

    def test_matches_scalar_arithmetic(self):
        """The action on component pairs gives what the scalar formula
        (d(x) * g(x, y) * conj(d(y))).scale(scale_sq) gives: the same
        rationals in exact mode and the same floats, bit for bit, in approx
        mode. Labels are integral, rational, or over distinct prime
        denominators; selector values are Pythagorean units or of modulus 5."""
        r = genutil.rng(12)
        for trial in range(60):
            n = r.randrange(1, 9)
            g = (
                i_representation(genutil.random_tournament(r, n)),
                genutil.random_hermitian(r, n),
                genutil.random_coprime_hermitian(r, n),
            )[trial % 3]
            d = genutil.random_selector(r, n, scale_pool=(1, "3/7", "9/4"))
            if trial % 2:
                g = genutil.approx_copy(g)
                d = Selector(
                    [GaussianScalar.approx(float(v.re), float(v.im)) for v in d.values],
                    float(d.scale_sq),
                )
            h = apply_selector(g, d)
            assert h.mode == g.mode
            for x in range(n):
                assert h.labels[x][x].is_zero()
                for y in range(n):
                    if x == y:
                        continue
                    want = (d.values[x] * g.labels[x][y] * d.values[y].conj()).scale(
                        d.scale_sq
                    )
                    got = h.labels[x][y]
                    if g.mode == EXACT:
                        assert got.to_text() == want.to_text()
                    else:
                        assert (got.re.hex(), got.im.hex()) == (want.re.hex(), want.im.hex())


class TestRepresentations:
    def test_arc_labels(self):
        c = GaussianScalar.exact("3/5", "4/5")
        g = c_representation(THREE_CYCLE, c)
        assert g.label(0, 1) == c
        assert g.label(1, 0) == c.conj()
        assert g.label(2, 0) == c

    def test_rejects_nonunit_label(self):
        with pytest.raises(InputError):
            c_representation(THREE_CYCLE, GaussianScalar.exact(1, 1))

    def test_real_label_warns(self):
        with pytest.warns(ConstantRepresentationWarning):
            g = c_representation(THREE_CYCLE, -ONE)
        assert g == constant_structure(3, -ONE)

    def test_i_representation(self):
        g = i_representation(transitive_tournament(3))
        assert g.label(0, 1) == I
        assert g.label(2, 1) == I.conj()

    def test_substructure_commutes_with_representation(self):
        r = genutil.rng(9)
        c = GaussianScalar.exact("5/13", "12/13")
        for _ in range(10):
            t = genutil.random_tournament(r, 7)
            vs = sorted(r.sample(range(7), 4))
            left = substructure(c_representation(t, c), vs)
            right = c_representation(t.subtournament(vs), c)
            assert left == right

    def test_substructure_matches_validated_build(self):
        g = genutil.random_hermitian(genutil.rng(10), 6)
        sub = substructure(g, (4, 1, 3, 1))
        rebuilt = HermitianStructure([[g.labels[a][b] for b in (1, 3, 4)] for a in (1, 3, 4)])
        assert sub.n == 3 and sub.mode == g.mode
        assert sub == rebuilt and hash(sub) == hash(rebuilt)

    def test_substructure_rejects_bad_vertices(self):
        g = i_representation(THREE_CYCLE)
        for bad in ((0, 3), (-1, 1), (0, True), (0, 1.0), ()):
            with pytest.raises(InputError):
                substructure(g, bad)


class TestNormalizeAt:
    def test_three_cycle_normal_form(self):
        g = i_representation(THREE_CYCLE)
        normal, d = normalize_at(g, 0)
        assert all(normal.label(0, v) == ONE for v in range(1, 3))
        # phase product i * i * conj(-i) = -i
        assert normal.label(1, 2) == -I
        assert apply_selector(g, d) == normal

    def test_row_choice(self):
        g = i_representation(THREE_CYCLE)
        normal, _ = normalize_at(g, 2)
        assert all(normal.label(2, v) == ONE for v in range(2))

    def test_idempotent(self):
        g = i_representation(THREE_CYCLE)
        normal, _ = normalize_at(g, 0)
        again, d = normalize_at(normal, 0)
        assert again == normal
        assert apply_selector(normal, d) == normal

    def test_selector_orbit_invariance(self):
        """Every selector image normalizes back to the same form."""
        r = genutil.rng(10)
        for _ in range(10):
            g = genutil.random_unit_hermitian(r, 5)
            h = apply_selector(g, genutil.random_selector(r, 5))
            assert normalize_at(g, 0)[0] == normalize_at(h, 0)[0]

    def test_rational_modulus(self):
        v = GaussianScalar.exact(3, 4)  # modulus 5
        g = hermitian({(0, 1): v, (0, 2): v, (1, 2): v}, 3)
        normal, d = normalize_at(g, 0)
        assert normal.common_modulus_squared() == rational(1)
        assert d.scale_sq == rational("1/5")
        assert apply_selector(g, d) == normal

    def test_irrational_modulus_refused(self):
        v = GaussianScalar.exact(1, 1)  # modulus sqrt(2)
        g = hermitian({(0, 1): v, (0, 2): v, (1, 2): v}, 3)
        with pytest.raises(ExactnessError):
            normalize_at(g, 0)

    def test_twisted_rational_labels(self):
        """c-representations with label 3/5+4/5i twisted by Pythagorean
        selectors: labels and selector values both have denominators, and
        every twist of one structure normalizes to the same form."""
        r = genutil.rng(13)
        for _ in range(12):
            n = r.randrange(3, 8)
            base = c_representation(genutil.random_tournament(r, n), UNIT_C)
            g = apply_selector(base, genutil.random_unit_selector(r, n))
            w = r.randrange(n)
            normal, d = normalize_at(g, w)
            assert apply_selector(g, d) == normal
            assert normal == normalize_at(base, w)[0]
            assert all(normal.label(w, v) == ONE for v in range(n) if v != w)

    def test_needs_common_modulus(self):
        g = hermitian(
            {(0, 1): ONE, (0, 2): ONE, (1, 2): GaussianScalar.exact(2)}, 3
        )
        with pytest.raises(NotTwoMonomorphicError):
            normalize_at(g, 0)


def _huge_approx(v, n=5):
    """The approx structure with label v+vi above the diagonal."""
    z = GaussianScalar.approx(v, v)
    zero = GaussianScalar.approx(0.0, 0.0)
    return HermitianStructure(
        [[zero if x == y else z if x < y else z.conj() for y in range(n)] for x in range(n)]
    )


class TestAreEquivalent:
    def test_overflowing_phase_products_are_input_errors(self):
        """Phase products that overflow floats stop with the input error of
        approx scalar arithmetic, rather than deciding anything."""
        for v in (1e60, 1e110):
            with pytest.raises(InputError, match="must be finite"):
                are_equivalent(_huge_approx(v), _huge_approx(v))
        with pytest.raises(InputError, match="must be finite"):
            normalize_at(_huge_approx(1e110), 0)

    def test_reflexive(self):
        g = i_representation(THREE_CYCLE)
        report = are_equivalent(g, g)
        assert report.equivalent
        assert report.witness is not None

    def test_selector_orbit(self):
        r = genutil.rng(11)
        for _ in range(10):
            n = r.randrange(2, 7)
            g = genutil.random_unit_hermitian(r, n)
            h = apply_selector(g, genutil.random_selector(r, n))
            assert are_equivalent(g, h).equivalent
            assert are_equivalent(h, g).equivalent

    def test_twisted_rational_labels(self):
        """Two twists of one rational-label c-representation, one by a
        Pythagorean unit selector and one by a modulus-5 selector with a
        scale factor, are equivalent with an exact witness; a twist of
        another tournament's representation is not equivalent."""
        r = genutil.rng(14)
        for _ in range(12):
            n = r.randrange(3, 8)
            t = genutil.random_tournament(r, n)
            base = c_representation(t, UNIT_C)
            g = apply_selector(base, genutil.random_unit_selector(r, n))
            h = apply_selector(
                base, Selector([r.choice(genutil.MOD5_POOL) for _ in range(n)], "9/4")
            )
            report = are_equivalent(g, h)
            assert report.equivalent
            assert apply_selector(g, report.witness) == h
            other = t.reverse()
            if other != t:
                twisted = apply_selector(
                    c_representation(other, UNIT_C), genutil.random_unit_selector(r, n)
                )
                assert not are_equivalent(g, twisted).equivalent

    def test_opposite_constants_differ(self):
        g = constant_structure(3, ONE)
        h = constant_structure(3, -ONE)
        report = are_equivalent(g, h)
        assert not report.equivalent
        assert "(1,2)" in report.reason

    def test_cycle_vs_transitive(self):
        g = i_representation(THREE_CYCLE)
        h = i_representation(transitive_tournament(3))
        assert not are_equivalent(g, h).equivalent

    def test_constant_one_vs_three(self):
        """Equivalent over the complex numbers, but |delta|^2 = 3 has no
        Gaussian rational realization, so no witness can be returned."""
        g = constant_structure(3, ONE)
        h = constant_structure(3, GaussianScalar.exact(3))
        report = are_equivalent(g, h)
        assert report.equivalent
        assert report.witness is None
        assert "3" in report.note

    def test_constant_one_vs_two_has_witness(self):
        g = constant_structure(3, ONE)
        h = constant_structure(3, GaussianScalar.exact(2))
        report = are_equivalent(g, h)
        assert report.equivalent
        assert report.witness is not None
        assert apply_selector(g, report.witness) == h

    def test_irrational_scale_note(self):
        g = hermitian({(0, 1): ONE}, 2)
        h = hermitian({(0, 1): GaussianScalar.exact(1, 1)}, 2)
        report = are_equivalent(g, h)
        assert report.equivalent
        assert report.witness is None
        assert "irrational" in report.note

    def test_zero_label_reported(self):
        g = hermitian({(0, 1): ONE, (0, 2): ONE}, 3)
        report = are_equivalent(g, constant_structure(3, ONE))
        assert not report.equivalent
        assert "zero" in report.reason

    def test_size_mismatch(self):
        with pytest.raises(InputError):
            are_equivalent(constant_structure(2, ONE), constant_structure(3, ONE))
