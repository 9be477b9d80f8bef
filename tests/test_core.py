"""Tests for structures, tournaments, selectors, normalization, equivalence."""

import time

import pytest

import genutil
from spectramono import core
from spectramono.classify import classify_k3
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
    _label_matrix,
    transitive_tournament,
)
from spectramono.errors import (
    ExactnessError,
    InputError,
    InvariantError,
    ModeMixError,
    NotTwoMonomorphicError,
)
from spectramono.monomorphy import is_k_spectrally_monomorphic
from spectramono.scalars import APPROX, EXACT, GaussianScalar, get_eps, rational

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


def _scalar_rule_validation(rows):
    """The structure checks as GaussianScalar arithmetic states them, in
    their order: is_zero on the diagonal entry at i, then == against
    conj() for every j > i. The oracle for the checks on cleared pairs."""
    n = len(rows)
    for i in range(n):
        if not rows[i][i].is_zero():
            raise InvariantError(f"diagonal entry at {i} must be zero")
        for j in range(i + 1, n):
            if not rows[i][j] == rows[j][i].conj():
                raise InvariantError(
                    f"labels at ({i},{j}) and ({j},{i}) are not conjugate"
                )


def _outcome(check, rows):
    try:
        check(rows)
    except InvariantError as exc:
        return type(exc), str(exc)
    return None


def _perturbed_grids(r, mode, count):
    """Random valid grids of one mode with one or two perturbations each,
    some of them no-ops: a label against a non-conjugate partner, a
    nonzero diagonal, noise just inside or just outside eps (approx), or
    -0.0 where 0.0 stood (approx). Cells share scalar objects, as parsed
    documents do."""
    eps = get_eps()
    for _ in range(count):
        n = r.randint(1, 6)
        if mode == EXACT:
            pool = [genutil.random_exact_scalar(r, span=6) for _ in range(3)]
        else:
            pool = [
                GaussianScalar.approx(r.uniform(-30, 30), r.uniform(-30, 30))
                for _ in range(3)
            ] + [GaussianScalar.approx(0.0, -0.0)]
        zero = GaussianScalar.zero(mode)
        rows = [[zero] * n for _ in range(n)]
        for x in range(n):
            for y in range(x + 1, n):
                z = r.choice(pool)
                rows[x][y] = z
                rows[y][x] = z.conj()
        for _ in range(r.choice((1, 1, 2))):
            x, y = r.randrange(n), r.randrange(n)
            e = rows[x][y]
            kind = r.choice(("none", "partner", "diagonal", "inside", "outside", "signed zero"))
            if kind == "partner":
                rows[x][y] = r.choice(pool)
            elif kind == "diagonal":
                nonzero = pool if mode == EXACT else pool + [GaussianScalar.approx(eps / 2)]
                rows[x][x] = r.choice(nonzero)
            elif mode == APPROX and kind in ("inside", "outside"):
                delta = eps * (1 - 1e-6 if kind == "inside" else 1 + 1e-6) * r.choice((-1, 1))
                if r.random() < 0.5:
                    rows[x][y] = GaussianScalar.approx(e.re + delta, e.im)
                else:
                    rows[x][y] = GaussianScalar.approx(e.re, e.im + delta)
            elif mode == APPROX and kind == "signed zero":
                rows[x][y] = GaussianScalar.approx(
                    -e.re if e.re == 0 else e.re, -e.im if e.im == 0 else e.im
                )
                rows[x][x] = GaussianScalar.approx(-0.0, r.choice((0.0, -0.0)))
        yield rows


class TestClearedMatrix:
    """The structure keeps its cleared matrix (A, D) and is checked on it."""

    @pytest.mark.parametrize("mode", [EXACT, APPROX])
    def test_checks_match_the_scalar_rule(self, mode):
        r = genutil.rng(71 if mode == EXACT else 72)
        outcomes = set()
        for rows in _perturbed_grids(r, mode, 600):
            expected = _outcome(_scalar_rule_validation, rows)
            assert _outcome(HermitianStructure, rows) == expected
            outcomes.add(None if expected is None else expected[1].split(" ")[0])
        assert outcomes == {None, "diagonal", "labels"}

    def test_approx_noise_at_eps(self):
        """Noise up to eps itself passes; noise past it fails."""
        eps = get_eps()
        zero = GaussianScalar.approx(0.0)
        for delta, ok in ((eps * 0.999, True), (eps, True), (eps * 1.001, False)):
            for z in (GaussianScalar.approx(0.0, delta), GaussianScalar.approx(delta, 0.0)):
                for rows in ([[z, zero], [zero, zero]], [[zero, z], [zero, zero]]):
                    assert (_outcome(HermitianStructure, rows) is None) is ok
                    assert _outcome(HermitianStructure, rows) == _outcome(
                        _scalar_rule_validation, rows
                    )

    def test_matrix_is_immutable(self):
        g = apply_selector(
            i_representation(THREE_CYCLE), Selector.constant(3, GaussianScalar.exact("1/2"))
        )
        a, d = _label_matrix(g)
        assert d == 4
        assert isinstance(a, tuple) and all(isinstance(row, tuple) for row in a)
        with pytest.raises(TypeError):
            a[0][1] = (0, 0)
        with pytest.raises(TypeError):
            a[0] = a[1]
        with pytest.raises(AttributeError):
            g._matrix = ([[(0, 0)]], 1)
        assert a == (((0, 0), (0, 1), (0, -1)), ((0, -1), (0, 0), (0, 1)), ((0, 1), (0, -1), (0, 0)))

    def test_substructure_clears_its_own_labels(self):
        g = genutil.random_coprime_hermitian(genutil.rng(73), 6)
        for vs in ((0, 1), (1, 3, 4), (0, 2, 3, 5)):
            rebuilt = HermitianStructure([[g.labels[a][b] for b in vs] for a in vs])
            assert _label_matrix(substructure(g, vs)) == _label_matrix(rebuilt)

    def test_k3_sweep_op_clears_each_structure_once(self, monkeypatch):
        """A k3-sweep op (build, classify_k3, enumeration at k = 3) clears
        the labels of each structure it builds exactly once, when the
        structure is built; every kernel reads that matrix."""
        cleared = []
        original = core._cleared

        def spy(rows, mode):
            cleared.append(rows)
            return original(rows, mode)

        monkeypatch.setattr(core, "_cleared", spy)
        built = []
        init = HermitianStructure.__init__

        def spy_init(self, labels):
            init(self, labels)
            built.append(self)

        monkeypatch.setattr(HermitianStructure, "__init__", spy_init)
        r = genutil.rng(74)
        for t in [transitive_tournament(6)] + [genutil.random_tournament(r, 6) for _ in range(5)]:
            cleared.clear()
            built.clear()
            g = i_representation(t)
            classify_k3(g)
            is_k_spectrally_monomorphic(g, 3)
            # the other calls clear the values of a selector, one row
            matrices = [rows for rows in cleared if len(rows) > 1]
            assert [id(rows) for rows in matrices] == [id(h.labels) for h in built]
            assert built[0] is g and len(built) > 1


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


class TestJitteredApproxNormalization:
    """Jittered approx labels can share one modulus within eps while the
    selector built from several of them drifts further: its values differ
    in modulus, or it misses its target. Approx mode reports that as
    input too close to the tolerance, never as a broken invariant."""

    CASES = ((9, 6), (10, 7))

    def test_normalize_at(self):
        refused = 0
        for seed_, n in self.CASES:
            for _, h in genutil.jittered_c_representations(count=6, seed=seed_, n=n):
                for w in range(n):
                    try:
                        normalized, selector = normalize_at(h, w)
                    except NotTwoMonomorphicError:
                        continue
                    except InputError as exc:
                        assert "too close to the tolerance" in str(exc)
                        refused += 1
                        continue
                    assert apply_selector(h, selector) == normalized
        assert refused > 0

    def test_are_equivalent(self):
        messages = set()
        for seed_, n in self.CASES:
            r = genutil.rng(seed_)
            for _, h in genutil.jittered_c_representations(count=6, seed=seed_, n=n):
                for pool in (genutil.UNIT_POOL, genutil.MOD5_POOL):
                    values = [r.choice(pool) for _ in range(n)]
                    twist = Selector([GaussianScalar.approx(float(v.re), float(v.im)) for v in values])
                    try:
                        report = are_equivalent(h, apply_selector(h, twist))
                    except InputError as exc:
                        assert "too close to the tolerance" in str(exc)
                        messages.add(str(exc).split(": ")[1].split(" by ")[0])
                        continue
                    assert report.equivalent or "different moduli" in report.reason
        assert messages == {
            "the selector values differ in modulus",
            "the equivalence witness misses the target",
        }


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

    def test_huge_modulus_answers_fast(self):
        """|delta|^2 = 1000000000039 * 1000000000063 is beyond the
        two-square search, which would take hours: both primes are 3 mod 4,
        so no witness exists, but nothing short of factoring shows it. The
        report says no witness was searched, not that none exists, and
        comes back at once."""
        g = constant_structure(3, ONE)
        h = constant_structure(3, GaussianScalar.exact(1000000000039 * 1000000000063))
        start = time.perf_counter()
        report = are_equivalent(g, h)
        assert time.perf_counter() - start < 1.0
        assert report.equivalent
        assert report.witness is None
        assert "no exact witness was searched" in report.note
        assert "exists" not in report.note

    def test_obstructed_modulus_answers_at_once(self):
        """|delta|^2 = 10^24 + 7 is 3 mod 4, so no Gaussian rational has it
        as its modulus squared: the report says so without a search."""
        h = constant_structure(3, GaussianScalar.exact(10**24 + 7))
        start = time.perf_counter()
        report = are_equivalent(constant_structure(3, ONE), h)
        assert time.perf_counter() - start < 0.05
        assert report.equivalent
        assert report.witness is None
        assert "no exact witness exists" in report.note

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
