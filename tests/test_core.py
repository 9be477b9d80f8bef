"""Tests for structures, tournaments, selectors, normalization, equivalence."""

import math
import time

import pytest

import genutil
from spectramono import classify, core
from spectramono.classify import classify_k3
from spectramono.charpoly import RealPolynomial
from spectramono.constructions import (
    SignMatrix,
    closed_form_deletion_poly,
    i_weighted,
    pair_cycle_counts,
)
from spectramono.core import (
    ConstantRepresentationWarning,
    EquivalenceReport,
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
from spectramono.scalars import (
    APPROX,
    EXACT,
    GaussianScalar,
    _pairs_match,
    get_eps,
    negligible,
    rational,
    rational_sqrt,
    real,
)

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

    def test_equality_reads_every_label(self):
        """Structures over one common denominator differ when one label
        does, in both modes."""
        g = i_representation(THREE_CYCLE)
        h = i_representation(transitive_tournament(3))
        assert _label_matrix(g)[1] == _label_matrix(h)[1]
        assert g != h
        assert genutil.approx_copy(g) != genutil.approx_copy(h)

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
    their order: is_zero on the diagonal entry at i, then, for every j > i,
    rows[i][j] against rows[j][i].conj(): == in exact mode; in approx mode
    each component difference at most eps times the largest component of
    the two, and never less than eps. The oracle for the checks on cleared
    pairs."""
    n = len(rows)
    for i in range(n):
        if not rows[i][i].is_zero():
            raise InvariantError(f"diagonal entry at {i} must be zero")
        for j in range(i + 1, n):
            a, b = rows[i][j], rows[j][i].conj()
            if a.mode == EXACT:
                same = a == b
            else:
                tol = get_eps() * max(1.0, abs(a.re), abs(a.im), abs(b.re), abs(b.im))
                same = abs(a.re - b.re) <= tol and abs(a.im - b.im) <= tol
            if not same:
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
    nonzero diagonal, noise just inside or just outside the tolerance, eps
    times the largest component and never less than eps (approx), or -0.0
    where 0.0 stood (approx). Cells share scalar objects, as parsed
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
                delta = eps * max(1.0, abs(e.re), abs(e.im)) * r.choice((-1, 1))
                delta *= 1 - 1e-6 if kind == "inside" else 1 + 1e-6
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
        """A k3-sweep op (build, classify_k3, enumeration at k = 3) converts
        the labels of each structure it builds exactly once, when the
        structure is built, by either route: __init__ clears its scalars
        into pairs, _from_pairs takes pairs, and the labels of either are a
        view of them. Every kernel reads that matrix."""
        converted = []
        original = core._cleared

        def spy(rows, mode):
            converted.append(rows)
            return original(rows, mode)

        monkeypatch.setattr(core, "_cleared", spy)
        built = []
        init = HermitianStructure.__init__

        def spy_init(self, labels):
            init(self, labels)
            built.append(self)

        monkeypatch.setattr(HermitianStructure, "__init__", spy_init)
        from_pairs = core._from_pairs

        def spy_from_pairs(a, d, mode):
            h = from_pairs(a, d, mode)
            converted.append(h.labels)
            built.append(h)
            return h

        monkeypatch.setattr(core, "_from_pairs", spy_from_pairs)
        monkeypatch.setattr(classify, "_from_pairs", spy_from_pairs)
        r = genutil.rng(74)
        for t in [transitive_tournament(6)] + [genutil.random_tournament(r, 6) for _ in range(5)]:
            converted.clear()
            built.clear()
            g = i_representation(t)
            classify_k3(g)
            is_k_spectrally_monomorphic(g, 3)
            # the other calls clear one row: the values of a selector, or
            # the label of a representation
            matrices = [rows for rows in converted if len(rows) > 1]
            assert [id(rows) for rows in matrices] == [id(h.labels) for h in built]
            assert built[0] is g and len(built) > 1

    def test_k3_sweep_op_builds_two_scalars(self, monkeypatch):
        """A k3-sweep op builds at most two GaussianScalars, the label i of
        its i-representation and the gamma of its canonical reduction: the
        labels of its structures and the values of its selector are views
        that nothing in the op reads."""
        built = []
        init = GaussianScalar.__init__

        def counting_init(self, re, im, mode):
            built.append((re, im))
            init(self, re, im, mode)

        monkeypatch.setattr(GaussianScalar, "__init__", counting_init)
        r = genutil.rng(78)
        for t in [transitive_tournament(6)] + [genutil.random_tournament(r, 6) for _ in range(5)]:
            built.clear()
            g = i_representation(t)
            assert classify_k3(g).monomorphic
            assert is_k_spectrally_monomorphic(g, 3).monomorphic
            assert len(built) <= 2

    def test_from_pairs_agrees_with_init(self):
        """_from_pairs on a pair matrix over any multiple of D gives the
        matrix and the labels that HermitianStructure gives for A / D."""
        r = genutil.rng(76)
        for trial in range(120):
            n = r.randrange(1, 7)
            rows = [[GaussianScalar.zero()] * n for _ in range(n)]
            for x in range(n):
                for y in range(x + 1, n):
                    z = GaussianScalar.zero() if r.random() < 0.3 else genutil.random_exact_scalar(r, 6)
                    rows[x][y], rows[y][x] = z, z.conj()
            g = HermitianStructure(rows)
            a, d = _label_matrix(g)
            k = r.choice((1, 2, 6, 35, 2**70))
            h = core._from_pairs(
                tuple(tuple((re * k, im * k) for re, im in row) for row in a), d * k, EXACT
            )
            assert _label_matrix(h) == (a, d)
            assert h.labels == g.labels and h.n == n and h.mode == EXACT
            assert h == g and hash(h) == hash(g)

    def test_from_pairs_keeps_approx_signed_zeros(self):
        """In approx mode each entry gets its own scalar, so 0.0 and -0.0
        print as they did; the pairs themselves are kept as given."""
        r = genutil.rng(77)
        pool = (0.0, -0.0, 1.5, -2.25, 1e-300, -3e12)
        for trial in range(60):
            n = r.randrange(1, 6)
            rows = [
                [GaussianScalar.approx(r.choice((0.0, -0.0)), r.choice((0.0, -0.0))) for _ in range(n)]
                for _ in range(n)
            ]
            for x in range(n):
                for y in range(x + 1, n):
                    z = GaussianScalar.approx(r.choice(pool), r.choice(pool))
                    rows[x][y], rows[y][x] = z, z.conj()
            g = HermitianStructure(rows)
            a, d = _label_matrix(g)
            h = core._from_pairs(a, d, APPROX)
            assert repr(_label_matrix(h)) == repr((a, None))
            assert h.labels == g.labels
            assert [[z.to_text() for z in row] for row in h.labels] == [
                [z.to_text() for z in row] for row in g.labels
            ]


def _texts(rows):
    return [[z.to_text() for z in row] for row in rows]


class TestScalarViews:
    """labels and values are views of the pairs, built on first read and
    kept. Each view holds the scalars that GaussianScalar arithmetic gives
    for its construction, by value and by to_text; approx floats agree bit
    for bit, signed zeros included. The views of _from_pairs and of
    apply_selector are checked so in TestClearedMatrix and in
    TestApplySelector::test_matches_scalar_arithmetic."""

    @staticmethod
    def _check(g, want):
        labels = g.labels
        assert labels is g.labels
        assert _texts(labels) == _texts(want)
        if g.mode == EXACT:
            assert labels == tuple(tuple(row) for row in want)

    @staticmethod
    def _zero_diagonal(rows, mode):
        zero = GaussianScalar.zero(mode)
        return [[zero if x == y else z for y, z in enumerate(row)] for x, row in enumerate(rows)]

    def test_init(self):
        """The view of a structure built from labels holds scalars equal to
        the given ones, signed approx zeros included."""
        r = genutil.rng(84)
        for _ in range(10):
            exact = genutil.random_hermitian(r, r.randrange(1, 6))
            signed = [
                [GaussianScalar.approx(float(z.re) or r.choice((0.0, -0.0)), float(z.im)) for z in row]
                for row in exact.labels
            ]
            for rows in (exact.labels, signed):
                self._check(HermitianStructure(rows), rows)

    @pytest.mark.parametrize("mode", [EXACT, APPROX])
    def test_representation_and_substructure(self, mode):
        r = genutil.rng(85 if mode == EXACT else 86)
        for _ in range(20):
            n = r.randrange(1, 7)
            t = genutil.random_tournament(r, n)
            c = UNIT_C if mode == EXACT else GaussianScalar.approx(0.6, -0.8)
            g = c_representation(t, c)
            arcs = [[c if t.dominates(x, y) else c.conj() for y in range(n)] for x in range(n)]
            self._check(g, self._zero_diagonal(arcs, mode))
            vs = sorted(r.sample(range(n), r.randint(1, n)))
            self._check(substructure(g, vs), [[g.labels[x][y] for y in vs] for x in vs])

    def test_normal_form_and_its_selector(self):
        r = genutil.rng(87)
        for _ in range(20):
            n = r.randrange(2, 7)
            g = apply_selector(
                c_representation(genutil.random_tournament(r, n), UNIT_C),
                genutil.random_selector(r, n, scale_pool=(1, "9/4", "1/4")),
            )
            w = r.randrange(n)
            normal, d = normalize_at(g, w)
            m = rational_sqrt(g.common_modulus_squared())
            lab = g.labels

            def phase(u, v):
                return (lab[w][u] * lab[u][v] * lab[w][v].conj()).scale(1 / m**3)

            want = [[ONE if w in (u, v) else phase(u, v) for v in range(n)] for u in range(n)]
            self._check(normal, self._zero_diagonal(want, EXACT))
            values = [ONE if x == w else lab[w][x].scale(1 / m) for x in range(n)]
            assert d.values is d.values and d.values == tuple(values) and d.scale_sq == 1 / m
            assert [z.to_text() for z in d.values] == [z.to_text() for z in values]

    @pytest.mark.parametrize("mode", [EXACT, APPROX])
    def test_canonical_reduction(self, mode):
        r = genutil.rng(88 if mode == EXACT else 89)
        for _ in range(20):
            n = r.randrange(5, 8)
            label = r.choice((UNIT_C, I, ONE))
            t = transitive_tournament(n) if label == UNIT_C else genutil.random_tournament(r, n)
            g = apply_selector(
                constant_structure(n, ONE) if label == ONE else c_representation(t, label),
                genutil.random_selector(r, n, scale_pool=(1, "9/4")),
            )
            if mode == APPROX:
                g = genutil.approx_copy(g)
            red = classify.reduce_to_canonical_labels(g)
            gamma = red.gamma
            against = gamma if red.real else gamma.conj()
            t = red.tournament
            want = [[gamma if t.dominates(x, y) else against for y in range(n)] for x in range(n)]
            self._check(red.canonical, self._zero_diagonal(want, mode))
            if mode == EXACT:
                msq = red.modulus_squared
                values = [ONE] + [(g.labels[0][v].conj() * gamma).scale(1 / msq) for v in range(1, n)]
                assert red.selector.values == tuple(values)
                assert [z.to_text() for z in red.selector.values] == [z.to_text() for z in values]

    def test_i_weighted(self):
        entries = [[0, 1, -1], [-1, 0, 1], [1, -1, 0]]
        g = i_weighted(SignMatrix(entries))
        self._check(g, [[GaussianScalar.exact(0, e) for e in row] for row in entries])

    def test_selector_init(self):
        """The view of a selector built from values holds scalars equal to
        the given ones, signed approx zeros included; _selector_from_pairs
        is checked so in TestSelector::test_keeps_the_pairs_of_its_values."""
        r = genutil.rng(90)
        for _ in range(10):
            values = [r.choice(genutil.UNIT_POOL) for _ in range(r.randint(1, 6))]
            signed = [
                GaussianScalar.approx(float(v.re), float(v.im) or r.choice((0.0, -0.0)))
                for v in values
            ]
            for vs in (values, signed):
                d = Selector(vs, 4)
                assert d.values is d.values
                assert [v.to_text() for v in d.values] == [v.to_text() for v in vs]
            assert Selector(values).values == tuple(values)

    def test_views_cannot_be_assigned(self):
        g = i_representation(THREE_CYCLE)
        d = Selector.ones(3)
        for obj, name in ((g, "labels"), (g, "_labels"), (d, "values"), (d, "_values")):
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
        assert g.labels[0][1] == I and d.values == (ONE,) * 3

    def test_approx_structures_and_selectors_do_not_hash(self, monkeypatch):
        """They raise at once, without building the labels or values view."""
        g = genutil.approx_copy(i_representation(THREE_CYCLE))
        d = Selector.ones(3, APPROX)

        def no_views(*args):
            raise AssertionError("a view was built")

        monkeypatch.setattr(core, "_scalars_of", no_views)
        for obj in (g, d):
            with pytest.raises(TypeError, match="cannot hash"):
                hash(obj)
        monkeypatch.undo()
        assert g == genutil.approx_copy(i_representation(THREE_CYCLE))


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

    def test_in_mask_holds_the_vertices_that_beat_i(self):
        r = genutil.rng(28)
        for _ in range(50):
            t = genutil.random_tournament(r, r.randrange(1, 10))
            for i in range(t.n):
                beaten_by = {j for j in range(t.n) if t.dominates(j, i)}
                assert t.in_mask(i) == sum(1 << j for j in beaten_by)
                assert t.reverse().rows[i] == t.in_mask(i)
        with pytest.raises(InputError):
            THREE_CYCLE.in_mask(3)

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

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: is_transitive(3), "takes a Tournament"),
            (lambda: first_three_cycle(3), "takes a Tournament"),
            (lambda: descending_score_order(3), "takes a Tournament"),
            (lambda: transitive_tournament(-1), "at least one vertex"),
            (lambda: transitive_tournament("3"), "at least one vertex"),
            (lambda: Tournament(True, [0]), "at least one vertex"),
            (lambda: Tournament(2, ["x", 0]), "int bitmasks"),
            (lambda: Tournament(2, None), "must be an iterable"),
            (lambda: Tournament(2, [1.5, 0]), "int bitmasks"),
            (lambda: Tournament(2, [True, 0]), "int bitmasks"),
            (lambda: Tournament.from_pair_bits(3, 1.5), "pair code"),
            (lambda: Tournament.from_pair_bits(3, -1), "pair code"),
            (lambda: Tournament.from_pair_bits(3, 8), "pair code"),
            (lambda: pair_cycle_counts(THREE_CYCLE, 0, "1"), "out of range"),
            (lambda: Tournament.from_matrix([[0, True], [0, 0]]), "0 or 1, got True"),
            (lambda: Tournament.from_matrix([[0, 1.0], [0, 0]]), "0 or 1, got 1.0"),
            (lambda: Tournament.from_matrix(None), "must be an iterable"),
            (lambda: closed_form_deletion_poly(1, True), "d must be"),
            (lambda: closed_form_deletion_poly(1, 1.0), "d must be"),
            (lambda: RealPolynomial([0, 1], EXACT).power(True), "nonnegative int"),
            (lambda: HermitianStructure(None), "must be an iterable"),
            (lambda: HermitianStructure([None]), "must be an iterable"),
            (lambda: Selector(None), "must be an iterable"),
            (lambda: SignMatrix(None), "must be an iterable"),
            (lambda: RealPolynomial(None, EXACT), "must be an iterable"),
            (lambda: substructure(constant_structure(3, ONE), None), "must be an iterable"),
            (lambda: THREE_CYCLE.subtournament(None), "must be an iterable"),
            (lambda: THREE_CYCLE.subtournament(["x", 1]), "out of range"),
            (lambda: constant_structure(1.5, ONE), "at least one vertex"),
            (lambda: GaussianScalar(None, 0, APPROX), "cannot interpret None as an approx"),
            (lambda: GaussianScalar.approx(1.0).scale(None), "cannot interpret None"),
            (lambda: RealPolynomial([None], APPROX), "cannot interpret None"),
            (lambda: RealPolynomial(["x"], APPROX), "cannot interpret 'x' as an approx"),
            (lambda: RealPolynomial([1.0], APPROX).evaluate("x"), "cannot interpret 'x'"),
            (lambda: Selector([GaussianScalar.approx(1.0)], None), "cannot interpret None"),
            (
                lambda: Selector([GaussianScalar.approx(1.0)], float("inf")),
                r"approx scale_sq must be finite, got inf\Z",
            ),
            (
                lambda: Selector([GaussianScalar.approx(1.0)], float("nan")),
                r"approx scale_sq must be finite, got nan\Z",
            ),
            (
                lambda: Selector([GaussianScalar.approx(1.0)] * 3, 1e-320).inverse(),
                r"approx scale_sq must be finite, got inf\Z",
            ),
            (
                lambda: apply_selector(
                    constant_structure(3, GaussianScalar.approx(1e200)),
                    Selector([GaussianScalar.approx(1e200)] * 3),
                ),
                "approx labels too large: selector products overflow floats",
            ),
            (lambda: Selector.ones(None), "selector size must be an int, got None"),
            (lambda: Selector.ones(True), "selector size must be an int, got True"),
            (lambda: Selector.constant(1.5, ONE), "selector size must be an int, got 1.5"),
        ],
        ids=[
            "is_transitive",
            "first_three_cycle",
            "descending_score_order",
            "negative_order",
            "str_order",
            "bool_order",
            "str_row",
            "no_rows",
            "float_row",
            "bool_row",
            "float_pair_code",
            "negative_pair_code",
            "pair_code_too_large",
            "str_pair_vertex",
            "bool_dominance_cell",
            "float_dominance_cell",
            "no_dominance_matrix",
            "bool_deletion_count",
            "float_deletion_count",
            "bool_polynomial_power",
            "no_labels",
            "no_label_row",
            "no_selector_values",
            "no_sign_rows",
            "no_coefficients",
            "no_substructure_vertices",
            "no_subtournament_vertices",
            "str_subtournament_vertex",
            "float_constant_order",
            "none_approx_component",
            "none_approx_scale",
            "none_approx_coefficient",
            "str_approx_coefficient",
            "str_approx_point",
            "none_approx_scale_sq",
            "inf_approx_scale_sq",
            "nan_approx_scale_sq",
            "inverse_of_subnormal_scale_sq",
            "overflowing_selector_products",
            "none_selector_size",
            "bool_selector_size",
            "float_selector_size",
        ],
    )
    def test_bad_arguments_are_input_errors(self, call, message):
        with pytest.raises(InputError, match=message):
            call()


def _scalar_rule_selector(values, scale_sq):
    """The selector checks as GaussianScalar arithmetic states them, in
    their order: is_zero on every value, scale_sq positive once real makes
    it, then modulus_squared of each value against the first's within
    negligible. The oracle for the checks on cleared pairs."""
    mode = values[0].mode
    if any(v.is_zero() for v in values):
        raise InvariantError("selector values must be nonzero")
    if not real(scale_sq, mode) > 0:
        raise InvariantError("scale_sq must be positive")
    msq = values[0].modulus_squared()
    for v in values[1:]:
        other = v.modulus_squared()
        if other != msq and not negligible(other - msq, msq, mode):
            raise InvariantError("selector values must share one modulus")


def _perturbed_value_lists(r, mode, count):
    """Random (values, scale_sq) of one mode whose values share one
    modulus, with one or two perturbations each, some of them no-ops: a
    zero value, a value of another modulus, a bad scale_sq, and in approx
    mode a signed zero, a value eps * (1 +- 1e-3) from zero, or one whose
    modulus squared sits eps * (1 +- 1e-3) times the tolerance's reference
    from the common one."""
    eps = get_eps()
    for _ in range(count):
        n = r.randint(1, 6)
        if mode == EXACT:
            rho = r.choice((1, 2, rational("3/7"), rational("-5/2")))
            pool = [v.scale(rho) for v in r.choice((genutil.UNIT_POOL, genutil.MOD5_POOL))]
            scales = (1, "9/4", 0, -1, "-1/3")
        else:
            rho = r.choice((1.0, 1e-6, 3.5, 1e6))
            angles = [r.uniform(0.0, 6.3) for _ in range(3)] + [0.0, math.pi / 2]
            pool = [GaussianScalar.approx(rho * math.cos(t), rho * math.sin(t)) for t in angles]
            scales = (1.0, 2.5, 1e-300, "2.5", 0.0, -0.0, -1.5)
        values = [r.choice(pool) for _ in range(n)]
        scale_sq = r.choice(scales[:2])
        for _ in range(r.choice((1, 1, 2))):
            x = r.randrange(n)
            v = values[x]
            kind = r.choice(
                ("none", "zero", "other", "scale", "signed zero", "near zero", "near modulus")
            )
            if kind == "zero":
                values[x] = GaussianScalar.zero(mode)
            elif kind == "other":
                values[x] = v.scale(2)
            elif kind == "scale":
                scale_sq = r.choice(scales)
            elif mode == APPROX and kind == "signed zero":
                values[x] = GaussianScalar.approx(r.choice((0.0, -0.0)), r.choice((0.0, -0.0)))
            elif mode == APPROX and kind == "near zero":
                delta = eps * r.choice((1 - 1e-3, 1 + 1e-3)) * r.choice((-1, 1))
                values[x] = r.choice(
                    [GaussianScalar.approx(delta, 0.0), GaussianScalar.approx(-0.0, delta)]
                    + [GaussianScalar.approx(delta, delta)]
                )
            elif mode == APPROX and kind == "near modulus":
                v = r.choice(pool)
                msq = v.modulus_squared()
                delta = eps * r.choice((1 - 1e-3, 1 + 1e-3)) * max(1.0, msq)
                target = msq + delta if msq < delta else msq + r.choice((-1, 1)) * delta
                values[x] = v.scale(math.sqrt(target / msq))
        yield values, scale_sq


def test_constructors_name_the_first_entry_of_a_bad_type_or_mode():
    """HermitianStructure (its labels row by row) and Selector (its values)
    check in order that every entry is a GaussianScalar of the first's
    mode, and name the first that is not, before any check of the values:
    a zero selector value waits behind a later bad entry."""
    zero, approx = GaussianScalar.zero(), GaussianScalar.approx(1.0)
    cases = [
        (lambda: HermitianStructure([[zero, 5], [approx, zero]]), InputError, "label 5 is not a GaussianScalar"),
        (
            lambda: HermitianStructure([[zero, approx], [5, zero]]),
            ModeMixError,
            "labels mix exact and approx scalars",
        ),
        (lambda: Selector([zero, "1", approx]), InputError, "selector value '1' is not a GaussianScalar"),
        (lambda: Selector([zero, approx, "1"]), ModeMixError, "selector values mix modes"),
    ]
    for build, error, message in cases:
        with pytest.raises(error) as raised:
            build()
        assert type(raised.value) is error and str(raised.value) == message


class TestSelector:
    @pytest.mark.parametrize("mode", [EXACT, APPROX])
    def test_checks_match_the_scalar_rule(self, mode):
        """Selector checks its values on their cleared pairs; the outcome is
        that of the scalar rule, error and message, in both modes."""
        r = genutil.rng(79 if mode == EXACT else 80)
        outcomes = set()
        for values, scale_sq in _perturbed_value_lists(r, mode, 1500):
            expected = _outcome(lambda vs: _scalar_rule_selector(vs, scale_sq), values)
            assert _outcome(lambda vs: Selector(vs, scale_sq), values) == expected
            outcomes.add(None if expected is None else expected[1])
        assert outcomes == {
            None,
            "selector values must be nonzero",
            "scale_sq must be positive",
            "selector values must share one modulus",
        }

    @pytest.mark.parametrize("mode", [EXACT, APPROX])
    def test_keeps_the_pairs_of_its_values(self, mode):
        """Both constructors keep pairs (S, R) that describe the values:
        S / R in exact mode, where Selector takes R to be the lcm of the
        value denominators, and the components bit for bit in approx mode,
        signed zeros included."""
        r = genutil.rng(81 if mode == EXACT else 82)
        for _ in range(40):
            n = r.randint(1, 6)
            d = genutil.random_selector(r, n, scale_pool=(1, "3/7", "9/4"))
            values, scale_sq = d.values, d.scale_sq
            if mode == APPROX:
                values = [
                    GaussianScalar.approx(*(float(c) or r.choice((0.0, -0.0)) for c in (v.re, v.im)))
                    for v in values
                ]
                scale_sq = float(scale_sq)
            pairs, q = Selector(values, scale_sq)._pairs
            if mode == EXACT:
                assert q == math.lcm(*(c.denominator for v in values for c in (v.re, v.im)))
                assert [(rational(re) / q, rational(im) / q) for re, im in pairs] == [
                    (v.re, v.im) for v in values
                ]
                k = r.choice((1, 3, 2**70))
                pairs, q = tuple((re * k, im * k) for re, im in pairs), q * k
            else:
                assert q is None and repr(pairs) == repr(tuple((v.re, v.im) for v in values))
            built = core._selector_from_pairs(list(pairs), q, mode, scale_sq)
            assert repr(built._pairs) == repr((pairs, q))
            assert [v.to_text() for v in built.values] == [v.to_text() for v in values]

    def test_action_and_normalization_clear_nothing(self, monkeypatch):
        """apply_selector and normalize_at read the pairs that the structure
        and the selector kept when they were built; neither clears a value
        again."""
        r = genutil.rng(83)
        cases = []
        for _ in range(10):
            n = r.randrange(2, 7)
            t = genutil.random_tournament(r, n)
            g = apply_selector(c_representation(t, UNIT_C), genutil.random_unit_selector(r, n))
            d = genutil.random_selector(r, n, scale_pool=("3/7", "9/4"))
            floats = [GaussianScalar.approx(float(v.re), float(v.im)) for v in d.values]
            cases += [(g, d), (genutil.approx_copy(g), Selector(floats, float(d.scale_sq)))]
        calls = []
        original = core._cleared

        def spy(rows, mode):
            calls.append(rows)
            return original(rows, mode)

        monkeypatch.setattr(core, "_cleared", spy)
        for g, d in cases:
            apply_selector(g, d)
            normalize_at(g, r.randrange(g.n))
        assert calls == []

    def test_equality_and_hashing_read_the_values(self):
        """Exact selectors of equal values and scale_sq compare and hash
        equal whatever pairs they keep: normalize_at keeps these values
        over D * m = 10, where Selector clears them over 5. A different
        scale_sq compares unequal, and the other mode raises."""
        g = apply_selector(
            c_representation(transitive_tournament(4), UNIT_C),
            Selector.constant(4, ONE, scale_sq=2),
        )
        _, normalizing = normalize_at(g, 0)
        built = Selector([ONE, UNIT_C, UNIT_C, UNIT_C], "1/2")
        assert normalizing._pairs != built._pairs
        assert normalizing == built and hash(normalizing) == hash(built)
        assert normalizing != Selector([ONE, UNIT_C, UNIT_C, UNIT_C], "1/3")
        with pytest.raises(ModeMixError, match="selectors of different modes"):
            normalizing == Selector.ones(4, APPROX)

    def test_approx_equality_is_relative(self):
        """Approx selectors compare scale_sq relative to the larger one and
        the values by the rule of _pairs_match, as approx structures compare
        their labels."""
        one, big = GaussianScalar.approx(1.0), GaussianScalar.approx(1e10)
        assert Selector.constant(2, one, 1e-18) != Selector.constant(2, one, 5e-18)
        assert Selector.constant(2, one, 1e10) == Selector.constant(2, one, 1e10 * (1 + 2**-52))
        assert Selector.constant(2, one, 1e300) != Selector.constant(2, one, 1e-300)
        assert Selector.constant(2, big) == Selector.constant(2, GaussianScalar.approx(1e10 + 1))
        assert Selector.constant(2, big) != Selector.constant(2, GaussianScalar.approx(1.001e10))

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

    def test_large_approx_products_are_compared_relative_to_their_size(self):
        """The products d(x) g(x, y) conj(d(y)) and d(y) g(y, x) conj(d(x))
        of labels of modulus 2.5e7 round apart by more than eps, so the
        conjugate check compares approx pairs relative to their largest
        component."""
        a = GaussianScalar.approx
        g = c_representation(transitive_tournament(5), a(0.6, 0.8))
        for scale_sq in (1e5, 1e6, 1e12):
            d = Selector([a(3, 4), a(4, -3), a(3, 4), a(-3, 4), a(5, 0)], scale_sq)
            h = apply_selector(g, d)
            assert math.isclose(h.common_modulus_squared(), 625 * scale_sq**2, rel_tol=1e-12)
            assert are_equivalent(g, h).equivalent

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

    def test_twisted_approx_matches_scalar_text(self):
        """Each label of the action prints as the scalar formula
        (d(x) * g(x, y) * conj(d(y))).scale(scale_sq) does: on approx copies
        of twisted c-representations, with signed zeros on the diagonal,
        under selectors with a -0.0 component, and on exact ones under a
        rational scale_sq. The diagonal prints as the zero scalar, never
        -0.0."""
        r = genutil.rng(78)
        signed = [
            GaussianScalar.approx(re, im)
            for re, im in ((1.0, -0.0), (-0.0, 1.0), (-0.0, -1.0), (-1.0, 0.0), (0.6, -0.8))
        ]
        negative_zeros = 0
        for trial in range(40):
            n = r.randrange(2, 8)
            t = genutil.random_tournament(r, n)
            g = apply_selector(c_representation(t, r.choice((I, UNIT_C))), genutil.random_unit_selector(r, n))
            if trial % 2:
                rows = [list(row) for row in genutil.approx_copy(g).labels]
                for x in range(n):
                    rows[x][x] = GaussianScalar.approx(r.choice((0.0, -0.0)), r.choice((0.0, -0.0)))
                g = HermitianStructure(rows)
                values = [r.choice(signed) for _ in range(n)]
                values[r.randrange(n)] = signed[r.randrange(3)]
                d = Selector(values, r.choice((1.0, 0.75, 2.5)))
            else:
                d = genutil.random_selector(r, n, scale_pool=("3/7", "9/4", "5/3"))
            h = apply_selector(g, d)
            zero = GaussianScalar.zero(g.mode).to_text()
            for x in range(n):
                assert h.labels[x][x].to_text() == zero
                for y in range(n):
                    if x == y:
                        continue
                    want = (d.values[x] * g.labels[x][y] * d.values[y].conj()).scale(d.scale_sq)
                    got = h.labels[x][y].to_text()
                    assert got == want.to_text()
                    negative_zeros += "-0.0" in got
        assert negative_zeros


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
        # a c-representation with every label jittered within 3e-10: its
        # phase products agree with the unjittered copy's within eps, but
        # the witness built from row 0 misses a label by more than eps
        ((g, h),) = genutil.jittered_c_representations(count=1, seed=20, n=5)
        with pytest.raises(InputError, match="too close to the tolerance") as raised:
            are_equivalent(h, genutil.approx_copy(g))
        messages.add(str(raised.value).split(": ")[1].split(" by ")[0])
        # labels of modulus 1/2 with the phase of (1,2) turned by 6e-8: each
        # p * conj(q) of two phase products has modulus 1/64, and its phase
        # is tested relative to that size, so the turn is seen
        c = c_representation(transitive_tournament(5), GaussianScalar.approx(0.6, 0.8))
        g = apply_selector(c, Selector.constant(5, GaussianScalar.approx(1.0), scale_sq=0.5))
        rows = [list(row) for row in g.labels]
        rows[1][2] = rows[1][2] * GaussianScalar.approx(math.cos(6e-8), math.sin(6e-8))
        rows[2][1] = rows[1][2].conj()
        report = are_equivalent(g, HermitianStructure(rows))
        assert not report.equivalent
        assert report.reason == "normalized forms differ at pair (1,2)"
        assert messages == {
            "the selector values differ in modulus",
            "the equivalence witness misses the target",
        }


class TestAreEquivalent:
    def test_one_vertex(self):
        """Any two one-vertex structures of a mode are equivalent under the
        all-ones selector."""
        for mode, one in ((EXACT, ONE), (APPROX, GaussianScalar.approx(1.0))):
            g = constant_structure(1, one)
            report = are_equivalent(g, g)
            assert report == EquivalenceReport(True, witness=Selector.ones(1, mode))

    def test_overflowing_phase_products_are_input_errors(self):
        """Phase products that overflow floats stop with an input error
        that names the labels, rather than deciding anything."""
        for v in (1e60, 1e110):
            with pytest.raises(InputError, match="approx labels too large: phase products"):
                are_equivalent(_huge_approx(v), _huge_approx(v))
        with pytest.raises(InputError, match="approx labels too large: phase products"):
            normalize_at(_huge_approx(1e110), 0)

    def test_labels_whose_square_overflows_are_input_errors(self):
        """|label|^2 overflowing floats gave inf - inf = nan and a wrong
        "different moduli" verdict; it is refused as input instead."""
        for g in (constant_structure(3, GaussianScalar.approx(1e200)), _huge_approx(1e160)):
            with pytest.raises(InputError, match="approx labels too large"):
                are_equivalent(g, g)
            with pytest.raises(InputError, match="approx labels too large"):
                g.common_modulus_squared()

    def test_large_labels_are_compared_relative_to_their_size(self):
        """A unit twist times 1e8 gives labels of modulus 1e16, whose
        rounding is far above eps in absolute terms. The witness is checked
        by the rule the canonical reduction uses, relative to the largest
        component, so the structures are equivalent rather than refused;
        normalize_at and the reduction accept the same input."""
        approx = GaussianScalar.approx
        g = c_representation(transitive_tournament(6), approx(0.6, 0.8))
        twist = [approx(6e7, 8e7) if i % 2 else approx(8e7, -6e7) for i in range(6)]
        h = apply_selector(g, Selector(twist))
        report = are_equivalent(g, h)
        assert report.equivalent and report.witness is not None
        assert normalize_at(h, 0)[0] == normalize_at(g, 0)[0]
        assert classify.reduce_to_canonical_labels(h).tournament == transitive_tournament(6)

    def test_phases_of_tiny_labels_are_compared_relative_to_their_size(self):
        """Three vertices whose labels have |label|^2 6.25e-14 against 69.4
        and differ in the phase at (1,2): each p * conj(q) is below eps in
        absolute terms, so an absolute test let the phases pass and the
        witness then missed the target. Relative to m_g^3 m_h^3 the pair
        gets the exact copy's reason."""
        g, h = genutil.equivalence_pairs(seed=24, count=60)[35]
        assert g.n == 3 and not are_equivalent(g, h).equivalent
        report = are_equivalent(genutil.approx_copy(g), genutil.approx_copy(h))
        assert not report.equivalent
        assert report.reason == "normalized forms differ at pair (1,2)"

    def test_witness_within_eps_of_zero_is_refused(self):
        """Labels of modulus 1e10 against 1e-8 once needed witness values of
        modulus about 1e-9, which approx mode counts as zero, so the witness
        was refused as input. The split-form witness has unit values and
        carries |delta|^2 = 1e-18 in scale_sq, so both directions get one."""
        c = c_representation(transitive_tournament(5), GaussianScalar.approx(0.6, 0.8))
        one = GaussianScalar.approx(1.0)
        g = apply_selector(c, Selector.constant(5, one, scale_sq=1e10))
        h = apply_selector(c, Selector.constant(5, one, scale_sq=1e-8))
        for source, target, s0 in ((g, h, 1e-18), (h, g, 1e18)):
            report = are_equivalent(source, target)
            assert report.equivalent and report.witness is not None
            assert _reproduces(source, report.witness, target)
            assert report.witness.scale_sq == pytest.approx(s0)
        # labels of modulus 1e10 round apart by more than eps; approx ==
        # reads them relative to their size, so both directions meet it
        assert apply_selector(g, are_equivalent(g, h).witness) == h
        assert apply_selector(h, are_equivalent(h, g).witness) == g

    def test_approx_equality_is_relative_to_the_labels(self):
        """A witness that passes _check_action gives a structure equal to
        the target: approx == compares the pairs by the same relative rule.
        The acted label 8000000000.000001 against 8000000000.0 once made
        them unequal."""
        approx = GaussianScalar.approx
        c = c_representation(transitive_tournament(5), approx(0.6, 0.8))
        values = [approx(3.0, 4.0), approx(4.0, -3.0), approx(3.0, 4.0), approx(-3.0, 4.0), approx(5.0)]
        h = apply_selector(c, Selector(values, 1e-8))
        g = apply_selector(c, Selector(values, 1e10))
        assert apply_selector(h, are_equivalent(h, g).witness) == g

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
        """|delta|^2 = 3 has no Gaussian rational realization, but the
        split-form witness carries it as scale_sq = 3 with unit values."""
        g = constant_structure(3, ONE)
        h = constant_structure(3, GaussianScalar.exact(3))
        report = are_equivalent(g, h)
        assert report.equivalent
        assert report.witness is not None
        assert apply_selector(g, report.witness) == h
        assert report.witness.scale_sq == 3

    def test_constant_one_vs_two_has_witness(self):
        g = constant_structure(3, ONE)
        h = constant_structure(3, GaussianScalar.exact(2))
        report = are_equivalent(g, h)
        assert report.equivalent
        assert report.witness is not None
        assert apply_selector(g, report.witness) == h

    def test_huge_modulus_answers_fast(self):
        """|delta|^2 = 1000000000039 * 1000000000063 is a product of two
        primes 3 mod 4, so no Gaussian rational has it as its modulus
        squared, and nothing short of factoring shows that. The split-form
        witness needs no such search: it comes back at once."""
        g = constant_structure(3, ONE)
        s0 = 1000000000039 * 1000000000063
        h = constant_structure(3, GaussianScalar.exact(s0))
        start = time.perf_counter()
        report = are_equivalent(g, h)
        assert time.perf_counter() - start < 1.0
        assert report.equivalent
        assert report.witness is not None
        assert apply_selector(g, report.witness) == h
        assert report.witness.scale_sq == s0

    def test_obstructed_modulus_answers_at_once(self):
        """|delta|^2 = 10^24 + 7 is 3 mod 4, so no Gaussian rational has it
        as its modulus squared; the split-form witness carries it as
        scale_sq and comes back at once."""
        s0 = 10**24 + 7
        h = constant_structure(3, GaussianScalar.exact(s0))
        start = time.perf_counter()
        report = are_equivalent(constant_structure(3, ONE), h)
        assert time.perf_counter() - start < 0.05
        assert report.equivalent
        assert report.witness is not None
        assert apply_selector(constant_structure(3, ONE), report.witness) == h
        assert report.witness.scale_sq == s0

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

    def test_every_witness_reproduces_the_target(self):
        """Seeded exact pairs (genutil.equivalence_pairs) and their approx
        copies take in the pairs that once got a note or a refusal instead
        of a witness: |delta|^2 that is no sum of two rational squares, and
        approx |delta|^2 of 1e-18. Every equivalent pair gets a witness that
        maps g onto h, with scale_sq^2 = m_h^2 / m_g^2, except the exact
        two-vertex pairs whose |delta|^2 is irrational, which get the note.
        Approx phases compare relative to their size, so every approx copy
        gets the exact pair's verdict and reason, tiny labels included."""
        sums_of_no_squares = tiny = 0
        for g, h in genutil.equivalence_pairs(seed=24, count=60):
            exact = are_equivalent(g, h)
            for a, b in ((g, h), (genutil.approx_copy(g), genutil.approx_copy(h))):
                report = exact if a is g else are_equivalent(a, b)
                assert (report.equivalent, report.reason) == (exact.equivalent, exact.reason)
                if not report.equivalent:
                    continue
                if report.witness is None:
                    assert a.mode == EXACT and a.n == 2 and "irrational" in report.note
                    continue
                assert _reproduces(a, report.witness, b)
                s0 = report.witness.scale_sq
                ratio = b.common_modulus_squared() / a.common_modulus_squared()
                if a.mode == EXACT:
                    assert s0 * s0 == ratio
                    odd = s0.numerator * s0.denominator
                    sums_of_no_squares += (odd >> ((odd & -odd).bit_length() - 1)) % 4 == 3
                else:
                    assert s0 == pytest.approx(math.sqrt(ratio))
                    tiny += s0 < 1e-17
        assert sums_of_no_squares > 0 and tiny > 0

    def test_builds_no_scalars(self, monkeypatch):
        """The witness is built from the pairs, so an 8-vertex approx input
        and its twist read no labels view: the parent built 157 scalars."""
        approx = GaussianScalar.approx
        g = c_representation(transitive_tournament(8), approx(0.6, 0.8))
        h = apply_selector(g, Selector.constant(8, approx(0.6, -0.8), scale_sq=3.0))
        built = []
        init = GaussianScalar.__init__

        def counting_init(self, re, im, mode):
            built.append((re, im))
            init(self, re, im, mode)

        monkeypatch.setattr(GaussianScalar, "__init__", counting_init)
        report = are_equivalent(g, h)
        assert len(built) <= 2
        assert report.equivalent and _reproduces(g, report.witness, h)


def _reproduces(g, witness, h):
    """Whether apply_selector(g, witness) == h, with approx labels compared
    by the rule of _pairs_match, relative to their size, as _check_action
    compares them: approx == is absolute within eps, and labels of modulus
    1e10 round apart by more than that."""
    acted = apply_selector(g, witness)
    if g.mode == EXACT:
        return acted == h
    return all(
        _pairs_match(p, q, APPROX)
        for got, want in zip(_label_matrix(acted)[0], _label_matrix(h)[0])
        for p, q in zip(got, want)
    )
