"""Tests for tournament/matrix constructions and their certifications."""

import pytest

import genutil
from spectramono import charpoly, constructions
from spectramono.charpoly import RealPolynomial, char_poly, poly_x_squared_minus
from spectramono.combinat import colex_subsets
from spectramono.constructions import (
    DrtCertificate,
    HomogeneityReport,
    SignMatrix,
    closed_form_deletion_poly,
    drt_from_skew_hadamard,
    hat,
    i_weighted,
    is_doubly_regular,
    is_homogeneous,
    pair_cycle_counts,
    paley_tournament,
    skew_adjacency,
    skew_hadamard_from_drt,
    validate_sign_matrix,
    verify_deletion_spectra,
)
from spectramono.core import Tournament, i_representation, substructure, transitive_tournament
from spectramono.errors import InputError, InvariantError
from spectramono.scalars import EXACT

THREE_CYCLE = Tournament.from_matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])


def minus_identity(h):
    return SignMatrix(
        [
            [h.entries[i][j] - (1 if i == j else 0) for j in range(h.n)]
            for i in range(h.n)
        ]
    )


def plus_identity(s):
    return SignMatrix(
        [
            [s.entries[i][j] + (1 if i == j else 0) for j in range(s.n)]
            for i in range(s.n)
        ]
    )


class TestSignMatrix:
    def test_rejects_other_entries(self):
        with pytest.raises(InputError):
            SignMatrix([[0, 2], [-2, 0]])
        with pytest.raises(InputError):
            SignMatrix([[True, False], [False, True]])

    def test_transpose_involution(self):
        m = SignMatrix([[0, 1, -1], [-1, 0, 1], [1, -1, 0]])
        assert m.transpose().transpose() == m

    def test_getitem(self):
        m = SignMatrix([[0, 1], [-1, 0]])
        assert m[1] == (-1, 0)


class TestHat:
    def test_three_cycle(self):
        t = hat(THREE_CYCLE)
        assert t.n == 4
        assert t.out_degree(0) == 3
        assert t.subtournament([1, 2, 3]) == THREE_CYCLE

    def test_transitive_stays_transitive(self):
        assert hat(transitive_tournament(5)) == transitive_tournament(6)


class TestSkewAdjacency:
    def test_three_cycle(self):
        m = skew_adjacency(THREE_CYCLE)
        assert m.entries == ((0, 1, -1), (-1, 0, 1), (1, -1, 0))

    def test_i_weighted_matches_representation(self):
        r = genutil.rng(41)
        for _ in range(10):
            t = genutil.random_tournament(r, 6)
            assert i_weighted(skew_adjacency(t)) == i_representation(t)

    def test_i_weighted_rejects_symmetric(self):
        with pytest.raises(InvariantError):
            i_weighted(SignMatrix([[0, 1], [1, 0]]))


class TestValidateSignMatrix:
    def test_minimal_conference(self):
        m = SignMatrix([[0, 1], [-1, 0]])
        assert validate_sign_matrix(m, "conference").ok
        assert validate_sign_matrix(m, "skew_conference").ok

    def test_all_ones_is_not_hadamard(self):
        m = SignMatrix([[1, 1], [1, 1]])
        report = validate_sign_matrix(m, "hadamard")
        assert not report.ok
        assert report.locus is not None

    def test_symmetric_hadamard(self):
        m = SignMatrix([[1, 1], [1, -1]])
        assert validate_sign_matrix(m, "hadamard").ok
        assert not validate_sign_matrix(m, "skew_hadamard").ok

    def test_conference_needs_zero_diagonal(self):
        m = SignMatrix([[1, 1], [-1, 1]])
        report = validate_sign_matrix(m, "conference")
        assert not report.ok
        assert "diagonal" in report.detail

    def test_nonorthogonal_conference(self):
        m = SignMatrix(
            [[0, 1, 1, 1], [-1, 0, 1, 1], [-1, -1, 0, 1], [-1, -1, -1, 0]]
        )
        report = validate_sign_matrix(m, "skew_conference")
        assert not report.ok

    def test_unknown_kind(self):
        with pytest.raises(InputError):
            validate_sign_matrix(SignMatrix([[0]]), "weighing")

    @pytest.mark.parametrize(
        "rows, kind, detail, locus",
        [
            ([[0, 1], [0, 0]], "conference", "off-diagonal entry (1,0) is 0", (1, 0)),
            (
                [[0, 1, 1], [-1, 0, 1], [-1, 1, 0]],
                "skew_conference",
                "entries (1,2) and (2,1) are not negatives",
                (1, 2),
            ),
            ([[1, 1], [1, 0]], "hadamard", "entry (1,1) is 0, expected +-1", (1, 1)),
            (
                [[1, 1], [-1, -1]],
                "skew_hadamard",
                "diagonal entry (1,1) is -1, expected 1",
                (1, 1),
            ),
        ],
    )
    def test_failure_messages(self, rows, kind, detail, locus):
        report = validate_sign_matrix(SignMatrix(rows), kind)
        assert (report.ok, report.detail, report.locus) == (False, detail, locus)


def _two_branch_validate(m, kind):
    """(ok, detail, locus) of validate_sign_matrix as it was written with one
    branch for the conference kinds and one for the Hadamard kinds. It is
    the oracle for the one-pass version: same messages, same first failure."""
    n, e = m.n, m.entries
    if kind in ("conference", "skew_conference"):
        for i in range(n):
            if e[i][i] != 0:
                return False, f"diagonal entry ({i},{i}) is {e[i][i]}, expected 0", (i, i)
            for j in range(n):
                if i != j and e[i][j] == 0:
                    return False, f"off-diagonal entry ({i},{j}) is 0", (i, j)
        if kind == "skew_conference":
            for i in range(n):
                for j in range(i + 1, n):
                    if e[i][j] + e[j][i] != 0:
                        return False, f"entries ({i},{j}) and ({j},{i}) are not negatives", (i, j)
        cols = list(zip(*e))
        for i in range(n):
            for j in range(n):
                value = sum(a * b for a, b in zip(cols[i], cols[j]))
                want = n - 1 if i == j else 0
                if value != want:
                    return False, f"(M^T M)[{i}][{j}] = {value}, expected {want}", (i, j)
        return True, None, None
    for i in range(n):
        for j in range(n):
            if e[i][j] == 0:
                return False, f"entry ({i},{j}) is 0, expected +-1", (i, j)
    if kind == "skew_hadamard":
        for i in range(n):
            if e[i][i] != 1:
                return False, f"diagonal entry ({i},{i}) is {e[i][i]}, expected 1", (i, i)
            for j in range(i + 1, n):
                if e[i][j] + e[j][i] != 0:
                    return False, f"entries ({i},{j}) and ({j},{i}) do not sum to 0", (i, j)
    for i in range(n):
        for j in range(n):
            value = sum(a * b for a, b in zip(e[i], e[j]))
            want = n if i == j else 0
            if value != want:
                return False, f"(H H^T)[{i}][{j}] = {value}, expected {want}", (i, j)
    return True, None, None


def _sign_matrices(r, count):
    """Seeded sign matrices near and far from the four kinds: the skew
    conference and skew Hadamard matrices over hat(Paley-3/7/11), their
    transposes and their images under a few random edits (an entry set,
    a row or a column negated, two rows swapped, the identity added or
    taken away), and random matrices of order 1 to 8 with a zero, unit or
    random diagonal, some of them skew."""
    bases = []
    for q in (3, 7, 11):
        s = skew_adjacency(hat(paley_tournament(q)))
        bases += [s.entries, plus_identity(s).entries]
    for _ in range(count):
        if r.random() < 0.6:
            rows = [list(row) for row in r.choice(bases)]
            n = len(rows)
            for _ in range(r.randrange(4)):
                edit = r.randrange(6)
                i, j = r.randrange(n), r.randrange(n)
                if edit == 0:
                    rows[i][j] = r.choice((-1, 0, 1))
                elif edit == 1:
                    rows[i] = [-v for v in rows[i]]
                elif edit == 2:
                    for row in rows:
                        row[j] = -row[j]
                elif edit == 3:
                    rows[i], rows[j] = rows[j], rows[i]
                elif edit == 4:
                    rows = [list(row) for row in zip(*rows)]
                else:
                    shift = r.choice((-1, 1))
                    for k in range(n):
                        rows[k][k] = max(-1, min(1, rows[k][k] + shift))
        else:
            n = r.randrange(1, 9)
            values = r.choice(((-1, 1), (-1, 0, 1)))
            rows = [[r.choice(values) for _ in range(n)] for _ in range(n)]
            if r.random() < 0.5:
                for i in range(n):
                    for j in range(i):
                        rows[i][j] = -rows[j][i]
            diagonal = r.choice((0, 1, None))
            for i in range(n):
                if diagonal is not None:
                    rows[i][i] = diagonal
        yield SignMatrix(rows)


def test_validate_sign_matrix_matches_the_two_branch_oracle():
    """Seeded (matrix, kind) cases get the oracle's ok, detail and locus."""
    r = genutil.rng(28)
    outcomes = set()
    for m in _sign_matrices(r, 2000):
        for kind in ("conference", "skew_conference", "hadamard", "skew_hadamard"):
            report = validate_sign_matrix(m, kind)
            want = _two_branch_validate(m, kind)
            assert (report.ok, report.detail, report.locus) == want, (m.entries, kind)
            outcomes.add((kind, want[0], want[1] and want[1].split(" ")[0]))
    # every kind passes somewhere and fails at each of its checks: four
    # outcomes for conference, five for skew_conference, three for
    # hadamard and five for skew_hadamard
    assert len(outcomes) == 17, sorted(outcomes, key=str)


class TestPairCycleCounts:
    def test_three_cycle(self):
        assert pair_cycle_counts(THREE_CYCLE, 0, 1) == (1, 0)

    def test_transitive(self):
        assert pair_cycle_counts(transitive_tournament(6), 1, 4) == (0, 4)

    def test_sum_invariant(self):
        r = genutil.rng(42)
        for _ in range(20):
            n = r.randrange(3, 9)
            t = genutil.random_tournament(r, n)
            x, y = r.sample(range(n), 2)
            c3, o3 = pair_cycle_counts(t, x, y)
            assert c3 + o3 == n - 2

    def test_validation(self):
        with pytest.raises(InputError):
            pair_cycle_counts(THREE_CYCLE, 1, 1)


class TestDoublyRegular:
    def test_three_cycle_is_degenerate_drt(self):
        assert is_doubly_regular(THREE_CYCLE) == DrtCertificate(n=3, t=0)

    def test_transitive_is_not(self):
        assert is_doubly_regular(transitive_tournament(7)) is None

    def test_too_small(self):
        assert is_doubly_regular(transitive_tournament(2)) is None

    def test_pairs_with_the_last_vertex_count(self):
        """A sink below Paley-7 leaves every pair of the first seven
        vertices one common dominator; the pairs with the sink have three,
        so neither certificate holds."""
        paley = paley_tournament(7)
        t = Tournament(8, [row | 1 << 7 for row in paley.rows] + [0])
        assert is_doubly_regular(t) is None
        assert is_homogeneous(t) == HomogeneityReport(homogeneous=False, witness=((0, 1), (0, 7)))


class TestPaley:
    def test_three_is_the_cycle(self):
        assert paley_tournament(3) == THREE_CYCLE

    def test_seven(self):
        t = paley_tournament(7)
        # quadratic residues mod 7 are {1, 2, 4}
        assert t.dominates(0, 1) and t.dominates(0, 2) and t.dominates(0, 4)
        assert t.dominates(3, 0) and t.dominates(5, 0) and t.dominates(6, 0)
        assert is_doubly_regular(t) == DrtCertificate(n=7, t=1)

    def test_eleven(self):
        assert is_doubly_regular(paley_tournament(11)) == DrtCertificate(n=11, t=2)

    def test_rejects_wrong_residue_class(self):
        with pytest.raises(InputError):
            paley_tournament(5)

    def test_rejects_composite(self):
        with pytest.raises(InputError):
            paley_tournament(9)


class TestHomogeneity:
    def test_paley_seven(self):
        report = is_homogeneous(paley_tournament(7))
        assert report.homogeneous
        assert report.k == 2

    def test_paley_eleven(self):
        report = is_homogeneous(paley_tournament(11))
        assert report.homogeneous
        assert report.k == 3

    def test_transitive_is_not(self):
        """C3 is constant at zero, which fails the k > 0 requirement."""
        report = is_homogeneous(transitive_tournament(7))
        assert not report.homogeneous
        assert report.k == 0

    def test_varying_counts_cited(self):
        rows = list(transitive_tournament(5).rows)
        rows[0] &= ~(1 << 4)
        rows[4] |= 1
        report = is_homogeneous(Tournament(5, rows))
        assert not report.homogeneous
        assert report.witness == ((0, 1), (0, 4))

    def test_agrees_with_double_regularity_at_seven(self):
        """Constant pair cycle counts and double regularity single each other
        out on 7 vertices (random sample plus the known positive case)."""
        r = genutil.rng(43)
        for _ in range(300):
            t = Tournament.from_pair_bits(7, r.randrange(1 << 21))
            assert is_homogeneous(t).homogeneous == (is_doubly_regular(t) is not None)
        assert is_homogeneous(paley_tournament(7)).homogeneous


class TestReidBrown:
    def test_order_four_from_three_cycle(self):
        h = skew_hadamard_from_drt(paley_tournament(3))
        assert h.n == 4
        assert validate_sign_matrix(h, "skew_hadamard").ok

    def test_round_trip(self):
        for q in (3, 7, 11):
            t = paley_tournament(q)
            h = skew_hadamard_from_drt(t)
            assert validate_sign_matrix(h, "skew_hadamard").ok
            assert drt_from_skew_hadamard(h) == t

    def test_rebuild_is_identity_on_normalized_matrices(self):
        h = skew_hadamard_from_drt(paley_tournament(7))
        assert skew_hadamard_from_drt(drt_from_skew_hadamard(h)) == h

    def test_recovery_survives_sign_conjugation(self):
        """Negating a row and matching column preserves both identities; the
        recovered tournament is again doubly regular of the same order."""
        h = skew_hadamard_from_drt(paley_tournament(7))
        flipped = SignMatrix(
            [
                [(-1 if 3 in (i, j) and i != j else 1) * h.entries[i][j] for j in range(8)]
                for i in range(8)
            ]
        )
        assert validate_sign_matrix(flipped, "skew_hadamard").ok
        t = drt_from_skew_hadamard(flipped)
        assert is_doubly_regular(t) == DrtCertificate(n=7, t=1)

    def test_rejects_non_regular_tournament(self):
        with pytest.raises(InputError):
            skew_hadamard_from_drt(transitive_tournament(7))

    def test_rejects_symmetric_hadamard(self):
        with pytest.raises(InputError):
            drt_from_skew_hadamard(SignMatrix([[1, 1], [1, -1]]))


class TestSkewPairing:
    def test_hadamard_and_conference_shift(self):
        """H is skew Hadamard exactly when H - I is skew conference."""
        for q in (7, 11):
            h = skew_hadamard_from_drt(paley_tournament(q))
            s = minus_identity(h)
            assert validate_sign_matrix(s, "skew_conference").ok
            assert plus_identity(s) == h


class TestClosedForms:
    def test_t_one_family(self):
        base = poly_x_squared_minus(7, EXACT)
        x = RealPolynomial([0, 1], EXACT)
        assert closed_form_deletion_poly(1, 0) == base.power(4)
        assert closed_form_deletion_poly(1, 1) == x.multiply(base.power(3))
        assert closed_form_deletion_poly(1, 2) == poly_x_squared_minus(1).multiply(
            base.power(2)
        )
        assert closed_form_deletion_poly(1, 3) == x.multiply(
            poly_x_squared_minus(3)
        ).multiply(base)

    def test_t_two_double_deletion(self):
        expected = RealPolynomial(
            [-14641, 0, 19965, 0, -6050, 0, 770, 0, -45, 0, 1], EXACT
        )
        assert closed_form_deletion_poly(2, 2) == expected

    @staticmethod
    def _by_products(t, d):
        """The closed form built by RealPolynomial.power and multiply: the
        oracle of the integer construction."""
        base = poly_x_squared_minus(4 * t + 3, EXACT)
        x = RealPolynomial([0, 1], EXACT)
        if d == 0:
            return base.power(2 * t + 2)
        if d == 1:
            return x.multiply(base.power(2 * t + 1))
        if d == 2:
            return poly_x_squared_minus(1, EXACT).multiply(base.power(2 * t))
        return x.multiply(poly_x_squared_minus(3, EXACT)).multiply(base.power(2 * t - 1))

    def test_matches_the_polynomial_products(self):
        for t in range(1, 9):
            for d in range(4):
                poly = closed_form_deletion_poly(t, d)
                assert poly.mode == EXACT
                assert poly.degree == 4 * t + 4 - d
                assert poly.coefficients == self._by_products(t, d).coefficients

    def test_rejects_order_four(self):
        with pytest.raises(InputError):
            closed_form_deletion_poly(0, 0)

    def test_rejects_bad_deletion_count(self):
        with pytest.raises(InputError):
            closed_form_deletion_poly(1, 4)


class TestDeletionSpectra:
    def test_order_eight_full(self):
        s = minus_identity(skew_hadamard_from_drt(paley_tournament(7)))
        report = verify_deletion_spectra(s)
        assert report.ok
        assert report.t == 1
        assert report.polys_checked == 1 + 8 + 28 + 56

    def test_order_twelve_single_deletions(self):
        s = minus_identity(skew_hadamard_from_drt(paley_tournament(11)))
        report = verify_deletion_spectra(s, max_deletions=1)
        assert report.ok
        assert report.polys_checked == 13

    def test_multiplies_no_polynomials(self, monkeypatch):
        """The closed forms are built in ints, so checking all 299 deletions
        of order 12 never calls RealPolynomial.multiply (nor power, which
        calls it)."""

        def refuse(self, other):
            raise AssertionError("RealPolynomial.multiply called")

        monkeypatch.setattr(RealPolynomial, "multiply", refuse)
        report = verify_deletion_spectra(skew_adjacency(hat(paley_tournament(11))))
        assert report.ok and report.polys_checked == 299

    def test_zero_deletion_matches_char_poly(self):
        s = minus_identity(skew_hadamard_from_drt(paley_tournament(7)))
        assert char_poly(i_weighted(s)) == closed_form_deletion_poly(1, 0)

    def test_perturbed_matrix_rejected(self):
        h = skew_hadamard_from_drt(paley_tournament(7))
        rows = [list(row) for row in minus_identity(h).entries]
        rows[0][1] = -rows[0][1]
        rows[1][0] = -rows[1][0]
        with pytest.raises(InputError):
            verify_deletion_spectra(SignMatrix(rows))

    def test_order_four_outside_family(self):
        s = minus_identity(skew_hadamard_from_drt(paley_tournament(3)))
        with pytest.raises(InputError):
            verify_deletion_spectra(s)

    @pytest.mark.parametrize("bad", [True, -1, 4, 1.0])
    def test_bad_max_deletions(self, bad):
        """max_deletions is an int in 0..3; a bool is not an int here."""
        s = skew_adjacency(hat(paley_tournament(7)))
        with pytest.raises(InputError, match="max_deletions"):
            verify_deletion_spectra(s, bad)


def _deletion_loop(s, max_deletions, closed_form):
    """(polys_checked, failure) of the per-deletion loop: char_poly of every
    deletion of i_weighted(s), in order, against the closed form."""
    g = i_weighted(s)
    n = s.n
    t = (n - 4) // 4
    checked = 0
    for d in range(max_deletions + 1):
        expected = closed_form(t, d)
        for deleted in colex_subsets(n, d):
            checked += 1
            actual = char_poly(substructure(g, [v for v in range(n) if v not in deleted]))
            if actual != expected:
                return checked, (deleted, expected, actual)
    return checked, None


def _wrong_closed_form(bad, how):
    """closed_form_deletion_poly, except wrong at d = bad."""

    def closed_form(t, d):
        poly = closed_form_deletion_poly(t, d)
        if d != bad:
            return poly
        c = list(poly.coefficients)
        if how == "constant":
            c[0] += 1
        elif how == "middle":
            c[len(c) // 2] -= 2
        elif how == "not_monic":
            c.append(1)
        else:  # degree one short
            c = c[1:]
        return RealPolynomial(c, EXACT)

    return closed_form


class TestDeletionSpectraRoute:
    """The deletions are checked through complementary minors of one
    adjugate per point. The report must be the per-deletion loop's."""

    @pytest.mark.parametrize("q", [7, 11])
    def test_failure_matches_per_deletion_loop(self, q, monkeypatch):
        s = skew_adjacency(hat(paley_tournament(q)))
        for bad in range(4):
            for how in ("constant", "middle", "not_monic", "short"):
                wrong = _wrong_closed_form(bad, how)
                monkeypatch.setattr(constructions, "closed_form_deletion_poly", wrong)
                for max_deletions in range(4):
                    report = verify_deletion_spectra(s, max_deletions)
                    checked, failure = _deletion_loop(s, max_deletions, wrong)
                    assert report.polys_checked == checked
                    assert report.failure == failure
                    assert report.ok == (failure is None)

    def test_signed_permutation_passes(self):
        r = genutil.rng(63)
        entries = skew_adjacency(hat(paley_tournament(11))).entries
        n = len(entries)
        perm = list(range(n))
        r.shuffle(perm)
        e = [r.choice((1, -1)) for _ in range(n)]
        rows = [[0] * n for _ in range(n)]
        for x in range(n):
            for y in range(n):
                rows[perm[x]][perm[y]] = e[x] * e[y] * entries[x][y]
        report = verify_deletion_spectra(SignMatrix(rows))
        assert report.ok and report.polys_checked == 299

    def test_minors_that_disagree_alone_are_an_invariant_error(self, monkeypatch):
        """A deletion whose minors miss the closed form while its
        characteristic polynomial matches it is a broken route."""
        minors = charpoly._complementary_minors

        def corrupted(adjugates, n, t, count):
            values = minors(adjugates, n, t, count)
            return [v + 1 for v in values] if t == (2, 5) else values

        monkeypatch.setattr(charpoly, "_complementary_minors", corrupted)
        s = skew_adjacency(hat(paley_tournament(7)))
        assert verify_deletion_spectra(s, 1).ok
        with pytest.raises(InvariantError):
            verify_deletion_spectra(s, 2)
