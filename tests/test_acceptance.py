"""Acceptance gate: one test per advertised guarantee.

Each test states a guarantee the package makes: a frozen exact value, an
algebraic identity over randomized instances, or an exhaustive sweep, with
a wall-clock bound where speed is part of the guarantee. Everything runs
in exact arithmetic; there are no tolerances anywhere in this module.
"""

import json
import time
from itertools import combinations
from math import comb

import genutil
from spectramono.charpoly import (
    RealPolynomial,
    char_poly,
    determinant,
    principal_minor_sum,
    scaled_poly,
)
from spectramono.classify import (
    IRepDRTHat,
    c3_via_determinants,
    classify_k3,
    classify_n_minus_3,
)
from spectramono.cli import main
from spectramono.constructions import (
    SignMatrix,
    closed_form_deletion_poly,
    hat,
    i_weighted,
    is_homogeneous,
    pair_cycle_counts,
    paley_tournament,
    skew_adjacency,
    skew_hadamard_from_drt,
    drt_from_skew_hadamard,
    validate_sign_matrix,
    verify_deletion_spectra,
)
from spectramono.core import (
    Selector,
    Tournament,
    apply_selector,
    c_representation,
    i_representation,
    substructure,
    transitive_tournament,
)
from spectramono.documents import serialize_document
from spectramono.monomorphy import is_k_spectrally_monomorphic, pouzet_transfer_check
from spectramono.scalars import BACKEND, EXACT, GaussianScalar


def exact_poly(*ascending):
    return RealPolynomial(ascending, EXACT)


def minus_identity(h):
    return SignMatrix(
        [
            [h.entries[i][j] - (1 if i == j else 0) for j in range(h.n)]
            for i in range(h.n)
        ]
    )


def oracle_c3(t, x, y):
    """Count 3-cycles through the pair by testing every triple directly."""
    total = 0
    for z in range(t.n):
        if z == x or z == y:
            continue
        outs = [
            sum(1 for b in (x, y, z) if b != a and t.dominates(a, b))
            for a in (x, y, z)
        ]
        total += outs == [1, 1, 1]
    return total


def test_criterion_01_hat_paley_char_poly():
    """Char poly of the i-weighted skew adjacency of hat(Paley-7)
    is exactly (x^2 - 7)^4, in under a second."""
    start = time.monotonic()
    s = skew_adjacency(hat(paley_tournament(7)))
    p = char_poly(i_weighted(s))
    elapsed = time.monotonic() - start
    assert p == exact_poly(2401, 0, -1372, 0, 294, 0, -28, 0, 1)
    assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_02_deletion_spectra_closed_forms():
    """All 93 deletion subsets at order 8 and all 299 at order 12 match
    the closed-form spectra exactly, within 5 s and 30 s."""
    s = skew_adjacency(hat(paley_tournament(7)))
    start = time.monotonic()
    rep = verify_deletion_spectra(s, 3)
    elapsed = time.monotonic() - start
    assert rep.ok and rep.failure is None
    assert rep.polys_checked == 93
    assert elapsed < 5.0, f"order 8 took {elapsed:.3f}s"

    s = skew_adjacency(hat(paley_tournament(11)))
    start = time.monotonic()
    rep = verify_deletion_spectra(s, 3)
    elapsed = time.monotonic() - start
    assert rep.ok and rep.failure is None
    assert rep.polys_checked == 299
    assert elapsed < 30.0, f"order 12 took {elapsed:.3f}s"


def test_criterion_03_monomorphy_boundary_at_hat_paley():
    """hat(Paley-7) i-representation: 5-monomorphic across all 56 subsets
    with common poly x^5 - 10x^3 + 21x, but not 4-monomorphic, and the
    witness pair has 4x4 determinants 9 and 1."""
    g = i_representation(hat(paley_tournament(7)))
    start = time.monotonic()
    five = is_k_spectrally_monomorphic(g, 5)
    four = is_k_spectrally_monomorphic(g, 4)
    elapsed = time.monotonic() - start
    assert five.monomorphic
    assert five.subsets_checked == 56
    assert five.common_poly == exact_poly(0, 21, 0, -10, 0, 1)
    assert not four.monomorphic
    dets = sorted(determinant(substructure(g, s)).re for s in four.witness)
    assert dets == [1, 9]
    assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_04_three_cycle_char_poly():
    """The 3-cycle i-representation has char poly exactly x^3 - 3x."""
    t = Tournament.from_matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert char_poly(i_representation(t)) == exact_poly(0, -3, 0, 1)


def test_criterion_05_coefficient_identity():
    """a_p = (-1)^p * (sum of principal p-minors), exactly, for 100 random
    exact structures with n <= 6 and every p."""
    r = genutil.rng(50105)
    for _ in range(100):
        n = r.randint(1, 6)
        g = genutil.random_hermitian(r, n)
        p = char_poly(g)
        for q in range(1, n + 1):
            sign = -1 if q % 2 else 1
            total = principal_minor_sum(g, q)
            assert total.im == 0
            assert p.coefficients[n - q] == sign * total.re


def test_criterion_06_selector_scaling_law():
    """Char poly of a selector twist equals the |delta|^2-scaled original,
    exactly, for 100 random (structure, selector) pairs with n <= 5."""
    r = genutil.rng(50106)
    for _ in range(100):
        n = r.randint(1, 5)
        g = genutil.random_hermitian(r, n)
        d = genutil.random_selector(r, n)
        twisted = char_poly(apply_selector(g, d))
        assert twisted == scaled_poly(char_poly(g), d.modulus_squared())


def test_criterion_07_exhaustive_classifier_agreement():
    """classify_k3 agrees with plain enumeration at k = 3 on the
    i-representation of every labeled tournament on 5 and on 6 vertices
    (1024 + 32768 instances), in under two minutes."""
    start = time.monotonic()
    for n in (5, 6):
        pair_bits = n * (n - 1) // 2
        for code in range(1 << pair_bits):
            g = i_representation(Tournament.from_pair_bits(n, code))
            verdict = classify_k3(g)
            brute = is_k_spectrally_monomorphic(g, 3)
            assert verdict.monomorphic == brute.monomorphic
            assert brute.monomorphic
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"sweep took {elapsed:.1f}s with {BACKEND} rationals"


def test_criterion_08_drt_hat_recovery():
    """classify_n_minus_3 on hat(Paley-7) recovers Paley-7 itself and hands
    back a selector that reproduces the input exactly."""
    g = i_representation(hat(paley_tournament(7)))
    result = classify_n_minus_3(g)
    assert result.monomorphic
    assert isinstance(result.variant, IRepDRTHat)
    assert result.variant.tournament == paley_tournament(7)
    assert result.variant.certificate.t == 1
    assert apply_selector(result.canonical, result.witness_selector) == g


def test_criterion_09_reid_brown_round_trip():
    """Tournament -> skew Hadamard -> tournament is the identity for the
    Paley instances of orders 3, 7, 11, with every intermediate sign-matrix
    identity checked in exact integers."""
    for q in (3, 7, 11):
        t = paley_tournament(q)
        h = skew_hadamard_from_drt(t)
        assert validate_sign_matrix(h, "skew_hadamard").ok
        assert validate_sign_matrix(h, "hadamard").ok
        assert validate_sign_matrix(minus_identity(h), "skew_conference").ok
        assert drt_from_skew_hadamard(h) == t


def test_criterion_10_kotzig_identity():
    """Homogeneous Paley instances satisfy n = 4k - 1 where k is the
    constant 3-cycle count through a pair, with k checked against a
    brute-force triple-counting oracle."""
    expected = {3: 1, 7: 2, 11: 3}
    for q, k in expected.items():
        t = paley_tournament(q)
        counts = {
            oracle_c3(t, x, y) for x in range(q) for y in range(x + 1, q)
        }
        assert counts == {k}
        rep = is_homogeneous(t)
        assert rep.homogeneous
        assert rep.k == k
        assert t.n == 4 * k - 1


def test_criterion_11_c3_determinant_route():
    """The determinant identity counts 3-cycles through a pair exactly as
    direct counting does, on 200 random dominated-hat instances, n <= 9."""
    r = genutil.rng(50111)
    for i in range(200):
        t = genutil.random_tournament(r, r.randint(3, 8))
        ht = hat(t)
        g = i_representation(ht)
        if i % 4 == 0:
            # same count under a constant non-unit rescaling
            g = apply_selector(g, Selector.constant(ht.n, GaussianScalar.exact(2)))
        x, y = r.sample(range(1, ht.n), 2)
        direct = pair_cycle_counts(ht, x, y)[0]
        assert c3_via_determinants(g, 0, x, y) == direct


def test_criterion_12_pouzet_transfer_tables():
    """Window-sum hypothesis in lemma range forces constancy on 50 tables
    built to satisfy it; on 50 unconstrained random tables a false
    hypothesis is reported as false."""
    r = genutil.rng(50112)
    for _ in range(50):
        p = r.randint(1, 3)
        gap = r.randint(0, 2)
        n = r.randint(2 * p + gap, 2 * p + gap + 3)
        value = genutil.random_rational(r)
        table = {s: value for s in combinations(range(n), p)}
        rep = pouzet_transfer_check(table, p, gap, n)
        assert rep.lemma_applicable
        assert rep.hypothesis_holds
        assert rep.conclusion_holds

    checked = 0
    while checked < 50:
        p = r.randint(1, 3)
        gap = r.randint(0, 2)
        n = r.randint(p + gap + 1, 2 * p + gap + 3)
        table = {
            s: genutil.random_rational(r) for s in combinations(range(n), p)
        }
        window_sums = {
            w: sum(table[s] for s in combinations(w, p))
            for w in combinations(range(n), p + gap)
        }
        if len(set(window_sums.values())) == 1:
            # the draw accidentally satisfied the hypothesis; not a
            # counterexample candidate, take another
            continue
        rep = pouzet_transfer_check(table, p, gap, n)
        assert not rep.hypothesis_holds
        checked += 1


def test_criterion_13_all_k_profile_at_hat_paley_eleven(tmp_path, capsys):
    """check --all-k on the hat(Paley-11) i-representation (n = 12): exit 1,
    monomorphic exactly at k = 1, 2, 3 and 9..12, with the closed-form
    deletion polynomials as common polys from k = 9 on, in under 5 s."""
    path = tmp_path / "hat_paley11.json"
    path.write_text(serialize_document(i_representation(hat(paley_tournament(11)))))
    start = time.monotonic()
    code = main(["check", "--input", str(path), "--all-k"])
    elapsed = time.monotonic() - start
    profile = json.loads(capsys.readouterr().out)["all_k"]
    assert code == 1
    positive = [k for k in range(1, 13) if profile[str(k)]["monomorphic"]]
    assert positive == [1, 2, 3, 9, 10, 11, 12]
    for k in range(9, 13):
        result = profile[str(k)]
        assert result["subsets_checked"] == comb(12, k)
        expected = closed_form_deletion_poly(2, 12 - k).coefficient_strings()
        assert result["common_poly"]["coefficients"] == expected
    assert elapsed < 5.0, f"took {elapsed:.3f}s"


def test_criterion_14_twisted_transitive_c_representation_at_mid_k(tmp_path, capsys):
    """check --k 8 and then --k 12 on the c-representation (label
    3/5+4/5i) of the transitive tournament on 16 vertices, twisted by unit
    values: exit 0 and all C(16, k) subsets checked, in under 5 s together.
    The twist makes nearly every slice differ from the others, while
    their norms and phase products stay those of the untwisted slices."""
    label = GaussianScalar.exact("3/5", "4/5")
    g = c_representation(transitive_tournament(16), label)
    g = apply_selector(g, genutil.random_unit_selector(genutil.rng(14), 16))
    path = tmp_path / "twisted_transitive16.json"
    path.write_text(serialize_document(g))
    start = time.monotonic()
    for k in (8, 12):
        code = main(["check", "--input", str(path), "--k", str(k)])
        result = json.loads(capsys.readouterr().out)["result"]
        assert code == 0, result
        assert result["monomorphic"]
        assert result["subsets_checked"] == comb(16, k)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"took {elapsed:.3f}s"
