"""Seeded generators shared across test modules.

Everything takes an explicit random.Random so failures replay exactly.
"""

import random

from spectramono import GaussianScalar, HermitianStructure, Selector, Tournament, rational

# unit-modulus exact scalars: 1, -1, +-i and a few Pythagorean points
UNIT_POOL = [
    GaussianScalar.exact(1, 0),
    GaussianScalar.exact(-1, 0),
    GaussianScalar.exact(0, 1),
    GaussianScalar.exact(0, -1),
    GaussianScalar.exact(rational("3/5"), rational("4/5")),
    GaussianScalar.exact(rational("-3/5"), rational("4/5")),
    GaussianScalar.exact(rational("5/13"), rational("-12/13")),
    GaussianScalar.exact(rational("8/17"), rational("15/17")),
]


def rng(seed):
    return random.Random(seed)


def random_rational(r, span=4):
    num = r.randint(-span, span)
    den = r.randint(1, span)
    return rational(num) / rational(den)


def random_exact_scalar(r, span=4, nonzero=False):
    while True:
        z = GaussianScalar.exact(random_rational(r, span), random_rational(r, span))
        if not (nonzero and z.is_zero()):
            return z


def random_hermitian(r, n, span=4):
    """Arbitrary exact Hermitian structure, labels not constrained in modulus."""
    labels = [[GaussianScalar.exact(0, 0) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            z = random_exact_scalar(r, span)
            labels[i][j] = z
            labels[j][i] = z.conj()
    return HermitianStructure(labels)


def random_coprime_hermitian(r, n, span=4):
    """Exact Hermitian structure whose label components have pairwise-coprime
    denominators (distinct primes), so their common denominator is large."""
    # primes above span, so no numerator cancels its denominator
    primes = iter(p for p in range(span + 1, 400) if all(p % q for q in range(2, p)))
    labels = [[GaussianScalar.exact(0, 0) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            re, im = (
                rational(r.choice((-1, 1)) * r.randint(1, span)) / next(primes)
                for _ in range(2)
            )
            labels[i][j] = GaussianScalar.exact(re, im)
            labels[j][i] = labels[i][j].conj()
    return HermitianStructure(labels)


def random_unit_hermitian(r, n):
    """Exact Hermitian structure with every label of modulus 1."""
    labels = [[GaussianScalar.exact(0, 0) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            z = r.choice(UNIT_POOL)
            labels[i][j] = z
            labels[j][i] = z.conj()
    return HermitianStructure(labels)


# all of modulus 5, for selectors whose values are not units
MOD5_POOL = [
    GaussianScalar.exact(3, 4),
    GaussianScalar.exact(4, -3),
    GaussianScalar.exact(-3, 4),
    GaussianScalar.exact(5, 0),
    GaussianScalar.exact(0, 5),
]


def random_unit_selector(r, n):
    return Selector([r.choice(UNIT_POOL) for _ in range(n)])


def random_selector(r, n, scale_pool=(1, 4, 9, "1/4", "9/4")):
    """Selector with random equal-modulus values and a square scale factor."""
    pool = UNIT_POOL if r.random() < 0.5 else MOD5_POOL
    return Selector(
        [r.choice(pool) for _ in range(n)],
        rational(r.choice(scale_pool)),
    )


def random_tournament(r, n):
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if r.random() < 0.5:
                rows[i] |= 1 << j
            else:
                rows[j] |= 1 << i
    return Tournament(n, rows)


def approx_copy(g):
    """The approx-mode structure whose labels are g's components as floats."""
    return HermitianStructure(
        [
            [GaussianScalar.approx(float(e.re), float(e.im)) for e in row]
            for row in g.labels
        ]
    )


def permuted(g, perm):
    """g relabelled so that new vertex x is old vertex perm[x]."""
    return HermitianStructure([[g.labels[a][b] for b in perm] for a in perm])


def jittered_c_representations(
    count=119,
    seed=6,
    amplitude=3e-10,
    n=6,
    label=GaussianScalar.exact(rational("3/5"), rational("4/5")),
    pool=UNIT_POOL,
):
    """Pairs (g, h): g an exact c-representation and h a jittered approx
    copy of it. g is a c-representation of a random n-vertex tournament
    with the given label, twisted by a selector with values drawn from
    pool; h moves every label component of g above the diagonal uniformly
    within +-amplitude (the labels below it stay the conjugates). At the
    default amplitude, under a third of eps, some sit where the canonical
    reduction accepts each phase while its selector misses the input by
    more than eps."""
    from spectramono.core import apply_selector, c_representation

    r = rng(seed)
    out = []
    for _ in range(count):
        g = c_representation(random_tournament(r, n), label)
        g = apply_selector(g, Selector([r.choice(pool) for _ in range(n)]))
        rows = [list(row) for row in approx_copy(g).labels]
        for x in range(n):
            for y in range(x + 1, n):
                e = rows[x][y]
                z = GaussianScalar.approx(
                    e.re + r.uniform(-amplitude, amplitude),
                    e.im + r.uniform(-amplitude, amplitude),
                )
                rows[x][y] = z
                rows[y][x] = z.conj()
        out.append((g, HermitianStructure(rows)))
    return out


def twisted(r, g):
    """g twisted by a random selector of UNIT_POOL or MOD5_POOL values with
    a scale factor from EQUIVALENCE_SCALES."""
    from spectramono import apply_selector

    pool = r.choice((UNIT_POOL, MOD5_POOL))
    values = [r.choice(pool) for _ in range(g.n)]
    return apply_selector(g, Selector(values, rational(r.choice(EQUIVALENCE_SCALES))))


# scale factors for equivalence_pairs: ratios of two of them that are sums
# of two rational squares, that are not (3, 7, 1/3, 10^24 + 7), and 10^18
EQUIVALENCE_SCALES = (1, 2, 3, 7, "1/3", "9/4", 10**24 + 7, 10**10, "1/100000000")


def equivalence_pairs(seed, count):
    """count seeded exact pairs (g, h) for are_equivalent. Most are twins:
    one c-representation twisted by two random selectors with scale
    factors drawn from EQUIVALENCE_SCALES, so |delta|^2 may have no
    Gaussian rational square root, or be 1e18. The rest are a twist of
    the reversed tournament's representation, inequivalent unless the
    tournament is self-converse, and two-vertex structures whose labels
    differ in modulus squared by a factor 2, where |delta|^2 is
    irrational."""
    from spectramono import c_representation

    r = rng(seed)
    labels = [z for z in UNIT_POOL if not z.is_real()]
    out = []
    for _ in range(count):
        kind = r.random()
        if kind < 0.1:
            z = random_exact_scalar(r, nonzero=True)
            w = z * GaussianScalar.exact(1, 1)
            zero = GaussianScalar.exact(0)
            out.append(tuple(HermitianStructure([[zero, v], [v.conj(), zero]]) for v in (z, w)))
            continue
        t = random_tournament(r, r.randrange(2, 7))
        label = r.choice(labels)
        base = c_representation(t, label)
        other = c_representation(t.reverse(), label) if kind < 0.3 else base
        out.append((twisted(r, base), twisted(r, other)))
    return out
