"""Deterministic subset enumeration shared by the spectral modules."""

from .errors import InputError


def colex_subsets(n, k):
    """Yield the k-subsets of range(n) as sorted tuples in colexicographic
    order: S before T when the largest element of their symmetric difference
    lies in T. This is the canonical enumeration order for witnesses, so it
    is part of the observable contract, not just an implementation detail.
    """
    for x in (n, k):
        if not isinstance(x, int) or isinstance(x, bool) or x < 0:
            raise InputError(f"bad subset parameters n={n!r}, k={k!r}")
    if k > n:
        return
    # s[k] = n bounds the top; the successor of s increments the first s[j]
    # that has room below s[j + 1] and resets the entries below it
    s = list(range(k)) + [n]
    while True:
        yield tuple(s[:k])
        j = 0
        while j < k and s[j] + 1 == s[j + 1]:
            j += 1
        if j == k:
            return
        s[j] += 1
        s[:j] = range(j)
