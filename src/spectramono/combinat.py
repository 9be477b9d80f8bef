"""Deterministic subset enumeration shared by the spectral modules."""

from .errors import InputError


def colex_subsets(n, k):
    """Yield the k-subsets of range(n) as sorted tuples in colexicographic
    order: S before T when the largest element of their symmetric difference
    lies in T. This is the canonical enumeration order for witnesses, so it
    is part of the observable contract, not just an implementation detail.
    """
    if k < 0 or n < 0:
        raise InputError(f"bad subset parameters n={n}, k={k}")
    if k > n:
        return
    if k == 0:
        yield ()
        return

    def rec(limit, size):
        if size == 0:
            yield ()
            return
        for top in range(size - 1, limit):
            for rest in rec(top, size - 1):
                yield rest + (top,)

    yield from rec(n, k)
