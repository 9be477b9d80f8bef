"""Tests for the colexicographic subset enumeration."""

from itertools import combinations

import pytest

from spectramono.combinat import colex_subsets
from spectramono.errors import InputError


def test_matches_definition():
    """Colex order is the order of the subsets read from their largest
    element down."""
    for n in range(10):
        for k in range(n + 2):
            expected = sorted(combinations(range(n), k), key=lambda s: s[::-1])
            assert list(colex_subsets(n, k)) == expected, (n, k)


@pytest.mark.parametrize(
    "n, k",
    [(-1, 0), (3, -1), (-2, -2), (2.5, 1), ("3", 1), (3, 1.0), (3, True), (True, 1)],
)
def test_negative_parameters(n, k):
    """Negative, non-int and bool parameters are rejected at the first
    subset; a float n used to yield subsets without end."""
    with pytest.raises(InputError, match="bad subset parameters"):
        next(colex_subsets(n, k))
