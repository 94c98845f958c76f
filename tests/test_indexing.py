import math
from fractions import Fraction

import pytest

from kingman import indexing

# quarters, as the verify criteria use, and thirds, whose powers can land a hair off
# an integer in floating point (64 ** (1 / 3) = 3.9999999999999996)
EXPONENTS = sorted({Fraction(i, q) for q in (3, 4) for i in range(q + 1)})


def test_levels_are_those_between_the_powers():
    # n^(p/q) <= k exactly when n^p <= k^q: integers, so no rounding decides a level
    pairs = [(a, b) for a in EXPONENTS for b in EXPONENTS if a < b]
    for n in [*range(2, 201), 10_000]:  # 10^4: every quarter power is an integer
        at_least = {e: [n ** e.numerator <= k ** e.denominator for k in range(n + 1)]
                    for e in EXPONENTS}
        for e in EXPONENTS:  # floor_pow: the levels k >= 1 with k <= n^e number floor(n^e)
            below = sum(k ** e.denominator <= n ** e.numerator for k in range(1, n + 1))
            assert indexing.floor_pow(n, float(e)) == below, (n, e)
        for a, b in pairs:
            levels = [k for k in range(n + 1) if at_least[a][k] and not at_least[b][k]]
            lo, hi = indexing.window(n, float(a), float(b))
            assert 1 <= lo <= hi <= n and levels == list(range(lo, hi)), (n, a, b)


def test_level_rules_refuse_what_they_cannot_place():
    for alpha in (1000.0, math.inf, math.nan, -1.0, 1.0 + 1e-12):
        for rule in (indexing.ceil_pow, indexing.floor_pow):
            with pytest.raises(ValueError, match="exponent"):
                rule(50, alpha)
    for alpha, beta in ((0.5, 0.5), (0.75, 0.25), (-0.25, 0.5), (0.5, 1.5), (math.nan, 1.0)):
        with pytest.raises(ValueError, match="window exponents"):
            indexing.window(50, alpha, beta)
    for a, b in ((0.0, 1.0), (-1.0, 1.0), (2.0, 2.0), (2.0, 1.0), (math.nan, 1.0)):
        with pytest.raises(ValueError, match="0 < a < b"):
            indexing.check_interval(a, b)
    indexing.check_interval(1.0, math.inf)
