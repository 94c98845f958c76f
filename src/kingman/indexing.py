"""Integer level boundaries derived from fractional powers of n, and the checks
of the windows, intervals and integer arguments (counts, levels, indices) of kingman.

Window quantities use ceilings of n**alpha, truncated quantities use
floors.  Powers like 64**(1/3) = 3.9999999999999996 land a hair away from
an exact integer in binary floating point, so values are snapped to the
nearest integer before rounding.
"""

from __future__ import annotations

import math
import numbers

_SNAP = 1e-9


def check_count(name: str, value, least: int, most: float = math.inf):
    """Refuse anything but an integer in [least, most], a bool or a float included; return value."""
    # int is an Integral: naming it first spares an int the slower abstract check
    if type(value) is bool or not isinstance(value, (int, numbers.Integral)) \
            or not least <= value <= most:
        raise ValueError(f"{name} must be an integer in [{least}, {most}], got {value!r}")
    return value


def _snapped_pow(n: int, alpha: float) -> float:
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"a level exponent must lie in [0, 1], got {alpha}")
    check_count("n", n, 1)
    t = float(n) ** alpha
    r = round(t)
    if abs(t - r) < _SNAP * max(1.0, abs(t)):
        return float(r)
    return t


def ceil_pow(n: int, alpha: float) -> int:
    """ceil(n**alpha) with integer snapping."""
    return math.ceil(_snapped_pow(n, alpha))


def floor_pow(n: int, alpha: float) -> int:
    """floor(n**alpha) with integer snapping."""
    return math.floor(_snapped_pow(n, alpha))


def check_window(alpha: float, beta: float) -> None:
    if not (0.0 <= alpha < beta <= 1.0):
        raise ValueError(f"window exponents must satisfy 0 <= alpha < beta <= 1, got ({alpha}, {beta})")


def window(n: int, alpha: float, beta: float) -> tuple[int, int]:
    """(lo, hi): the levels n**alpha <= k < n**beta are lo..hi-1, 1 <= lo <= hi <= n."""
    check_window(alpha, beta)
    return ceil_pow(n, alpha), ceil_pow(n, beta)


def cuts(n: int, alpha: float, beta: float) -> tuple[int, int]:
    """(m, M) = (floor(n**alpha), floor(n**beta)): L_hat's cuts, 1 <= m <= M <= n."""
    check_window(alpha, beta)
    return floor_pow(n, alpha), floor_pow(n, beta)


def check_interval(a: float, b: float) -> tuple[float, float]:
    if not 0 < a < b:
        raise ValueError(f"need 0 < a < b, got ({a}, {b})")
    return a, b
