"""Closed-form strong odd chromatic values and the matching constructive colorings.

Three families are covered: wheels (cycle plus one universal hub), cycles
joined with an edgeless hub set, and two bipyramids glued at one apex.  Each
``*_formula`` returns the closed-form value; each ``*_coloring`` builds an
explicit coloring that attains it and re-checks itself through the verifier
before returning, so a construction bug can never escape silently.  Each
``*_formula_case`` (``wheel_formula_case``, ``join_formula_case``,
``union_formula_case``) returns the value together with the text of the
case that produced it, as ``strongodd formula`` prints it and the
certificate notes record it.

The wheel value is piecewise in n:

    n <= 8            ->  n + 1    (distinct colors everywhere)
    n = 14            ->  7
    n = 3 (mod 6)     ->  4
    n = 0,2,4 (mod 6) ->  5        (n > 8, n != 14)
    n = 1,5 (mod 6)   ->  6        (n > 8)

The join value adds 1 to the wheel value exactly when the hub set has even
size: an odd hub set can share one color (odd in every cycle vertex's
neighborhood), an even one needs a second color to restore odd counts.  The
glued-bipyramid value is wheel(m) + wheel(n) - 1: the two cycles must use
disjoint palettes because the shared apex sees both, each inner apex can
reuse a color from the opposite cycle, and the shared apex needs one fresh
color.
"""

from __future__ import annotations

from .coloring import Coloring, is_strong_odd
from .errors import InternalError, InvalidParameterError
from .graphs import BipyramidUnion, JoinCycleEmpty, Wheel, build


def wheel_formula_case(n: int) -> tuple[int, str]:
    """Wheel value together with the piecewise case that produced it."""
    if n < 3:
        raise InvalidParameterError(f"wheel needs n >= 3, got {n}")
    if n <= 8:
        return n + 1, "n <= 8"
    if n == 14:
        return 7, "n = 14"
    r = n % 6
    if r == 3:
        return 4, "n = 3 (mod 6)"
    if r in (0, 2, 4):
        return 5, "n = 0, 2 or 4 (mod 6), n > 8, n != 14"
    return 6, "n = 1 or 5 (mod 6), n > 8"


def wheel_formula(n: int) -> int:
    return wheel_formula_case(n)[0]


def join_formula_case(n: int, m: int) -> tuple[int, str]:
    if n < 3:
        raise InvalidParameterError(f"join formula needs cycle length n >= 3, got {n}")
    if m < 1:
        raise InvalidParameterError(f"join formula needs hub count m >= 1, got {m}")
    base = wheel_formula(n)
    if m % 2 == 1:
        return base, "m odd"
    return base + 1, "m even"


def join_formula(n: int, m: int) -> int:
    return join_formula_case(n, m)[0]


def union_formula_case(m: int, n: int) -> tuple[int, str]:
    """Glued-bipyramid value together with the wheel values it sums."""
    if m < 3 or n < 3:
        raise InvalidParameterError(f"union formula needs m, n >= 3, got ({m}, {n})")
    a, b = wheel_formula(m), wheel_formula(n)
    return a + b - 1, f"wheel({m}) + wheel({n}) - 1 = {a} + {b} - 1"


def union_formula(m: int, n: int) -> int:
    return union_formula_case(m, n)[0]


def wheel_cycle_pattern(n: int) -> tuple[int, ...]:
    """Colors for the cycle vertices of a wheel, in cycle order.

    Uses exactly wheel_formula(n) - 1 colors, every used color class has odd
    size, and any two cycle vertices at distance <= 2 differ, which together
    make the wheel coloring strong odd once the hub takes a fresh color.
    """
    if n < 3:
        raise InvalidParameterError(f"cycle pattern needs n >= 3, got {n}")
    if n <= 8:
        return tuple(range(1, n + 1))
    if n == 14:
        return (1, 2, 3, 4) * 3 + (5, 6)
    r = n % 6
    if r == 3:
        return (1, 2, 3) * (n // 3)
    if r == 4:
        return (1, 2, 3) * (n // 3) + (4,)
    if r == 5:
        return (1, 2, 3) * ((n - 2) // 3) + (4, 5)
    if r == 0:
        return (1, 2, 3, 4) * 3 + (1, 2, 3) * ((n - 12) // 3)
    if r == 1:
        return (1, 2, 3, 4) * 3 + (5,) + (1, 2, 3) * ((n - 13) // 3)
    # r == 2, n >= 20 here since n = 14 was handled above
    return (1, 2, 3, 4) * 5 + (1, 2, 3) * ((n - 20) // 3)


def _verified(g, colors, expected: int) -> Coloring:
    c = Coloring(colors)
    if len(c.palette) != expected or not is_strong_odd(g, c):
        raise InternalError(
            f"internal error: constructed coloring failed verification on {g!r} "
            f"(palette {len(c.palette)}, expected {expected})"
        )
    return c


def wheel_coloring(n: int) -> Coloring:
    """A verified strong odd coloring of build(Wheel(n)) with wheel_formula(n) colors."""
    pattern = wheel_cycle_pattern(n)
    hub = max(pattern) + 1
    return _verified(build(Wheel(n)), pattern + (hub,), wheel_formula(n))


def join_coloring(n: int, m: int) -> Coloring:
    """A verified coloring of build(JoinCycleEmpty(n, m)) with join_formula(n, m) colors.

    The cycle takes the wheel pattern; an odd hub set shares one new color,
    an even hub set gives one hub a second new color so both hub colors
    appear an odd number of times in every cycle vertex's neighborhood.
    """
    if m < 1:
        raise InvalidParameterError(f"join coloring needs m >= 1, got {m}")
    pattern = wheel_cycle_pattern(n)
    a = max(pattern)
    if m % 2 == 1:
        hubs = (a + 1,) * m
    else:
        hubs = (a + 1,) * (m - 1) + (a + 2,)
    return _verified(build(JoinCycleEmpty(n, m)), pattern + hubs, join_formula(n, m))


def union_coloring(m: int, n: int) -> Coloring:
    """A verified coloring of build(BipyramidUnion(m, n)) with union_formula(m, n) colors.

    The two cycles use disjoint palettes (the shared apex is adjacent to
    both, so a color on both sides would reach it an even number of times),
    each inner apex borrows a color from the opposite cycle, and the shared
    apex gets the single fresh color.
    """
    colors = _union_colors(m, n)
    return _verified(build(BipyramidUnion(m, n)), colors, union_formula(m, n))


def _union_colors(m: int, n: int) -> list[int]:
    """The colors ``union_coloring`` assigns, in vertex order, unverified.

    Callers that already hold the built graph judge these colors on it
    themselves instead of building a second copy.
    """
    if m < 3 or n < 3:
        raise InvalidParameterError(f"union coloring needs m, n >= 3, got ({m}, {n})")
    first = wheel_cycle_pattern(m)
    second = wheel_cycle_pattern(n)
    a = max(first)
    b = max(second)
    colors = list(first)
    colors.append(a + 1)          # x apex of the first part
    colors.append(a + b + 1)      # shared y apex
    colors.extend(p + a for p in second)
    colors.append(1)              # x apex of the second part
    return colors
