"""Closed-form strong odd chromatic values and the matching constructive colorings.

Three families are covered, each named by its spec: ``Wheel(n)`` (cycle
plus one universal hub), ``JoinCycleEmpty(n, m)`` (cycle joined with an
edgeless hub set) and ``BipyramidUnion(m, n)`` (two bipyramids glued at one
apex).  ``formula(spec)`` returns the closed-form value together with the
text of the case that produced it, as ``strongodd formula`` prints it and
the certificate notes record it.  ``coloring_for(spec)`` builds an explicit
coloring that attains the value and re-checks it through the verifier
before returning, so a construction bug can never escape silently.  The
spec has already checked the sizes; any other spec raises
UnsupportedFamilyError.

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

from typing import NamedTuple

from .coloring import Coloring, is_strong_odd
from .errors import InternalError, InvalidParameterError, UnsupportedFamilyError
from .graphs import BipyramidUnion, FamilySpec, JoinCycleEmpty, Wheel, build


class Formula(NamedTuple):
    value: int
    case: str


def formula(spec: FamilySpec) -> Formula:
    """Closed-form value of a Wheel, JoinCycleEmpty or BipyramidUnion, with its case."""
    if isinstance(spec, JoinCycleEmpty):
        base = formula(Wheel(spec.n)).value
        return Formula(base, "m odd") if spec.m % 2 == 1 else Formula(base + 1, "m even")
    if isinstance(spec, BipyramidUnion):
        m, n = spec.m, spec.n
        a, b = formula(Wheel(m)).value, formula(Wheel(n)).value
        return Formula(a + b - 1, f"wheel({m}) + wheel({n}) - 1 = {a} + {b} - 1")
    if not isinstance(spec, Wheel):
        raise UnsupportedFamilyError(f"no closed form for family {spec!r}")
    n = spec.n
    if n <= 8:
        return Formula(n + 1, "n <= 8")
    if n == 14:
        return Formula(7, "n = 14")
    r = n % 6
    if r == 3:
        return Formula(4, "n = 3 (mod 6)")
    if r in (0, 2, 4):
        return Formula(5, "n = 0, 2 or 4 (mod 6), n > 8, n != 14")
    return Formula(6, "n = 1 or 5 (mod 6), n > 8")


def wheel_cycle_pattern(n: int) -> tuple[int, ...]:
    """Colors for the cycle vertices of a wheel, in cycle order.

    Uses exactly formula(Wheel(n)).value - 1 colors, every used color class
    has odd size, and any two cycle vertices at distance <= 2 differ, which
    together make the wheel coloring strong odd once the hub takes a fresh
    color.
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


def coloring_for(spec: FamilySpec) -> Coloring:
    """A verified strong odd coloring of build(spec) with formula(spec).value colors.

    A wheel's or join's cycle takes the wheel pattern.  An odd hub set (the
    wheel's single hub included) shares one new color; an even hub set gives
    one hub a second new color so both hub colors appear an odd number of
    times in every cycle vertex's neighborhood.  For a BipyramidUnion see
    ``_union_colors``.
    """
    expected = formula(spec).value  # raises UnsupportedFamilyError for other families
    if isinstance(spec, BipyramidUnion):
        colors = _union_colors(spec.m, spec.n)
    else:
        pattern = wheel_cycle_pattern(spec.n)
        hub = max(pattern) + 1
        m = spec.m if isinstance(spec, JoinCycleEmpty) else 1
        hubs = (hub,) * m if m % 2 == 1 else (hub,) * (m - 1) + (hub + 1,)
        colors = pattern + hubs
    c = Coloring(colors)
    g = build(spec)
    if len(c.palette) != expected or not is_strong_odd(g, c):
        raise InternalError(
            f"internal error: constructed coloring failed verification on {g!r} "
            f"(palette {len(c.palette)}, expected {expected})"
        )
    return c


def _union_colors(m: int, n: int) -> list[int]:
    """The colors ``coloring_for(BipyramidUnion(m, n))`` assigns, in vertex order, unverified.

    The two cycles use disjoint palettes (the shared apex is adjacent to
    both, so a color on both sides would reach it an even number of times),
    each inner apex borrows a color from the opposite cycle, and the shared
    apex gets the single fresh color.  Callers that already hold the built
    graph judge these colors on it themselves instead of building a second
    copy.
    """
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
