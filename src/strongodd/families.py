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

Every value is one count.  C(n), the number of cycle colors, is the least
number of odd classes that cover C_n when each class is independent in
C_n^2, and:

    Wheel(n)               ->  1 + C(n)
    JoinCycleEmpty(n, m)   ->  C(n) + 1 if m is odd, C(n) + 2 if m is even
    BipyramidUnion(m, n)   ->  C(m) + C(n) + 1

``_cycle_colors`` carries the counting argument for the lower bound, and
the constructions below attain it (``wheel_cycle_pattern`` uses exactly
C(n) colors on the cycle).  A hub set shares one color when it is odd (odd
in every cycle vertex's neighborhood); an even one needs a second color to
restore odd counts.  In a glued bipyramid the two cycles use disjoint
palettes because the shared apex sees both, each inner apex reuses a color
from the opposite cycle, and the shared apex needs one fresh color.

Worked out by residue, C(n) is the paper's piecewise count: n for n <= 8,
6 for n = 14, and otherwise 3 for n = 3 (mod 6), 4 for n = 0, 2 or 4
(mod 6) and 5 for n = 1 or 5 (mod 6).
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
    if isinstance(spec, Wheel):
        c = _cycle_colors(spec.n)
        return Formula(1 + c, f"1 + C({spec.n}) = 1 + {c}")
    if isinstance(spec, JoinCycleEmpty):
        c, h = _cycle_colors(spec.n), 2 - spec.m % 2
        return Formula(c + h, f"C({spec.n}) + {h} = {c} + {h}")
    if isinstance(spec, BipyramidUnion):
        a, b = _cycle_colors(spec.m), _cycle_colors(spec.n)
        return Formula(a + b + 1, f"C({spec.m}) + C({spec.n}) + 1 = {a} + {b} + 1")
    raise UnsupportedFamilyError(f"no closed form for family {spec!r}")


def _cycle_colors(n: int) -> int:
    """C(n): the least number of colors on the cycle of a wheel or join of size n.

    A cycle vertex v sees v - 1, v + 1 and the hubs, whose colors are not on
    the cycle, so v - 1 and v + 1 differ: every cycle color class is
    independent in C_n^2 and holds at most floor(n/3) vertices.  The hub
    sees every cycle vertex, so every class is odd, and holds at most s, the
    largest odd number <= floor(n/3).  The class sizes are odd and sum to n,
    so there are at least ceil(n/s) of them, and their number has the
    parity of n.  C(n) is the least such number, and ``wheel_cycle_pattern``
    attains it for every n.
    """
    s = (n // 3 - 1) | 1
    t = -(-n // s)
    return t + (t - n) % 2


def wheel_cycle_pattern(n: int) -> tuple[int, ...]:
    """Colors for the cycle vertices of a wheel, in cycle order.

    Uses exactly C(n) = formula(Wheel(n)).value - 1 colors, every used color
    class has odd size, and any two cycle vertices at distance <= 2 differ,
    which together make the wheel coloring strong odd once the hub takes a
    fresh color.  Where C(n) < n the pattern is q blocks ``1 2 3`` (q odd),
    the first b of which (b = 0 or odd, the least that fits) carry a ``4``,
    and the colors above 4 (above 3 when b = 0) once each, after the last
    4-block, or at the end when b = 0.  Then C(n) is 3, 4 or 5, or 6 at
    n = 14, and b = 5 always fits if no smaller b does.
    """
    if type(n) is not int or n < 3:
        raise InvalidParameterError(f"cycle pattern needs an int n >= 3, got {n!r}")
    c = _cycle_colors(n)
    if c == n:
        return tuple(range(1, n + 1))
    for b in (0, 1, 3, 5):
        extra = tuple(range(5 if b else 4, c + 1))
        q, r = divmod(n - b - len(extra), 3)
        if r == 0 and q % 2 == 1 and q >= b:
            if b == 0:
                return (1, 2, 3) * q + extra
            return (1, 2, 3, 4) * b + extra + (1, 2, 3) * (q - b)
    raise InternalError(f"internal error: no cycle pattern with {c} colors for n = {n}")


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
