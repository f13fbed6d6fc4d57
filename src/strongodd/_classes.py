"""Strong odd chromatic number from odd classes.

An odd class is an independent set S such that every vertex sees none, one,
three, five, ... members of S.  The color classes of a strong odd coloring
are odd classes, and every partition of V into odd classes colors g strong
odd, so the strong odd chromatic number is the least number of odd classes
that partition V: the set-partitioning view of coloring (Mehrotra and Trick,
INFORMS J. Computing 8, 1996), with "odd" in place of "independent".

``odd_classes`` lists the independent sets with bit masks and keeps the odd
ones of at least two vertices (every singleton is one).  A completed
listing bounds the value from below in two ways.  ``parity_bound`` reads a
neighborhood N(x) of d vertices: each color on it meets it in an odd
number of vertices, at most the largest share s(x) of N(x) that one class
holds, so N(x) needs at least d / s(x) colors, their number has d's parity,
and x needs one more.  ``least_partition`` starts from the pair bound, a
clique of vertices that pairwise share no class, and looks for a least
partition by branch and bound; ``decide_by_classes`` turns one into a
verified coloring.  The listing and the partition search stop early, at
limits a caller may lower, so they pay only on graphs with few independent
sets, such as dense ones, where the coloring search is slowest.
``listable`` tells at once whether the listing can complete, so a caller
can leave the classes out where they cannot help.

Both steps are bit arithmetic in plain loops, since helper calls, not the
masks, cost the most in Python: a set's members and candidates are vertex
masks walked with ``x & -x`` and ``bit_length``, and the partition search
holds a set of classes as a mask over their indices, so taking a class,
counting a vertex's classes and listing its branches are one mask operation
each.  Both look at a caller's ``perf_counter()`` deadline.
"""

from __future__ import annotations

from time import perf_counter

from .coloring import Coloring, is_strong_odd
from .errors import InternalError
from .graphs import Graph

MAX_SETS = 4_096  # independent sets the listing may visit
MAX_NODES = 1_024  # states the partition search may enter


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def listable(g: Graph, max_sets: int = MAX_SETS) -> bool:
    """Whether the listing of odd_classes can complete on g within max_sets
    sets.  It visits every singleton and every independent pair, so not when
    g has more than max_sets vertices and non-edges."""
    return g.n + g.n * (g.n - 1) // 2 - g.edge_count <= max_sets


def odd_classes(g: Graph, deadline: float | None = None, max_sets: int = MAX_SETS) -> list[int] | None:
    """The odd classes of g with at least two vertices, as bit masks, or None
    when the listing would visit more than max_sets independent sets or the
    ``perf_counter()`` deadline passes first.

    Each visited set S keeps two masks over its members' neighborhoods: the
    vertices that see any member and those that see an odd number of them.
    S is odd when they agree.  A vertex seeing a positive even number of
    members needs one more, so S is not extended once such a vertex has no
    neighbor among the candidates.  No singleton is cut off that way, so every
    independent pair is visited, and a graph that is not ``listable`` is given
    up at once.  The sets are visited depth first, a set's extensions by its
    lowest candidate first."""
    if not listable(g, max_sets) or deadline is not None and perf_counter() > deadline:
        return None
    n = g.n
    nb = [sum(1 << w for w in a) for a in g.adj]
    full = (1 << n) - 1
    classes = []
    # (members, seen by any, seen by an odd number, candidates): the
    # candidates are the vertices above the last member beside none of them
    stack = [(1 << v, nb[v], nb[v], full & (-2 << v) & ~nb[v]) for v in range(n - 1, -1, -1)]
    listed = 0
    while stack:
        s, seen, odd, cand = stack.pop()
        listed += 1
        if listed > max_sets:
            return None
        if not listed & 255 and deadline is not None and perf_counter() > deadline:
            return None
        even = seen & ~odd
        if not even:
            if s & (s - 1):
                classes.append(s)
        else:
            # S ends at a vertex of even with no neighbor among the candidates
            while even:
                low = even & -even
                if not nb[low.bit_length() - 1] & cand:
                    break
                even ^= low
            if even:
                continue
        # highest candidate first, so the lowest is on top
        above = 0
        while cand:
            v = cand.bit_length() - 1
            low = 1 << v
            cand ^= low
            a = nb[v]
            stack.append((s | low, seen | a, odd ^ a, above & ~a))
            above |= low
    return classes


def _clique(share: list[int], left: int) -> int:
    """The size of a greedy clique among the vertices of left, two of them
    joined when no class within left holds both; share[v] is the union of
    the classes within left that hold v.  The members need distinct parts.
    From each seed in descending degree, the next member is the candidate
    of highest degree, then lowest index."""
    apart, deg = {}, {}
    rest = left
    while rest:
        low = rest & -rest
        v = low.bit_length() - 1
        apart[v] = a = left & ~share[v]
        deg[v] = a.bit_count()
        rest ^= low
    best = 0
    for seed in sorted(deg, key=deg.__getitem__, reverse=True):
        if deg[seed] < best:  # no clique through it or a later seed beats best
            break
        size, cand = 1, apart[seed]
        while cand:
            size += 1
            most, rest = -1, cand
            while rest:
                low = rest & -rest
                v = low.bit_length() - 1
                if deg[v] > most:
                    pick, most = v, deg[v]
                rest ^= low
            cand &= apart[pick]
        if size > best:
            best = size
    return best


def least_partition(
    n: int, classes: list[int], lower: int, deadline: float | None = None, max_states: int = MAX_NODES
) -> tuple[int, list[int] | None]:
    """A lower bound on the parts of any partition of the n vertices into
    the given classes and singletons, at least lower, and a least such
    partition as masks, or None when max_states states do not find one or
    the ``perf_counter()`` deadline, looked at in every state, passes first.

    The classes are indexed largest first, and a set of them is a mask over
    their indices: ``holds[v]`` has the classes that hold vertex v,
    ``meets[i]`` those that meet class i, itself included, and ``pairs[v]``
    those that hold both v and w, for each w in a class with v.  Branch and
    bound on an explicit stack of the states still to enter, so its depth is
    not limited by Python's recursion limit.  A state is the uncovered vertices,
    the parts taken and the classes within the uncovered vertices; an entry
    holds the state's classes, its parent's other two and the part the state
    takes (0 at the first state), and the state is formed when the entry is
    popped.  It takes every uncovered vertex in none of its classes as a
    singleton.  The rest need at least as many more parts as a greedy clique
    of vertices that pairwise share none of them; at the first state, that
    and the singletons are the pair bound, from the pairs that share no class
    at all.  A state that cannot beat the best partition found is dropped;
    otherwise it branches on the uncovered vertex in the fewest classes:
    those classes, largest first, then the vertex alone, pushed in reverse so
    they are entered in that order.  A partition that meets the bound ends
    the search."""
    classes = sorted(classes, key=int.bit_count, reverse=True)
    holds, near = [0] * n, [0] * n  # near[v]: the vertices in a class with v
    for i, c in enumerate(classes):
        for v in _bits(c):
            holds[v] |= 1 << i
            near[v] |= c
    meets = []
    for c in classes:
        m = 0
        for v in _bits(c):
            m |= holds[v]
        meets.append(m)
    pairs = [[(1 << w, holds[v] & holds[w]) for w in _bits(near[v] & ~(1 << v))] for v in range(n)]
    best = [1 << v for v in range(n)]
    bound, nodes = lower, 0
    stack = [((1 << n) - 1, [], (1 << len(classes)) - 1, 0)]  # (uncovered, parts taken, classes, part to take)
    while stack:
        left, taken, usable, c = stack.pop()
        if c:
            left, taken = left & ~c, taken + [c]
        nodes += 1
        if nodes > max_states or deadline is not None and perf_counter() > deadline:
            return bound, None
        share = [0] * n
        forced = fewest = least = 0
        rest = left
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            rest ^= low
            mine = usable & holds[v]
            if not mine:
                forced |= low
                continue
            count = mine.bit_count()
            if not least or count < least:
                fewest, least = v, count
            union = low
            for w, both in pairs[v]:
                if mine & both:
                    union |= w
            share[v] = union
        if forced:
            left &= ~forced
            taken = taken + [1 << v for v in _bits(forced)]
        need = len(taken) + _clique(share, left)
        if nodes == 1:
            bound = max(bound, need)
        if not left:
            if len(taken) < len(best):
                best = taken
                if len(best) <= bound:
                    return bound, best
        elif need < len(best):
            stack.append((left, taken, usable & ~holds[fewest], 1 << fewest))
            options = usable & holds[fewest]
            while options:
                i = options.bit_length() - 1
                options ^= 1 << i
                stack.append((left, taken, usable & ~meets[i], classes[i]))
    return bound, best


def parity_bound(g: Graph, classes: list[int]) -> int:
    """A lower bound on the strong odd chromatic number of g from its odd
    classes of at least two vertices, as listed by odd_classes.

    Take a vertex x of degree d >= 1 and a strong odd coloring.  Each color
    on N(x) meets it in an odd number of vertices, all in one color class,
    which is an odd class, so at most s(x) of them: the most vertices of
    N(x) that a listed class holds, or 1, a singleton's share, when none
    holds two.  So t, the number of colors on N(x), is at least d / s(x),
    and as a sum of t odd numbers d has t's parity.  x's own color is not
    among them, so the coloring has at least t + 1 colors."""
    best = 1
    for x, a in enumerate(g.adj):
        d = len(a)
        if d < best:  # t + 1 <= d + 1 <= best
            continue
        nb = sum(1 << w for w in a)
        s = 1
        for c in classes:
            m = (c & nb).bit_count()
            if m > s:
                s = m
        t = -(-d // s)
        t += (d - t) & 1
        if t + 1 > best:
            best = t + 1
    return best


def decide_by_classes(
    g: Graph, classes: list[int] | None, lower: int, deadline: float | None = None, max_states: int = MAX_NODES
) -> tuple[int, Coloring | None]:
    """(value, witness) or (lower bound, None) for g from its listing of odd
    classes, given lower, a known lower bound such as the least k the
    coloring search has not refuted.

    The pair is the value of g with a verified witness when least_partition
    finds a least partition within max_states states, the pair bound (at
    least lower) with None when it runs out, and lower itself with None
    when classes is None, a listing that did not complete.  A value below
    lower contradicts the bounds behind it and raises InternalError."""
    if classes is None:
        return lower, None
    bound, parts = least_partition(g.n, classes, lower, deadline, max_states)
    if parts is None:
        return bound, None
    if len(parts) < lower:
        raise InternalError("internal error: odd classes beat a refutation")
    colors = [0] * g.n
    # colors numbered in the order of their first vertex
    for i, part in enumerate(sorted(parts, key=lambda p: p & -p), 1):
        for v in _bits(part):
            colors[v] = i
    witness = Coloring(colors)
    if not is_strong_odd(g, witness):
        raise InternalError("internal error: odd classes produced an invalid witness")
    return len(parts), witness
