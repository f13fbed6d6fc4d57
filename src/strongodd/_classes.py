"""The bit-mask engine of the odd classes: their listing, the parity and
pair bounds they give, and least partitions into them.

An odd class is an independent set S such that every vertex sees none, one,
three, five, ... members of S.  The color classes of a strong odd coloring
are odd classes, and every partition of V into odd classes colors g strong
odd, so the strong odd chromatic number is the least number of odd classes
that partition V: the set-partitioning view of coloring (Mehrotra and Trick,
INFORMS J. Computing 8, 1996), with "odd" in place of "independent".

``odd_classes`` lists the independent sets with bit masks and keeps the odd
ones of at least two vertices (every singleton is one).  With none of
them, every color class is a singleton and the value is n, so
``has_odd_class`` asks just that, first by looking for an independent pair
with no common neighbor, itself an odd class, and then by the listing
itself, stopped at its first class; a listing that completes without one
decides the value.  A completed listing bounds the value from below in
two ways.  ``parity_bound`` reads a neighborhood N(x) of d vertices: each
color on it meets it in an odd number of vertices, at most the largest
share s(x) of N(x) that one class holds, so N(x) needs at least d / s(x)
colors, their number has d's parity, and x needs one more.
``least_partition`` starts from the pair bound, a clique of vertices that
pairwise share no class, and from the bound its caller gives it, and looks
for a least partition by branch and bound; ``part_colors`` colors the
vertices by one.  The engine returns masks, bounds and colors and checks
no witness: ``solver.chromatic_strong_odd`` raises its lower bound to the
parity bound before the partition search, and passes the partition's
coloring through the solver's one witness check.  The listing and the
partition search stop early, at fixed limits, so they pay only on graphs
with few independent sets, such as dense ones, where the coloring search
is slowest.  ``listable`` tells at once whether the listing can complete,
so a caller can leave the classes out where they cannot help.

Both steps are bit arithmetic in plain loops, since helper calls, not the
masks, cost the most in Python: a set's members and candidates are vertex
masks walked with ``x & -x`` and ``bit_length``, and the partition search
holds a set of classes as a mask over their indices, so taking a class,
counting a vertex's classes and listing its branches are one mask operation
each.  Both look at a caller's ``perf_counter()`` deadline.
"""

from __future__ import annotations

from time import perf_counter

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


def listable(g: Graph) -> bool:
    """Whether the listing of odd_classes can complete on g within MAX_SETS
    sets.  It visits every singleton and every independent pair, so not when
    g has more than MAX_SETS vertices and non-edges."""
    return g.n + g.n * (g.n - 1) // 2 - g.edge_count <= MAX_SETS


def _odd_pair(g: Graph) -> bool:
    """Whether g has an odd class of two vertices: an independent pair with
    no common neighbor, that is a vertex beyond distance two of another.
    Each vertex's ball of radius two is grown a row at a time, and a row is
    added only while the ball is short of V."""
    n = g.n
    adj = g.adj
    for u, a in enumerate(adj):
        near = {u, *a}
        for w in a:
            if len(near) == n:
                break
            near.update(adj[w])
        if len(near) < n:
            return True
    return False


def has_odd_class(g: Graph, deadline: float | None = None) -> bool | None:
    """Whether g has an odd class of at least two vertices, or None when the
    listing gives up first, past MAX_SETS sets or the ``perf_counter()``
    deadline.  An odd pair answers at once; otherwise the listing stops at
    the first class it meets, so False is a completed listing with no class
    in it."""
    if _odd_pair(g):
        return True
    first = odd_classes(g, deadline, 1)
    return None if first is None else bool(first)


def odd_classes(g: Graph, deadline: float | None = None, most: int | None = None) -> list[int] | None:
    """The odd classes of g with at least two vertices, as bit masks in the
    order they are visited, only the first ``most`` of them when it is given,
    or None when the listing would visit more than MAX_SETS independent sets
    or the ``perf_counter()`` deadline passes first.

    Each visited set S keeps two masks over its members' neighborhoods: the
    vertices that see any member and those that see an odd number of them.
    S is odd when they agree.  A vertex seeing a positive even number of
    members needs one more, so S is not extended once such a vertex has no
    neighbor among the candidates.  No singleton is cut off that way, so every
    independent pair is visited, and a graph that is not ``listable`` is given
    up at once.  The sets are visited depth first, a set's extensions by its
    lowest candidate first.  The deadline is looked at before the first set
    and every 256 sets."""
    if not listable(g) or deadline is not None and perf_counter() > deadline:
        return None
    n = g.n
    nb = [sum(1 << w for w in a) for a in g.adj]
    full = (1 << n) - 1
    # (members, seen by any, seen by an odd number, candidates): the
    # candidates are the vertices above the last member beside none of them
    stack = [(1 << v, nb[v], nb[v], full & (-2 << v) & ~nb[v]) for v in range(n - 1, -1, -1)]
    classes = []
    listed = 0
    while stack:
        s, seen, odd, cand = stack.pop()
        listed += 1
        if listed > MAX_SETS or not listed & 255 and deadline is not None and perf_counter() > deadline:
            return None
        even = seen & ~odd
        if not even:
            if s & (s - 1):
                classes.append(s)
                if len(classes) == most:
                    return classes
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


def _clique(shares: list[tuple[int, int]], left: int) -> int:
    """The size of a greedy clique among the vertices of left, two of them
    joined when no class within left holds both; shares pairs each vertex
    of left, in ascending order, with the union of the classes within left
    that hold it.  The members need distinct parts.  From each seed in
    descending degree, the next member is the candidate of highest degree,
    then lowest index."""
    apart, deg = {}, {}
    for v, share in shares:
        apart[v] = a = left & ~share
        deg[v] = a.bit_count()
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
    n: int, classes: list[int], lower: int, deadline: float | None = None
) -> tuple[int, list[int] | None]:
    """A lower bound on the parts of any partition of the n vertices into
    the given classes and singletons, at least lower, and a least such
    partition as masks, or None when MAX_NODES states do not find one or
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
        if nodes > MAX_NODES or deadline is not None and perf_counter() > deadline:
            return bound, None
        shares = []  # (v, the union of v's classes) for each v not forced
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
            shares.append((v, union))
        if forced:
            left &= ~forced
            taken = taken + [1 << v for v in _bits(forced)]
        need = len(taken) + _clique(shares, left)
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


def part_colors(n: int, parts: list[int]) -> list[int]:
    """The colors of the n vertices that a partition, as masks, gives them:
    1, 2, ... in the order of each part's lowest vertex."""
    colors = [0] * n
    for i, part in enumerate(sorted(parts, key=lambda p: p & -p), 1):
        for v in _bits(part):
            colors[v] = i
    return colors
