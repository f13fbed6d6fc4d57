"""Exact strong odd chromatic number by parity-aware backtracking.

The decision procedure colors vertices in a fixed order (descending degree,
ties by index, unless an explicit permutation is given) and breaks color
symmetry canonically: the vertex at position i may only use colors up to
1 + (largest color used so far).  Since relabeling colors permutes color
classes without changing any class size, restricting to canonical
assignments loses no solutions, so an exhausted search is a genuine
refutation.

The strong odd condition at a vertex v only closes once N(v) is fully
colored, so eager per-assignment checks would be unsound.  Instead the
search keeps, per vertex v, over its colored neighbors:

* ``cnt[c][v]``: how often color c appears;
* ``odd[v]`` and ``present[v]``: bit masks of the colors that appear an odd
  number of times and at all (bit c stands for color c), so the positive
  even classes are ``present & ~odd``, their number e is the popcount of
  present & ~odd, and the lowest of them is one bit operation away;
* ``tc[cls[v]]``, tc(v) for short: the colors on the colored members of
  v's class of twins, the vertices with v's neighborhood (v included;
  twins are never adjacent), which ``cls[v]`` names by its lowest vertex;
* three tables per vertex u, fixed by the order since the colored vertices
  are always a prefix of it.  They list each neighbor v of u by r, the
  number of v's uncolored neighbors when u is colored: ``ones[u]`` the v
  with r = 1, ``twos[u]`` the v with r = 2, with the other one, w, and
  whether u is beside w, and ``many[u]`` the v with r >= 2 at which
  counting or parity can still act.  With d = deg(v) - r colored
  neighbors, counting needs d >= 2r - 1: it acts when e = r, and the even
  classes then hold at least 2r of them, or when e = r - 1 and an odd
  class, whose color it forbids, holds one more.  Parity needs at most one
  color absent around v outside tc(v), or besides v's own, while at least
  k - d colors are absent and tc(v) holds at most s(v), the size of v's
  class, so it needs k <= d + 1 + s(v).  An entry that meets neither bound
  is left out, and as k only grows over the searches of a plan, it stays out.

It prunes on seven rules:

* counting: each uncolored neighbor can repair at most one even class, so a
  vertex with more positive even classes than uncolored neighbors is dead
  (with zero uncolored neighbors this is exactly the full condition);
* forcing: a vertex with one uncolored neighbor left and exactly one even
  class pins that neighbor to the even class's color, so that neighbor may
  take no other color and is dead when the pinned color already appears
  beside it;
* exclusion: a vertex with one uncolored neighbor left and no even class
  forbids that neighbor every color currently present around the vertex;
* parity: a vertex v with r uncolored neighbors and e positive even classes
  is dead when r - e is odd and at most one of the colors 1..k is absent
  around it.  Every final class is empty or odd, so the remaining
  neighbors add an odd count to each even class, an even count to each odd
  class and an empty or odd count to each absent color; summed, r - e has
  the parity of the number of absent colors they use.  An odd r - e thus
  needs one absent color for the neighbors, and v's own color, which
  properness keeps absent around v whether v is colored yet or not, is a
  second one;
* twin parity: once a member of v's class of twins is colored, v is dead
  when r - e is odd and every color absent around v is in tc(v).  Each
  neighbor of v sees the whole class, so it can take no color of tc(v),
  and the one absent color an odd r - e needs must lie outside it.  When v
  is colored and has no twin, tc(v) is v's color and the rule is parity;
* dependence: for distinct non-isolated vertices a, b and c with
  N(a) ^ N(b) = N(c), no color may be present around all three.  Over
  GF(2) the three neighborhoods sum to zero, so every vertex sees none or
  two of a, b and c, and a color's counts around them sum to twice the
  number of its vertices that see any of them, an even number.  In a
  strong odd coloring each of those counts is 0 or odd, so it has the
  parity of the color being present, and the color is present around an
  even number of the three, never all of them.  In a one-point union of
  bipyramids the two x apexes and the shared y form such a triple, and
  the rule is the disjoint-palette argument for the two cycles;
* twin order: twins take nondecreasing colors in the vertex order.
  Swapping the colors of two twins keeps a coloring strong odd, and so
  does relabeling the colors.  Among the colorings that these moves make
  of one another, the lexicographically least in the vertex order obeys
  both this order and the canonical cap, so together they lose no
  solution.  Like the cap, the rule narrows the colors tried.

Properness is enforced by the candidate set.  All seven rules are applied
in one place, before assignment: for the vertex u to be colored,
``options`` returns the colors tried (properness, the canonical cap, the
twin order, and forcing and exclusion from neighbors that u completes) and
the viable subset whose assignment keeps every rule true at every neighbor
of u and in u's own class of twins, read off the masks without changing
any state.  Coloring a neighbor of v changes v's counts, coloring a twin of
v (or v) changes tc(v), and nothing else changes v's state; ``options``
checks every such step, so counting, parity, twin parity and dependence
need no check anywhere else.  At a neighbor v the parity check is one
condition: a color already present around v leaves both the parity of
r - e and the absent colors as they were, so only a color absent around v,
taken while r - e is even, can break the rule.  It does when at most two
colors are absent around v before it or, with a member of v's class
colored, at most one outside tc(v).  ``options`` evaluates it only where it can bite:
elsewhere r - e is odd, or forcing or counting already confines u to the
colors present around v.  In u's own class r - e stays as it is and u's
color joins tc(u), so with r - e odd that color must not be the last one
absent around u outside tc(u).  The first member of a class to be colored
needs no such check: parity already keeps a second color absent around it.
By the twin order, u's color is new to its class unless the twin colored
just before has it, so tc keeps no count per color.  Graphs without twins
skip all of this twin work.  For dependence, a color only
ever becomes present around a vertex, never absent again while the search
descends, so a state that breaks the rule stays broken and it suffices to
refuse the step that makes a color present around the last of the three.
That step colors a vertex u seeing two of them, and the color is already
present around the third, which u does not see; ``_dependent_triples``
lists those third members per vertex once per graph, one per class of
twins, within the time budget, and ``options`` kills the colors present
around them.

``options`` first makes tried final: the twin order and, from ``ones``,
forcing and exclusion.  Every later step (twin parity in u's class, the
look-ahead from ``twos``, dependence, then counting and parity from
``many``) only narrows the viable colors, so it returns as soon as none is
left, with the same masks as if it had gone on.

When v has r = 2, ``options`` also applies forcing and exclusion one step
early, at w, the neighbor of v still uncolored after u: w must keep a
color, the even class u leaves or, with none left, one absent around v, and
not one beside w.  Unused colors are absent everywhere, so this needs no
test for all k colors being in use.  It is checked once, when u is colored;
a color that appears beside w later is caught at w's own step by the r = 1
rule on the tried colors.  Each color it keeps leaves v at most one even
class, so it implies counting at v, and ``many`` lists v with r = 2 only
for parity.

Every tried color is one search node, counted in ascending order, whether
the search descends into it or the rules had already killed it; dead colors
are counted in bulk by popcount.  The search runs on an explicit stack, one
frame per colored vertex, so its depth is not limited by Python's recursion
limit.  Every yes answer is re-checked through the public verifier before
it is returned.

``_plan`` sets up the order, the twin classes, the triples and the three
tables once; ``_search`` decides one k on them from no colored vertex.
``decide_k`` is one plan and one search, and ``chromatic_strong_odd`` one
plan searched at k, k + 1, ... within one node budget and one deadline.

Dense graphs defeat this search: their value is near n, and every k below
it takes a long refutation.  They have few independent sets, though, so
``_classes`` gets two looks at the searches of ``chromatic_strong_odd``.  A
strong odd coloring is a partition of V into odd classes, independent sets
that every vertex sees none or an odd number of times, so a least such
partition is the value.  ``_classes`` lists the odd classes, bounds the
value from below in two ways, by the largest share of a neighborhood that
one class holds (the parity bound) and by the vertex pairs that share no
class (the pair bound), and searches for a least partition within a limit
on its states.  The early look comes once the searches have spent a
quarter of ``_CLASSES_AFTER`` nodes.  Its listing may visit 4 sets per node
spent and its partition search enter ``_EARLY_STATES`` states; dense graphs,
whose pair bound is mostly their value, decide there.  The late look comes
at ``_CLASSES_AFTER`` nodes, lists again only where the early listing gave
up, and searches with the partition search's own limit.  A look's answer
is final when the partition meets the bound or its search is exhausted;
otherwise the bounds still raise k, and the interrupted k is searched again.
Graphs the search decides within the early cut, every small one among them,
never reach it, and the cuts are set only where ``_classes.listable`` says
the listing can complete: on a graph with more than ``_classes.MAX_SETS``
vertices and non-edges, such as a long cycle, the searches run on the
caller's budget alone and a solve's node count is the sum of its searches.
So an exact value rests on a refutation at value - 1, on a lower bound, or
on an exhausted partition.

``brute_force_so`` is the independent oracle: it enumerates canonical color
assignments outright and re-checks each complete one with ``is_strong_odd``,
sharing none of the pruning above.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from time import perf_counter
from typing import Iterator, NamedTuple

# imported as a module: the benchmark's tracer wraps every function a layer
# module imports from another package module and names the span after that
# module, and _classes is part of the solver layer, not a layer of its own
from . import _classes
from .coloring import Coloring, is_strong_odd
from .errors import InternalError, InvalidParameterError
from .graphs import Graph


# nodes the searches of chromatic_strong_odd spend before the odd classes
# get their late look; the early look comes at a quarter of them
_CLASSES_AFTER = 1_000
# states the early look's partition search may enter
_EARLY_STATES = 64


@dataclass(frozen=True)
class Budget:
    """Search limits.  Passing ``budget=None`` to a solver call means unbounded.

    A Budget instance always carries at least one limit; unboundedness is
    spelled explicitly with None at the call site rather than an empty Budget.
    """

    max_nodes: int | None = None
    max_seconds: float | None = None

    def __post_init__(self):
        if self.max_nodes is None and self.max_seconds is None:
            raise InvalidParameterError("Budget needs max_nodes or max_seconds; use budget=None for unbounded")
        if self.max_nodes is not None and (type(self.max_nodes) is not int or self.max_nodes < 1):
            raise InvalidParameterError("max_nodes must be an int >= 1")
        # written so that nan fails too: a nan or inf deadline never trips
        seconds = self.max_seconds
        if seconds is not None and not (isinstance(seconds, (int, float)) and 0 < seconds < math.inf):
            raise InvalidParameterError("max_seconds must be a positive, finite int or float")


@dataclass(frozen=True)
class DecideResult:
    answer: str  # "yes" | "no" | "timeout"
    witness: Coloring | None
    nodes: int
    seconds: float
    reason: str | None = None  # "max-nodes" or "max-seconds" when answer == "timeout"


@dataclass(frozen=True)
class SolveResult:
    status: str  # "exact" | "bounds" | "timeout"
    lower: int
    upper: int
    value: int | None
    witness: Coloring | None
    nodes: int
    seconds: float


class ValueWitness(NamedTuple):
    value: int
    witness: Coloring


def _vertex_order(g: Graph, order) -> list[int]:
    if order == "degree":
        # the sort is stable, so ties stay in index order
        return sorted(range(g.n), key=[len(a) for a in g.adj].__getitem__, reverse=True)
    if isinstance(order, (list, tuple)):
        if any(type(v) is not int for v in order) or sorted(order) != list(range(g.n)):
            raise InvalidParameterError("explicit order must be a permutation of the vertices")
        return list(order)
    raise InvalidParameterError(f"unknown vertex order {order!r}")


TwinClasses = tuple[list[frozenset[int]], dict[frozenset[int], int]]


def _twin_classes(g: Graph) -> TwinClasses:
    """Each vertex's neighborhood, and the lowest vertex with each
    neighborhood of a non-isolated vertex, which names its class of twins.
    Twins are never adjacent: a vertex beside its twin would be its own
    neighbor."""
    nbs = list(map(frozenset, g.adj))
    rep: dict[frozenset[int], int] = {}
    for v, s in enumerate(nbs):
        if s:
            rep.setdefault(s, v)
    return nbs, rep


def _dependent_triples(
    g: Graph, classes: TwinClasses, deadline: float | None = None
) -> list[tuple[int, ...]] | tuple[()] | None:
    """The dependent triples of g, listed per vertex.

    A dependent triple is a set {a, b, c} of distinct non-isolated vertices
    with N(a) ^ N(b) = N(c).  Every vertex sees none or two of a triple's
    members; entry u lists, for each triple of which u sees two members,
    the third one, named by the lowest vertex with its neighborhood.
    ``classes`` is ``_twin_classes(g)``.  Returns an empty tuple when g has
    no triple, and None when the ``perf_counter()`` deadline passes first.

    Twins, vertices with the same neighborhood, always have the same colors
    around them, and no triple holds two of them (their neighborhoods xor
    to nothing), so the triples are enumerated on the lowest vertex of each
    twin class.  Each vertex w beside c sees exactly one of a and b, so a
    triple is found from its member c of highest degree, the member a
    beside c's lowest-degree neighbor w, and b looked up by N(a) ^ N(c).
    That xor takes at most 2 deg(c) steps, and the pairs (a, c) stay
    linear in the size of cycles, wheels and unions.
    """
    adj = g.adj
    nbs, rep = classes
    deg = list(map(len, adj))
    third: dict[int, set[int]] = {}
    for s, c in rep.items():
        if deadline is not None and perf_counter() > deadline:
            return None
        for a in adj[min(s, key=deg.__getitem__)]:
            if a == c or deg[a] > deg[c] or rep[nbs[a]] != a:
                continue
            b = rep.get(nbs[a] ^ s)
            if b is None:
                continue
            # each vertex beside a is beside exactly one of b and c as well;
            # the vertices beside both b and c are the rest
            beside_b = nbs[b]
            for u in adj[a]:
                third.setdefault(u, set()).add(c if u in beside_b else b)
            for u in adj[c]:
                if u in beside_b:
                    third.setdefault(u, set()).add(a)
    if not third:
        return ()
    out: list[tuple[int, ...]] = [()] * g.n
    for u, zs in third.items():
        out[u] = tuple(sorted(zs))
    return out


def decide_k(g: Graph, k: int, budget: Budget | None = None, order="degree") -> DecideResult:
    """Decide whether g has a strong odd coloring with at most k colors.

    Returns yes with a verified witness, no after exhausting the canonical
    search space, or timeout when the budget runs out first.
    """
    if type(k) is not int or k < 1:
        raise InvalidParameterError(f"k must be an int >= 1, got {k!r}")
    if g.n == 0:
        raise InvalidParameterError("decide_k requires a nonempty graph")
    t0 = perf_counter()
    deadline = t0 + budget.max_seconds if budget and budget.max_seconds else None
    # the canonical cap never reaches a color above n, so a larger k would
    # only make the per-vertex counters longer
    k = min(k, g.n)
    plan = _plan(g, order, k, deadline)
    if plan is None:
        return DecideResult("timeout", None, 0, perf_counter() - t0, "max-seconds")
    return _search(plan, k, budget.max_nodes if budget else None, deadline, t0)


def _plan(g: Graph, order, k: int, deadline: float | None) -> tuple | None:
    """The search plan for g in the given order, fit for k and every larger
    k: the tuple (g, seq, cls, prev, after, third, ones, twos, many), or
    None when the ``perf_counter()`` deadline passes while the triples are
    listed.

    seq is the vertex order and third the triples per vertex.  With twins,
    prev[v] is v's twin just before it in seq, or -1, and after[v] counts
    v's neighbors after it; without, cls, prev and after are None.  Each
    table holds one plain list per vertex, empty where nothing acts: ones[u]
    lists the v with r = 1, twos[u] holds (v, w, whether u is beside w), and
    many[u] holds (t, v, r), t being the largest k at which counting or
    parity can act at v: n, which k never passes, when d >= 2r - 1 and r > 2
    (the look-ahead implies counting at r = 2), else d + 1 + s(v).  Rows of
    many leave out entries with t < k and are sorted by t, highest first,
    so a search at a larger k pops their tails.
    """
    seq = _vertex_order(g, order)
    n = g.n
    adj = g.adj
    classes = _twin_classes(g)
    third = _dependent_triples(g, classes, deadline)
    if third is None:
        return None
    pos = sorted(range(n), key=seq.__getitem__)  # pos[v]: v's index in seq
    nbs, rep = classes
    cls = prev = after = None
    if len(rep) < n - nbs.count(frozenset()):
        cls = [rep.get(s, v) for v, s in enumerate(nbs)]
        prev = [-1] * n
        size = [0] * n  # size[cls[v]]: the vertices of v's class
        latest: dict[int, int] = {}
        for v in seq:
            prev[v] = latest.get(cls[v], -1)
            latest[cls[v]] = v
            size[cls[v]] += 1
        after = [sum(pos[w] > pos[v] for w in a) for v, a in enumerate(adj)]
    # on long sparse graphs the neighborhoods outweigh the tables
    del classes, nbs, rep
    ones: list[list[int]] = [[] for _ in range(n)]
    twos: list[list[tuple[int, int, bool]]] = [[] for _ in range(n)]
    many: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for v, a in enumerate(adj):
        deg = len(a)
        if not deg:
            continue
        if deg > 2:
            a = sorted(a, key=pos.__getitem__)
            u, w = a[-2:]
        elif deg == 2:
            u, w = a
            if pos[u] > pos[w]:
                u, w = w, u
        else:
            w = a[0]
        ones[w].append(v)
        if deg == 1:
            continue
        aw = adj[w]  # sorted by vertex
        i = bisect_left(aw, u)
        twos[u].append((v, w, i < len(aw) and aw[i] == u))
        s = size[cls[v]] if cls else 1
        if deg - 1 + s >= k:
            many[u].append((deg - 1 + s, v, 2))
        # past r = 2, d falls and r grows along the row, so both bounds
        # only get harder
        for d in range(deg - 3, -1, -1):
            r = deg - d
            if d >= 2 * r - 1:
                t = n
            elif d + 1 + s >= k:
                t = d + 1 + s
            else:
                break
            many[a[d]].append((t, v, r))
    for row in many:
        row.sort(reverse=True)
    return g, seq, cls, prev, after, third, ones, twos, many


def _search(plan: tuple, k: int, max_nodes: int | None, deadline: float | None, t0: float) -> DecideResult:
    """Decide k on a plan fit for k, from no colored vertex, within max_nodes
    nodes and the ``perf_counter()`` deadline; the result's seconds run from
    t0.  Rows of many are first trimmed to k in place, which keeps the plan
    fit for every larger k."""
    g, seq, cls, prev, after, third, ones, twos, many = plan
    n = g.n
    adj = g.adj
    twins = cls is not None
    for row in many:
        while row and row[-1][0] < k:
            row.pop()
    color = [0] * n
    cnt = [[0] * n for _ in range(k + 1)]  # cnt[c][v]: v's neighbors colored c
    odd = [0] * n  # colors on an odd number of colored neighbors
    present = [0] * n  # colors on at least one colored neighbor
    tc = [0] * n  # tc[cls[v]]: the colors on the colored members of v's class
    full = (2 << k) - 2  # colors 1..k

    def options(u: int, maxused: int) -> tuple[int, int]:
        """Masks (tried, viable) of colors for u, read off the state without
        changing it.  tried holds the colors allowed by properness, the
        canonical cap, the twin order and the rules of neighbors whose last
        uncolored neighbor is u; viable holds those that also keep every
        rule true at every neighbor and in u's class once u has them.

        tried is final before viable is narrowed, and each later step only
        narrows viable, so the loops stop once no color is viable."""
        cap = maxused + 1 if maxused < k else k
        tried = ((2 << cap) - 2) & ~present[u]
        if twins and prev[u] >= 0:
            # twin order: no color below the previous twin's
            tried &= -(1 << color[prev[u]])
        for v in ones[u]:
            # forcing: u must repair v's one even class; exclusion: with
            # none, u must avoid every color around v (e <= r always)
            p = present[v]
            ev = p & ~odd[v]
            tried &= ev if ev else ~p
        viable = tried
        if twins and prev[u] >= 0:
            # twin parity at u's own class, whose colors u may add to: with
            # r - e odd, one color absent around u must stay out of them
            pu = present[u]
            if (after[u] - (pu & ~odd[u]).bit_count()) & 1:
                a = full & ~pu & ~tc[cls[u]]
                if not a & (a - 1):
                    viable &= ~a
        for v, w, beside in twos[u]:
            if not viable:
                return tried, 0
            # forcing and exclusion at w, v's last uncolored neighbor after
            # u; free holds the colors around neither v nor w.  Each mask
            # keeps only colors that leave v at most one even class, so
            # counting at v holds too.
            p = present[v]
            ev = p & ~odd[v]
            pw = present[w]
            free = full & ~p & ~pw
            if ev & (ev - 1):
                # e = 2: u repairs one even class and leaves w the other
                lo = ev & -ev
                hi = ev ^ lo
                viable &= (0 if hi & pw else lo) | (0 if lo & pw else hi)
            elif ev:
                # repairing the class leaves w a free color to find; a
                # color new to v leaves the class to w
                viable &= (ev if free else 0) | (0 if ev & pw else ~p)
            else:
                # a color new to v must leave w another free color; one at
                # v turns even and is forced on w, which must not see it or u
                a = 0 if not free else ~p if free & (free - 1) else ~p & ~free
                viable &= a | (0 if beside else p & ~pw)
        if third:
            # dependence: u sees the other two members of each triple of a
            # listed z, so a color present around z would then be present
            # around all three
            for z in third[u]:
                viable &= ~present[z]
        for _, v, r in many[u]:
            if not viable:
                return tried, 0
            p = present[v]
            ev = p & ~odd[v]
            e = ev.bit_count()
            if e == r:
                # counting: only repairing an even class keeps v alive
                viable &= ev
            elif e == r - 1:
                # counting: an odd color would add an even class
                viable &= ~odd[v]
            elif not (r - e) & 1:
                # parity: a color new to v would make r - e odd, which needs
                # a color absent around v after it and outside the colors of
                # v's class, and with none of that class colored yet a second
                # one for v itself; with at most one or two of them now, only
                # the present colors stay
                absent = full & ~p
                if twins and tc[cls[v]]:
                    absent &= ~tc[cls[v]]
                else:
                    absent &= absent - 1
                if not absent & (absent - 1):
                    viable &= p
        return tried, viable

    nodes = 0
    # node count at which the budget is next looked at: just past max_nodes,
    # or the next multiple of 256 when there is a deadline
    limit = max_nodes + 1 if max_nodes is not None else 1 << 62
    check = min(limit, 256) if deadline is not None else limit
    reason = None
    stack = []  # (vertex, tried left, viable left, maxused) per colored vertex
    maxused = 0
    u = seq[0]
    tried, viable = options(u, 0)
    while True:
        # every tried color is one node, counted in ascending order; the
        # dead ones below the next viable color are counted together
        if viable:
            cb = viable & -viable
            upto = (cb << 1) - 1
            nodes += (tried & upto).bit_count()
            tried &= ~upto
            viable ^= cb
        else:
            nodes += tried.bit_count()
            cb = 0
        if nodes >= check:
            if nodes >= limit:
                nodes = limit
                reason = "max-nodes"
                break
            if perf_counter() > deadline:
                reason = "max-seconds"
                break
            check = min(limit, (nodes | 255) + 1)
        if cb:
            c = cb.bit_length() - 1
            color[u] = c
            cc = cnt[c]
            for v in adj[u]:
                x = cc[v]
                cc[v] = x + 1
                if not x:
                    present[v] |= cb
                odd[v] ^= cb
            # a color new to u's class: twins in search order take
            # nondecreasing colors, so it is new unless the last twin has it
            if twins and (prev[u] < 0 or color[prev[u]] != c):
                tc[cls[u]] ^= cb
            stack.append((u, tried, viable, maxused))
            if len(stack) == n:
                break
            if c > maxused:
                maxused = c
            u = seq[len(stack)]
            tried, viable = options(u, maxused)
        elif stack:
            u, tried, viable, maxused = stack.pop()
            c = color[u]
            cb = 1 << c
            cc = cnt[c]
            for v in adj[u]:
                x = cc[v] - 1
                cc[v] = x
                if not x:
                    present[v] ^= cb
                odd[v] ^= cb
            if twins and (prev[u] < 0 or color[prev[u]] != c):
                tc[cls[u]] ^= cb
            color[u] = 0
        else:
            return DecideResult("no", None, nodes, perf_counter() - t0)
    if reason is not None:
        return DecideResult("timeout", None, nodes, perf_counter() - t0, reason)
    witness = Coloring(color)
    if not is_strong_odd(g, witness) or len(witness.palette) > k:
        raise InternalError("internal error: search produced an invalid witness")
    return DecideResult("yes", witness, nodes, perf_counter() - t0)


def _clique_lower_bound(g: Graph) -> int:
    """Size of a greedily grown clique; a valid lower bound since the
    chromatic number bounds the strong odd chromatic number from below."""
    if g.n == 0:
        return 0
    n = g.n
    adj = g.adj
    # the next member is the candidate of highest degree, then lowest index
    rank = [len(a) * n + n - 1 - v for v, a in enumerate(adj)]
    best = 1
    for seed in range(n):
        if len(adj[seed]) < best:
            # a clique through seed has at most deg + 1 <= best vertices
            continue
        size = 1
        cand = set(adj[seed])
        while cand:
            size += 1
            row = adj[max(cand, key=rank.__getitem__)]  # sorted by vertex
            if len(row) > 16 * len(cand):
                # beside a hub: look the few candidates up in its long row
                # rather than walk it
                cand = {v for v in cand if (i := bisect_left(row, v)) < len(row) and row[i] == v}
            else:
                cand.intersection_update(row)
        if size > best:
            best = size
    return best


def chromatic_strong_odd(g: Graph, budget: Budget | None = None, order="degree") -> SolveResult:
    """Exact strong odd chromatic number with a verified witness.

    Decides k upward from a greedy clique lower bound, on one plan and
    within one budget.  Where the listing of odd classes can complete
    (``_classes.listable``), the odd classes get two looks, each only when
    the searches reach its node count before the caller's budget stops
    them.  The early look, at _CLASSES_AFTER // 4 nodes, lists at most 4
    sets per node spent; the late one, at _CLASSES_AFTER nodes, reuses a
    listing that completed and otherwise lists up to ``_classes.MAX_SETS``
    sets.  A completed listing raises the lower bound to its parity bound
    (``_classes.parity_bound``), and each look then searches for a least
    partition (``_classes.decide_by_classes``), within _EARLY_STATES states
    at the early look and the partition search's own limit at the late one.
    A least partition is the value; a search that runs out raises the lower
    bound to its pair bound, and the interrupted k, or the raised bound if
    that is higher, is then searched with the rest of the budget.
    Elsewhere the searches are never cut, and the node count is the sum of
    the searches at each k.  So an exact status rests on a refutation at
    value - 1, on a lower bound (the clique, parity or pair bound), or on an
    exhausted partition.  The trivial all-distinct coloring pins the initial
    upper bound at |V|; on budget exhaustion the verified bounds found so
    far are returned, never a guess.
    """
    if g.n == 0:
        raise InvalidParameterError("chromatic_strong_odd requires a nonempty graph")
    t0 = perf_counter()
    deadline = t0 + budget.max_seconds if budget and budget.max_seconds else None
    max_nodes = budget.max_nodes if budget else None
    # the node counts at which the searches stop: first the points where the
    # classes get their looks, when their listing can complete and the
    # caller's budget does not come first, then the caller's budget
    early = _CLASSES_AFTER // 4
    cuts = [c for c in (early, _CLASSES_AFTER) if max_nodes is None or max_nodes > c] if _classes.listable(g) else []
    cuts.append(max_nodes)
    cut = cuts.pop(0)
    classes = None  # the listing, once one completes
    lower = max(1, _clique_lower_bound(g))
    plan = _plan(g, order, lower, deadline)
    nodes = 0
    reason = "max-seconds"  # kept when the deadline passes during the plan
    while plan is not None:
        # the budget is looked at before each k's first node: nodes is the
        # cut after a refutation, and one past it after a search it stopped
        if cut is not None and nodes >= cut:
            if cut == max_nodes:
                reason = "max-nodes"
                break
            # the early look lists at most 4 sets per node spent; a listing
            # that completes is kept for the late look
            sets, states = (4 * early, _EARLY_STATES) if cut == early else (_classes.MAX_SETS, _classes.MAX_NODES)
            if classes is None:
                classes = _classes.odd_classes(g, deadline, sets)
                if classes is not None:
                    lower = max(lower, _classes.parity_bound(g, classes))
            cut = cuts.pop(0)
            lower, witness = _classes.decide_by_classes(g, classes, lower, deadline, states)
            if witness is not None:
                return SolveResult("exact", lower, lower, lower, witness, nodes, perf_counter() - t0)
            continue
        if deadline is not None and perf_counter() > deadline:
            break
        r = _search(plan, lower, None if cut is None else cut - nodes, deadline, t0)
        nodes += r.nodes
        if r.answer == "yes":
            if len(r.witness.palette) != lower:
                # cannot happen with a sound lower bound: a smaller witness
                # would contradict the refutation of lower - 1
                raise InternalError("internal error: exact witness palette differs from value")
            return SolveResult("exact", lower, lower, lower, r.witness, nodes, perf_counter() - t0)
        if r.answer == "no":
            lower += 1
        elif r.reason == "max-seconds":
            break
    status = "timeout" if reason == "max-seconds" else "bounds"
    return SolveResult(status, lower, g.n, None, Coloring(range(1, g.n + 1)), nodes, perf_counter() - t0)


# ---------------------------------------------------------------------------
# Independent oracle
# ---------------------------------------------------------------------------

def _canonical_colorings(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Canonical assignments of exactly k colors to n vertices: vertex i uses
    a color at most 1 + max(colors of vertices < i)."""
    buf = [0] * n

    def rec(i: int, used: int) -> Iterator[tuple[int, ...]]:
        if k - used > n - i:
            return
        if i == n:
            if used == k:
                yield tuple(buf)
            return
        for c in range(1, used + 1):
            buf[i] = c
            yield from rec(i + 1, used)
        if used < k:
            buf[i] = used + 1
            yield from rec(i + 1, used + 1)

    yield from rec(0, 0)


def brute_force_so(g: Graph) -> ValueWitness:
    """Oracle: least k admitting a strong odd coloring, by plain enumeration.

    Every complete canonical assignment is re-checked through the public
    verifier; no solver pruning is reused.  Assignments with fewer than k
    distinct colors were already covered at a smaller k, so each round
    enumerates exactly-k assignments.  Refuses graphs with more than 10
    vertices.
    """
    if g.n == 0:
        raise InvalidParameterError("brute_force_so requires a nonempty graph")
    if g.n > 10:
        raise InvalidParameterError(f"brute_force_so refuses graphs with more than 10 vertices (got {g.n})")
    for k in range(1, g.n + 1):
        for assignment in _canonical_colorings(g.n, k):
            c = Coloring(assignment)
            if is_strong_odd(g, c):
                return ValueWitness(k, c)
    raise AssertionError("unreachable: the all-distinct coloring is always strong odd")
