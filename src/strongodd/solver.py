"""Exact strong odd chromatic number by parity-aware backtracking.

The decision procedure colors vertices in a fixed order (default: descending
degree, ties by index) and breaks color symmetry canonically: the vertex at
position i may only use colors up to 1 + (largest color used so far).  Since
relabeling colors permutes color classes without changing any class size,
restricting to canonical assignments loses no solutions, so an exhausted
search is a genuine refutation.

The strong odd condition at a vertex v only closes once N(v) is fully
colored, so eager per-assignment checks would be unsound.  Instead the
search keeps, per vertex v, over its colored neighbors:

* ``cnt[v]``: how often each color appears;
* ``odd[v]`` and ``present[v]``: bit masks of the colors that appear an odd
  number of times and at all (bit c stands for color c), so the positive
  even classes are ``present & ~odd`` and the lowest of them is one bit
  operation away;
* ``evp[v]``: the number of positive even classes;
* ``unc[v]`` and ``last[v]``: the number of uncolored neighbors and the xor
  of their ids, which is the last uncolored neighbor when one is left.

It prunes on six sound rules:

* counting: each uncolored neighbor can repair at most one even class, so a
  vertex with more positive even classes than uncolored neighbors is dead
  (with zero uncolored neighbors this is exactly the full condition);
* forcing: a vertex with one uncolored neighbor left and exactly one even
  class pins that neighbor to the even class's color, so that neighbor may
  take no other color and is dead when the pinned color already appears
  beside it;
* exclusion: a vertex with one uncolored neighbor left and no even class
  forbids that neighbor every color currently present around the vertex;
* no fresh color: once all k colors are in use, a vertex with one uncolored
  neighbor left and no even class is dead unless some color is absent both
  around the vertex and beside that neighbor;
* parity: a vertex v with r uncolored neighbors and e positive even classes
  is dead when r - e is odd and at most one of the colors 1..k is absent
  around it.  Every final class is empty or odd, so the remaining
  neighbors add an odd count to each even class, an even count to each odd
  class and an empty or odd count to each absent color; summed, r - e has
  the parity of the number of absent colors they use.  An odd r - e thus
  needs one absent color for the neighbors, and v's own color, which
  properness keeps absent around v whether v is colored yet or not, is a
  second one;
* dependence: for distinct non-isolated vertices a, b and c with
  N(a) ^ N(b) = N(c), no color may be present around all three.  Over
  GF(2) the three neighborhoods sum to zero, so every vertex sees none or
  two of a, b and c, and a color's counts around them sum to twice the
  number of its vertices that see any of them, an even number.  In a
  strong odd coloring each of those counts is 0 or odd, so it has the
  parity of the color being present, and the color is present around an
  even number of the three, never all of them.  In a one-point union of
  bipyramids the two x apexes and the shared y form such a triple, and
  the rule is the disjoint-palette argument for the two cycles.

Properness is enforced by the candidate set.  All six rules are applied in
one place, before assignment: for the vertex u to be colored, ``options``
returns the colors tried (properness, the canonical cap, and forcing and
exclusion from neighbors that u completes) and the viable subset whose
assignment keeps every rule true at every neighbor of u, read off the masks
without changing any state.  Only coloring a neighbor of v changes v's
state, and ``options`` checks every such step, so no rule needs checking
anywhere else.  For parity that check is one condition: a color already
present around v leaves both the parity of r - e and the absent colors as
they were, so only a color absent around v, taken while r - e is even, can
break the rule, and it does when at most two colors are absent around v
before it.  ``options`` evaluates it only where it can bite: elsewhere
r - e is odd, or forcing or counting already confines u to the colors
present around v.  For dependence, a color only ever becomes present
around a vertex, never absent again while the search descends, so a state
that breaks the rule stays broken and it suffices to refuse the step that
makes a color present around the last of the three.  That step colors a
vertex u seeing two of them, and the color is already present around the
third, which u does not see; ``_dependent_triples`` lists those third
members per vertex once per graph, one per class of twins, within the
time budget (``chromatic_strong_odd`` shares the list across its
``decide_k`` calls), and ``options`` kills the colors present around
them.  Every tried color is one search node, counted in
ascending order, whether the search descends into it or the rules had
already killed it; dead colors are counted in bulk by popcount.  The search
runs on an explicit stack, one frame per colored vertex, so its depth is
not limited by Python's recursion limit.  Every yes answer is re-checked
through the public verifier before it is returned.

``brute_force_so`` is the independent oracle: it enumerates canonical color
assignments outright and re-checks each complete one with ``is_strong_odd``,
sharing none of the pruning above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import monotonic, perf_counter
from typing import Iterator, NamedTuple

from .coloring import Coloring, is_strong_odd
from .errors import InternalError, InvalidParameterError
from .graphs import Graph


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
        if self.max_nodes is not None and self.max_nodes < 1:
            raise InvalidParameterError("max_nodes must be >= 1")
        # written so that nan fails too: a nan or inf deadline never trips
        if self.max_seconds is not None and not 0 < self.max_seconds < math.inf:
            raise InvalidParameterError("max_seconds must be positive and finite")


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
    if order == "index":
        return list(range(g.n))
    if isinstance(order, (list, tuple)):
        if sorted(order) != list(range(g.n)):
            raise InvalidParameterError("explicit order must be a permutation of the vertices")
        return list(order)
    raise InvalidParameterError(f"unknown vertex order {order!r}")


def _dependent_triples(g: Graph, deadline: float | None = None) -> list[tuple[int, ...]] | tuple[()] | None:
    """The dependent triples of g, listed per vertex.

    A dependent triple is a set {a, b, c} of distinct non-isolated vertices
    with N(a) ^ N(b) = N(c).  Every vertex sees none or two of a triple's
    members; entry u lists, for each triple of which u sees two members,
    the third one, named by the lowest vertex with its neighborhood.
    Returns an empty tuple when g has no triple, and None when the
    ``monotonic()`` deadline passes first.

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
    nbs = list(map(frozenset, adj))
    # the lowest vertex of each twin class, by neighborhood
    rep: dict[frozenset[int], int] = {}
    for v, s in enumerate(nbs):
        if s:
            rep.setdefault(s, v)
    deg = list(map(len, adj))
    third: dict[int, set[int]] = {}
    for s, c in rep.items():
        if deadline is not None and monotonic() > deadline:
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


def decide_k(g: Graph, k: int, budget: Budget | None = None, order="degree", *, _third=None) -> DecideResult:
    """Decide whether g has a strong odd coloring with at most k colors.

    Returns yes with a verified witness, no after exhausting the canonical
    search space, or timeout when the budget runs out first.  ``_third`` is
    ``_dependent_triples(g)``, passed by ``chromatic_strong_odd`` so that
    its calls share one enumeration.
    """
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    if g.n == 0:
        raise InvalidParameterError("decide_k requires a nonempty graph")
    # the canonical cap never reaches a color above n, so a larger k would
    # only make the per-vertex counters longer
    k = min(k, g.n)
    # the clock and the deadline cover the triple enumeration as well
    t0 = perf_counter()
    deadline = monotonic() + budget.max_seconds if budget and budget.max_seconds else None
    seq = _vertex_order(g, order)
    n = g.n
    adj = g.adj
    third = _dependent_triples(g, deadline) if _third is None else _third
    if third is None:
        return DecideResult("timeout", None, 0, perf_counter() - t0, "max-seconds")
    color = [0] * n
    cnt = [[0] * (k + 1) for _ in range(n)]
    odd = [0] * n  # colors on an odd number of colored neighbors
    present = [0] * n  # colors on at least one colored neighbor
    evp = [0] * n  # positive even color classes among colored neighbors
    unc = [len(a) for a in adj]
    last = [0] * n  # xor of the uncolored neighbors' ids
    for v in range(n):
        x = 0
        for w in adj[v]:
            x ^= w
        last[v] = x
    full = (2 << k) - 2  # colors 1..k
    max_nodes = budget.max_nodes if budget else None

    def options(u: int, maxused: int) -> tuple[int, int]:
        """Masks (tried, viable) of colors for u, read off the state without
        changing it.  tried holds the colors allowed by properness, the
        canonical cap, and the rules of neighbors whose last uncolored
        neighbor is u; viable holds those that also keep every rule true
        at every neighbor once u has them."""
        cap = maxused + 1 if maxused < k else k
        # colors after which no fresh color is left for later vertices
        nofresh = full if maxused >= k else 1 << k
        tried = ((2 << cap) - 2) & ~present[u]
        allowed = -1
        for v in adj[u]:
            r = unc[v]
            e = evp[v]
            if r == 1:
                # forcing: u must repair v's one even class; exclusion: with
                # none, u must avoid every color around v (e <= r always)
                tried &= present[v] & ~odd[v] if e else ~present[v]
            elif r == 2:
                # after u, w is the last uncolored neighbor of v
                p = present[v]
                pw = present[last[v] ^ u]
                if e == 2:
                    # counting: u repairs one even class; forcing: w then
                    # needs the other one, so it must not appear beside w
                    ev = p & ~odd[v]
                    lo = ev & -ev
                    hi = ev ^ lo
                    allowed &= (0 if hi & pw else lo) | (0 if lo & pw else hi)
                elif e == 1:
                    # forcing: a color new to v leaves the even class for w;
                    # no fresh color: repairing it leaves w needing a color
                    # absent around v and beside w; counting kills odd colors
                    ev = p & ~odd[v]
                    a = ev if full & ~p & ~pw else ev & ~nofresh
                    if not ev & pw:
                        a |= ~p
                    allowed &= a
                else:
                    # parity: a color new to v makes r - e odd, so it must
                    # leave two colors absent around v, which at most two
                    # absent now cannot; no fresh color: a color new to v
                    # leaves w needing a
                    # different color absent around v and beside w; forcing:
                    # a color already at v turns even and is forced on w,
                    # which must not see it, from u included
                    absent = full & ~p
                    free = absent & ~pw
                    absent &= absent - 1
                    if not absent & (absent - 1):
                        a = 0
                    elif not free:
                        a = ~p & ~nofresh
                    elif free & (free - 1):
                        a = ~p
                    else:
                        a = ~p & ~(nofresh & free)
                    if u not in adj[last[v] ^ u]:
                        a |= p & ~pw
                    allowed &= a
            elif e == r:
                # counting: only repairing an even class keeps v alive
                allowed &= present[v] & ~odd[v]
            elif e == r - 1:
                # counting: an odd color would add an even class
                allowed &= ~odd[v]
            elif not (r - e) & 1:
                # parity: a color new to v would make r - e odd, which needs
                # two colors absent around v after it, so with at most two
                # absent now only the present colors stay
                absent = full & ~present[v]
                absent &= absent - 1
                if not absent & (absent - 1):
                    allowed &= present[v]
        if third:
            # dependence: u sees the other two members of each triple of a
            # listed z, so a color present around z would then be present
            # around all three
            for z in third[u]:
                allowed &= ~present[z]
        return tried, tried & allowed

    nodes = 0
    # node count at which the budget is next looked at: just past max_nodes,
    # or the next multiple of 256 when there is a deadline
    limit = max_nodes + 1 if max_nodes is not None else 1 << 62
    check = min(limit, 256) if deadline is not None else limit
    reason = None
    found = False
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
            if monotonic() > deadline:
                reason = "max-seconds"
                break
            check = min(limit, (nodes | 255) + 1)
        if cb:
            c = cb.bit_length() - 1
            color[u] = c
            for v in adj[u]:
                cv = cnt[v]
                x = cv[c]
                cv[c] = x + 1
                if not x:
                    present[v] |= cb
                elif x & 1:
                    evp[v] += 1
                else:
                    evp[v] -= 1
                odd[v] ^= cb
                unc[v] -= 1
                last[v] ^= u
            stack.append((u, tried, viable, maxused))
            if len(stack) == n:
                found = True
                break
            if c > maxused:
                maxused = c
            u = seq[len(stack)]
            tried, viable = options(u, maxused)
        elif stack:
            u, tried, viable, maxused = stack.pop()
            c = color[u]
            cb = 1 << c
            for v in adj[u]:
                cv = cnt[v]
                x = cv[c] - 1
                cv[c] = x
                if not x:
                    present[v] ^= cb
                elif x & 1:
                    evp[v] -= 1
                else:
                    evp[v] += 1
                odd[v] ^= cb
                unc[v] += 1
                last[v] ^= u
            color[u] = 0
        else:
            break
    elapsed = perf_counter() - t0
    if reason is not None:
        return DecideResult("timeout", None, nodes, elapsed, reason)
    if not found:
        return DecideResult("no", None, nodes, elapsed)
    witness = Coloring(color)
    if not is_strong_odd(g, witness) or len(witness.palette) > k:
        raise InternalError("internal error: search produced an invalid witness")
    return DecideResult("yes", witness, nodes, elapsed)


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
        size = 1
        cand = set(adj[seed])
        while cand:
            size += 1
            cand.intersection_update(adj[max(cand, key=rank.__getitem__)])
        if size > best:
            best = size
    return best


def _remaining(budget: Budget | None, nodes_used: int, t0: float) -> Budget | None | str:
    """Budget left for the next decision call, or the exhaustion reason."""
    if budget is None:
        return None
    max_nodes = None
    max_seconds = None
    if budget.max_nodes is not None:
        max_nodes = budget.max_nodes - nodes_used
        if max_nodes <= 0:
            return "max-nodes"
    if budget.max_seconds is not None:
        max_seconds = budget.max_seconds - (perf_counter() - t0)
        if max_seconds <= 0:
            return "max-seconds"
    return Budget(max_nodes, max_seconds)


def chromatic_strong_odd(g: Graph, budget: Budget | None = None, order="degree") -> SolveResult:
    """Exact strong odd chromatic number with a verified witness.

    Scans k upward from a greedy clique lower bound, so the exact status
    always rests on a refutation at value - 1 (or on the lower bound
    itself).  The trivial all-distinct coloring pins the initial upper
    bound at |V|; on budget exhaustion the verified bounds found so far
    are returned, never a guess.
    """
    if g.n == 0:
        raise InvalidParameterError("chromatic_strong_odd requires a nonempty graph")
    t0 = perf_counter()
    deadline = monotonic() + budget.max_seconds if budget and budget.max_seconds else None
    lower = max(1, _clique_lower_bound(g))
    upper = g.n
    all_distinct = Coloring(range(1, g.n + 1))
    third = _dependent_triples(g, deadline)
    if third is None:
        return SolveResult("timeout", lower, upper, None, all_distinct, 0, perf_counter() - t0)
    nodes = 0
    k = lower
    while True:
        rem = _remaining(budget, nodes, t0)
        if isinstance(rem, str):
            status = "timeout" if rem == "max-seconds" else "bounds"
            return SolveResult(status, lower, upper, None, all_distinct, nodes, perf_counter() - t0)
        r = decide_k(g, k, rem, order, _third=third)
        nodes += r.nodes
        if r.answer == "yes":
            if len(r.witness.palette) != k:
                # cannot happen with a sound lower bound: a smaller witness
                # would contradict the refutation of k - 1
                raise InternalError("internal error: exact witness palette differs from value")
            return SolveResult("exact", k, k, k, r.witness, nodes, perf_counter() - t0)
        if r.answer == "no":
            lower = k + 1
            k += 1
            continue
        status = "timeout" if r.reason == "max-seconds" else "bounds"
        return SolveResult(status, lower, upper, None, all_distinct, nodes, perf_counter() - t0)


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
