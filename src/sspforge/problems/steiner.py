"""Steiner tree: edge-universe trees spanning all terminals within a
cost budget.

The enumerator attaches terminals one by one along simple paths and then
grows optional non-terminal branches.  The attach walk moves from junction
to junction: a run of degree-2 non-terminal vertices is one step, since the
tree holds such a vertex only together with its whole run.  It prunes on
the budget plus a lower bound built from disjoint balls around the
unreached terminals.  The bound depends only on the vector of each
terminal's distance to the partial tree, and the walk meets the same few
vectors many times, so each call interns them: every distinct vector gets
a small id and its bound is computed once, and a step from vector a to
vertex y is one int-keyed lookup of the child's id.  A step that ends in
the tree leaves every distance unchanged and keeps its vector.  A vector
is one int with a field per terminal, each one bit wider than the largest
distance, so the fieldwise minimum of two vectors takes a fixed number of
whole-int operations, with the spare top bit of each field stopping the
borrows (Lamport, "Multiple byte processing with full-word instructions",
CACM 1975).  Each terminal's ball table, and its field of every vertex's
vector, is filled as Dijkstra settles the vertices.
Branches grow from the cut of the tree, the edges with exactly one
endpoint in it, kept as a bitmask and updated by one xor per added
vertex.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from ..core import Capped, FormatError
from .graphs import _check_edges
from .numbers import _masked_sum


@dataclass(frozen=True)
class SteinerTreeInstance:
    universe = "edges"
    n: int
    edges: tuple[tuple[int, int], ...]
    costs: tuple[int, ...]
    terminals: tuple[int, ...]
    k: int

    def __post_init__(self):
        if len(self.costs) != len(self.edges):
            raise FormatError("costs must align with edges")
        if not self.terminals:
            raise FormatError("need at least one terminal")
        if not all(0 <= t < self.n for t in self.terminals):
            raise FormatError(f"terminal out of range in {self.terminals}")
        _check_edges(self.n, self.edges)
        if any(c < 0 for c in self.costs):
            raise FormatError("negative edge cost")

    def cost(self, mask: int) -> int:
        return _masked_sum(self.costs, mask)

    def is_terminal_tree(self, mask: int) -> bool:
        """True iff mask is a tree (connected forest) whose span contains
        every terminal; a single terminal is connected by the empty tree."""
        used = [self.edges[i] for i in range(len(self.edges)) if mask >> i & 1]
        parent = list(range(self.n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        touched = set()
        for u, v in used:
            touched.add(u)
            touched.add(v)
            ru, rv = find(u), find(v)
            if ru == rv:
                return False  # cycle
            parent[ru] = rv
        if not used:
            return len(set(self.terminals)) == 1
        if any(t not in touched for t in self.terminals):
            return False
        root = find(self.terminals[0])
        return all(find(x) == root for x in touched)

    def verify(self, mask: int) -> bool:
        return self.cost(mask) <= self.k and self.is_terminal_tree(mask)


def steiner_trees_upto(inst: SteinerTreeInstance, budget: int, cap) -> list[int]:
    """All edge sets forming a terminal-spanning tree of cost <= budget.

    Trees whose leaves are all terminals are generated by attaching each
    terminal in index order to the growing tree along a simple path (the
    decomposition is unique, so each such tree appears once).  Trees with
    non-terminal branches are grown from those bases afterwards with a
    pivot discipline, again uniquely.
    """
    if budget < 0:
        return []
    n, edges, costs = inst.n, inst.edges, inst.costs
    terminals = tuple(dict.fromkeys(inst.terminals))
    adj = [[] for _ in range(n)]
    for i, (u, v) in enumerate(edges):
        adj[u].append((i, v))
        adj[v].append((i, u))
    out = Capped(cap)

    inc = [0] * n
    for i, (u, v) in enumerate(edges):
        inc[u] |= 1 << i
        inc[v] |= 1 << i

    # Lower bound on the cost still to add.  Let P be the partial tree (the
    # tree plus the path being walked) and x a terminal outside it.  The
    # final tree joins x to P by a path whose part within distance r of x,
    # for any r <= d(x, P), costs at least r and uses only edges with an
    # endpoint closer than r to x, none of them in P.  Such balls around
    # several terminals, taken with disjoint edge sets, add up.  Each
    # terminal claims the largest radius up to d(x, P) whose ball misses
    # the balls already claimed.
    inf = sum(costs) + 1
    # A vector of distances, one per terminal, is kept as one int with a
    # w-bit field per terminal, field j at bit j * w.  Every distance is at
    # most inf < 2 ** (w - 1), so the top bit of each field is a free guard
    # bit; H masks the guard bits.
    w = inf.bit_length() + 1
    top = w - 1
    fm = (1 << top) - 1
    H = 0
    for j in range(len(terminals)):
        H |= 1 << j * w + top
    # dist[y]: the distances from the terminals to vertex y; each field
    # holds inf until Dijkstra from its terminal settles y
    dist = [(H >> top) * inf] * n
    balls = []
    for j, x in enumerate(terminals):
        shift = j * w
        col = [inf] * n
        col[x] = 0
        heap = [(0, x)]
        # radius -> (edges with an endpoint closer than it, next smaller
        # radius), filled as Dijkstra settles the vertices in distance order
        ball, inside, prev = {}, 0, 0
        while heap:
            d, u = heapq.heappop(heap)
            if d > col[u]:
                continue
            if d > prev:
                ball[d] = (inside, prev)
                prev = d
            inside |= inc[u]
            dist[u] -= (inf - d) << shift
            for i, y in adj[u]:
                if d + costs[i] < col[y]:
                    col[y] = d + costs[i]
                    heapq.heappush(heap, (d + costs[i], y))
        balls.append(ball)
    # terminals close to another one claim first: their balls are small
    order = sorted(
        range(len(terminals)),
        key=lambda j: min(
            (dist[y] >> j * w & fm for y in terminals if y != terminals[j]),
            default=inf,
        ),
    )
    claims = [(j * w, balls[j]) for j in order]

    def remaining_lb(near):
        # field j of near: the distance from terminal j to P, 0 for the
        # terminals in P, which need no more edges
        total = used = 0
        for shift, ball in claims:
            r = near >> shift & fm
            if not r:
                continue
            if r == inf:
                return inf  # unreachable: no tree completes this one
            eset, smaller = ball[r]
            while eset & used and smaller:
                r = smaller
                eset, smaller = ball[r]
            if not eset & used:
                total += r
                used |= eset
        return total

    # The bound depends on `near` alone, and a walk meets few distinct
    # vectors many times over.  Each distinct vector gets an id, its bound
    # is computed once, and the step from vector a to vertex y, whose
    # vector is min(a, dist[y]) field by field, is kept under the key
    # a * n + y.
    near_ids = {}
    near_of = []  # id -> vector
    lb_of = []  # id -> remaining_lb(vector)
    moves = {}

    def intern(near):
        a = near_ids.get(near)
        if a is None:
            a = near_ids[near] = len(near_of)
            near_of.append(near)
            lb_of.append(remaining_lb(near))
        return a

    def move(a, y):
        # the fieldwise minimum in a few whole-int operations: (A | H) - B
        # borrows within each field only, and field j keeps its guard bit
        # exactly when a_j >= b_j; g - (g >> top) widens each kept guard
        # bit into a mask of its field's value bits, where B is taken
        A, B = near_of[a], dist[y]
        g = ((A | H) - B) & H
        b = moves[a * n + y] = intern(A ^ ((A ^ B) & (g - (g >> top))))
        return b

    def extensions(tree_v, mask, cost, cut, banned):
        # the caller emitted `mask`; grow it edge by edge, branching on the
        # smallest frontier edge (include vs ban) so every tree is created
        # exactly once.  `cut` holds the edges with exactly one endpoint in
        # the tree, so the frontier is `cut & ~banned`
        free = cut & ~banned
        if not free:
            return
        pivot = (free & -free).bit_length() - 1
        if cost + costs[pivot] <= budget:
            out.append(mask | 1 << pivot)
            u, v = edges[pivot]
            grow = v if tree_v >> u & 1 else u
            extensions(
                tree_v | 1 << grow,
                mask | 1 << pivot,
                cost + costs[pivot],
                cut ^ inc[grow],
                banned,
            )
        extensions(tree_v, mask, cost, cut, banned | 1 << pivot)

    # the attach walk stands only on terminals and vertices of degree other
    # than 2; a degree-2 non-terminal is in the tree only together with its
    # whole chain, so a walk that enters a chain always runs through it,
    # and the distance to a chain's inside is at least that to its ends
    inner = [len(adj[x]) == 2 for x in range(n)]
    for x in terminals:
        inner[x] = False
    steps = [[] for _ in range(n)]
    for x in range(n):
        if inner[x]:
            continue
        for i, y in adj[x]:
            vm, em, c = 0, 1 << i, costs[i]
            while inner[y]:
                vm |= 1 << y
                i, y = next(e for e in adj[y] if e[0] != i)
                em |= 1 << i
                c += costs[i]
            steps[x].append((y, vm | 1 << y, em, c))

    def attach_next(tree_v, mask, cost, a, i):
        # a: the id of the terminals' distances to the tree; terminals[:i]
        # are in the tree.  Callers check the bound while the next terminal
        # is still out
        while i < len(terminals) and tree_v >> terminals[i] & 1:
            i += 1
        if i == len(terminals):
            out.append(mask)
            cut = 0
            tv = tree_v
            while tv:
                low = tv & -tv
                cut ^= inc[low.bit_length() - 1]
                tv ^= low
            extensions(tree_v, mask, cost, cut, 0)
            return
        t = terminals[i]
        b = moves.get(a * n + t)
        if b is None:
            b = move(a, t)

        def dfs(cur, pv, pmask, pcost, a):
            lb = lb_of[a]
            for y, vm, em, c in steps[cur]:
                if pv >> y & 1:
                    continue
                if tree_v >> y & 1:
                    # every tree vertex outside a chain was a path start or
                    # a step end, so dist[y] is already folded into the
                    # distances: the step keeps vector a and its bound
                    if cost + pcost + c + lb <= budget:
                        attach_next(
                            tree_v | pv | vm,
                            mask | pmask | em,
                            cost + pcost + c,
                            a,
                            i + 1,
                        )
                    continue
                b = moves.get(a * n + y)
                if b is None:
                    b = move(a, y)
                if cost + pcost + c + lb_of[b] <= budget:
                    dfs(y, pv | vm, pmask | em, pcost + c, b)

        try:
            dfs(t, 1 << t, 0, 0, b)
        finally:
            del dfs

    # the searches recurse through their own closure cells; emptying the
    # cells frees the tables now instead of at a later cyclic collection
    try:
        attach_next(1 << terminals[0], 0, 0, intern(dist[terminals[0]]), 1)
    finally:
        del attach_next, extensions
    out.sort()
    return out
