"""Arc/edge-universe route problems: Hamiltonian paths and cycles, TSP,
and vertex-disjoint path systems.

Universes are the arc (edge) lists; solutions are arc masks.  The
directed searches (Hamiltonian paths, disjoint path systems) walk simple
paths from junction to junction: ``_chains`` folds every run of in- and
out-degree-1 vertices into one step, so the long chains of the reduction
gadgets cost one step each.  At every step, the path-system search checks
over those steps that the current pair and every later pair can still be
joined.  The route kinds share two searches, as the reductions between
them embed one in the next: a directed Hamiltonian cycle is a Hamiltonian
path of the graph with vertex 0 split in two, and a TSP tour is a
Hamiltonian cycle of the complete graph within a weight budget.  The
cycle search turns back where its path plus the cheapest edges it still
needs exceeds the budget.  By its degree rule (Rubin, JACM 1974), each
unvisited neighbour of the end it leaves must keep two neighbours among
the unvisited vertices and 0: it steps onto the one that would not, and
turns back where two would not.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

from ..core import Capped, FormatError, check_count, indices_of, mask_of
from .graphs import _check_edges, complete_edges
from .numbers import _masked_sum

# path searches recurse once per junction or visited vertex on the path,
# and reduction targets carry hundreds of them
sys.setrecursionlimit(max(sys.getrecursionlimit(), 100_000))


def _successors(arcs, mask):
    """The arcs in ``mask`` as a map from tail to head, or None if two of
    them leave one vertex."""
    succ = {}
    for i in indices_of(mask):
        u, v = arcs[i]
        if u in succ:
            return None
        succ[u] = v
    return succ


@dataclass(frozen=True)
class DirectedHamPathInstance:
    universe = "arcs"
    n: int
    arcs: tuple[tuple[int, int], ...]
    s: int
    t: int

    def __post_init__(self):
        _check_edges(self.n, self.arcs, directed=True)
        if not (0 <= self.s < self.n and 0 <= self.t < self.n) or self.s == self.t:
            raise FormatError("bad s/t")

    def verify(self, mask: int) -> bool:
        succ = _successors(self.arcs, mask)
        if succ is None or len(succ) != self.n - 1:
            return False
        cur, seen = self.s, {self.s}
        for _ in range(self.n - 1):
            if cur not in succ:
                return False
            cur = succ[cur]
            if cur in seen:
                return False
            seen.add(cur)
        return cur == self.t and len(seen) == self.n


@dataclass(frozen=True)
class DirectedHamCycleInstance:
    universe = "arcs"
    n: int
    arcs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        _check_edges(self.n, self.arcs, directed=True)

    def verify(self, mask: int) -> bool:
        succ = _successors(self.arcs, mask)
        if succ is None or len(succ) != self.n or self.n < 2:
            return False
        cur, seen = 0, set()
        for _ in range(self.n):
            if cur not in succ or cur in seen:
                return False
            seen.add(cur)
            cur = succ[cur]
        return cur == 0 and len(seen) == self.n


def is_ham_cycle(n, edges, mask) -> bool:
    """Whether the edges in ``mask`` form one cycle through all n vertices."""
    if n < 3 or mask.bit_count() != n:
        return False
    adj = [[] for _ in range(n)]
    for i in indices_of(mask):
        u, v = edges[i]
        adj[u].append(v)
        adj[v].append(u)
    if any(len(a) != 2 for a in adj):
        return False
    prev, cur, cnt = -1, 0, 0
    while True:
        nxt = adj[cur][0] if adj[cur][0] != prev else adj[cur][1]
        prev, cur = cur, nxt
        cnt += 1
        if cur == 0:
            break
    return cnt == n


@dataclass(frozen=True)
class UndirectedHamCycleInstance:
    universe = "edges"
    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        _check_edges(self.n, self.edges)

    def verify(self, mask: int) -> bool:
        return is_ham_cycle(self.n, self.edges, mask)


@dataclass(frozen=True)
class TspInstance:
    universe = "weights"
    n: int
    weights: tuple[int, ...]  # aligned with the canonical edge order
    k: int

    def __post_init__(self):
        check_count("n", self.n)
        if len(self.weights) != self.n * (self.n - 1) // 2:
            raise FormatError("weight list does not match a complete graph")

    def edge_order(self) -> tuple[tuple[int, int], ...]:
        return complete_edges(self.n)

    def weight(self, mask: int) -> int:
        return _masked_sum(self.weights, mask)

    def verify(self, mask: int) -> bool:
        # a tour's edges by index: row u of the edge order starts at
        # u * n - u * (u + 1) // 2 and holds (u, u + 1), ..., (u, n - 1)
        n = self.n
        if mask.bit_count() != n:
            return False
        starts = [u * n - u * (u + 1) // 2 for u in range(n)]
        rows = {x: bisect_right(starts, x) - 1 for x in indices_of(mask)}
        edges = {x: (u, u + 1 + x - starts[u]) for x, u in rows.items()}
        return is_ham_cycle(n, edges, mask) and self.weight(mask) <= self.k


@dataclass(frozen=True)
class DisjointPathsInstance:
    universe = "arcs"
    n: int
    arcs: tuple[tuple[int, int], ...]
    pairs: tuple[tuple[int, int], ...]  # (s_i, t_i)

    def __post_init__(self):
        _check_edges(self.n, self.arcs, directed=True)
        for p in self.pairs:
            if len(p) != 2 or not all(0 <= x < self.n for x in p):
                raise FormatError(f"bad terminal pair {p}")
        terms = [x for p in self.pairs for x in p]
        if len(set(terms)) != len(terms):
            raise FormatError("terminal vertices must be distinct")
        if len(self.pairs) < 2:
            raise FormatError("need at least two terminal pairs")

    def require_width(self, w: int) -> None:
        if len(self.pairs) != w:
            raise FormatError(f"{len(self.pairs)} terminal pairs, expected {w}")

    def verify(self, mask: int) -> bool:
        succ = _successors(self.arcs, mask)
        if succ is None:
            return False
        visited: set[int] = set()
        arcs_walked = 0
        for s, t in self.pairs:
            if s in visited:
                return False
            cur = s
            visited.add(cur)
            while cur != t:
                if cur not in succ:
                    return False
                cur = succ[cur]
                if cur in visited:
                    return False
                visited.add(cur)
                arcs_walked += 1
        return arcs_walked == len(succ)


def _chains(n, arcs, keep) -> list[list[tuple[int, int, int]]]:
    """The out-steps of every vertex a search can stand on.

    A step leaves a vertex by one arc and then follows every vertex of
    in- and out-degree 1 that is not in ``keep``; it is ``(end, vertex
    mask, arc mask)``, where the vertex mask holds the passed vertices and
    the end.  A passed vertex can only be entered through its own chain,
    so a search that tracks the vertices it stands on never needs to
    check the ones a step passes.  Passed vertices get no steps.
    """
    out = [[] for _ in range(n)]
    indeg = [0] * n
    for i, (u, v) in enumerate(arcs):
        out[u].append((i, v))
        indeg[v] += 1
    inner = [
        indeg[v] == 1 and len(out[v]) == 1 and v not in keep for v in range(n)
    ]
    steps = [[] for _ in range(n)]
    for u in range(n):
        if inner[u]:
            continue
        for i, v in out[u]:
            vm, am = 0, 1 << i
            while inner[v]:
                vm |= 1 << v
                i, v = out[v][0]
                am |= 1 << i
            steps[u].append((v, vm | 1 << v, am))
    return steps


def _ham_paths(n, arcs, s, t, cap) -> list[int]:
    """The Hamiltonian s-t paths of the digraph, as sorted arc masks."""
    steps = _chains(n, arcs, {s, t})
    full = (1 << n) - 1
    out = Capped(cap)

    def dfs(cur, visited, arcmask):
        if cur == t:
            if visited == full:
                out.append(arcmask)
            return
        for v, vm, am in steps[cur]:
            if not visited >> v & 1:
                dfs(v, visited | vm, arcmask | am)

    # the search recurses through its own closure cell; emptying the cell
    # frees it now instead of at a later cyclic collection
    try:
        dfs(s, 1 << s, 0)
    finally:
        del dfs
    out.sort()
    return out


def ham_paths(inst: DirectedHamPathInstance, cap) -> list[int]:
    return _ham_paths(inst.n, inst.arcs, inst.s, inst.t, cap)


def ham_cycles_directed(inst: DirectedHamCycleInstance, cap) -> list[int]:
    """The Hamiltonian paths from 0 to a new vertex n that takes 0's
    in-arcs; every arc keeps its index, so the masks are the cycles'."""
    n = inst.n
    if n < 2:
        return []  # the split graph of n = 0 would hold one empty path
    arcs = [(u, n if v == 0 else v) for u, v in inst.arcs]
    return _ham_paths(n + 1, arcs, 0, n, cap)


def ham_cycles_undirected(n, edges, weights, budget, cap) -> list[int]:
    """The Hamiltonian cycles of weight at most ``budget``, each once:
    walked from 0 in the direction that leaves 0 for the smaller of its
    two neighbours on the cycle.  So the walk from 0's neighbour ``first``
    must end at a neighbour of 0 above it, and it turns back once all of
    those are visited."""
    if n < 3 or len(edges) < n:
        return []
    low = [0, *accumulate(sorted(weights))]  # the r cheapest weigh low[r]
    adj = [[] for _ in range(n)]
    nbrs = [0] * n
    for i, (u, v) in enumerate(edges):
        if weights[i] + low[n - 1] <= budget:
            adj[u].append((i, v))
            adj[v].append((i, u))
            nbrs[u] |= 1 << v
            nbrs[v] |= 1 << u
    closing = {v: i for i, v in adj[0]}
    full = (1 << n) - 1
    out = Capped(cap)

    def dfs(cur, visited, edgemask, weight):
        if visited == full:
            if above >> cur & 1 and weight + weights[closing[cur]] <= budget:
                out.append(edgemask | 1 << closing[cur])
            return
        if not above & ~visited or weight + low[n + 1 - visited.bit_count()] > budget:
            return
        free = ~visited | 1
        steps = [(i, v) for i, v in adj[cur] if not visited >> v & 1]
        stranded = [s for s in steps if (nbrs[s[1]] & free).bit_count() < 2]
        if len(stranded) > 1:
            return
        for i, v in stranded or steps:
            dfs(v, visited | 1 << v, edgemask | 1 << i, weight + weights[i])

    try:
        for i, first in adj[0]:
            above = mask_of(v for v in closing if v > first)
            dfs(first, 1 | 1 << first, 1 << i, weights[i])
    finally:
        del dfs
    out.sort()
    return out


def disjoint_path_systems(inst: DisjointPathsInstance, cap) -> list[int]:
    """Every path system, routing the pairs in order, each by a search over
    the ``_chains`` steps.

    A step is taken only if it can still lead to a solution (the bounded
    backtracking rule of Read & Tarjan): the new head must still reach its
    own target around the used vertices, and every later pair must still
    be joinable.  Each test keeps a witness path, found by a depth-first
    search.  A path stays a witness for any larger blocked set that misses
    the junctions after its start, since a chain's inner vertices can only
    be used together with its end.  So a later pair is searched again only
    when a step's vertex mask meets its path, and a step onto the head's
    next junction needs no search: the rest of the head's path leads on.
    The tests cut only branches that hold no solution, so the search lists
    the solutions in the order of the unpruned one and reaches the cap at
    the same solution.
    """
    pairs = inst.pairs
    last = len(pairs) - 1
    terminals = set(x for p in pairs for x in p)
    steps = _chains(inst.n, inst.arcs, terminals)
    tmask = mask_of(terminals)
    # a path may not touch another pair's terminal
    blocked = [tmask & ~(1 << t) for _, t in pairs]
    out = Capped(cap)

    def route(s, t, avoid):
        # a path from s to t through steps that end on no avoided vertex,
        # as (next junction by junction, mask of the junctions after s),
        # or None if there is none
        seen, stack, parent = 1 << s, [s], {}
        while stack:
            u = stack.pop()
            for v, _, _ in steps[u]:
                if v == t:
                    ahead, mask = {u: t}, 1 << t
                    while u != s:
                        mask |= 1 << u
                        ahead[parent[u]] = u
                        u = parent[u]
                    return ahead, mask
                if not (avoid | seen) >> v & 1:
                    seen |= 1 << v
                    parent[v] = u
                    stack.append(v)
        return None

    def dfs(pi, cur, usedv, arcmask, ahead, wits):
        # ahead leads from cur to pair pi's target around usedv, and
        # wits[i] is a path of pair pi + 1 + i around usedv
        t = pairs[pi][1]
        avoid = blocked[pi]
        for v, vm, am in steps[cur]:
            if (usedv | avoid) >> v & 1:
                continue
            used = usedv | vm
            if v == t or ahead[cur] == v:
                head = ahead
            else:
                w = route(v, t, used | avoid)
                if w is None:
                    continue
                head = w[0]
            kept = wits
            for j, w in enumerate(wits, pi + 1):
                if vm & w[1]:
                    w = route(*pairs[j], used | blocked[j])
                    if w is None:
                        break
                    if kept is wits:
                        kept = list(wits)
                    kept[j - pi - 1] = w
            else:
                if v != t:
                    dfs(pi, v, used, arcmask | am, head, kept)
                elif pi < last:
                    s = pairs[pi + 1][0]
                    dfs(pi + 1, s, used | 1 << s, arcmask | am, kept[0][0], kept[1:])
                else:
                    out.append(arcmask | am)

    wits = [route(s, t, blocked[j]) for j, (s, t) in enumerate(pairs)]
    try:
        if None not in wits:
            s = pairs[0][0]
            dfs(0, s, 1 << s, 0, wits[0][0], wits[1:])
    finally:
        del dfs
    out.sort()
    return out
