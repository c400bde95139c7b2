"""Vertex-universe graph problems: VC, IS, Clique, DS, FVS, and the
arc-universe FAS.

Enumerators here are exact: branch-and-bound trees are pruned only by
lower bounds that never cut a valid solution.  Vertex sets and
neighbourhoods are bitmasks.  The cover search (which also serves
independent sets and cliques, as complements) branches on the lowest free
vertex with a free neighbour, forces a banned vertex's neighbourhood into
the cover, and bounds the rest by a greedy packing of vertex-disjoint
triangles (two cover vertices each) and edges (one each), taken once at
the root and carried down the tree with the count of edges left open, so
that a node costs the degree of its branching vertex.  Dominating sets and
feedback vertex and arc sets are hitting sets:
``covering.hitting_sets_upto`` lists them, from the closed neighbourhoods
and from the constraint functions ``unhit_cycle_vertices`` and
``unhit_cycle_arcs`` below.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import Capped, FormatError, check_count, indices_of, mask_of
from .covering import _pad_supersets


def _check_edges(n, edges, directed=False):
    check_count("n", n)
    seen = set()
    for e in edges:
        u, v = e
        if not (0 <= u < n and 0 <= v < n):
            raise FormatError(f"endpoint out of range in {e}")
        if u == v:
            raise FormatError(f"self-loop {e}")
        key = (u, v) if directed or u < v else (v, u)
        if key in seen:
            raise FormatError(f"duplicate edge {e}")
        seen.add(key)


def complete_edges(n) -> tuple[tuple[int, int], ...]:
    """The edges of K_n, each as (u, v) with u < v, in lexicographic order."""
    return tuple((u, v) for u in range(n) for v in range(u + 1, n))


def complement_edges(n, edges) -> tuple[tuple[int, int], ...]:
    """The edges of K_n that ``edges`` lacks in either direction, in the
    order of ``complete_edges``."""
    present = {(u, v) if u < v else (v, u) for u, v in edges}
    return tuple(e for e in complete_edges(n) if e not in present)


@dataclass(frozen=True)
class _Graph:
    """An undirected graph over the vertex universe and a size bound k."""

    universe = "n"
    n: int
    edges: tuple[tuple[int, int], ...]
    k: int

    def __post_init__(self):
        _check_edges(self.n, self.edges)


class VertexCoverInstance(_Graph):
    def is_cover(self, mask: int) -> bool:
        return all((mask >> u | mask >> v) & 1 for u, v in self.edges)

    def verify(self, mask: int) -> bool:
        return self.is_cover(mask) and mask.bit_count() <= self.k


class IndependentSetInstance(_Graph):
    def is_independent(self, mask: int) -> bool:
        return not any((mask >> u & 1) and (mask >> v & 1) for u, v in self.edges)

    def verify(self, mask: int) -> bool:
        return self.is_independent(mask) and mask.bit_count() >= self.k


class CliqueInstance(_Graph):
    def complement_edges(self) -> tuple[tuple[int, int], ...]:
        return complement_edges(self.n, self.edges)

    def verify(self, mask: int) -> bool:
        # a clique holds no two ends of a missing edge
        missing = self.complement_edges()
        ok = not any(mask >> u & mask >> v & 1 for u, v in missing)
        return ok and mask.bit_count() >= self.k


class DominatingSetInstance(_Graph):
    def closed_neighborhoods(self) -> tuple[int, ...]:
        nb = [1 << i for i in range(self.n)]
        for u, v in self.edges:
            nb[u] |= 1 << v
            nb[v] |= 1 << u
        return tuple(nb)

    def verify(self, mask: int) -> bool:
        if mask.bit_count() > self.k:
            return False
        dominated = 0
        for i, nb in enumerate(self.closed_neighborhoods()):
            if mask >> i & 1:
                dominated |= nb
        return dominated == (1 << self.n) - 1


@dataclass(frozen=True)
class FeedbackVertexSetInstance:
    universe = "n"
    n: int
    arcs: tuple[tuple[int, int], ...]
    k: int

    def __post_init__(self):
        _check_edges(self.n, self.arcs, directed=True)

    def acyclic_after(self, mask: int) -> bool:
        return _is_acyclic(
            self.n,
            [
                (u, v)
                for u, v in self.arcs
                if not (mask >> u & 1) and not (mask >> v & 1)
            ],
        )

    def verify(self, mask: int) -> bool:
        return mask.bit_count() <= self.k and self.acyclic_after(mask)


@dataclass(frozen=True)
class FeedbackArcSetInstance:
    universe = "arcs"
    n: int
    arcs: tuple[tuple[int, int], ...]
    k: int

    def __post_init__(self):
        _check_edges(self.n, self.arcs, directed=True)

    def acyclic_after(self, mask: int) -> bool:
        return _is_acyclic(
            self.n, [a for i, a in enumerate(self.arcs) if not (mask >> i & 1)]
        )

    def verify(self, mask: int) -> bool:
        return mask.bit_count() <= self.k and self.acyclic_after(mask)


def _is_acyclic(n, arcs) -> bool:
    out = [[] for _ in range(n)]
    indeg = [0] * n
    for u, v in arcs:
        out[u].append(v)
        indeg[v] += 1
    queue = [i for i in range(n) if indeg[i] == 0]
    seen = 0
    while queue:
        u = queue.pop()
        seen += 1
        for v in out[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    return seen == n


def covers_upto(n, edges, k, cap) -> list[int]:
    """All vertex covers of size at most k, as vertex masks.

    Branches on the lowest free vertex that has a free neighbour: take it,
    or ban it and take its whole neighbourhood.  Every edge at a banned
    vertex is thus covered, so the free vertices carry all uncovered edges.
    A node costs the degree of its branching vertex, as it carries three
    things down the tree:

    - the count of edges with both ends free, so a node with none is a
      leaf;
    - the free vertices met without a free neighbour, which keep none
      below and which the scan for the branching vertex skips;
    - a packing bound: a greedy set of vertex-disjoint triangles and edges,
      taken once over all vertices (the lowest vertex u left, its lowest
      neighbour v left, and their lowest common neighbour left if any; the
      3SAT gadgets put a triangle on every clause).  A triangle needs two
      cover vertices and an edge one; every vertex that goes into the cover
      lowers its own item's need by one, and a banned vertex's neighbours
      are all in the cover, so what is left of an item's need is a lower
      bound on the free vertices a cover still takes from it.  The needs
      are held as two masks over the items, those that need one more and
      those that need two, and their total.

    A branch with a free edge left and no budget, or with a need above its
    budget, ends at once.  The bound cuts only branches that hold no cover
    within the budget, so the family, its append order and the point where
    the cap raises do not depend on it.
    """
    if k < 0:
        return []
    nb = [0] * n
    for u, v in edges:
        nb[u] |= 1 << v
        nb[v] |= 1 << u
    full = (1 << n) - 1
    # item[v] is the bit of the triangle or edge holding v, 0 if none
    item = [0] * n
    one = two = 0
    rest, bit = full, 1
    while rest:
        low = rest & -rest
        rest ^= low
        u = low.bit_length() - 1
        mates = nb[u] & rest
        if mates:
            low = mates & -mates
            rest ^= low
            v = low.bit_length() - 1
            item[u] = item[v] = bit
            one |= bit
            common = mates & nb[v]
            if common:
                low = common & -common
                rest ^= low
                item[low.bit_length() - 1] = bit
                two |= bit
            bit <<= 1
    out = Capped(cap)

    def rec(chosen, free, lone, budget, open_, one, two, need):
        if not open_:
            if budget:
                _pad_supersets(chosen, indices_of(free), budget, out)
            else:
                out.append(chosen)
            return
        # a free edge is left, and no vertex to cover it, or fewer than
        # the packing still needs
        if not budget or need > budget:
            return
        m = free & ~lone
        while True:
            low = m & -m
            x = low.bit_length() - 1
            if nb[x] & free:
                break
            lone |= low
            m ^= low
        free ^= low
        forced = nb[x] & free
        size = forced.bit_count()
        bit = item[x]
        if bit & two:
            rec(chosen | low, free, lone, budget - 1, open_ - size, one, two ^ bit, need - 1)
        elif bit & one:
            rec(chosen | low, free, lone, budget - 1, open_ - size, one ^ bit, two, need - 1)
        else:
            rec(chosen | low, free, lone, budget - 1, open_ - size, one, two, need)
        if size > budget:
            return
        chosen |= forced
        budget -= size
        open_ -= size
        m = forced
        while m:
            low = m & -m
            m ^= low
            free ^= low
            y = low.bit_length() - 1
            open_ -= (nb[y] & free).bit_count()
            bit = item[y]
            if bit & two:
                two ^= bit
                need -= 1
            elif bit & one:
                one ^= bit
                need -= 1
        rec(chosen, free, lone, budget, open_, one, two, need)

    # the search recurses through its own closure cell; emptying the cell
    # frees it now instead of at a later cyclic collection
    try:
        rec(0, full, 0, k, len(edges), one, two, one.bit_count() + two.bit_count())
    finally:
        del rec
    out.sort()
    return out


def independent_sets_atleast(n, edges, k, cap) -> list[int]:
    full = (1 << n) - 1
    res = [full ^ c for c in covers_upto(n, edges, n - k, cap)]
    res.sort()
    return res


def _out_arcs(n, arcs) -> list[list[tuple[int, int]]]:
    """Each vertex's (arc index, head) pairs, in arc order."""
    out = [[] for _ in range(n)]
    for idx, (u, v) in enumerate(arcs):
        out[u].append((idx, v))
    return out


def _find_cycle_arcs(out, removed_mask) -> list[int] | None:
    """Arc indices of some directed cycle avoiding removed arcs, or None;
    ``out`` is ``_out_arcs`` of the graph."""
    n = len(out)
    color = [0] * n  # 0 white, 1 gray, 2 black
    stack_arcs: list[int] = []
    path: list[int] = []

    def dfs(u):
        color[u] = 1
        path.append(u)
        for idx, v in out[u]:
            if removed_mask >> idx & 1:
                continue
            if color[v] == 0:
                stack_arcs.append(idx)
                r = dfs(v)
                if r is not None:
                    return r
                stack_arcs.pop()
            elif color[v] == 1:
                pos = path.index(v)
                return stack_arcs[pos:] + [idx]
        color[u] = 2
        path.pop()
        return None

    try:
        for s in range(n):
            if color[s] == 0:
                res = dfs(s)
                if res is not None:
                    return res
        return None
    finally:
        del dfs


def unhit_cycle_vertices(inst: FeedbackVertexSetInstance):
    """The ``covering.hitting_sets_upto`` constraints of a feedback vertex
    set: the tails of one cycle left once the arcs at the chosen vertices
    are removed."""
    n, arcs = inst.n, inst.arcs
    out = _out_arcs(n, arcs)
    at = [0] * n
    for i, (u, v) in enumerate(arcs):
        at[u] |= 1 << i
        at[v] |= 1 << i

    def unhit(chosen, banned, budget):
        removed = 0
        for v in indices_of(chosen):
            removed |= at[v]
        cyc = _find_cycle_arcs(out, removed)
        if cyc is None:
            return None
        return mask_of(arcs[i][0] for i in cyc) & ~banned

    return unhit


def unhit_cycle_arcs(inst: FeedbackArcSetInstance):
    """The ``covering.hitting_sets_upto`` constraints of a feedback arc set:
    the arcs of one cycle left once the chosen arcs are removed."""
    out = _out_arcs(inst.n, inst.arcs)

    def unhit(chosen, banned, budget):
        cyc = _find_cycle_arcs(out, chosen)
        return None if cyc is None else mask_of(cyc) & ~banned

    return unhit


def connected_undirected(n, edges) -> bool:
    if n <= 1:
        return True
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == n
