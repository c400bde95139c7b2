"""Blow-up reductions out of 3SAT (and SAT -> 3SAT).

Each builder attaches a size-adjustable gadget to every blown-up literal
pair so that two target solutions agree on the embedded blown literals
exactly when their distance stays below the blow-up factor.  A builder
returns what it builds, the target and f (the target index of each
literal); ``build_blowup`` wraps them in the artifact, whose kinds are the
halves of the edge's name.

``published_beta`` is the factor table as published; ``effective_beta``
applies the per-edge overrides where desk verification showed the
published formula misses a term (the override table is the documented
deviation mechanism).  Builders size their gadgets by the effective
factor of the requested measure.

There is one shared target per distinct factor: a builder reads only the
edge, the source, the blown pairs and the gadget size, so ``build_blowup``
takes (target, f) from a cache keyed by exactly those.  The measures
whose factors agree (κ-addition and κ-deletion on every edge, all three
on 3sat-vc) get one frozen target, and the family cache finds it by
identity; ``problems.clear_caches`` empties this cache with that one.
"""

from __future__ import annotations

import functools
import itertools

from ..core import MEASURES, DistanceMeasure, PreconditionError
from ..problems import (
    KIND_SPECS,
    CnfInstance,
    DirectedHamPathInstance,
    DisjointPathsInstance,
    ProblemKind,
    SteinerTreeInstance,
    SubsetSumInstance,
)
from ..problems.catalog import cached
from .artifact import BLOWUP, ReductionArtifact, source_kinds

_ADD = DistanceMeasure.KAPPA_ADDITION
_DEL = DistanceMeasure.KAPPA_DELETION
_HAM = DistanceMeasure.HAMMING


class _Ids(dict):
    """Numbers its keys in first-request order: ``ids[key]`` is the key's
    number, given on its first request, so a bare ``ids[key]`` adds a
    vertex or an arc, and the keys in order are the list of them."""

    def __missing__(self, key):
        self[key] = number = len(self)
        return number


def _blown_pairs(src: CnfInstance, l_b: int) -> tuple[int, ...]:
    """Variable indices whose literal pair is blown up; l_b must be closed
    under negation."""
    n = src.n_vars
    if l_b >> 2 * n:
        raise PreconditionError("L_b contains elements outside the literal universe")
    pairs = []
    for i in range(n):
        p = l_b >> i & 1
        q = l_b >> (n + i) & 1
        if p != q:
            raise PreconditionError("L_b must be closed under negation")
        if p:
            pairs.append(i)
    return tuple(pairs)


def _sat3sat_helpers(src: CnfInstance) -> int:
    return sum(max(0, len(c) - 3) for c in src.clauses)


def _kappa_beta(edge: str, src: CnfInstance, l_b: int) -> int:
    """The published factor for κ-addition, which κ-deletion shares."""
    n = src.n_vars
    L = 2 * n
    C = len(src.clauses)
    free_pairs = n - len(_blown_pairs(src, l_b))  # the pairs outside L_b
    if edge == "sat-3sat":
        return free_pairs
    if edge == "3sat-vc":
        return L + 3 * C
    if edge in ("3sat-is", "3sat-subsetsum"):
        return C + free_pairs
    if edge == "3sat-dhampath":
        return 2 * C + (4 * C + 2) * free_pairs
    if edge == "3sat-2ddp":
        return 17 * C + 21 * C * free_pairs
    if edge == "3sat-steinertree":
        return C * (L + 1) + 4 * free_pairs  # 2 |L \ L_b|, as published
    raise PreconditionError(f"unknown blow-up edge {edge}")


def _table(edge: str, kappa: int) -> dict[DistanceMeasure, int]:
    """The factors of ``edge`` from its κ-factor, which κ-addition and
    κ-deletion share: the Hamming factor doubles it, except on 3sat-vc."""
    return {_ADD: kappa, _DEL: kappa, _HAM: kappa if edge == "3sat-vc" else 2 * kappa}


def published_beta(edge: str, src: CnfInstance, l_b: int) -> dict[DistanceMeasure, int]:
    """Blow-up factors exactly as published, per distance measure."""
    return _table(edge, _kappa_beta(edge, src, l_b))


def _ddp_base_vertices(src: CnfInstance) -> int:
    """Vertex count of the gadget-free two-disjoint-path construction."""
    n = src.n_vars
    C = len(src.clauses)
    switches = sum(len(set(c)) for c in src.clauses)
    # terminals + per-variable (two chains, x^s, x^t) + clause entry/exit
    # + 20 internal vertices per switch
    return 4 + n * (2 * 4 * C + 2) + 2 * C + 20 * switches


def effective_beta(edge: str, src: CnfInstance, l_b: int) -> dict[DistanceMeasure, int]:
    """Published table with documented overrides of the κ-factor.

    sat-3sat: splitting wide clauses introduces helper variables whose
    values can differ between otherwise identical solutions, so the factor
    gains the helper count (the published formula assumes width <= 3).

    3sat-dhampath: re-hosting a clause detour swaps two detour arcs and
    one chain arc, so the per-clause term is 3 (published: 2).

    3sat-2ddp: switches traversed by neither service path can be crossed
    in two ways, which the published constants do not cover; the factor is
    replaced by the gadget-free vertex count, the same global-diameter
    bound the vertex-cover reduction uses.
    """
    kappa = _kappa_beta(edge, src, l_b)
    if edge == "sat-3sat":
        kappa += _sat3sat_helpers(src)
    elif edge == "3sat-dhampath":
        kappa += len(src.clauses)
    elif edge == "3sat-2ddp":
        kappa = _ddp_base_vertices(src)
    return _table(edge, kappa)


def build_blowup(
    edge: str,
    source: CnfInstance,
    l_b: int,
    measure: DistanceMeasure,
    beta_override: int | None = None,
) -> ReductionArtifact:
    if edge not in _BUILDERS:
        raise PreconditionError(f"unknown blow-up edge {edge}")
    source_kind, target_kind = source_kinds(edge, source)
    KIND_SPECS[source_kind].admit(source)
    pairs = _blown_pairs(source, l_b)
    if beta_override is not None:
        if beta_override < 0:
            raise PreconditionError(f"negative blow-up factor {beta_override}")
        table = {m: beta_override for m in (_ADD, _DEL, _HAM)}
    else:
        table = effective_beta(edge, source, l_b)
    target, f = _target(edge, source, pairs, table[measure])
    return ReductionArtifact(
        edge=edge,
        kind=BLOWUP,
        source_kind=source_kind,
        source=source,
        target_kind=target_kind,
        target=target,
        f=f,
        l_b=l_b,
        beta=tuple((m, table[m]) for m in MEASURES),
    )


@cached
def _target(edge: str, source: CnfInstance, pairs: tuple[int, ...], gadget: int):
    """The edge builder's (target, f), with f as a tuple; cached, so every
    build with these inputs shares one target."""
    target, f = _BUILDERS[edge](source, pairs, gadget)
    return target, tuple(f)


# ---------------------------------------------------------------- sat-3sat


def _build_sat_3sat(src: CnfInstance, pairs, gadget):
    n = src.n_vars
    helpers = _sat3sat_helpers(src)
    copies_per_pair = gadget
    n_new = n + copies_per_pair * len(pairs) + helpers
    copy_var = {}
    next_var = n
    for i in pairs:
        for c in range(copies_per_pair):
            copy_var[(i, c)] = next_var
            next_var += 1

    def tgt_pos(v):
        return v

    def tgt_neg(v):
        return n_new + v

    def map_lit(lit):
        return lit if lit < n else n_new + (lit - n)

    clauses = []
    for cl in src.clauses:
        lits = [map_lit(x) for x in cl]
        if len(lits) == 1:
            clauses.append((lits[0],) * 3)
        elif len(lits) == 2:
            clauses.append((lits[0], lits[1], lits[1]))
        elif len(lits) == 3:
            clauses.append(tuple(lits))
        else:
            rest = lits
            while len(rest) > 3:
                h = next_var
                next_var += 1
                clauses.append((rest[0], rest[1], tgt_pos(h)))
                rest = [tgt_neg(h)] + rest[2:]
            clauses.append(tuple(rest))
    for i in pairs:
        for c in range(copies_per_pair):
            m = copy_var[(i, c)]
            clauses.append((tgt_pos(i), tgt_neg(m), tgt_neg(m)))
            clauses.append((tgt_neg(i), tgt_pos(m), tgt_pos(m)))
    assert next_var == n_new
    target = CnfInstance(n_new, tuple(clauses))
    f = [map_lit(lit) for lit in range(2 * n)]
    return target, f


# ---------------------------------------------------------------- 3sat-vc / 3sat-is


def _vc_is_layout(src: CnfInstance, pairs, gadget):
    n = src.n_vars
    n_lit = 2 * n
    n_clause_v = 3 * len(src.clauses)
    n_base = n_lit + n_clause_v
    gadget_pos = {}
    gadget_neg = {}
    nxt = n_base
    for i in pairs:
        gadget_pos[i] = list(range(nxt, nxt + gadget))
        nxt += gadget
        gadget_neg[i] = list(range(nxt, nxt + gadget))
        nxt += gadget
    return n_lit, nxt, gadget_pos, gadget_neg


def _gadget_biclique(i, n, gadget_pos, gadget_neg):
    # the product's first pair is the plain pair edge (i, n + i), which is
    # listed already
    both = itertools.product([i, *gadget_pos[i]], [n + i, *gadget_neg[i]])
    return itertools.islice(both, 1, None)


def _build_3sat_vc_is(src: CnfInstance, pairs, gadget, kind: ProblemKind):
    """3sat-vc or 3sat-is, by the target ``kind``: the two differ only in a
    clause vertex's literal endpoint, the literal itself for VC and its
    negation for IS, and in k, which counts two vertices per clause for VC
    and one for IS."""
    vc = kind is ProblemKind.VERTEX_COVER
    n = src.n_vars
    n_lit, n_total, gadget_pos, gadget_neg = _vc_is_layout(src, pairs, gadget)
    endpoint = (lambda lit: lit) if vc else src.negate
    edges = [(i, n + i) for i in range(n)]
    for j, cl in enumerate(src.clauses):
        c0 = n_lit + 3 * j
        edges += [(c0, c0 + 1), (c0, c0 + 2), (c0 + 1, c0 + 2)]
        for s, lit in enumerate(cl):
            edges.append((endpoint(lit), c0 + s))
    for i in pairs:
        edges += _gadget_biclique(i, n, gadget_pos, gadget_neg)
    b = len(pairs)
    k = (gadget + 1) * b + (n - b) + (2 if vc else 1) * len(src.clauses)
    return KIND_SPECS[kind].cls(n_total, tuple(edges), k), list(range(n_lit))


# ---------------------------------------------------------------- 3sat-subsetsum


def _build_3sat_subsetsum(src: CnfInstance, pairs, gadget):
    n = src.n_vars
    C = len(src.clauses)
    blown = set(pairs)
    # column layout: variables, then per blown pair the positive and
    # negative copy columns, then clauses
    col_of_var = {i: i for i in range(n)}
    nxt = n
    col_copy = {}
    for i in pairs:
        for side in (0, 1):  # 0 = positive-literal copies
            for c in range(gadget):
                col_copy[(i, side, c)] = nxt
                nxt += 1
    col_of_clause = {j: nxt + j for j in range(C)}
    n_cols = nxt + C
    base = 10

    def value(digits: dict[int, int]) -> int:
        total = 0
        for col, d in digits.items():
            total += d * base ** (n_cols - 1 - col)
        return total

    values = []
    for lit in range(2 * n):
        i = lit % n
        side = 0 if lit < n else 1
        digits = {col_of_var[i]: 1}
        for j, cl in enumerate(src.clauses):
            if lit in cl:
                digits[col_of_clause[j]] = 1
        if i in blown:
            for c in range(gadget):
                digits[col_copy[(i, 1 - side, c)]] = 1  # covers opposite copies
        values.append(value(digits))
    for i in pairs:
        for side in (0, 1):
            for c in range(gadget):
                values.append(value({col_copy[(i, side, c)]: 1}))
    for j in range(C):
        values.append(value({col_of_clause[j]: 1}))
        values.append(value({col_of_clause[j]: 2}))
    target_digits = {col: 1 for col in range(nxt)}
    for j in range(C):
        target_digits[col_of_clause[j]] = 4
    target = SubsetSumInstance(tuple(values), value(target_digits))
    return target, list(range(2 * n))


# ---------------------------------------------------------------- 3sat-dhampath


def _build_3sat_dhampath(src: CnfInstance, pairs, gadget):
    # Variable chains are linked through one junction vertex per
    # consecutive pair instead of the four direct end-to-end arcs the
    # simplified figure shows: the direct wiring admits Hamiltonian paths
    # that thread a clause vertex between two different chains (the
    # equation check finds such paths already on one-clause formulas).
    n = src.n_vars
    C = len(src.clauses)
    blown = set(pairs)
    vtx = _Ids()
    s = vtx["s"]
    t = vtx["t"]
    chain = {}
    for i in range(n):
        length = 4 * C + (gadget if i in blown else 0)
        chain[i] = [vtx["v", i, p] for p in range(length)]
    junction = [vtx["j", i] for i in range(n - 1)]
    cl_vtx = [vtx["c", j] for j in range(C)]

    arc = _Ids()
    arc[s, chain[0][0]]
    arc[s, chain[0][-1]]
    for i in range(n):
        cs = chain[i]
        for p in range(len(cs) - 1):
            arc[cs[p], cs[p + 1]]
            arc[cs[p + 1], cs[p]]
        if i + 1 < n:
            arc[cs[0], junction[i]]
            arc[cs[-1], junction[i]]
            arc[junction[i], chain[i + 1][0]]
            arc[junction[i], chain[i + 1][-1]]
    for a in (chain[n - 1][0], chain[n - 1][-1]):
        arc[a, t]
    # clause detours; slots 4j-2 -> 4j-1 in 1-based positions are indices
    # 4j-3 -> 4j-2 here.  Gadget vertices sit before the chain tail, above
    # every slot index.
    for j, cl in enumerate(src.clauses, start=1):
        cv = cl_vtx[j - 1]
        p_idx, q_idx = 4 * j - 3, 4 * j - 2
        for lit in dict.fromkeys(cl):
            i = lit % n
            p, q = chain[i][p_idx], chain[i][q_idx]
            if lit < n:
                arc[p, cv]
                arc[cv, q]
            else:
                arc[q, cv]
                arc[cv, p]
    f = []
    for lit in range(2 * n):
        i = lit % n
        if lit < n:
            f.append(arc[chain[i][0], chain[i][1]])
        else:
            f.append(arc[chain[i][1], chain[i][0]])
    target = DirectedHamPathInstance(len(vtx), tuple(arc), s, t)
    return target, f


# ---------------------------------------------------------------- 3sat-2ddp

_SWITCH_INTERNAL_ARCS = (
    ("c", "L1"), ("L1", "L2"), ("L2", "L3"), ("L3", "L4"), ("L4", "L5"),
    ("L5", "a"),
    ("c", "R1"), ("R1", "R2"), ("R2", "R3"), ("R3", "R4"), ("R4", "R5"),
    ("R5", "a"),
    ("W1", "W2"), ("W2", "W3"), ("W3", "L1"), ("R5", "W2"),
    ("Y1", "Y2"), ("Y2", "Y3"), ("Y3", "R1"), ("L5", "Y2"),
    ("b", "L4"), ("b", "R4"),
    ("W3", "d"), ("Y3", "d"),
    ("L2", "XO"), ("R2", "ZO"),
)

_SWITCH_NODES = (
    "c", "a", "b", "d",
    "L1", "L2", "L3", "L4", "L5",
    "R1", "R2", "R3", "R4", "R5",
    "W1", "W2", "W3", "Y1", "Y2", "Y3",
    "XO", "ZO",
)


def _build_3sat_2ddp(src: CnfInstance, pairs, gadget):
    n = src.n_vars
    C = len(src.clauses)
    blown = set(pairs)
    vtx = _Ids()
    s1, t1, s2, t2 = vtx["s1"], vtx["t1"], vtx["s2"], vtx["t2"]
    chain = {}
    for lit in range(2 * n):
        i = lit % n
        length = 4 * C + (gadget if i in blown else 0)
        chain[lit] = [vtx["v", lit, p] for p in range(length)]
    x_s = [vtx["xs", i] for i in range(n)]
    x_t = [vtx["xt", i] for i in range(n)]
    cl_in = [vtx["cin", j] for j in range(C)]
    cl_out = [vtx["cout", j] for j in range(C)]

    # one switch per (clause, distinct literal); clause literal slots are
    # deduplicated so every parallel clause arc is switch-substituted
    switch_keys = []
    for j, cl in enumerate(src.clauses):
        for lit in dict.fromkeys(cl):
            switch_keys.append((j, lit))
    sw = {}
    for key in switch_keys:
        sw[key] = {node: vtx["sw", key, node] for node in _SWITCH_NODES}

    arc = _Ids()
    # substituted chain slots: arc (4j-2 -> 4j-1) of the negated literal's
    # chain, 1-based, for every occurrence (clause j, literal lit)
    substituted = {}
    for (j, lit) in switch_keys:
        other = src.negate(lit)
        substituted.setdefault(other, {})[4 * (j + 1) - 3] = (j, lit)

    # variable gadgets
    for i in range(n):
        for lit in (i, n + i):
            cs = chain[lit]
            arc[x_s[i], cs[0]]
            subs = substituted.get(lit, {})
            for p in range(len(cs) - 1):
                if p in subs:
                    continue  # replaced by a switch service path
                arc[cs[p], cs[p + 1]]
            arc[cs[-1], x_t[i]]
        if i + 1 < n:
            arc[x_t[i], x_s[i + 1]]

    # switch internals and service ports
    for key in switch_keys:
        nodes = sw[key]
        for u, v in _SWITCH_INTERNAL_ARCS:
            arc[nodes[u], nodes[v]]
        j, lit = key
        other = src.negate(lit)
        p_idx = 4 * (j + 1) - 3
        cs = chain[other]
        arc[cs[p_idx], nodes["W1"]]      # W input
        arc[nodes["XO"], cs[p_idx + 1]]  # X output
        arc[cl_in[j], nodes["Y1"]]       # Y input
        arc[nodes["ZO"], cl_out[j]]      # Z output

    # switch stack: path 1 runs B -> D through all switches, path 2 runs
    # C -> A in reverse order
    order = switch_keys
    arc[s1, sw[order[0]]["b"]]
    for a, b in zip(order, order[1:]):
        arc[sw[a]["d"], sw[b]["b"]]
    arc[sw[order[-1]]["d"], x_s[0]]
    arc[s2, sw[order[-1]]["c"]]
    for a, b in zip(order, order[1:]):
        arc[sw[b]["a"], sw[a]["c"]]
    arc[sw[order[0]]["a"], t2]

    # clause chain
    arc[x_t[n - 1], cl_in[0]]
    for j in range(C - 1):
        arc[cl_out[j], cl_in[j + 1]]
    arc[cl_out[C - 1], t1]

    f = [arc[x_s[lit % n], chain[lit][0]] for lit in range(2 * n)]
    target = DisjointPathsInstance(len(vtx), tuple(arc), ((s1, t1), (s2, t2)))
    return target, f


# ---------------------------------------------------------------- 3sat-steinertree


def _build_3sat_steinertree(src: CnfInstance, pairs, gadget):
    n = src.n_vars
    C = len(src.clauses)
    L = 2 * n
    blown = set(pairs)
    vtx = _Ids()
    s = vtx["s"]
    t = vtx["t"]
    lit_v = [vtx["lit", lit] for lit in range(L)]
    conn = [s] + [vtx["conn", i] for i in range(1, n)] + [t]
    cl_v = [vtx["c", j] for j in range(C)]
    terminals = [s, t] + cl_v

    edge_idx = _Ids()

    def edge(u, v):
        return edge_idx[min(u, v), max(u, v)]

    f = [0] * L
    for i in range(n):
        f[i] = edge(conn[i], lit_v[i])
        edge(lit_v[i], conn[i + 1])
        f[n + i] = edge(conn[i], lit_v[n + i])
        edge(lit_v[n + i], conn[i + 1])
    for j, cl in enumerate(src.clauses):
        for lit in dict.fromkeys(cl):
            prev = lit_v[lit]
            for step in range(L):
                cur = vtx["path", j, lit, step]
                edge(prev, cur)
                prev = cur
            edge(prev, cl_v[j])
    for i in pairs:
        for c in range(gadget):
            pc = vtx["gpos", i, c]
            tc = vtx["gterm", i, c]
            ncv = vtx["gneg", i, c]
            edge(lit_v[i], pc)
            edge(pc, tc)
            edge(tc, ncv)
            edge(ncv, lit_v[n + i])
            terminals.append(tc)
    k = L + C * (L + 1) + 2 * gadget * len(pairs)
    edges = tuple(edge_idx)
    target = SteinerTreeInstance(
        len(vtx), edges, (1,) * len(edges), tuple(terminals), k
    )
    return target, f


# edge -> builder(source, blown pairs, gadget size), returning (target, f)
_BUILDERS = {
    "sat-3sat": _build_sat_3sat,
    "3sat-vc": functools.partial(_build_3sat_vc_is, kind=ProblemKind.VERTEX_COVER),
    "3sat-is": functools.partial(_build_3sat_vc_is, kind=ProblemKind.INDEPENDENT_SET),
    "3sat-subsetsum": _build_3sat_subsetsum,
    "3sat-dhampath": _build_3sat_dhampath,
    "3sat-2ddp": _build_3sat_2ddp,
    "3sat-steinertree": _build_3sat_steinertree,
}
BLOWUP_EDGES = tuple(_BUILDERS)
