"""Vertex-weighted oriented graphs and their edge ideals.

An oriented graph has no 2-cycles; each vertex carries a positive integer
weight and sources are normalized to weight 1 (the edge ideal never sees a
source weight).  The module covers strong vertex covers and the cover-wise
irreducible decomposition of the edge ideal, structural predicates, the
weight reduction that preserves Cohen-Macaulayness, a partial-polarization
style generator transform, full polarization, and the combinatorial
Cohen-Macaulay classifier for forests, whiskered graphs and acyclic
tournaments.
"""

from __future__ import annotations

import enum
import heapq
import warnings
from dataclasses import dataclass, field

from .core import MonomialIdeal, PolyContext, _minimal_vecs
from .decomposition import Decomposition, IrreducibleIdeal
from .errors import DigraphError, HypothesisError, ImproperIdealError, ResourceCapError

DEFAULT_VERTEX_CAP = 20


@dataclass(frozen=True)
class WeightedDigraph:
    """Oriented graph on the variables of a context, with vertex weights."""

    context: PolyContext
    weights: tuple[int, ...]
    arcs: frozenset[tuple[int, int]]

    def __post_init__(self):
        ctx = self.context
        ws = tuple(int(w) for w in self.weights)
        if len(ws) != ctx.n:
            raise DigraphError(f"need {ctx.n} weights, got {len(ws)}")
        if any(w < 1 for w in ws):
            raise DigraphError(f"weights must be positive integers: {ws}")
        arcs = frozenset((int(i), int(j)) for i, j in self.arcs)
        for i, j in arcs:
            if i == j:
                raise DigraphError(f"loop at {ctx.names[i]} is not allowed")
            if not (0 <= i < ctx.n and 0 <= j < ctx.n):
                raise DigraphError(f"arc ({i}, {j}) out of range")
            if (j, i) in arcs:
                raise DigraphError(
                    f"2-cycle between {ctx.names[i]} and {ctx.names[j]}")
        # per-vertex adjacency, computed once; not fields, so equality and
        # hashing still see only (context, weights, arcs)
        outs = [set() for _ in range(ctx.n)]
        ins = [set() for _ in range(ctx.n)]
        for i, j in arcs:
            outs[i].add(j)
            ins[j].add(i)
        fixed = list(ws)
        for i in range(ctx.n):
            if outs[i] and not ins[i] and fixed[i] != 1:
                warnings.warn(
                    f"source vertex {ctx.names[i]} has weight {fixed[i]}; "
                    f"normalized to 1", stacklevel=3)
                fixed[i] = 1
        object.__setattr__(self, "weights", tuple(fixed))
        object.__setattr__(self, "arcs", arcs)
        object.__setattr__(self, "_out", tuple(frozenset(s) for s in outs))
        object.__setattr__(self, "_in", tuple(frozenset(s) for s in ins))
        object.__setattr__(self, "_nbrs", tuple(
            frozenset(o | i) for o, i in zip(outs, ins)))

    @classmethod
    def of(cls, vertices, arcs):
        """Build from ``vertices`` as (name, weight) pairs and name arcs."""
        names = tuple(nm for nm, _ in vertices)
        ctx = PolyContext(names)
        ws = tuple(w for _, w in vertices)
        idx_arcs = frozenset((ctx.index(a), ctx.index(b)) for a, b in arcs)
        return cls(ctx, ws, idx_arcs)

    # -- basic structure ------------------------------------------------
    @property
    def names(self):
        return self.context.names

    def weight(self, v):
        if isinstance(v, str):
            v = self.context.index(v)
        return self.weights[v]

    def edges(self):
        """Underlying undirected edges as sorted index pairs."""
        return sorted({(min(i, j), max(i, j)) for i, j in self.arcs})

    def neighbors(self, v):
        return set(self._nbrs[v])

    def isolated_vertices(self):
        return [v for v in range(self.context.n) if not self._nbrs[v]]

    def _resolve_set(self, vertices):
        out = set()
        for v in vertices:
            out.add(self.context.index(v) if isinstance(v, str) else int(v))
        return out

    # -- edge ideal -------------------------------------------------------
    def edge_ideal(self) -> MonomialIdeal:
        """Ideal generated by x_i * x_j^{d_j} over the arcs (x_i, x_j)."""
        n = self.context.n
        vecs = []
        for i, j in self.arcs:
            v = [0] * n
            v[i] += 1
            v[j] += self.weights[j]
            vecs.append(tuple(v))
        return MonomialIdeal(self.context, _minimal_vecs(vecs))

    # -- covers -------------------------------------------------------------
    def is_vertex_cover(self, vertices) -> bool:
        c = self._resolve_set(vertices)
        return all(i in c or j in c for i, j in self.arcs)

    def _partition(self, c):
        """(L1, L2, L3) of the vertex cover c, as index sets."""
        if not self.is_vertex_cover(c):
            raise DigraphError(
                f"{sorted(self.names[v] for v in c)} is not a vertex cover")
        l1 = {x for x in c if not self._out[x] <= c}
        l3 = {x for x in c if self._nbrs[x] <= c}
        return l1, c - l1 - l3, l3

    def cover_partition(self, vertices) -> "CoverPartition":
        c = self._resolve_set(vertices)
        l1, l2, l3 = self._partition(c)
        nm = self.context.names
        srt = lambda s: tuple(nm[v] for v in sorted(s))
        return CoverPartition(srt(c), srt(l1), srt(l2), srt(l3),
                              tuple(nm[v] for v in range(self.context.n)))

    def is_strong_cover(self, vertices) -> bool:
        """Minimal covers are strong; otherwise every L3 vertex needs an
        in-arc from an L2/L3 vertex of weight at least 2."""
        _, l2, l3 = self._partition(self._resolve_set(vertices))
        inner = l2 | l3
        return all(any(i in inner and self.weights[i] >= 2 for i in self._in[x])
                   for x in l3)

    def strong_covers(self, max_vertices: int = DEFAULT_VERTEX_CAP):
        """All strong vertex covers, as partitions, in canonical order.

        Isolated vertices are skipped: they would sit in L3 with no in-arc,
        so no strong cover contains them.  Vertex covers are enumerated by
        branching over the active vertices in ascending order: a vertex may
        be left out only when all of its earlier neighbours are in, so every
        leaf of the branching is exactly one vertex cover and no other
        subset is visited.  Strength is decided by ``is_strong_cover``; the
        strong covers come out by size, then in vertex order (the order of
        ``itertools.combinations``).  The cap counts active vertices."""
        isolated = set(self.isolated_vertices())
        active = [v for v in range(self.context.n) if v not in isolated]
        if len(active) > max_vertices:
            raise ResourceCapError(
                f"{len(active)} vertices exceed the enumeration cap "
                f"{max_vertices}")
        # earlier[v]: bit mask of the neighbours of v with a smaller index
        earlier = [0] * self.context.n
        for i, j in self.arcs:
            lo, hi = min(i, j), max(i, j)
            earlier[hi] |= 1 << lo
        covers = []
        stack = [(0, 0)]  # (number of active vertices decided, mask chosen)
        while stack:
            depth, mask = stack.pop()
            if depth == len(active):
                covers.append(tuple(v for v in active if mask >> v & 1))
                continue
            v = active[depth]
            stack.append((depth + 1, mask | 1 << v))
            if earlier[v] & ~mask == 0:
                stack.append((depth + 1, mask))
        covers.sort(key=lambda c: (len(c), c))
        out = []
        for c in covers:
            if self.is_strong_cover(c):
                out.append(self.cover_partition(c))
        return out

    def prt_decomposition(self, max_vertices: int = DEFAULT_VERTEX_CAP) -> Decomposition:
        """Irreducible decomposition of the edge ideal, one component per
        strong cover: L1 vertices enter with exponent 1, L2/L3 vertices with
        their weight."""
        if not self.arcs:
            raise ImproperIdealError(
                "the digraph has no arcs, so its edge ideal is zero and has "
                "no decomposition")
        comps = []
        for part in self.strong_covers(max_vertices):
            powers = [(self.context.index(x), 1) for x in part.L1]
            powers += [(self.context.index(x), self.weight(x))
                       for x in part.L2 + part.L3]
            comps.append(IrreducibleIdeal(self.context, tuple(powers)))
        return Decomposition(tuple(comps))

    # -- structural predicates ---------------------------------------------
    def structure(self) -> "DigraphStructure":
        n = self.context.n
        order = self._topological_order()
        # i -> j -> k forces i -> k; k == i cannot occur without a 2-cycle
        transitive = all(self._out[j] <= self._out[i] for i, j in self.arcs)
        tournament = len(self.edges()) == n * (n - 1) // 2
        topo = None
        if order is not None:
            topo = tuple(self.context.names[v] for v in order)
        return DigraphStructure(order is not None, transitive, tournament, topo)

    def _topological_order(self):
        """Kahn's order, smallest ready vertex first; None on a cycle."""
        n = self.context.n
        indeg = [len(s) for s in self._in]
        ready = [v for v in range(n) if indeg[v] == 0]
        order = []
        while ready:
            v = heapq.heappop(ready)
            order.append(v)
            for j in self._out[v]:
                indeg[j] -= 1
                if indeg[j] == 0:
                    heapq.heappush(ready, j)
        return order if len(order) == n else None

    def is_forest(self) -> bool:
        """The underlying graph has no cycle."""
        parent = list(range(self.context.n))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for i, j in self.edges():
            ri, rj = find(i), find(j)
            if ri == rj:
                return False
            parent[ri] = rj
        return True

    # -- Cohen-Macaulay classification ----------------------------------
    def _whisker_matching(self, deg):
        """Perfect matching pairing every vertex with a leaf, or None.

        ``deg`` lists the vertex degrees.  Each leaf must be matched to its
        unique neighbor, which forces the matching (up to labels inside a
        two-leaf component).  Pairs come back as (x, y) with y the leaf."""
        if not all(deg):
            return None
        matched = {}
        pairs = []
        for leaf in (v for v, k in enumerate(deg) if k == 1):
            if leaf in matched:
                continue
            nb = next(iter(self._nbrs[leaf]))
            if nb in matched:
                return None
            matched[leaf] = nb
            matched[nb] = leaf
            pairs.append((nb, leaf))
        if len(matched) != len(deg):
            return None
        return pairs

    def _matching_weight_check(self, pairs, deg):
        """Condition on a leaf matching: d(x) = 1 whenever the arc (x, y)
        points into the leaf y.  Two-leaf components can always be labeled so
        the arc points out of the leaf."""
        labeled = []
        for x, y in pairs:
            if deg[x] == 1 and deg[y] == 1:
                # isolated edge: let y be the arc's tail, then (x, y) is no arc
                if (x, y) in self.arcs:
                    x, y = y, x
                labeled.append((x, y))
                continue
            if deg[x] == 1:
                x, y = y, x
            if (x, y) in self.arcs and self.weights[x] >= 2:
                return None, (x, y)
            labeled.append((x, y))
        return labeled, None

    def cm_classify(self) -> "CmResult":
        """Cohen-Macaulay or not, where a combinatorial criterion applies.

        Forests (without isolated vertices) and graphs with a perfect
        matching into leaf whiskers are decided by the matching-plus-weights
        condition; acyclic tournaments are always Cohen-Macaulay.  Everything
        else is out of the proven families."""
        nm = self.context.names
        if self.is_forest():
            if self.isolated_vertices():
                bad = [nm[v] for v in self.isolated_vertices()]
                return CmResult(CmStatus.CRITERION_INAPPLICABLE, None, None,
                                f"forest has isolated vertices {bad}")
            rule = "forest"
        else:
            st = self.structure()
            if st.tournament and st.acyclic and self.arcs:
                return CmResult(CmStatus.COHEN_MACAULAY, "acyclic-tournament",
                                None, f"acyclic tournament with topological "
                                f"order {st.topological_order}")
            rule = "whisker-matching"
        deg = [len(nbrs) for nbrs in self._nbrs]
        pairs = self._whisker_matching(deg)
        if pairs is None:
            if rule == "forest":
                return CmResult(CmStatus.NOT_COHEN_MACAULAY, rule, None,
                                "no perfect matching into leaf whiskers")
            return CmResult(CmStatus.CRITERION_INAPPLICABLE, None, None,
                            "no combinatorial criterion covers this digraph")
        labeled, bad = self._matching_weight_check(pairs, deg)
        if bad is not None:
            x, y = nm[bad[0]], nm[bad[1]]
            return CmResult(CmStatus.NOT_COHEN_MACAULAY, rule,
                            tuple((nm[a], nm[b]) for a, b in pairs),
                            f"matched arc ({x}, {y}) enters a leaf but "
                            f"d({x}) = {self.weights[bad[0]]} >= 2")
        return CmResult(CmStatus.COHEN_MACAULAY, rule,
                        tuple((nm[a], nm[b]) for a, b in labeled),
                        "leaf matching with unit weights on arcs into leaves")

    def weight_reduce(self) -> "WeightedDigraph":
        """Replace every weight >= 2 by 2; Cohen-Macaulayness is preserved."""
        ws = tuple(2 if w >= 2 else 1 for w in self.weights)
        return WeightedDigraph(self.context, ws, self.arcs)

    def __str__(self):
        arcs = sorted((self.names[i], self.names[j]) for i, j in self.arcs)
        ws = ", ".join(f"{n}={w}" for n, w in zip(self.names, self.weights))
        return f"WeightedDigraph({ws}; {arcs})"


@dataclass(frozen=True)
class CoverPartition:
    """A vertex cover C split into L1 (arc out of C), L3 (neighborhood inside
    C) and L2 (the rest); C is minimal exactly when L3 is empty."""

    cover: tuple[str, ...]
    L1: tuple[str, ...]
    L2: tuple[str, ...]
    L3: tuple[str, ...]
    _order: tuple[str, ...] = field(default=(), compare=False, repr=False)

    def is_minimal(self):
        return not self.L3

    def sort_key(self):
        order = self._order or tuple(sorted(self.cover))
        return (len(self.cover), tuple(order.index(v) for v in self.cover))

    def __str__(self):
        fmt = lambda s: "{" + ", ".join(s) + "}"
        return (f"C={fmt(self.cover)} L1={fmt(self.L1)} "
                f"L2={fmt(self.L2)} L3={fmt(self.L3)}")


@dataclass(frozen=True)
class DigraphStructure:
    acyclic: bool
    transitive: bool
    tournament: bool
    topological_order: tuple[str, ...] | None


class CmStatus(enum.Enum):
    COHEN_MACAULAY = "cohen_macaulay"
    NOT_COHEN_MACAULAY = "not_cohen_macaulay"
    CRITERION_INAPPLICABLE = "criterion_inapplicable"


@dataclass(frozen=True)
class CmResult:
    status: CmStatus
    rule: str | None
    matching: tuple[tuple[str, str], ...] | None
    reason: str


# ---------------------------------------------------------------------------
# generator-level transforms on monomial ideals

def depth_reduction_step(I: MonomialIdeal, var) -> MonomialIdeal:
    """Divide the top x_i-degree generators once by x_i.

    With q the top x_i-degree and p the next one, depth is preserved whenever
    p >= 1 and q - p >= 2; outside that range the step is refused."""
    I.require_proper_nonzero("the depth reduction step")
    i = I.context.index(var) if isinstance(var, str) else int(var)
    q = max(v[i] for v in I.exponents)
    lower = [v[i] for v in I.exponents if v[i] < q]
    p = max(lower) if lower else 0
    if p < 1 or q - p < 2:
        raise HypothesisError(
            f"depth reduction at {I.context.names[i]} needs p >= 1 and "
            f"q - p >= 2, got p={p}, q={q}")
    vecs = [tuple(e - 1 if j == i else e for j, e in enumerate(v))
            if v[i] == q else v
            for v in I.exponents]
    return MonomialIdeal(I.context, _minimal_vecs(vecs))


def polarize(I: MonomialIdeal):
    """Full polarization: x_i^e becomes x_{i,1} ... x_{i,e} in fresh variables.

    Returns the squarefree ideal in its extended context and the provenance
    map new name -> (old name, copy number).
    """
    I.require_proper_nonzero("polarization")
    ctx = I.context
    n = ctx.n
    copies = [max((v[j] for v in I.exponents), default=0) for j in range(n)]
    copies = [max(c, 1) for c in copies]
    new_names = []
    var_map = {}
    slot = {}  # (orig index, copy) -> new index
    for j in range(n):
        for c in range(1, copies[j] + 1):
            nm = f"{ctx.names[j]}_{c}"
            slot[(j, c)] = len(new_names)
            var_map[nm] = (ctx.names[j], c)
            new_names.append(nm)
    if len(set(new_names)) != len(new_names):
        raise ValueError(f"polarized variable names collide: {new_names}")
    new_ctx = PolyContext(tuple(new_names))
    vecs = []
    for v in I.exponents:
        w = [0] * len(new_names)
        for j, e in enumerate(v):
            for c in range(1, e + 1):
                w[slot[(j, c)]] = 1
        vecs.append(tuple(w))
    return MonomialIdeal(new_ctx, _minimal_vecs(vecs)), var_map
