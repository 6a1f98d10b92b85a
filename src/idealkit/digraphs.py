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
from dataclasses import dataclass

from .core import MonomialIdeal, PolyContext, _built
from .decomposition import Decomposition, IrreducibleIdeal
from .errors import DigraphError, HypothesisError, ImproperIdealError, ResourceCapError

DEFAULT_VERTEX_CAP = 20


def _bits(mask):
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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
        # per-vertex adjacency as bit masks, computed once; not fields, so
        # equality and hashing still see only (context, weights, arcs)
        outs, ins = [0] * ctx.n, [0] * ctx.n
        for i, j in arcs:
            outs[i] |= 1 << j
            ins[j] |= 1 << i
        fixed = list(ws)
        for i in range(ctx.n):
            if outs[i] and not ins[i] and fixed[i] != 1:
                warnings.warn(
                    f"source vertex {ctx.names[i]} has weight {fixed[i]}; "
                    f"normalized to 1", stacklevel=3)
                fixed[i] = 1
        object.__setattr__(self, "weights", tuple(fixed))
        object.__setattr__(self, "arcs", arcs)
        object.__setattr__(self, "_out", tuple(outs))
        object.__setattr__(self, "_in", tuple(ins))
        object.__setattr__(self, "_nbrs", tuple(o | i for o, i in zip(outs, ins)))
        object.__setattr__(self, "_heavy", sum(1 << v for v, w in enumerate(fixed)
                                               if w >= 2))

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

    def _vertex(self, v):
        """Index of the vertex ``v``, a context name or an int in range(n)."""
        if isinstance(v, str) and v in self.names:
            return self.context.index(v)
        if type(v) is int and 0 <= v < self.context.n:
            return v
        raise DigraphError(f"{v!r} is not a vertex of {self.names}")

    def _mask(self, vertices):
        return sum(1 << i for i in {self._vertex(v) for v in vertices})

    def weight(self, v):
        return self.weights[self._vertex(v)]

    def edges(self):
        """Underlying undirected edges as sorted index pairs."""
        return sorted({(min(i, j), max(i, j)) for i, j in self.arcs})

    def neighbors(self, v):
        return set(_bits(self._nbrs[self._vertex(v)]))

    def isolated_vertices(self):
        return [v for v in range(self.context.n) if not self._nbrs[v]]

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
        return MonomialIdeal.from_generators(self.context, vecs)

    # -- covers -------------------------------------------------------------
    def _covers(self, c):
        return all((c >> i | c >> j) & 1 for i, j in self.arcs)

    def is_vertex_cover(self, vertices) -> bool:
        return self._covers(self._mask(vertices))

    def _partition(self, c):
        """Masks (C, L1, L2, L3) of the vertex cover c: L1 holds the in-neighbours
        of the vertices outside C, L3 the vertices of C with none outside."""
        l1 = reached = 0
        for v in _bits(~c & (1 << self.context.n) - 1):
            l1 |= self._in[v]
            reached |= self._nbrs[v]
        l3 = c & ~reached
        return c, l1, c & ~(l1 | l3), l3

    def _is_strong(self, c, l1, l2, l3):
        # every L3 vertex needs an in-arc from an L2/L3 vertex of weight >= 2
        inner = (l2 | l3) & self._heavy
        return all(self._in[x] & inner for x in _bits(l3))

    def _cover_parts(self, vertices):
        """Partition masks of ``vertices``; DigraphError unless a cover."""
        c = self._mask(vertices)
        if not self._covers(c):
            raise DigraphError(f"{list(self._names_of(c))} is not a vertex cover")
        return self._partition(c)

    def _names_of(self, mask):
        return tuple(self.names[v] for v in _bits(mask))

    def cover_partition(self, vertices) -> "CoverPartition":
        return CoverPartition(*map(self._names_of, self._cover_parts(vertices)))

    def is_strong_cover(self, vertices) -> bool:
        return self._is_strong(*self._cover_parts(vertices))

    def _strong_covers(self, max_vertices):
        """Partition masks of the strong covers, in ``strong_covers`` order."""
        active = [v for v in range(self.context.n) if self._nbrs[v]]
        if len(active) > max_vertices:
            raise ResourceCapError(
                f"{len(active)} vertices exceed the enumeration cap "
                f"{max_vertices}")
        # earlier[v]: bit mask of the neighbours of v with a smaller index
        earlier = [nb & ((1 << v) - 1) for v, nb in enumerate(self._nbrs)]
        # cuts[d]: (x with its neighbours, out-masks of x's heavy
        # in-neighbours) for each active x whose strength is settled once d
        # active vertices are decided
        depth_of = {v: d + 1 for d, v in enumerate(active)}
        cuts = [[] for _ in range(len(active) + 1)]
        for x in active:
            near = 1 << x | self._nbrs[x]
            outs = [self._out[y] for y in _bits(self._in[x] & self._heavy)]
            settled = near
            for o in outs:
                settled |= o
            cuts[max(map(depth_of.get, _bits(settled)))].append((near, outs))
        out = []
        stack = [(0, 0)]  # (number of active vertices decided, mask chosen)
        while stack:
            depth, mask = stack.pop()
            # drop the branch if a settled x is in L3 (x and its neighbours
            # chosen) and every heavy in-neighbour of x is in L1 (an
            # out-neighbour left out)
            dead = False
            for near, outs in cuts[depth]:
                if near & ~mask == 0:
                    dead = True
                    for o in outs:
                        if o & ~mask == 0:
                            dead = False
                            break
                    if dead:
                        break
            if dead:
                continue
            if depth == len(active):
                out.append(self._partition(mask))
                continue
            v = active[depth]
            if earlier[v] & ~mask == 0:
                stack.append((depth + 1, mask))
            stack.append((depth + 1, mask | 1 << v))
        out.sort(key=lambda parts: parts[0].bit_count())
        return out

    def strong_covers(self, max_vertices: int = DEFAULT_VERTEX_CAP):
        """All strong vertex covers, as partitions, in canonical order.

        Isolated vertices are skipped: they would sit in L3 with no in-arc,
        so no strong cover contains them.  Vertex covers are enumerated on
        bit masks by branching over the active vertices in ascending order:
        a vertex may be left out only when all of its earlier neighbours are
        in, so every leaf is exactly one vertex cover.  A cover is strong iff
        no vertex x is in L3 (x and its neighbours in the cover) with every
        heavy (weight >= 2) in-neighbour in L1 (an out-neighbour left out).
        That is decided for x at its settled depth, where x, its neighbours
        and the out-neighbours of its heavy in-neighbours are all decided,
        and a branch that fails it is dropped there.  So every leaf left is
        a strong cover, partitioned once.  Taking a vertex is explored
        before leaving it out, so a stable sort by size lists the covers by
        size, then in vertex order (the order of ``itertools.combinations``).
        The cap counts active vertices."""
        return [CoverPartition(*map(self._names_of, parts))
                for parts in self._strong_covers(max_vertices)]

    def prt_decomposition(self, max_vertices: int = DEFAULT_VERTEX_CAP) -> Decomposition:
        """Irreducible decomposition of the edge ideal, one component per
        strong cover: L1 vertices enter with exponent 1, L2/L3 vertices with
        their weight."""
        if not self.arcs:
            raise ImproperIdealError(
                "the digraph has no arcs, so its edge ideal is zero and has "
                "no decomposition")
        return Decomposition(tuple(
            _built(IrreducibleIdeal, context=self.context, powers=tuple(
                (v, 1 if l1 >> v & 1 else self.weights[v]) for v in _bits(c)))
            for c, l1, _, _ in self._strong_covers(max_vertices)))

    # -- structural predicates ---------------------------------------------
    def structure(self) -> "DigraphStructure":
        n = self.context.n
        order = self._topological_order()
        # i -> j -> k forces i -> k; k == i cannot occur without a 2-cycle
        transitive = all(self._out[j] & ~self._out[i] == 0 for i, j in self.arcs)
        tournament = len(self.edges()) == n * (n - 1) // 2
        topo = None
        if order is not None:
            topo = tuple(self.context.names[v] for v in order)
        return DigraphStructure(order is not None, transitive, tournament, topo)

    def _topological_order(self):
        """Kahn's order, smallest ready vertex first; None on a cycle."""
        n = self.context.n
        indeg = [m.bit_count() for m in self._in]
        ready = [v for v in range(n) if indeg[v] == 0]
        order = []
        while ready:
            v = heapq.heappop(ready)
            order.append(v)
            for j in _bits(self._out[v]):
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
            nb = self._nbrs[leaf].bit_length() - 1
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
        deg = [nbrs.bit_count() for nbrs in self._nbrs]
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

    def is_minimal(self):
        return not self.L3

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
    ctx = I.context
    if isinstance(var, str) and var in ctx.names:
        i = ctx.index(var)
    elif type(var) is int and 0 <= var < ctx.n:
        i = var
    else:
        raise ValueError(f"{var!r} is not a variable of {ctx.names}")
    q = max(v[i] for v in I.exponents)
    lower = [v[i] for v in I.exponents if v[i] < q]
    p = max(lower) if lower else 0
    if p < 1 or q - p < 2:
        raise HypothesisError(
            f"depth reduction at {ctx.names[i]} needs p >= 1 and "
            f"q - p >= 2, got p={p}, q={q}")
    vecs = [tuple(e - 1 if j == i else e for j, e in enumerate(v))
            if v[i] == q else v
            for v in I.exponents]
    return MonomialIdeal.from_generators(ctx, vecs)


def polarize(I: MonomialIdeal):
    """Full polarization: x_i^e becomes x_{i,1} ... x_{i,e} in fresh variables.

    Returns the squarefree ideal in its extended context and the provenance
    map new name -> (old name, copy number).
    """
    I.require_proper_nonzero("polarization")
    names = I.context.names
    # new variables in order: copy c of x_j for c = 1..max(1, top exponent of x_j)
    slots = [(j, c) for j, col in enumerate(zip(*I.exponents))
             for c in range(1, max(1, *col) + 1)]
    new_names = tuple(f"{names[j]}_{c}" for j, c in slots)
    var_map = {nm: (names[j], c) for nm, (j, c) in zip(new_names, slots)}
    vecs = [tuple(int(v[j] >= c) for j, c in slots) for v in I.exponents]
    return MonomialIdeal.from_generators(PolyContext(new_names), vecs), var_map
