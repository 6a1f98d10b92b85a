"""Weighted oriented graphs: covers, decomposition, classification."""

import itertools
import random

import pytest

from idealkit import (
    CmStatus,
    CoverPartition,
    DigraphError,
    HypothesisError,
    PolyContext,
    ResourceCapError,
    WeightedDigraph,
    alexander_dual,
    depth_reduction_step,
    irreducible_decomposition,
    is_unmixed,
    polarize,
    star_dual,
)

from oracles import (
    cover_partition_reference,
    random_forest_digraph,
    random_oriented_digraph,
    random_transitive_digraph,
    strong_covers_by_subsets,
    structure_reference,
)


def _single_arc(d2=1):
    return WeightedDigraph.of([("x1", 1), ("x2", d2)], [("x1", "x2")])


# ---------------------------------------------------------------------------
# construction and validation

def test_two_cycle_rejected():
    with pytest.raises(DigraphError):
        WeightedDigraph.of([("x1", 1), ("x2", 1)], [("x1", "x2"), ("x2", "x1")])


def test_loop_and_bad_weight_rejected():
    with pytest.raises(DigraphError):
        WeightedDigraph.of([("x1", 1)], [("x1", "x1")])
    with pytest.raises(DigraphError):
        WeightedDigraph.of([("x1", 0), ("x2", 1)], [("x1", "x2")])


def test_source_weight_normalized_with_warning():
    with pytest.warns(UserWarning, match="source vertex x1"):
        D = WeightedDigraph.of([("x1", 3), ("x2", 2)], [("x1", "x2")])
    assert D.weight("x1") == 1 and D.weight("x2") == 2


# ---------------------------------------------------------------------------
# edge ideals

def test_edge_ideal_fig1(fig1_digraph, fig1_ideal):
    ctx = fig1_digraph.context
    assert fig1_ideal == ctx.ideal("x1^2*x3", "x1*x2^2", "x3*x2^2",
                                   "x3*x4^2", "x4^2*x5", "x2^2*x5")


def test_edge_ideal_transitive_example(transitive_example_digraph):
    D = transitive_example_digraph
    assert D.edge_ideal() == D.context.ideal("x1*x2", "x2^2*x3", "x3*x4", "x1*x3")


def test_unit_weights_give_squarefree_graph_ideal():
    D = WeightedDigraph.of([("x1", 1), ("x2", 1), ("x3", 1)],
                           [("x1", "x2"), ("x2", "x3")])
    assert D.edge_ideal() == D.context.ideal("x1*x2", "x2*x3")


# ---------------------------------------------------------------------------
# cover partitions

def test_cover_partition_single_arc():
    part = _single_arc().cover_partition({"x1"})
    assert part.cover == ("x1",) and part.L1 == ("x1",)
    assert part.L2 == () and part.L3 == ()


def test_cover_partition_all_vertices(fig1_digraph):
    part = fig1_digraph.cover_partition(fig1_digraph.names)
    assert part.L3 == fig1_digraph.names and part.L1 == () and part.L2 == ()


def test_cover_partition_fig1_mixed(fig1_digraph):
    part = fig1_digraph.cover_partition({"x2", "x3", "x5"})
    assert "x3" in part.L1  # the arc (x3, x4) leaves the cover
    assert part.L3 == ()    # this cover is minimal
    assert part.is_minimal()


def test_neighbors_returns_a_fresh_set(fig1_digraph):
    D = fig1_digraph
    for v in range(D.context.n):
        expected = {j for i, j in D.arcs if i == v} | {i for i, j in D.arcs if j == v}
        nb = D.neighbors(v)
        assert nb == expected
        nb.add(-1)
        assert D.neighbors(v) == expected
    # the cached adjacency is no field: equality and hashing see the arcs only
    twin = WeightedDigraph(D.context, D.weights, set(D.arcs))
    assert twin == D and hash(twin) == hash(D)


def test_not_a_cover_rejected(fig1_digraph):
    with pytest.raises(DigraphError):
        fig1_digraph.cover_partition({"x1", "x2"})


def _path_abc():
    return WeightedDigraph.of([("a", 1), ("b", 2), ("c", 1)],
                              [("a", "b"), ("b", "c")])


def test_cover_partition_by_index_and_by_name():
    D = _path_abc()
    want = CoverPartition(("b", "c"), (), ("b",), ("c",))
    assert D.cover_partition({1, 2}) == D.cover_partition({"b", "c"}) == want
    assert D.weight(1) == D.weight("b") == 2
    assert D.neighbors("b") == D.neighbors(1) == {0, 2}


@pytest.mark.parametrize("bad", [-1, 3, 7, 1.5, "zz", True, None], ids=repr)
@pytest.mark.parametrize("method", ["weight", "neighbors", "is_vertex_cover",
                                    "cover_partition", "is_strong_cover"])
def test_vertex_arguments_are_validated(method, bad):
    # only context names and ints in range(n) name a vertex: no wrap-around
    # of negative indices, no truncation of floats, no bare KeyError
    D = _path_abc()
    arg = bad if method in ("weight", "neighbors") else [1, bad]
    with pytest.raises(DigraphError, match="is not a vertex"):
        getattr(D, method)(arg)


# ---------------------------------------------------------------------------
# strong covers

def test_minimal_covers_are_strong(fig1_digraph):
    for c in ({"x2", "x3", "x5"}, {"x2", "x3", "x4"}):
        part = fig1_digraph.cover_partition(c)
        assert part.is_minimal()
        assert fig1_digraph.is_strong_cover(c)


def test_fig1_nonminimal_strong_cover(fig1_digraph):
    assert fig1_digraph.is_strong_cover({"x1", "x2", "x4"})


def test_acyclic_tournament_full_set_not_strong():
    arcs = [(f"x{i}", f"x{j}") for i in range(1, 5) for j in range(i + 1, 5)]
    D = WeightedDigraph.of([(f"x{i}", 2 if i > 1 else 1) for i in range(1, 5)],
                           arcs)
    assert not D.is_strong_cover({"x1", "x2", "x3", "x4"})


def test_strong_covers_single_arc():
    covers = [p.cover for p in _single_arc().strong_covers()]
    assert covers == [("x1",), ("x2",)]


def test_strong_covers_fig1_count(fig1_digraph):
    assert len(fig1_digraph.strong_covers()) == 4


def test_strong_covers_radical_example(radical_example_digraph):
    assert len(radical_example_digraph.strong_covers()) == 4


def test_vertex_cap(fig1_digraph):
    with pytest.raises(ResourceCapError):
        fig1_digraph.strong_covers(max_vertices=3)


def test_strong_covers_match_subset_enumeration():
    rng = random.Random(4107)
    isolated_seen = 0
    for t in range(200):
        D = random_oriented_digraph(rng, max_vertices=7)
        if t % 4 == 0:
            # append isolated vertices, which no strong cover may contain
            extra = rng.randint(1, 2)
            n = D.context.n + extra
            D = WeightedDigraph(PolyContext.default(n),
                                D.weights + tuple(rng.randint(1, 3)
                                                  for _ in range(extra)),
                                D.arcs)
        isolated_seen += bool(D.isolated_vertices())
        assert D.strong_covers() == strong_covers_by_subsets(D)
    assert isolated_seen >= 50


def test_cover_rules_match_reference():
    rng = random.Random(5309)
    makers = (random_oriented_digraph, random_forest_digraph,
              random_transitive_digraph)
    names = lambda D, s: tuple(D.names[v] for v in s)
    seen = {"not a cover": 0, "strong with L3": 0, "not strong": 0}
    for t in range(90):
        D = makers[t % 3](rng, max_vertices=6)
        n = D.context.n
        for combo in itertools.chain.from_iterable(
                itertools.combinations(range(n), k) for k in range(n + 1)):
            arg = names(D, combo) if t % 2 else combo
            ref = cover_partition_reference(D, combo)
            assert D.is_vertex_cover(arg) == (ref is not None)
            if ref is None:
                seen["not a cover"] += 1
                with pytest.raises(DigraphError):
                    D.cover_partition(arg)
                with pytest.raises(DigraphError):
                    D.is_strong_cover(arg)
                continue
            l1, l2, l3, strong = ref
            assert D.cover_partition(arg) == CoverPartition(
                names(D, combo), names(D, l1), names(D, l2), names(D, l3))
            assert D.is_strong_cover(arg) == strong
            seen["strong with L3"] += strong and bool(l3)
            seen["not strong"] += not strong
    assert min(seen.values()) >= 20, seen


def test_prt_rejects_arcless_digraph():
    from idealkit import ImproperIdealError
    D = WeightedDigraph.of([("x1", 1), ("x2", 1)], [])
    with pytest.raises(ImproperIdealError):
        D.prt_decomposition()


# ---------------------------------------------------------------------------
# cover-wise decomposition

def test_prt_fig1(fig1_digraph, fig1_ideal):
    dec = fig1_digraph.prt_decomposition()
    assert dec == irreducible_decomposition(fig1_ideal)
    assert [str(c) for c in dec] == [
        "(x1^2, x2^2, x4^2)", "(x1, x3, x5)",
        "(x2^2, x3, x4^2)", "(x2^2, x3, x5)"]


def test_prt_radical_example(radical_example_digraph, radical_example_ideal):
    dec = radical_example_digraph.prt_decomposition()
    assert dec == irreducible_decomposition(radical_example_ideal)
    assert {str(c) for c in dec} == {
        "(x1, x3)", "(x2, x3)", "(x1, x2^2, x4)", "(x2, x4)"}


def test_prt_unit_weights_matches_minimal_covers():
    D = WeightedDigraph.of([("x1", 1), ("x2", 1), ("x3", 1)],
                           [("x1", "x2"), ("x2", "x3")])
    dec = D.prt_decomposition()
    assert {str(c) for c in dec} == {"(x2)", "(x1, x3)"}


def test_prt_matches_decomposition_on_randoms():
    rng = random.Random(11)
    for _ in range(30):
        D = random_oriented_digraph(rng)
        assert D.prt_decomposition() == irreducible_decomposition(D.edge_ideal())


def test_associated_primes_are_exactly_strong_covers():
    from idealkit import associated_primes
    rng = random.Random(3535)
    for _ in range(25):
        D = random_oriented_digraph(rng)
        got = {p.names for p in associated_primes(D.edge_ideal())}
        want = {part.cover for part in D.strong_covers()}
        assert got == want


# ---------------------------------------------------------------------------
# structure flags

def test_structure_transitive_example(transitive_example_digraph):
    st = transitive_example_digraph.structure()
    assert st.transitive and st.acyclic and not st.tournament


def test_structure_path_not_transitive():
    D = WeightedDigraph.of([("x1", 1), ("x2", 1), ("x3", 1)],
                           [("x1", "x2"), ("x2", "x3")])
    st = D.structure()
    assert st.acyclic and not st.transitive
    assert st.topological_order == ("x1", "x2", "x3")


def test_structure_acyclic_tournament():
    arcs = [(f"x{i}", f"x{j}") for i in range(1, 5) for j in range(i + 1, 5)]
    D = WeightedDigraph.of([(f"x{i}", 1) for i in range(1, 5)], arcs)
    st = D.structure()
    assert st.acyclic and st.transitive and st.tournament


def test_structure_matches_brute_force_reference():
    rng = random.Random(2203)
    graphs = [random_oriented_digraph(rng) for _ in range(200)]
    graphs += [random_transitive_digraph(rng) for _ in range(50)]
    flags = set()
    for D in graphs:
        st = D.structure()
        assert st == structure_reference(D), str(D)
        flags.add((st.acyclic, st.transitive, st.tournament))
    # cyclic, acyclic, transitive and not, tournaments and not all occur
    assert {f[0] for f in flags} == {f[1] for f in flags} == {True, False}
    assert {f[2] for f in flags} == {True, False}


def test_structure_cycle():
    D = WeightedDigraph.of([("x1", 1), ("x2", 1), ("x3", 1)],
                           [("x1", "x2"), ("x2", "x3"), ("x3", "x1")])
    st = D.structure()
    assert not st.acyclic and st.topological_order is None


def test_transitive_duality():
    rng = random.Random(9000)
    from oracles import random_transitive_digraph
    for _ in range(20):
        D = random_transitive_digraph(rng)
        assert D.structure().transitive
        I = D.edge_ideal()
        assert star_dual(I) == alexander_dual(I)


# ---------------------------------------------------------------------------
# Cohen-Macaulay classification

def test_single_arc_is_cm():
    res = _single_arc().cm_classify()
    assert res.status is CmStatus.COHEN_MACAULAY
    assert res.rule == "forest"


def test_forest_with_heavy_tail_into_leaf_not_cm():
    # matching edge (x2, y2) oriented into the leaf with d(x2) = 2
    D = WeightedDigraph.of(
        [("x1", 1), ("y1", 1), ("x2", 2), ("y2", 1)],
        [("x1", "y1"), ("x1", "x2"), ("x2", "y2")])
    res = D.cm_classify()
    assert res.status is CmStatus.NOT_COHEN_MACAULAY
    assert not is_unmixed(D.edge_ideal())
    # the proof's witness: a strong cover one vertex larger than the height
    heights = {len(p.cover) for p in D.strong_covers()}
    assert len(heights) > 1


def test_acyclic_tournament_cm_any_weights():
    arcs = [(f"x{i}", f"x{j}") for i in range(1, 5) for j in range(i + 1, 5)]
    D = WeightedDigraph.of(
        [("x1", 1), ("x2", 3), ("x3", 2), ("x4", 5)], arcs)
    res = D.cm_classify()
    assert res.status is CmStatus.COHEN_MACAULAY
    assert res.rule == "acyclic-tournament"


def test_whisker_matching_rule_beyond_forests():
    # a 3-cycle with a leaf whisker on every vertex
    D = WeightedDigraph.of(
        [("x1", 1), ("x2", 2), ("x3", 1), ("y1", 1), ("y2", 1), ("y3", 3)],
        [("x1", "x2"), ("x2", "x3"), ("x1", "x3"),
         ("y1", "x1"), ("y2", "x2"), ("x3", "y3")])
    res = D.cm_classify()
    assert res.rule == "whisker-matching"
    assert res.status is CmStatus.COHEN_MACAULAY
    assert is_unmixed(D.edge_ideal())
    # flip: orient the matched arc into the leaf from a weight-2 vertex
    D2 = WeightedDigraph.of(
        [("x1", 1), ("x2", 2), ("x3", 1), ("y1", 1), ("y2", 2), ("y3", 3)],
        [("x1", "x2"), ("x2", "x3"), ("x1", "x3"),
         ("y1", "x1"), ("x2", "y2"), ("x3", "y3")])
    res2 = D2.cm_classify()
    assert res2.status is CmStatus.NOT_COHEN_MACAULAY
    assert not is_unmixed(D2.edge_ideal())


def test_not_cm_results_name_the_matching_and_the_failure():
    # the bad matched arc is reported with the matching as found, leaf second
    forest = WeightedDigraph.of(
        [("x1", 1), ("y1", 1), ("x2", 2), ("y2", 1)],
        [("x1", "y1"), ("x1", "x2"), ("x2", "y2")])
    whiskered = WeightedDigraph.of(
        [("x1", 1), ("x2", 2), ("x3", 1), ("y1", 1), ("y2", 2), ("y3", 3)],
        [("x1", "x2"), ("x2", "x3"), ("x1", "x3"),
         ("y1", "x1"), ("x2", "y2"), ("x3", "y3")])
    path = WeightedDigraph.of([("x1", 1), ("x2", 1), ("x3", 1)],
                              [("x1", "x2"), ("x2", "x3")])
    reason = "matched arc (x2, y2) enters a leaf but d(x2) = 2 >= 2"
    results = [D.cm_classify() for D in (forest, whiskered, path)]
    got = [(r.status, r.rule, r.matching, r.reason) for r in results]
    assert got == [
        (CmStatus.NOT_COHEN_MACAULAY, "forest",
         (("x1", "y1"), ("x2", "y2")), reason),
        (CmStatus.NOT_COHEN_MACAULAY, "whisker-matching",
         (("x1", "y1"), ("x2", "y2"), ("x3", "y3")), reason),
        (CmStatus.NOT_COHEN_MACAULAY, "forest", None,
         "no perfect matching into leaf whiskers"),
    ]


def test_isolated_vertex_inapplicable():
    D = WeightedDigraph.of([("x1", 1), ("x2", 1), ("x3", 1)], [("x1", "x2")])
    res = D.cm_classify()
    assert res.status is CmStatus.CRITERION_INAPPLICABLE
    assert "isolated" in res.reason


def test_odd_cycle_inapplicable():
    D = WeightedDigraph.of(
        [("x1", 1), ("x2", 1), ("x3", 1), ("x4", 1), ("x5", 1)],
        [("x1", "x2"), ("x2", "x3"), ("x3", "x4"), ("x4", "x5"), ("x5", "x1")])
    assert D.cm_classify().status is CmStatus.CRITERION_INAPPLICABLE


def test_forest_classifier_matches_unmixedness():
    rng = random.Random(4242)
    for _ in range(25):
        D = random_forest_digraph(rng, max_vertices=8)
        res = D.cm_classify()
        assert res.status is not CmStatus.CRITERION_INAPPLICABLE
        assert (res.status is CmStatus.COHEN_MACAULAY) == is_unmixed(D.edge_ideal())


# ---------------------------------------------------------------------------
# weight reduction

def test_weight_reduce_examples():
    D = WeightedDigraph.of([("x1", 1), ("x2", 5), ("x3", 3)],
                           [("x1", "x2"), ("x2", "x3")])
    R = D.weight_reduce()
    assert R.weights == (1, 2, 2)
    assert R.weight_reduce() == R  # fixed point


def test_weight_reduce_preserves_classification():
    rng = random.Random(5757)
    for _ in range(20):
        D = random_forest_digraph(rng, max_vertices=8, max_weight=5)
        assert D.cm_classify().status == D.weight_reduce().cm_classify().status


# ---------------------------------------------------------------------------
# depth reduction and polarization

def test_depth_reduction_examples(ctx3):
    I = ctx3.ideal("x1^4*x2", "x1*x3")
    assert depth_reduction_step(I, "x1") == ctx3.ideal("x1^3*x2", "x1*x3")
    with pytest.raises(HypothesisError, match="p=0, q=3"):
        depth_reduction_step(ctx3.ideal("x1^3*x2", "x3"), "x1")
    with pytest.raises(HypothesisError):
        depth_reduction_step(ctx3.ideal("x1^2*x2", "x1*x3"), "x1")  # q - p = 1


@pytest.mark.parametrize("var", [-1, 2, 1.7, True, "zz"])
def test_depth_reduction_rejects_non_variables(var):
    ctx = PolyContext.default(2)
    I = ctx.ideal("x1^3", "x1*x2", "x2^5")
    with pytest.raises(ValueError, match="not a variable"):
        depth_reduction_step(I, var)
    want = ctx.ideal("x2^4", "x1*x2", "x1^3")
    assert depth_reduction_step(I, "x2") == want
    assert depth_reduction_step(I, 1) == want


def test_iterated_depth_reduction_reproduces_weight_reduce():
    D = WeightedDigraph.of([("x1", 1), ("x2", 5), ("x3", 1)],
                           [("x1", "x2"), ("x2", "x3")])
    I = D.edge_ideal()
    j = "x2"
    while max(v[I.context.index(j)] for v in I.exponents) > 2:
        I = depth_reduction_step(I, j)
    assert I == D.weight_reduce().edge_ideal()


def test_polarize_examples():
    ctx1 = PolyContext.default(1)
    J, vmap = polarize(ctx1.ideal("x1^2"))
    assert J == J.context.ideal("x1_1*x1_2")
    assert vmap == {"x1_1": ("x1", 1), "x1_2": ("x1", 2)}

    ctx2 = PolyContext.default(2)
    J2, _ = polarize(ctx2.ideal("x1^2*x2", "x2^2"))
    assert J2 == J2.context.ideal("x1_1*x1_2*x2_1", "x2_1*x2_2")


def test_polarize_edge_ideal_structure(fig1_ideal):
    J, vmap = polarize(fig1_ideal)
    assert all(all(e <= 1 for e in v) for v in J.exponents)  # squarefree
    assert len(J.exponents) == len(fig1_ideal.exponents)
    assert set(vmap) == set(J.context.names)
