"""Acceptance suite: the thirteen exit criteria, one pass/fail line each.

Every expected value here is exact (integer vectors, set equality of minimal
generators); run with ``pytest -s tests/test_acceptance.py`` to see the
per-criterion report lines.
"""

import random

import pytest

from idealkit import (
    CmStatus,
    MonomialIdeal,
    PolyContext,
    WeightedDigraph,
    alexander_dual,
    cones_equal,
    dual_description,
    hilbert_basis,
    integral_closure,
    irreducible_decomposition,
    is_normal,
    is_unmixed,
    ntf_probe,
    rees_cone,
    simis_cone,
    star_dual,
    symbolic_power_ass,
    symbolic_power_min,
)

from oracles import (
    additive_closure_in_box,
    box_vectors,
    random_forest_digraph,
    random_ideal,
    random_no_embedded_ideal,
    random_oriented_digraph,
    random_pointed_cone,
    random_transitive_digraph,
    symbolic_power_reference,
)


def _report(num, desc, ok, detail=""):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {desc}"
          + (f" [{detail}]" if detail and not ok else ""))
    assert ok, f"criterion {num} failed: {desc} {detail}"


def test_criterion_01_example_2_10_symbolic_square(ex2_10_ideal):
    ctx = ex2_10_ideal.context
    want = ex2_10_ideal ** 2 + ctx.ideal("x1*x2^2*x5", "x1*x2^2*x3")
    got = symbolic_power_min(ex2_10_ideal, 2)
    _report(1, "I^(2) = I^2 + (x1x2^2x5, x1x2^2x3) for the 2.10 ideal",
            got == want, f"got {got}")


def test_criterion_02_example_2_12_first_powers(ex2_12_ideal):
    ctx = ex2_12_ideal.context
    ok_min = symbolic_power_min(ex2_12_ideal, 1) == \
        ex2_12_ideal + ctx.ideal("x1*x2*x3")
    ok_ass = symbolic_power_ass(ex2_12_ideal, 1) == ex2_12_ideal
    _report(2, "I^(1) = I + (x1x2x3) and I^<1> = I for the 2.12 ideal",
            ok_min and ok_ass)


PRINTED_HILBERT_BASIS = """
0 0 0 0 1 0     1 2 0 0 0 1
0 0 0 1 0 0     2 0 1 0 0 1
0 0 1 0 0 0     1 2 0 0 1 2
0 1 0 0 0 0     1 2 1 0 0 2
1 0 0 0 0 0     2 2 1 0 1 3
0 0 0 1 1 1     2 2 2 0 0 3
0 0 1 1 0 1     2 4 1 0 2 5
0 1 0 0 1 1     2 4 2 0 1 5
0 1 1 0 0 1     2 4 3 0 0 5
"""


def test_criterion_03_example_2_22_hilbert_basis(ex2_10_ideal):
    fixture = set()
    for line in PRINTED_HILBERT_BASIS.strip().splitlines():
        nums = [int(t) for t in line.split()]
        fixture.add(tuple(nums[:6]))
        fixture.add(tuple(nums[6:]))
    fixture.discard(())
    assert len(fixture) == 18
    cone = simis_cone(ex2_10_ideal)
    # coordinate-order validation: each printed vector, read as
    # (x1..x5 exponents, t-degree), must lie in the constructed cone
    order_ok = all(cone.contains(v) for v in fixture)
    hb = hilbert_basis(cone)
    _report(3, "Hilbert basis of the Simis cone equals the 18 printed vectors",
            order_ok and hb.as_set() == fixture,
            f"order_ok={order_ok}, got {len(hb)} elements")


def test_criterion_04_fig1(fig1_digraph, fig1_reversed_digraph, fig1_ideal):
    ctx = fig1_digraph.context
    ok_ideal = fig1_ideal == ctx.ideal(
        "x1^2*x3", "x1*x2^2", "x3*x2^2", "x3*x4^2", "x4^2*x5", "x2^2*x5")
    dec = irreducible_decomposition(fig1_ideal)
    prt = fig1_digraph.prt_decomposition()
    want_components = {"(x1^2, x2^2, x4^2)", "(x1, x3, x5)",
                       "(x2^2, x3, x4^2)", "(x2^2, x3, x5)"}
    ok_dec = ({str(c) for c in dec} == want_components and prt == dec)
    ok_closure = integral_closure(fig1_ideal) == fig1_ideal + ctx.ideal(
        "x1*x2*x3", "x1*x3*x4", "x2*x3*x4", "x2*x4*x5")
    ok_flip = is_unmixed(fig1_ideal) and not is_unmixed(
        fig1_reversed_digraph.edge_ideal())
    _report(4, "Fig. 1: generators, both decompositions, closure, unmixedness flip",
            ok_ideal and ok_dec and ok_closure and ok_flip,
            f"ideal={ok_ideal} dec={ok_dec} closure={ok_closure} flip={ok_flip}")


def test_criterion_05_alexander_duality_trio(ex3_16_ideal, ex3_17_ideal,
                                             principal_mixed_ideal):
    c = ex3_16_ideal.context
    d16, s16 = alexander_dual(ex3_16_ideal), star_dual(ex3_16_ideal)
    ok16 = d16 == s16
    d17, s17 = alexander_dual(ex3_17_ideal), star_dual(ex3_17_ideal)
    ok17 = s17.contains_ideal(d17) and s17 != d17
    d3, s3 = alexander_dual(principal_mixed_ideal), star_dual(principal_mixed_ideal)
    ok3 = (d3 == c.ideal("x1", "x2^2*x3")
           and s3 == c.ideal("x1^2", "x1*x3", "x2^2*x3")
           and d3.contains_ideal(s3) and d3 != s3)
    _report(5, "duality trio: 3.16 equal, 3.17 strictly below, final strictly above",
            ok16 and ok17 and ok3, f"16={ok16} 17={ok17} final={ok3}")


def test_criterion_06_radical_and_terai(radical_example_ideal, terai_ideal):
    got = {str(comp) for comp in irreducible_decomposition(radical_example_ideal)}
    want = {"(x1, x3)", "(x2, x3)", "(x1, x2^2, x4)", "(x2, x4)"}
    ok = (got == want and not is_unmixed(radical_example_ideal)
          and is_unmixed(terai_ideal))
    _report(6, "radical example decomposes to the four components and is mixed; "
               "Terai ideal is unmixed", ok, f"got {sorted(got)}")


def test_criterion_07_normality_vs_torsion_freeness():
    ctx = PolyContext.default(2)
    I = ctx.ideal("x1^2", "x2^2")
    probe = ntf_probe(I, 4)
    ok = (not is_normal(I)) and probe.all_equal()
    _report(7, "(x1^2, x2^2) is normally torsion-free and not normal", ok,
            f"normal={is_normal(I)} probe={probe.equal}")


def test_criterion_08_prt_oracle_equivalence():
    rng = random.Random(108108)
    mismatches = 0
    for _ in range(200):
        D = random_oriented_digraph(rng, max_vertices=6, max_weight=3)
        if D.prt_decomposition() != irreducible_decomposition(D.edge_ideal()):
            mismatches += 1
    _report(8, "200 random oriented graphs: cover-wise == "
               "generator-by-generator decomposition",
            mismatches == 0, f"{mismatches} mismatches")


def test_criterion_09_exponent_duality():
    rng = random.Random(90909)
    mismatches = 0
    count = 0
    while count < 200:
        I = random_ideal(rng, n=4, max_exp=4, max_gens=4)
        if not I.is_proper_nonzero():
            continue
        count += 1
        gen_powers = {(i, e) for v in I.exponents
                      for i, e in enumerate(v) if e >= 1}
        comp_powers = {(i, e) for c in irreducible_decomposition(I)
                       for i, e in c.powers}
        if gen_powers != comp_powers:
            mismatches += 1
    _report(9, "200 random ideals: generator exponents == component pure powers",
            mismatches == 0, f"{mismatches} mismatches")


def test_criterion_10_symbolic_routes_and_chain():
    rng = random.Random(101010)
    mismatches = chain_violation = 0
    for _ in range(100):
        I = random_no_embedded_ideal(rng)
        for k in (1, 2, 3):
            a = symbolic_power_min(I, k)
            if a != symbolic_power_reference(I, k):
                mismatches += 1
            mid = symbolic_power_ass(I, k)
            if not (mid.contains_ideal(I ** k) and a.contains_ideal(mid)):
                chain_violation += 1
    # both must also hold on ideals that may have embedded primes
    count = 0
    while count < 30:
        I = random_ideal(rng, n=3, max_exp=3, max_gens=3)
        if not I.is_proper_nonzero():
            continue
        count += 1
        for k in (1, 2):
            mid = symbolic_power_ass(I, k)
            top = symbolic_power_min(I, k)
            if top != symbolic_power_reference(I, k):
                mismatches += 1
            if not (mid.contains_ideal(I ** k) and top.contains_ideal(mid)):
                chain_violation += 1
    _report(10, "130 random ideals: localization reference and power chain",
            mismatches == 0 and chain_violation == 0,
            f"reference={mismatches} chain={chain_violation}")


def test_criterion_11_transitive_duality():
    rng = random.Random(111111)
    mismatches = 0
    for _ in range(100):
        D = random_transitive_digraph(rng, max_vertices=6, max_weight=3)
        assert D.structure().transitive
        I = D.edge_ideal()
        if star_dual(I) != alexander_dual(I):
            mismatches += 1
    _report(11, "100 random transitive orientations: star dual == Alexander dual",
            mismatches == 0, f"{mismatches} mismatches")


def test_criterion_12_forest_classifier():
    rng = random.Random(121212)
    mismatches = reduce_mismatch = 0
    for _ in range(100):
        D = random_forest_digraph(rng, max_vertices=12, max_weight=3)
        res = D.cm_classify()
        assert res.status is not CmStatus.CRITERION_INAPPLICABLE
        if (res.status is CmStatus.COHEN_MACAULAY) != is_unmixed(D.edge_ideal()):
            mismatches += 1
        if D.weight_reduce().cm_classify().status != res.status:
            reduce_mismatch += 1
    _report(12, "100 random weighted oriented forests: unmixed <=> classifier, "
                "stable under weight reduction",
            mismatches == 0 and reduce_mismatch == 0,
            f"classifier={mismatches} reduce={reduce_mismatch}")


def test_criterion_13_hilbert_basis_kernel():
    rng = random.Random(131313)
    failures = 0
    for _ in range(50):
        cone = dual_description(random_pointed_cone(rng, max_dim=4, max_entry=5))
        hb = hilbert_basis(cone)
        elems = list(hb)
        # minimality: no element is an additive combination of the others
        for v in elems:
            others = [w for w in elems if w != v]
            if v in additive_closure_in_box(others, v):
                failures += 1
        # generation: within the box, generated points == cone lattice points
        bounds = [3] * cone.dim
        generated = additive_closure_in_box(elems, bounds)
        for v in box_vectors(bounds):
            if cone.contains(v) != (v in generated):
                failures += 1
    _report(13, "50 random pointed cones: basis minimality and lattice generation",
            failures == 0, f"{failures} failures")
