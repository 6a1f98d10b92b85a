"""Cone kernel: dual description, Hilbert bases, normality, closure."""

import itertools
import json
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import idealkit
import idealkit.cones as cones_module
from idealkit import (
    EmbeddedPrimeError,
    EqualityCertificate,
    HypothesisError,
    ImproperIdealError,
    MonomialIdeal,
    NonPointedConeError,
    PolyContext,
    RationalCone,
    ResourceCapError,
    check_symbolic_rees_normal,
    cones_equal,
    dual_description,
    hilbert_basis,
    integral_closure,
    is_normal,
    is_pointed,
    primary_decomposition,
    rees_cone,
    simis_cone,
    symbolic_power_min,
    symbolic_rees_generators,
    symbolic_vs_ordinary_certificate,
)
from idealkit._linalg import dot
from idealkit.cones import (
    _candidates,
    _parallelepiped_points,
    _pulling_triangulation,
    _reduce_generators,
)
from idealkit.formats import parse_ideal_file

from oracles import (
    box_vectors,
    closure_member_by_powers,
    dual_description_reference,
    frac_solve,
    independent_rows_reference,
    integral_closure_by_box,
    minimalize_reference,
    minors_gcd,
    pulling_triangulation_by_rank,
    random_ideal,
    random_mixed_cone,
    random_no_embedded_ideal,
    random_pointed_cone,
    random_sparse_ideal,
    rank_reference,
    semigroup_member_bounded,
)

FIXTURES = Path(__file__).parent / "fixtures"


# ---------------------------------------------------------------------------
# Rees cones

def test_rees_cone_principal_one_variable():
    ctx = PolyContext.default(1)
    c = dual_description(rees_cone(ctx.ideal("x1")))
    # A_I = {e_1, (1, 1)}; both rays are extreme
    assert set(c.rays) == {(1, 0), (1, 1)}


def test_rees_cone_fig1(fig1_ideal):
    c = rees_cone(fig1_ideal)
    assert c.dim == 6
    assert len(c.rays) == 11  # 5 unit vectors plus 6 lifted generators
    lifted = [r for r in c.rays if r[-1] == 1]
    assert {r[:-1] for r in lifted} == set(fig1_ideal.exponents)
    # built without the constructor, yet the value it would give
    for path in sorted(FIXTURES.glob("*.ideal")):
        rc = rees_cone(parse_ideal_file(path))
        for c in (rc, dual_description(rc)):
            assert c == RationalCone(c.dim, rays=c.rays, inequalities=c.inequalities)


def test_rees_cone_rejects_improper(ctx3):
    with pytest.raises(Exception):
        rees_cone(ctx3.ideal("1"))


# ---------------------------------------------------------------------------
# dual description

def test_orthant_self_dual():
    c = dual_description(RationalCone(3, rays=((1, 0, 0), (0, 1, 0), (0, 0, 1))))
    assert set(c.inequalities) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    assert set(c.rays) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_contains_rejects_wrong_dimension():
    c = dual_description(RationalCone(3, rays=((1, 0, 0), (0, 1, 0), (0, 0, 1))))
    for bad in ((1,), (1, 1, 1, -5), ()):
        with pytest.raises(ValueError):
            c.contains(bad)
    assert c.contains((1, 0, 2)) and not c.contains((1, -1, 0))


def test_cone_constructor_and_membership_errors():
    for kwargs, message in ((dict(dim=0, rays=()), "dimension must be >= 1"),
                            (dict(dim=2), "needs rays or inequalities"),
                            (dict(dim=2, rays=((1, 0, 0),)), "wrong dimension"),
                            (dict(dim=2, inequalities=((1,),)), "wrong dimension")):
        with pytest.raises(ValueError, match=message):
            RationalCone(**kwargs)
    with pytest.raises(ValueError, match="needs the H-representation"):
        RationalCone(2, rays=((1, 0), (1, 2))).contains((1, 1))


def test_hilbert_basis_of_the_zero_cone_is_empty():
    # no rays, so the triangulation has no simplex and there is no candidate
    box = ((1, 0), (-1, 0), (0, 1), (0, -1))
    for cone in (RationalCone(3, rays=()), RationalCone(2, inequalities=box)):
        hb = hilbert_basis(cone)
        assert (hb.dim, hb.elements) == (cone.dim, ())
        # the reduction packs no word, over the zero cone's +-e_i
        ineqs = dual_description(cone).inequalities
        assert len(ineqs) == 2 * cone.dim
        assert _reduce_generators(set(), ineqs) == []


def test_wedge_dual_description():
    c = dual_description(RationalCone(2, rays=((1, 0), (1, 2))))
    assert set(c.inequalities) == {(0, 1), (2, -1)}


def test_roundtrip_reproduces_extreme_rays():
    rng = random.Random(42)
    for _ in range(20):
        cone = random_pointed_cone(rng)
        both = dual_description(cone)
        back = dual_description(RationalCone(cone.dim,
                                             inequalities=both.inequalities))
        assert set(back.rays) == set(both.rays)
        # and every original generator still lies inside
        assert all(both.contains(r) for r in cone.rays)


def test_dual_description_matches_two_conversion_reference():
    # one conversion plus the incidence rule against the old path of two
    # conversions: the same rays and inequalities on a pointed cone; on a
    # cone with a line the same cone, on a subset of its own rays that holds
    # every ray of the lineality space
    rng = random.Random(1996)
    n_pointed = 0
    for _ in range(2000):
        cone = random_mixed_cone(rng)
        got = dual_description(cone)
        assert got == RationalCone(got.dim, rays=got.rays, inequalities=got.inequalities)
        ref = dual_description_reference(cone)
        assert got.inequalities == ref.inequalities
        pointed = rank_reference(ref.inequalities) == cone.dim
        assert is_pointed(got) == pointed
        if pointed:
            n_pointed += 1
            assert got.rays == ref.rays
            continue
        assert cones_equal(got, ref)
        assert set(got.rays) <= set(cone.rays)
        assert {r for r in cone.rays
                if all(dot(h, r) == 0 for h in got.inequalities)} <= set(got.rays)
    assert 1000 < n_pointed < 2000


def test_dual_description_prunes_given_inequalities_to_facets():
    # a cone given by its valid inequalities plus sums of pairs of them:
    # the same cone, on a subset of the given inequalities that holds every
    # implicit equality, and exactly the facets (tight on rays of rank
    # d - 1) of a full-dimensional pointed cone
    rng = random.Random(1996)
    n_full_pointed = n_pruned = 0
    for _ in range(1500):
        cone = random_mixed_cone(rng)
        d = cone.dim
        valid = dual_description(cone).inequalities
        sums = [tuple(x + y for x, y in zip(rng.choice(valid), rng.choice(valid)))
                for _ in range(rng.randint(1, 4) if valid else 0)]
        given = RationalCone(d, inequalities=valid + tuple(sums))
        got = dual_description(given)
        assert got == RationalCone(got.dim, rays=got.rays, inequalities=got.inequalities)
        assert cones_equal(got, cone)
        kept = set(got.inequalities)
        assert kept <= set(given.inequalities)
        assert {h for h in given.inequalities
                if all(dot(h, r) == 0 for r in cone.rays)} <= kept
        n_pruned += len(kept) < len(given.inequalities)
        if rank_reference(cone.rays) == d and rank_reference(valid) == d:
            n_full_pointed += 1
            assert kept == {h for h in given.inequalities
                            if rank_reference([r for r in cone.rays if dot(h, r) == 0])
                            == d - 1}
    assert n_full_pointed > 400 and n_pruned > 500


def _subspace_pairs(seed, sums, count=400):
    """Seeded pairs of vector lists in a proper subspace of Z^d, 3 <= d <= 6:
    some vectors, then the same vectors plus ``sums`` sums of two of them."""
    rng = random.Random(seed)
    for _ in range(count):
        d = rng.randint(3, 6)
        basis = [[rng.randint(-2, 2) for _ in range(d)]
                 for _ in range(rng.randint(1, d - 1))]
        vecs = []
        for _ in range(rng.randint(2, d + 3)):
            c = [rng.randint(-2, 3) for _ in basis]
            vecs.append(tuple(dot(c, col) for col in zip(*basis)))
        yield d, vecs, vecs + [tuple(map(sum, zip(*rng.sample(vecs, 2))))
                               for _ in range(sums)]


def test_equal_cones_convert_to_equal_values():
    # a lower-dimensional cone given by rays, or a cone with a line given by
    # inequalities: the lineality basis is the kernel's Hermite normal form
    # and the pointed part is cut from one canonical complement of it, so
    # the other representation does not depend on how the cone was given
    for d, rays, more in _subspace_pairs(11, sums=3):
        assert rank_reference(rays) < d
        assert (dual_description(RationalCone(d, rays=rays)).inequalities
                == dual_description(RationalCone(d, rays=more)).inequalities), rays
    for d, ineqs, more in _subspace_pairs(12, sums=2):
        assert (dual_description(RationalCone(d, inequalities=ineqs)).rays
                == dual_description(RationalCone(d, inequalities=more)).rays), ineqs


def test_dual_description_membership_matches_caratheodory_oracle():
    # mixed-sign pointed cones: the computed H-representation must decide
    # membership exactly like a direct nonnegative-combination search
    from oracles import cone_member_caratheodory
    rng = random.Random(64)
    tried = 0
    while tried < 10:
        d = rng.randint(2, 3)
        rays = {tuple(rng.randint(-3, 5) for _ in range(d))
                for _ in range(rng.randint(d, d + 2))}
        rays = tuple(r for r in rays if any(r))
        if not rays:
            continue
        cone = RationalCone(d, rays=rays)
        both = dual_description(cone)
        if not is_pointed(both):
            continue
        tried += 1
        for v in itertools.product(*([range(-3, 4)] * d)):
            assert both.contains(v) == cone_member_caratheodory(v, rays)


def test_redundant_generator_dropped():
    c = dual_description(RationalCone(2, rays=((1, 0), (0, 1), (1, 1))))
    assert set(c.rays) == {(1, 0), (0, 1)}


def test_nonpointed_cone_detected():
    line = RationalCone(2, rays=((1, 0), (-1, 0)))
    assert not is_pointed(line)
    with pytest.raises(NonPointedConeError):
        hilbert_basis(line)
    assert is_pointed(RationalCone(2, rays=((1, 0), (1, 1))))


def test_inconsistent_representations_rejected():
    with pytest.raises(ValueError):
        RationalCone(2, rays=((1, -1),), inequalities=((0, 1),))


# ---------------------------------------------------------------------------
# Simis cones

def test_simis_cone_of_prime(ctx3):
    ctx2 = PolyContext.default(2)
    I = ctx2.ideal("x1", "x2")
    assert cones_equal(simis_cone(I), rees_cone(I))


def test_simis_cone_squarefree_matches_direct_intersection(ctx3):
    I = ctx3.ideal("x1*x2")  # components (x1) and (x2)
    cn = simis_cone(I)
    a = dual_description(rees_cone(ctx3.ideal("x1")))
    b = dual_description(rees_cone(ctx3.ideal("x2")))
    direct = dual_description(RationalCone(
        4, inequalities=a.inequalities + b.inequalities))
    assert cones_equal(cn, direct)
    # for this normally torsion-free ideal the Simis and Rees cones agree
    assert cones_equal(cn, rees_cone(I))


def test_simis_cone_rejects_embedded_primes(ex2_12_ideal):
    with pytest.raises(EmbeddedPrimeError):
        simis_cone(ex2_12_ideal)


def test_simis_inequalities_are_exactly_the_facets():
    # the kept inequalities are the components' inequalities that are tight
    # on rays of rank d - 1, and they cut out the intersection of the
    # components' Rees cones
    rng = random.Random(1618)
    ideals = [parse_ideal_file(FIXTURES / f"{name}.ideal")
              for name in ("ex2_10", "ex2_22", "ex3_16", "fig1", "terai")]
    ideals += [random_no_embedded_ideal(rng, n=rng.randint(3, 4))
               for _ in range(40)]
    for I in ideals:
        cone = simis_cone(I)
        d = cone.dim
        comps = [dual_description(rees_cone(c.ideal))
                 for c in primary_decomposition(I)]
        facets = {h for c in comps for h in c.inequalities
                  if rank_reference([r for r in cone.rays if dot(h, r) == 0])
                  == d - 1}
        assert set(cone.inequalities) == facets, I
        for v in itertools.product(range(4), repeat=d):
            assert cone.contains(v) == all(c.contains(v) for c in comps), (I, v)


def test_one_conversion_per_cone(ex2_10_ideal, monkeypatch):
    # ex2.10 has four primary components; each Rees cone costs one
    # conversion (rays to inequalities; its extreme rays are picked by
    # incidence), the Simis cone one
    calls = []
    original = idealkit.cones._cone_generators

    def counted(rows, d):
        calls.append(d)
        return original(rows, d)

    monkeypatch.setattr(idealkit.cones, "_cone_generators", counted)
    I = ex2_10_ideal
    jobs = {
        "symbolic_rees_generators": lambda: symbolic_rees_generators(I),
        "certificate": lambda: symbolic_vs_ordinary_certificate(I),
        "simis_cone": lambda: simis_cone(I),
        "check_symbolic_rees_normal": lambda: check_symbolic_rees_normal(I),
    }
    counts = {}
    for name, job in jobs.items():
        calls.clear()
        job()
        counts[name] = len(calls)
    assert counts == {"symbolic_rees_generators": 5, "certificate": 6,
                      "simis_cone": 5, "check_symbolic_rees_normal": 4}


def test_cones_equal_basics(ex2_10_ideal):
    c = RationalCone(2, rays=((1, 0), (1, 2)))
    assert cones_equal(c, c)
    assert not cones_equal(simis_cone(ex2_10_ideal), rees_cone(ex2_10_ideal))
    with pytest.raises(ValueError):
        cones_equal(c, RationalCone(3, rays=((1, 0, 0),)))


# ---------------------------------------------------------------------------
# Hilbert bases

def test_hilbert_basis_orthant():
    c = RationalCone(4, rays=tuple(tuple(int(i == j) for j in range(4))
                                   for i in range(4)))
    hb = hilbert_basis(c)
    assert set(hb) == {tuple(int(i == j) for j in range(4)) for i in range(4)}


def test_hilbert_basis_wedge():
    hb = hilbert_basis(RationalCone(2, rays=((1, 0), (1, 2))))
    assert set(hb) == {(1, 0), (1, 1), (1, 2)}


def test_hilbert_basis_lower_dimensional_cone():
    hb = hilbert_basis(RationalCone(3, rays=((1, 1, 0), (1, 1, 2))))
    assert set(hb) == {(1, 1, 0), (1, 1, 1), (1, 1, 2)}


# A 5-dimensional cone whose 14 x 5 facet matrix once drove the kernel
# computation into unbounded coefficient growth.
HANG_CONE_RAYS = ((0, 0, 1, 1, 1), (0, 1, 1, 2, 3), (1, 0, 0, 3, 3),
                  (1, 1, 1, 3, 1), (1, 3, 0, 2, 1), (1, 3, 1, 0, 3),
                  (2, 0, 2, 1, 3))


def test_hang_cone_finishes_quickly():
    # in a child process, so that a regression fails instead of hanging
    code = textwrap.dedent(f"""
        import json, time
        from idealkit import RationalCone, dual_description, hilbert_basis
        start = time.perf_counter()
        cone = dual_description(RationalCone(5, rays={HANG_CONE_RAYS!r}))
        hb = hilbert_basis(cone)
        print(json.dumps([len(cone.inequalities), len(cone.rays), len(hb),
                          time.perf_counter() - start]))
    """)
    src = str(Path(idealkit.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=10, env=env)
    assert proc.returncode == 0, proc.stderr
    inequalities, rays, elements, seconds = json.loads(proc.stdout)
    assert (inequalities, rays, elements) == (14, 7, 79)
    assert seconds < 1.0


def test_hilbert_basis_minimality_and_generation():
    rng = random.Random(777)
    for _ in range(12):
        cone = dual_description(random_pointed_cone(rng, max_dim=3, max_entry=4))
        hb = hilbert_basis(cone)
        elems = list(hb)
        ineqs = cone.inequalities
        # every element lies in the cone
        assert all(cone.contains(v) for v in elems)
        # minimality, via the bounded-coefficient oracle
        for v in elems:
            others = [w for w in elems if w != v]
            assert not semigroup_member_bounded(v, others, ineqs)
        # generation on a small box
        dim = cone.dim
        for v in box_vectors([4] * dim):
            if cone.contains(v):
                assert semigroup_member_bounded(v, elems, ineqs) or not any(v)


def _reduce_by_value_vectors(cands, ineqs):
    """The reduction by its definition: the candidates whose tuple value
    vectors (<h,v> for h) are divisibility-minimal, in value-vector order."""
    by_values = {tuple(dot(h, v) for h in ineqs): v for v in cands}
    return [by_values[w] for w in minimalize_reference(by_values)]


def test_reduce_generators_matches_value_vector_definition():
    # pointed cones with mixed-sign rays, some of them not full-dimensional;
    # the packed value words must pick the same candidates in the same order
    rng = random.Random(2810)
    checked, negative, lower = 0, 0, 0
    while checked < 150:
        cone = dual_description(random_mixed_cone(rng, max_dim=4, max_entry=3))
        if not cone.rays or not is_pointed(cone):
            continue
        checked += 1
        negative += any(x < 0 for r in cone.rays for x in r)
        lower += rank_reference(list(cone.rays)) < cone.dim
        cands = _candidates(cone, 10**5)
        # extra lattice points of the cone are candidates too
        cands |= {tuple(a + b for a, b in zip(u, v))
                  for u in cone.rays for v in rng.sample(sorted(cands), min(3, len(cands)))}
        ineqs = cone.inequalities
        assert _reduce_generators(cands, ineqs) == _reduce_by_value_vectors(cands, ineqs)
    assert negative >= 50 and lower >= 10


def test_reduce_generators_rejects_a_candidate_outside_the_cone():
    # a negative value sets the sign or a guard bit of the packed word,
    # whichever inequality it falls on and however large the others are
    cone = dual_description(RationalCone(3, rays=((1, 0, 0), (1, 2, 0), (1, 1, 3))))
    inside = sorted(_candidates(cone, 100))
    for bad in [(0, -1, 0), (-1, 0, 0), (5, 11, 0), (1, 0, -1), (40, -1, 100)]:
        assert not cone.contains(bad)
        with pytest.raises(ArithmeticError, match="outside the cone"):
            _reduce_generators(inside + [bad], cone.inequalities)
    with pytest.raises(ArithmeticError, match="outside the cone"):
        _reduce_generators([(1, 0), (-1, 0)], ((0, 1), (1, 0)))


def _parallelepiped_brute_force(rays):
    """Integer points of the bounding box whose coordinates in the ray basis
    lie in [0, 1)."""
    t, d = len(rays), len(rays[0])
    cols = [[r[i] for r in rays] for i in range(d)]
    sel = independent_rows_reference(cols, need=t)
    square = [cols[i] for i in sel]
    ranges = [range(sum(min(0, r[i]) for r in rays),
                    sum(max(0, r[i]) for r in rays) + 1) for i in range(d)]
    found = set()
    for z in itertools.product(*ranges):
        lam = frac_solve(square, [z[i] for i in sel])
        if all(0 <= x < 1 for x in lam) and all(
                sum(lam[j] * rays[j][i] for j in range(t)) == z[i]
                for i in range(d)):
            found.add(z)
    return found


def test_parallelepiped_points_match_brute_force():
    rng = random.Random(2024)
    seen_dims = set()
    for _ in range(60):
        d = rng.randint(1, 4)
        t = rng.randint(1, d)
        rays = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(t)]
        if len(independent_rows_reference(rays)) < t:
            continue
        seen_dims.add((t, d))
        pts, index = _parallelepiped_points(rays, 10**6)
        want = _parallelepiped_brute_force(rays)
        assert len(pts) == len(set(pts)) == index == len(want)
        assert set(pts) == want
    assert any(t < d for t, d in seen_dims)


def test_parallelepiped_points_at_larger_sizes():
    # beyond the brute force: the index is the gcd of the maximal minors, the
    # points are index distinct lattice points, and each one's coordinates in
    # the ray basis, solved on an independent square subsystem, lie in [0, 1)
    rng = random.Random(2206)
    checked, big, full = 0, 0, 0
    while checked < 200:
        d = rng.randint(5, 7)
        t = rng.randint(1, d)
        rays = [tuple(0 if rng.random() < 0.6 else rng.randint(-6, 6)
                      for _ in range(d)) for _ in range(t)]
        if rank_reference(rays) < t:
            continue
        want = minors_gcd(rays, t)
        if want > 1000:  # keeps the oracle's work small
            continue
        checked += 1
        big += want > 100
        full += t == d
        pts, index = _parallelepiped_points(rays, want)
        assert index == want and len(pts) == len(set(pts)) == index, rays
        cols = list(zip(*rays))
        sel = independent_rows_reference(cols, need=t)
        square_t = [[rays[j][i] for i in sel] for j in range(t)]
        # lambda S = z restricted to sel, so lambda = (S^T)^-1 z[sel]
        inv_cols = [frac_solve([list(r) for r in zip(*square_t)],
                               [int(k == m) for m in range(t)]) for k in range(t)]
        for z in pts:
            lam = [sum(z[i] * inv_cols[k][j] for k, i in enumerate(sel))
                   for j in range(t)]
            assert all(0 <= x < 1 for x in lam), (rays, z)
            assert all(sum(x * c for x, c in zip(lam, col)) == zi
                       for col, zi in zip(cols, z)), (rays, z)
        with pytest.raises(ResourceCapError, match=(
                f"^parallelepiped holds {index} lattice points, over the remaining "
                f"budget of {index - 1}; raise max_lattice_points to proceed$")):
            _parallelepiped_points(rays, index - 1)
    assert big >= 5 and full >= 3


def _counting_solves(monkeypatch):
    calls = []
    real = cones_module.lower_solve

    def spy(L, c, s):
        calls.append(tuple(c))
        return real(L, c, s)

    monkeypatch.setattr(cones_module, "lower_solve", spy)
    return calls


@pytest.mark.parametrize("rays, index, solves", [
    # Hermite diagonal 2, 3, 4: every row of index L^-1 is nontrivial
    (((2, 0, 0), (0, 3, 0), (0, 0, 4)), 24, 3),
    (((2, 0, 0), (1, 3, 0), (1, 1, 4)), 24, 3),
    # diagonal 1, 2, 4 and, in Z^4, 1, 3, 4: two rows of three
    (((2, 1, 5), (0, 3, 1), (1, 1, 4)), 8, 2),
    (((2, 4, 0, 1), (0, 3, 6, 0), (0, 0, 4, 4)), 12, 2),
    # unimodular: the one point is 0 and no row is solved
    (((1, 0, 0), (1, 1, 0), (2, 3, 1)), 1, 0),
    (((1, 2, 0, 5),), 1, 0),
], ids=["diagonal", "sheared", "two-rows", "two-rows-in-z4", "unimodular",
        "one-ray"])
def test_parallelepiped_points_solve_only_the_nontrivial_rows(
        monkeypatch, rays, index, solves):
    calls = _counting_solves(monkeypatch)
    pts, got = _parallelepiped_points(list(rays), 10**6)
    assert got == index and len(pts) == len(set(pts)) == index
    assert set(pts) == _parallelepiped_brute_force(list(rays))
    assert pts[0] == (0,) * len(rays[0])
    # one solve per unit row c = e_k with L_kk > 1
    assert len(calls) == solves
    assert all(sorted(c) == [0] * (len(c) - 1) + [1] for c in calls)


def test_parallelepiped_points_solve_at_most_log2_index_rows(monkeypatch):
    calls = _counting_solves(monkeypatch)
    rng = random.Random(2811)
    seen = set()
    for _ in range(200):
        t = rng.randint(1, 4)
        rays = [tuple(rng.randint(-3, 3) for _ in range(4)) for _ in range(t)]
        if rank_reference(rays) < t:
            continue
        calls.clear()
        pts, index = _parallelepiped_points(rays, 10**6)
        assert len(pts) == len(set(pts)) == index
        assert 2 ** len(calls) <= index
        seen.add(len(calls))
    assert {0, 1, 2} <= seen


def test_pulling_triangulation_covers_the_cone():
    rng = random.Random(4242)
    checked = 0
    while checked < 120:
        cone = dual_description(random_pointed_cone(rng, max_dim=4, max_entry=3))
        d, rays = cone.dim, list(cone.rays)
        if rank_reference(rays) < d:
            continue
        checked += 1
        simplices = [[rays[i] for i in s]
                     for s in _pulling_triangulation(rays, cone.inequalities)]
        for s in simplices:
            assert len(s) == d and rank_reference(s) == d
        # columns are the simplex rays; every lattice point of the cone has
        # nonnegative coordinates in some simplex
        cols = [list(zip(*s)) for s in simplices]
        for v in box_vectors([3] * d):
            if any(v) and cone.contains(v):
                assert any(all(c >= 0 for c in frac_solve(A, v)) for A in cols), v


def _ladder_rung(n):
    """Edge ideal of the seeded graph with n vertices and 3n/2 edges."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = random.Random(3).sample(pairs, 3 * n // 2)
    return MonomialIdeal.from_generators(
        PolyContext.default(n),
        [tuple(int(k in e) for k in range(n)) for e in edges])


def test_pulling_triangulation_matches_rank_reference():
    # the facets of a face that miss the apex are the inclusion-maximal
    # F & g, so the triangulation is the rank rule's, simplex for simplex
    # and in the same order
    rng = random.Random(4242)
    cones = [random_pointed_cone(rng, max_dim=5, max_entry=3) for _ in range(150)]
    lower = 0
    while lower < 100:
        # nonnegative combinations of t < d independent vectors
        d = rng.randint(3, 5)
        t = rng.randint(2, d - 1)
        basis = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(t)]
        if rank_reference(basis) < t:
            continue
        coeffs = [[rng.randint(0, 3) for _ in range(t)]
                  for _ in range(rng.randint(t + 1, t + 4))]
        rays = [tuple(dot(c, col) for col in zip(*basis)) for c in coeffs if any(c)]
        if rays:
            cones.append(RationalCone(d, rays=tuple(rays)))
            lower += 1
    ideals = [parse_ideal_file(path) for path in sorted(FIXTURES.glob("*.ideal"))]
    ideals.append(_ladder_rung(8))
    for I in ideals:
        cones.append(rees_cone(I))
        try:
            cones.append(simis_cone(I))
        except EmbeddedPrimeError:
            pass
    lower_split = 0
    for cone in map(dual_description, cones):
        rays = list(cone.rays)
        got = _pulling_triangulation(rays, cone.inequalities)
        assert got == pulling_triangulation_by_rank(rays, cone.inequalities), cone
        lower_split += rank_reference(rays) < cone.dim and len(got) > 1
    assert lower_split >= 10


def test_lattice_point_cap_enforced(ex2_10_ideal):
    with pytest.raises(ResourceCapError):
        hilbert_basis(simis_cone(ex2_10_ideal), max_lattice_points=1)


# ---------------------------------------------------------------------------
# normality and integral closure

def test_is_normal_examples(ctx3):
    ctx2 = PolyContext.default(2)
    assert not is_normal(ctx2.ideal("x1^2", "x2^2"))
    assert is_normal(ctx2.ideal("x1", "x2"))
    assert is_normal(ctx3.ideal("x1*x2", "x2*x3", "x1*x3"))


def _normal_by_definition(I):
    """Every Rees Hilbert basis element (a, b) with b >= 1 has x^a in I^b."""
    return all((I ** v[-1]).contains(v[:-1])
               for v in hilbert_basis(rees_cone(I)) if v[-1] >= 1)


@pytest.mark.parametrize("name", ["ex2_10_ideal", "ex2_12_ideal", "ex3_16_ideal",
                                  "fig1_ideal", "principal_mixed_ideal",
                                  "radical_example_ideal", "terai_ideal"])
def test_is_normal_matches_definition_on_paper_examples(name, request):
    I = request.getfixturevalue(name)
    assert is_normal(I) == _normal_by_definition(I)


def test_is_normal_matches_definition_on_random_ideals():
    rng = random.Random(515)
    outcomes = set()
    for _ in range(40):
        I = random_ideal(rng, n=4, max_exp=3)
        if not I.is_proper_nonzero():
            continue
        got = is_normal(I)
        assert got == _normal_by_definition(I)
        outcomes.add(got)
    assert outcomes == {True, False}


def test_integral_closure_fig1(fig1_ideal):
    ctx = fig1_ideal.context
    extra = ctx.ideal("x1*x2*x3", "x1*x3*x4", "x2*x3*x4", "x2*x4*x5")
    closed = integral_closure(fig1_ideal)
    assert closed == fig1_ideal + extra
    # each new generator is integral: some power of it falls into that power of I
    for v in extra.exponents:
        assert closure_member_by_powers(fig1_ideal, v)


def test_integral_closure_triangle_is_itself(ctx3):
    # (1,1,1) sits in the Newton polyhedron but x1x2x3 is already a multiple
    # of x1x2, so nothing new appears
    tri = ctx3.ideal("x1*x2", "x2*x3", "x1*x3")
    assert integral_closure(tri) == tri
    assert tri.contains(ctx3.monomial("x1*x2*x3"))
    assert closure_member_by_powers(tri, (1, 1, 1))


def test_integral_closure_principal(ctx3):
    I = ctx3.ideal("x1^3*x2")
    assert integral_closure(I) == I


def test_closure_membership_oracle_agreement():
    rng = random.Random(2718)
    for _ in range(10):
        from oracles import random_ideal
        I = random_ideal(rng, n=3, max_exp=3, max_gens=3)
        if not I.is_proper_nonzero():
            continue
        closed = integral_closure(I)
        for v in closed.exponents:
            assert closure_member_by_powers(I, v, kmax=8)


def _closure_cases():
    """Seeded ideals for the box reference: random, principal, squarefree
    and pure-power ideals in up to 5 variables with exponents up to 4, every
    ideal fixture, and one 7-variable ideal whose box holds 80,640 points."""
    rng = random.Random(20)
    for i in range(200):
        n = rng.randint(1, 5)
        kind = i % 4
        if kind == 0:
            yield random_ideal(rng, n=n, max_exp=4, max_gens=1)
        elif kind == 1:
            yield random_ideal(rng, n=n, max_gens=5, squarefree=True)
        elif kind == 2:
            ctx = PolyContext.default(n)
            support = rng.sample(range(n), rng.randint(1, n))
            yield ctx.ideal(*(f"x{j + 1}^{rng.randint(1, 4)}" for j in support))
        else:
            yield random_ideal(rng, n=n, max_exp=4, max_gens=5)
    for path in sorted(FIXTURES.glob("*.ideal")):
        yield parse_ideal_file(path)
    yield random_sparse_ideal(random.Random(31), n=7, max_exp=7, num_gens=7)


def test_integral_closure_matches_box_reference():
    for I in _closure_cases():
        assert integral_closure(I) == integral_closure_by_box(I), I
    with pytest.raises(ImproperIdealError, match="the integral closure"):
        integral_closure(PolyContext.default(2).ideal("1"))


# ---------------------------------------------------------------------------
# symbolic Rees generators

def test_symbolic_rees_generators_squarefree_principal(ctx3):
    gens = symbolic_rees_generators(ctx3.ideal("x1*x2"))
    got = {(m.exponents, b) for m, b in gens}
    assert got == {((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0),
                   ((1, 1, 0), 1)}


def test_symbolic_rees_generators_prime_low_degree():
    ctx2 = PolyContext.default(2)
    gens = symbolic_rees_generators(ctx2.ideal("x1", "x2"))
    assert all(b <= 1 for _, b in gens)


def test_symbolic_rees_generators_need_normal_components():
    ctx2 = PolyContext.default(2)
    with pytest.raises(HypothesisError):
        symbolic_rees_generators(ctx2.ideal("x1^2", "x2^2"))


def test_check_symbolic_rees_normal(ex2_10_ideal, ctx3):
    assert check_symbolic_rees_normal(ctx3.ideal("x1*x2", "x2*x3"))
    ctx2 = PolyContext.default(2)
    assert not check_symbolic_rees_normal(ctx2.ideal("x1^2", "x2^2"))
    assert check_symbolic_rees_normal(ex2_10_ideal)


def test_symbolic_rees_procedure_and_certificate_match_definitions():
    # K is the largest t-degree in the Hilbert bases of the Simis and Rees
    # cones.  With no embedded primes and normal components, I^(k) is an
    # intersection of integrally closed ideals, so both checks only need
    # k <= K:
    #   H generates: I^(k) = sum_{b=1..k} (x^a : (a, b) in H) * I^(k-b);
    #   the certificate says EQUAL exactly when I^k = I^(k) for k <= K.
    # Cases with K > 4 are skipped.  At this seed the certificate gives 129
    # EQUAL, 14 UNEQUAL and 55 INAPPLICABLE, and 2 cases are skipped.
    from oracles import random_oriented_digraph, symbolic_power_reference
    rng = random.Random(2027)
    tally = {cert: 0 for cert in EqualityCertificate}
    skipped = 0
    for i in range(200):
        if i % 2:
            I = random_oriented_digraph(rng, max_vertices=5).edge_ideal()
        else:
            I = random_ideal(rng, n=rng.randint(4, 5), max_gens=6,
                             squarefree=True)
        cert = symbolic_vs_ordinary_certificate(I)
        if cert is EqualityCertificate.INAPPLICABLE:
            tally[cert] += 1
            continue
        K = max(v[-1] for c in (simis_cone(I), rees_cone(I))
                for v in hilbert_basis(c))
        if K > 4:
            skipped += 1
            continue
        tally[cert] += 1
        ctx = I.context
        sym = [ctx.ideal("1")] + [symbolic_power_reference(I, k)
                                  for k in range(1, K + 1)]
        H = symbolic_rees_generators(I)
        by_degree = [MonomialIdeal.from_generators(ctx, [m for m, b in H if b == t])
                     for t in range(K + 1)]
        for k in range(1, K + 1):
            generated = by_degree[k]
            for b in range(1, k):
                generated = generated + by_degree[b] * sym[k - b]
            assert generated == sym[k], (I, k)
        equal = all(I ** k == sym[k] for k in range(1, K + 1))
        assert equal == (cert is EqualityCertificate.EQUAL_BY_CONE_CRITERION), I
    assert all(tally.values()), tally
    assert skipped <= 5, skipped


def test_slice_law_ties_cone_to_symbolic_powers(ex2_10_ideal):
    # level-k lattice points of the Simis cone are the monomials of I^(k)
    cn = simis_cone(ex2_10_ideal)
    n = ex2_10_ideal.context.n
    for k in (1, 2):
        sym = symbolic_power_min(ex2_10_ideal, k)
        bounds = [max(v[j] for v in sym.exponents) + 1 for j in range(n)]
        for a in box_vectors(bounds):
            assert cn.contains(a + (k,)) == sym.contains(a)


def test_cone_equality_plus_normality_forces_power_equality():
    # whenever the Simis and Rees cones agree and the ideal is normal, the
    # ordinary and symbolic powers must coincide
    rng = random.Random(2024_11)
    from idealkit import ntf_probe, primary_decomposition
    from oracles import random_no_embedded_ideal
    checked = 0
    while checked < 10:
        I = random_no_embedded_ideal(rng)
        if not all(is_normal(c.ideal) for c in primary_decomposition(I)):
            continue
        checked += 1
        if cones_equal(simis_cone(I), rees_cone(I)) and is_normal(I):
            assert ntf_probe(I, 3).all_equal()


# ---------------------------------------------------------------------------
# cone file sanity for hilbert output ordering

def test_hilbert_basis_canonical_order():
    hb = hilbert_basis(RationalCone(2, rays=((1, 0), (1, 3))))
    assert hb.elements == tuple(sorted(hb.elements, key=lambda v: (v[-1], v)))
