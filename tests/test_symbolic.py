"""Symbolic powers: worked values, localization reference, containment chain."""

import random
import sys
from pathlib import Path

import pytest

import idealkit.core
import idealkit.decomposition
import idealkit.symbolic
from idealkit import (
    MAX_EXPONENT,
    EqualityCertificate,
    ExponentOverflowError,
    ImproperIdealError,
    MonomialIdeal,
    MonomialPrime,
    PolyContext,
    ResourceCapError,
    Variant,
    associated_primes,
    has_embedded_primes,
    intersect_all,
    localize,
    minimal_primes,
    ntf_probe,
    primary_decomposition,
    simis_cone,
    symbolic_power_ass,
    symbolic_power_min,
    symbolic_powers,
    symbolic_rees_generators,
    symbolic_vs_ordinary_certificate,
)
from idealkit.cli import main
from idealkit.core import _unpack
from idealkit.formats import parse_ideal_file

from oracles import (
    minimal_primes_reference,
    random_ideal,
    random_no_embedded_ideal,
    saturation_localize,
    symbolic_power_reference,
)

FIXTURES = Path(__file__).parent / "fixtures"


def test_example_2_10_symbolic_square(ex2_10_ideal):
    ctx = ex2_10_ideal.context
    want = ex2_10_ideal ** 2 + ctx.ideal("x1*x2^2*x5", "x1*x2^2*x3")
    assert symbolic_power_min(ex2_10_ideal, 2) == want


def test_example_2_12_first_powers(ex2_12_ideal):
    ctx = ex2_12_ideal.context
    assert symbolic_power_min(ex2_12_ideal, 1) == ex2_12_ideal + ctx.ideal("x1*x2*x3")
    assert symbolic_power_ass(ex2_12_ideal, 1) == ex2_12_ideal
    assert has_embedded_primes(ex2_12_ideal)


def test_complete_intersection_collapses(ctx3):
    I = ctx3.ideal("x1*x2")
    for k in range(1, 5):
        assert symbolic_power_min(I, k) == I ** k
    J = ctx3.ideal("x1*x2", "x3")  # disjoint supports: a regular sequence
    for k in range(1, 5):
        assert symbolic_power_min(J, k) == J ** k


def test_routes_and_variants_on_randoms():
    rng = random.Random(606)
    checked = 0
    while checked < 25:
        I = random_no_embedded_ideal(rng)
        for k in (1, 2, 3):
            a = symbolic_power_min(I, k)
            assert a == symbolic_power_reference(I, k)
            assert symbolic_power_ass(I, k) == a
        checked += 1


def test_chain_ordinary_ass_min():
    rng = random.Random(1234)
    for _ in range(20):
        I = random_ideal(rng, n=3, max_exp=3, max_gens=3)
        if not I.is_proper_nonzero():
            continue
        for k in (1, 2):
            ordinary = I ** k
            mid = symbolic_power_ass(I, k)
            top = symbolic_power_min(I, k)
            assert mid.contains_ideal(ordinary)
            assert top.contains_ideal(mid)


def test_squarefree_symbolic_power_is_prime_power_intersection():
    from idealkit import intersect_all, minimal_primes
    from oracles import random_ideal
    rng = random.Random(448)
    done = 0
    while done < 15:
        I = random_ideal(rng, n=4, max_gens=4, squarefree=True)
        if not I.is_proper_nonzero():
            continue
        done += 1
        for k in (1, 2, 3):
            want = intersect_all([p.as_ideal() ** k for p in minimal_primes(I)])
            assert symbolic_power_min(I, k) == want


def test_ass_variant_strictly_smaller_for_example(ex2_12_ideal):
    low = symbolic_power_ass(ex2_12_ideal, 1)
    high = symbolic_power_min(ex2_12_ideal, 1)
    assert high.contains_ideal(low) and high != low


def test_ntf_probe(ctx3, ex2_10_ideal):
    ctx2 = PolyContext.default(2)
    report = ntf_probe(ctx2.ideal("x1^2", "x2^2"), 4)
    assert report.all_equal() and report.equal == (True,) * 4

    report2 = ntf_probe(ex2_10_ideal, 3)
    assert report2.first_failure == 2
    assert report2.equal[0] is True and report2.equal[1] is False

    assert ntf_probe(ctx3.ideal("x1^2*x2"), 4).all_equal()


def test_certificate_equal_and_unequal(ctx3, ex2_10_ideal):
    assert symbolic_vs_ordinary_certificate(ctx3.ideal("x1*x2")) is \
        EqualityCertificate.EQUAL_BY_CONE_CRITERION
    assert symbolic_vs_ordinary_certificate(ex2_10_ideal) is \
        EqualityCertificate.UNEQUAL


def test_certificate_inapplicable_for_nonnormal_component():
    ctx = PolyContext.default(2)
    I = ctx.ideal("x1^2", "x2^2")  # its own primary component, not normal
    assert symbolic_vs_ordinary_certificate(I) is EqualityCertificate.INAPPLICABLE


def test_certificate_matches_probe_when_certified(ctx3):
    I = ctx3.ideal("x1*x2")
    assert symbolic_vs_ordinary_certificate(I) is \
        EqualityCertificate.EQUAL_BY_CONE_CRITERION
    assert ntf_probe(I, 4).all_equal()


def test_error_paths(ctx3):
    unit = ctx3.ideal("1")
    zero = MonomialIdeal(ctx3, ())
    for bad in (unit, zero):
        with pytest.raises(ImproperIdealError):
            symbolic_power_min(bad, 1)
        with pytest.raises(ImproperIdealError):
            symbolic_power_ass(bad, 1)
    with pytest.raises(ValueError):
        symbolic_power_min(ctx3.ideal("x1*x2"), 0)


def test_symbolic_powers_matches_saturation_oracle():
    rng = random.Random(7301)
    cases = [(path.name, parse_ideal_file(path))
             for path in sorted(FIXTURES.glob("*.ideal"))]
    while len(cases) < 36:
        I = random_ideal(rng, n=rng.choice((3, 4)), max_exp=3, max_gens=3)
        if I.is_proper_nonzero():
            cases.append((str(I), I))
    embedded = 0
    for label, I in cases:
        primes = associated_primes(I)
        embedded += has_embedded_primes(I)
        maximal = [p for p in primes
                   if not any(q != p and p.issubset(q) for q in primes)]
        over = {Variant.MIN_PRIMES: minimal_primes(I), Variant.ALL_ASS_PRIMES: maximal}
        powers = [I ** k for k in range(1, 5)]
        for variant, local in over.items():
            want = [intersect_all([saturation_localize(Ik, p) for p in local])
                    for Ik in powers]
            got = list(symbolic_powers(I, range(1, 5), variant))
            assert [k for k, _, _ in got] == [1, 2, 3, 4]
            assert [Ik for _, Ik, _ in got] == powers, label
            assert [sym for _, _, sym in got] == want, (label, variant)
            assert list(symbolic_powers(I, {4, 2}, variant)) == [got[1], got[3]]
    assert 0 < embedded < len(cases)


def _edge_ideal(n, edges):
    return MonomialIdeal.from_generators(
        PolyContext.default(n), [tuple(int(v in e) for v in range(n)) for e in edges])


def test_prime_selection_matches_the_oracles(monkeypatch):
    # minimal_primes against the brute-force covers of the supports, and the
    # primes each variant of symbolic_powers localizes at against the
    # pairwise inclusion definitions, in associated-prime order: on 240
    # seeded random ideals, with and without embedded primes, and on edge
    # ideals with 15-200 minimal primes (random graphs, and five disjoint
    # triangles joined by a few random edges)
    localized = []
    monkeypatch.setattr(idealkit.symbolic, "_power_chain",
                        lambda I, ks, hi, primes, cap: localized.append(primes) or iter(()))
    rng = random.Random(2718)
    cases = []
    while len(cases) < 240:
        I = random_ideal(rng, n=rng.choice((3, 4, 5)), max_exp=3,
                         max_gens=rng.randint(2, 5))
        if I.is_proper_nonzero():
            cases.append((I, set(minimal_primes_reference(I))))
    triangles = [(3 * t + a, 3 * t + b) for t in range(5)
                 for a, b in ((0, 1), (0, 2), (1, 2))]
    counts = []
    while len(counts) < 12:
        if len(counts) % 2:
            n = rng.choice((12, 14, 16))
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            I = _edge_ideal(n, rng.sample(pairs, rng.randint(12, 16)))
        else:
            pairs = [(i, j) for i in range(15) for j in range(i + 1, 15)
                     if (i, j) not in triangles]
            I = _edge_ideal(15, triangles + rng.sample(pairs, rng.randint(2, 6)))
        minimal = set(minimal_primes_reference(I))
        if 15 <= len(minimal) <= 200:
            counts.append(len(minimal))
            cases.append((I, minimal))
    assert max(counts) >= 150
    embedded = 0
    for I, minimal in cases:
        primes = associated_primes(I)
        embedded += has_embedded_primes(I)
        maximal = [p for p in primes
                   if not any(q != p and p.issubset(q) for q in primes)]
        assert set(minimal_primes(I)) == minimal, I
        assert list(minimal_primes(I)) == [p for p in primes if p in minimal], I
        localized.clear()
        for variant in Variant:
            assert list(symbolic_powers(I, [1], variant)) == []
        assert [list(ps) for ps in localized] == [list(minimal_primes(I)), maximal], I
    assert 0 < embedded < 240


def test_symbolic_powers_of_edge_ideals_with_many_primes():
    # I is squarefree, so I^(k) is the intersection of P^k over its minimal
    # primes P: x^g lies in it iff g weighs at least k on every P.  Each
    # generator must meet every bound and fail one once any positive entry
    # drops by one, and I^k must lie inside.  Seeded edge ideals with 15-60
    # minimal primes; k = 3 and the saturation oracle where they are cheap
    rng = random.Random(2)
    counts = []
    for n, m in ((10, 8), (11, 12), (13, 20), (15, 22), (16, 24)):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        while True:
            I = MonomialIdeal.from_generators(
                PolyContext.default(n),
                [tuple(int(v in e) for v in range(n)) for e in rng.sample(pairs, m)])
            primes = minimal_primes_reference(I)
            if 15 <= len(primes) <= 60:
                break
        counts.append(len(primes))
        for k, ordinary, S in symbolic_powers(I, (2, 3) if m <= 12 else (2,)):
            def inside(g):
                return all(sum(g[i] for i in p.variables) >= k for p in primes)

            for g in S.exponents:
                assert inside(g), (I, k, g)
                assert not any(e and inside(g[:i] + (e - 1,) + g[i + 1:])
                               for i, e in enumerate(g)), (I, k, g)
            assert ordinary == I ** k
            assert all(any(all(x <= y for x, y in zip(s, a)) for s in S.exponents)
                       for a in ordinary.exponents), (I, k)
            if m <= 12 and k == 2:
                assert S == symbolic_power_reference(I, k)
    assert max(counts) >= 40


def test_requested_powers_are_not_materialized(ex2_10_ideal):
    # ks is read with min, max and membership only, so a huge range is free
    I = ex2_10_ideal
    assert next(symbolic_powers(I, range(1, 10**20 + 1))) == (1, I, I)
    ascending = list(symbolic_powers(I, range(1, 4)))
    assert list(symbolic_powers(I, range(3, 0, -1))) == ascending
    assert list(symbolic_powers(I, [3, 1, 2, 3])) == ascending
    for empty in (range(0), [], set()):
        with pytest.raises(ValueError):
            next(symbolic_powers(I, empty))


def test_one_decomposition_per_call(ex2_10_ideal, monkeypatch, capsys):
    # each call decomposes its ideal once, however many powers it needs
    calls = []
    original = idealkit.decomposition.irreducible_decomposition

    def counted(I):
        calls.append(I)
        return original(I)

    for module in list(sys.modules.values()):
        if (module.__name__.startswith("idealkit")
                and getattr(module, "irreducible_decomposition", None) is original):
            monkeypatch.setattr(module, "irreducible_decomposition", counted)
    I = ex2_10_ideal
    jobs = {
        "ntf_probe": lambda: ntf_probe(I, 5),
        "symbolic_power_min": lambda: symbolic_power_min(I, 5),
        "cli symbolic": lambda: main(["symbolic", "--k", "5",
                                      str(FIXTURES / "ex2_10.ideal")]),
        "simis_cone": lambda: simis_cone(I),
        "symbolic_rees_generators": lambda: symbolic_rees_generators(I),
        "certificate": lambda: symbolic_vs_ordinary_certificate(I),
    }
    for name, job in jobs.items():
        calls.clear()
        job()
        assert len(calls) == 1, name
    assert capsys.readouterr().err == ""


def test_localization_only_at_requested_power(ex2_10_ideal, ex2_12_ideal,
                                              monkeypatch, capsys):
    # every ideal takes one path: I^k is localized at each requested k, once
    # per prime of the variant, with or without embedded primes.  The chain
    # localizes packed words, so the spy records the words and the prime's
    # mask and decodes them to (ideal, prime) pairs afterwards.
    seen = []
    original = idealkit.core._localize_words

    def counted(words, mask, G):
        seen.append((words, mask, G))
        return original(words, mask, G)

    def decoded(ctx):
        out = []
        for words, mask, G in seen:
            w, zeros = (G & -G).bit_length(), (0,) * ctx.n
            ideal = MonomialIdeal.from_generators(
                ctx, [_unpack(p, zeros, w) for p in words])
            fields = _unpack(mask, zeros, w)
            out.append((ideal, MonomialPrime(ctx, [i for i, f in enumerate(fields) if f])))
        seen.clear()
        return out

    monkeypatch.setattr(idealkit.core, "_localize_words", counted)
    I = ex2_10_ideal
    assert not has_embedded_primes(I)
    jobs = {
        "symbolic_powers": lambda: list(symbolic_powers(I, range(1, 6))),
        "ntf_probe": lambda: ntf_probe(I, 5),
        "cli symbolic": lambda: main(["symbolic", "--k", "5",
                                      str(FIXTURES / "ex2_10.ideal")]),
    }
    for name, job in jobs.items():
        job()
        assert decoded(I.context) == [(I ** k, p) for k in range(1, 6)
                                      for p in minimal_primes(I)], name
    capsys.readouterr()
    J = ex2_12_ideal
    assert has_embedded_primes(J)
    list(symbolic_powers(J, {4, 2}))
    assert decoded(J.context) == [(J ** k, p) for k in (2, 4)
                                  for p in minimal_primes(J)]
    list(symbolic_powers(J, {4, 2}, Variant.ALL_ASS_PRIMES))
    maximal = _local_primes(J, Variant.ALL_ASS_PRIMES)
    assert maximal != minimal_primes(J)
    assert decoded(J.context) == [(J ** k, p) for k in (2, 4) for p in maximal]


def test_symbolic_path_takes_no_primary_decomposition(ex2_10_ideal, ex2_12_ideal,
                                                      monkeypatch, capsys):
    # symbolic powers localize I^k at primes read off the irreducible
    # decomposition; no primary component is ever built
    calls = []
    original = idealkit.decomposition._primary

    def counted(dec):
        calls.append(dec)
        return original(dec)

    monkeypatch.setattr(idealkit.decomposition, "_primary", counted)
    for label, I in (("ex2_10", ex2_10_ideal), ("ex2_12", ex2_12_ideal)):
        path = str(FIXTURES / f"{label}.ideal")
        jobs = {
            "symbolic_powers": lambda: list(symbolic_powers(I, range(1, 4))),
            "symbolic_powers ass": lambda: list(symbolic_powers(
                I, range(1, 4), Variant.ALL_ASS_PRIMES)),
            "ntf_probe": lambda: ntf_probe(I, 3),
            "cli symbolic": lambda: main(["symbolic", "--k", "3", path]),
            "cli symbolic ass": lambda: main(["symbolic", "--k", "3",
                                              "--variant", "ass", path]),
        }
        for name, job in jobs.items():
            job()
            assert calls == [], (label, name)
    capsys.readouterr()
    primary_decomposition(ex2_10_ideal)
    assert len(calls) == 1  # the spy sees the one caller


def _local_primes(I, variant):
    primes = associated_primes(I)
    if variant is Variant.MIN_PRIMES:
        return minimal_primes(I)
    return [p for p in primes if not any(q != p and p.issubset(q) for q in primes)]


def _chain_by_products(I, K, variant):
    """(k, I^k, symbolic power) for k = 1..K by repeated ``*``, ``localize``
    and ``intersect_all``, then the k at which a product overflowed (or
    None).  For I^(k) of an ideal without embedded primes it intersects the
    k-th powers of the primary components (Cooper, Embree, Ha, Hoefel), so
    it checks that theorem against the localizing chain of
    ``symbolic_powers``; every other case localizes I^k by ``localize``."""
    comps = None
    if variant is Variant.MIN_PRIMES and not has_embedded_primes(I):
        comps = [c.ideal for c in primary_decomposition(I)]
    local = _local_primes(I, variant)
    rows, Ik, powers = [], I, comps
    for k in range(1, K + 1):
        try:
            if k > 1:
                Ik = Ik * I
                if comps:
                    powers = [q * c for q, c in zip(powers, comps)]
        except ExponentOverflowError:
            return rows, k
        rows.append((k, Ik, intersect_all(
            powers if comps else [localize(Ik, p) for p in local])))
    return rows, None


def test_chain_overflows_where_repeated_products_do():
    # entries near MAX_EXPONENT // K put the first overflowing product
    # anywhere in 2..K; the chain must yield the same powers up to it and
    # raise there, also when its field width is clamped to MAX_EXPONENT
    rng = random.Random(1616)
    overflowed = set()
    for _ in range(60):
        n, K = rng.randint(1, 4), rng.randint(2, 9)
        base = MAX_EXPONENT // K
        ctx = PolyContext.default(n)
        vecs = [tuple(rng.choice((0, 1, 3, base + rng.randint(-2, 2), base // 2))
                      for _ in range(n)) for _ in range(rng.randint(1, 4))]
        I = MonomialIdeal.from_generators(ctx, [v for v in vecs if any(v)] or [(1,) * n])
        if not I.is_proper_nonzero():
            continue
        for variant in Variant:
            want, at = _chain_by_products(I, K + 1, variant)
            got = []
            if at is None:
                got = list(symbolic_powers(I, range(1, K + 2), variant))
            else:
                overflowed.add(at)
                with pytest.raises(ExponentOverflowError):
                    for row in symbolic_powers(I, range(1, K + 2), variant):
                        got.append(row)
            assert got == want, (I, variant)
    assert len(overflowed) >= 5
    ctx = PolyContext.default(3)
    e = MAX_EXPONENT // 3 + 1  # 2e fits, 3e does not
    huge = range(1, 10**20)
    for gens, at in (([(e, 1, 0), (0, 1, 1)], 3), ([(1, 1, 0), (0, 1, 1)], None)):
        I = MonomialIdeal.from_generators(ctx, gens)
        for variant in Variant:
            want, stop = _chain_by_products(I, 4, variant)
            assert stop == at
            rows = symbolic_powers(I, huge, variant)
            got = [next(rows) for _ in want]
            assert got == want
            if at is not None:
                with pytest.raises(ExponentOverflowError):
                    next(rows)


def test_chain_at_field_width_edges():
    # exponents 2^j - 1, 2^j, 2^j + 1 and max(ks) up to 8 put the largest
    # entry of the chain on either side of a power of two, where the shared
    # field width changes
    rng = random.Random(2716)
    for n in range(1, 6):
        for _ in range(8):
            ctx = PolyContext.default(n)
            vecs = []
            for _ in range(rng.randint(1, 3)):
                j = rng.randint(0, 4)
                vecs.append(tuple(rng.choice((0, 2**j - 1, 2**j, 2**j + 1))
                                  for _ in range(n)))
            I = MonomialIdeal.from_generators(ctx, [v for v in vecs if any(v)] or [(1,) * n])
            if not I.is_proper_nonzero():
                continue
            ks = sorted(rng.sample(range(1, 9), rng.randint(1, 3)))
            for variant in Variant:
                local = _local_primes(I, variant)
                got = list(symbolic_powers(I, ks, variant))
                assert [k for k, _, _ in got] == ks
                for k, Ik, sym in got:
                    assert Ik == I ** k, (I, k)
                    want = intersect_all([saturation_localize(Ik, p) for p in local])
                    assert sym == want, (I, k, variant)


def test_power_generator_cap(ex2_10_ideal):
    # I^k of ex2.10 keeps 6, 20, 50, 105, ... minimal generators
    I = ex2_10_ideal
    assert [len(Ik.exponents) for _, Ik, _ in
            symbolic_powers(I, range(1, 5), max_generators=105)] == [6, 20, 50, 105]
    with pytest.raises(ResourceCapError, match=r"k=4 has 105 minimal generators"):
        list(symbolic_powers(I, range(1, 10**20), max_generators=104))
    with pytest.raises(ResourceCapError, match="k=3"):
        ntf_probe(I, 10**20, max_generators=49)
    assert main(["ntf", "--kmax", "10", "--max-generators", "49",
                 str(FIXTURES / "ex2_10.ideal")]) == 2
    assert main(["symbolic", "--k", "10", "--max-generators", "49",
                 str(FIXTURES / "ex2_10.ideal")]) == 2
