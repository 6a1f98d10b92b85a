"""Symbolic powers of monomial ideals by both definitions.

``symbolic_powers`` computes every requested power from one decomposition of
I and one chain of products, and the ideal decides the path.  When I has no
embedded primes, its minimal-primes symbolic power I^(k) is the intersection
of the k-th powers of its primary components (Cooper, Embree, Ha, Hoefel).
Otherwise I^(k) is I^k localized at each minimal prime and intersected.

The variant over the full set of associated primes, I^<k>, is computed by
localization alone, at the inclusion-maximal associated primes; using all
associated primes gives the same ideal.

This module picks the path and the primes; ``core._power_chain`` does the
arithmetic on packed words in one shared layout (lo = 0, fields wide enough
for max(ks) times the largest exponent of I).  There a product is a word
sum, localizing at a prime clears the other variables' fields with one AND
and re-minimalizes, and intersecting folds the lcm mask over the words; only
the yielded ideals are unpacked.  ``max_generators`` caps the minimal
generators of each power with ResourceCapError.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .cones import (
    DEFAULT_LATTICE_CAP,
    _component_cones,
    _generated_by,
    _simis_cone,
    cones_equal,
    dual_description,
    rees_cone,
)
from .core import MonomialIdeal, _power_chain
from .decomposition import (
    _associated,
    _inclusion_minimal,
    irreducible_decomposition,
    primary_without_embedded,
)
from .errors import EmbeddedPrimeError

#: Default cap on the minimal generators of one power in the chain; the
#: ``--max-generators`` option of ``symbolic`` and ``ntf``.
DEFAULT_GENERATOR_CAP = 5000


class Variant(str, enum.Enum):
    MIN_PRIMES = "min-primes"
    ALL_ASS_PRIMES = "all-ass-primes"


def symbolic_powers(I: MonomialIdeal, ks, variant=Variant.MIN_PRIMES,
                    max_generators: int = DEFAULT_GENERATOR_CAP):
    """Yield (k, I^k, symbolic power) for each k in ``ks``, in ascending order.

    I is decomposed once.  I^(k) of an ideal without embedded primes is the
    intersection of its primary components' k-th powers; every other case
    localizes I^k.  ``core._power_chain`` grows I^k and the component powers
    as single chains of products up to max(ks), on packed words in one
    layout; localizations and intersections happen only at the requested k.
    ``ks`` is a container of ints (a range, set or list) and is never
    expanded, so a huge range costs nothing beyond the powers taken from it.
    A power with more than ``max_generators`` minimal generators raises
    ResourceCapError.
    """
    I.require_proper_nonzero("symbolic powers")
    if isinstance(ks, range) and ks:
        # min and max of a range would iterate it; its ends are at hand
        lo, hi = sorted((ks[0], ks[-1]))
    else:
        lo, hi = min(ks, default=0), max(ks, default=0)
    if lo < 1:
        raise ValueError("symbolic powers need k >= 1")
    variant = Variant(variant)
    dec = irreducible_decomposition(I)
    primes = _associated(dec)
    comps, local = [], []
    if variant is Variant.ALL_ASS_PRIMES:
        local = [p for p in primes
                 if not any(q is not p and p.issubset(q) for q in primes)]
    else:
        try:
            comps = [c.ideal for c in primary_without_embedded(
                dec, "the primary-power chain")]
        except EmbeddedPrimeError:
            local = _inclusion_minimal(primes)
    yield from _power_chain(I, ks, hi, comps, local, max_generators)


def symbolic_power_min(I: MonomialIdeal, k: int) -> MonomialIdeal:
    """I^(k): the symbolic power over the minimal primes of I."""
    return next(symbolic_powers(I, [k]))[2]


def symbolic_power_ass(I: MonomialIdeal, k: int) -> MonomialIdeal:
    """I^<k>: the symbolic power over all associated primes."""
    return next(symbolic_powers(I, [k], Variant.ALL_ASS_PRIMES))[2]


@dataclass(frozen=True)
class NtfReport:
    """Per-exponent comparison of ordinary and symbolic powers."""

    kmax: int
    equal: tuple[bool, ...]          # equal[k-1] is (I^k == I^(k))
    first_failure: int | None        # smallest k with I^k != I^(k), if any

    def all_equal(self):
        return self.first_failure is None


def ntf_probe(I: MonomialIdeal, kmax: int = 4,
              max_generators: int = DEFAULT_GENERATOR_CAP) -> NtfReport:
    """Compare I^k with I^(k) for k = 1..kmax."""
    I.require_proper_nonzero("the torsion-freeness probe")
    flags = tuple(Ik == sym for _, Ik, sym in symbolic_powers(
        I, range(1, kmax + 1), max_generators=max_generators))
    first = next((k for k, ok in enumerate(flags, 1) if not ok), None)
    return NtfReport(kmax, flags, first)


class EqualityCertificate(str, enum.Enum):
    EQUAL_BY_CONE_CRITERION = "equal-by-cone-criterion"
    UNEQUAL = "unequal"
    INAPPLICABLE = "inapplicable"


def symbolic_vs_ordinary_certificate(I: MonomialIdeal) -> EqualityCertificate:
    """Decide ``I^k == I^(k) for all k`` via the cone criterion.

    Applicable when I has no embedded primes and every primary component is
    normal; then equality for every k holds iff the Simis cone equals the
    Rees cone and I itself is normal.
    """
    I.require_proper_nonzero("the equality certificate")
    try:
        cones, bad = _component_cones(I, "the cone criterion", DEFAULT_LATTICE_CAP)
    except EmbeddedPrimeError:
        return EqualityCertificate.INAPPLICABLE
    if bad is not None:
        return EqualityCertificate.INAPPLICABLE
    simis = _simis_cone(cones, I.context.n + 1)
    rc = rees_cone(I)
    rees = dual_description(rc)
    if (cones_equal(simis, rees)
            and _generated_by(rees, rc.rays, DEFAULT_LATTICE_CAP)):
        return EqualityCertificate.EQUAL_BY_CONE_CRITERION
    return EqualityCertificate.UNEQUAL
