"""Symbolic powers of monomial ideals by both definitions.

Two routes compute the minimal-primes symbolic power I^(k): localizing I^k at
each minimal prime and intersecting, or powering the primary components at
minimal primes (valid when I has no embedded primes).  The default runs the
cheap primary-powers route and cross-checks it against the localization route
whenever the no-embedded-primes hypothesis holds; a disagreement raises
RouteMismatchError.

The variant over the full set of associated primes, I^<k>, localizes at the
inclusion-maximal associated primes; using all associated primes gives the
same ideal.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .core import MonomialIdeal, intersect_all
from .decomposition import (
    associated_primes,
    has_embedded_primes,
    localize,
    minimal_primes,
    primary_decomposition,
)
from .errors import EmbeddedPrimeError, RouteMismatchError


class Route(str, enum.Enum):
    LOCALIZATION = "localization"
    PRIMARY_POWERS = "primary-powers"
    AUTO = "auto"


class Variant(str, enum.Enum):
    MIN_PRIMES = "min-primes"
    ALL_ASS_PRIMES = "all-ass-primes"


@dataclass(frozen=True)
class SymbolicPowerResult:
    ideal: MonomialIdeal
    k: int
    route: Route
    variant: Variant


def _check_k(k):
    if k < 1:
        raise ValueError("symbolic powers need k >= 1")


def _sp_localization(I, k, primes):
    Ik = I ** k
    return intersect_all([localize(Ik, p) for p in primes])


def symbolic_power_min(I: MonomialIdeal, k: int, route=Route.AUTO) -> MonomialIdeal:
    """I^(k): the symbolic power over the minimal primes of I."""
    I.require_proper_nonzero("symbolic powers")
    _check_k(k)
    route = Route(route)
    if route is Route.LOCALIZATION:
        return _sp_localization(I, k, minimal_primes(I))
    embedded = has_embedded_primes(I)
    if route is Route.PRIMARY_POWERS:
        if embedded:
            raise EmbeddedPrimeError(
                "the primary-powers route needs an ideal without embedded primes")
        return intersect_all([c.ideal ** k for c in primary_decomposition(I)])
    # auto: fast route plus cross-check when the hypothesis holds
    if embedded:
        return _sp_localization(I, k, minimal_primes(I))
    fast = intersect_all([c.ideal ** k for c in primary_decomposition(I)])
    slow = _sp_localization(I, k, minimal_primes(I))
    if fast != slow:
        raise RouteMismatchError(
            f"symbolic power routes disagree for {I} at k={k}: "
            f"{fast} vs {slow}")
    return fast


def symbolic_power(I: MonomialIdeal, k: int, variant=Variant.MIN_PRIMES,
                   route=Route.AUTO) -> SymbolicPowerResult:
    """Symbolic power with its provenance (variant and route) attached."""
    variant = Variant(variant)
    if variant is Variant.MIN_PRIMES:
        ideal = symbolic_power_min(I, k, route)
    else:
        ideal = symbolic_power_ass(I, k)
        route = Route.LOCALIZATION
    return SymbolicPowerResult(ideal, k, Route(route), variant)


def symbolic_power_ass(I: MonomialIdeal, k: int) -> MonomialIdeal:
    """I^<k>: the symbolic power over all associated primes.

    Localizes at the inclusion-maximal associated primes; the non-maximal
    localizations are redundant in the intersection.
    """
    I.require_proper_nonzero("symbolic powers")
    _check_k(k)
    primes = associated_primes(I)
    max_ass = [p for p in primes
               if not any(q is not p and p.issubset(q) for q in primes)]
    Ik = I ** k
    return intersect_all([localize(Ik, p) for p in max_ass])


@dataclass(frozen=True)
class NtfReport:
    """Per-exponent comparison of ordinary and symbolic powers."""

    kmax: int
    equal: tuple[bool, ...]          # equal[k-1] is (I^k == I^(k))
    first_failure: int | None        # smallest k with I^k != I^(k), if any

    def all_equal(self):
        return self.first_failure is None


def ntf_probe(I: MonomialIdeal, kmax: int = 4) -> NtfReport:
    """Compare I^k with I^(k) for k = 1..kmax."""
    I.require_proper_nonzero("the torsion-freeness probe")
    _check_k(kmax)
    flags = []
    first = None
    for k in range(1, kmax + 1):
        ordinary = I if k == 1 else ordinary * I
        ok = ordinary == symbolic_power_min(I, k)
        flags.append(ok)
        if not ok and first is None:
            first = k
    return NtfReport(kmax, tuple(flags), first)


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
    from .cones import cones_equal, dual_description, is_normal, rees_cone, simis_cone

    I.require_proper_nonzero("the equality certificate")
    if has_embedded_primes(I):
        return EqualityCertificate.INAPPLICABLE
    if not all(is_normal(c.ideal) for c in primary_decomposition(I)):
        return EqualityCertificate.INAPPLICABLE
    if cones_equal(simis_cone(I), dual_description(rees_cone(I))) and is_normal(I):
        return EqualityCertificate.EQUAL_BY_CONE_CRITERION
    return EqualityCertificate.UNEQUAL
