"""Symbolic powers of monomial ideals by both definitions.

``symbolic_powers`` computes every requested power from one decomposition of
I and one chain of products, by one formula for every ideal and both
variants: the symbolic power is I^k localized at each prime of the variant
and intersected.  The minimal-primes power I^(k) localizes at the minimal
primes, as in its definition.  The variant over the full set of associated
primes, I^<k>, localizes at the inclusion-maximal associated primes; using
all associated primes gives the same ideal.  No primary decomposition is
taken: that I^(k) is the intersection of the k-th powers of the primary
components when I has no embedded primes (Cooper, Embree, Ha, Hoefel) is a
theorem the tests check the results against.

This module picks the primes; ``core._power_chain`` does the arithmetic on
packed words in one layout (lo = 0, fields wide enough for max(ks) times
the largest exponent of I).  There a product is a word sum, localizing at a
prime clears the other variables' fields with one AND and re-minimalizes,
and intersecting folds the lcm mask over the words; only the yielded ideals
are unpacked.  ``max_generators`` caps the minimal generators of each power
with ResourceCapError.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .core import MonomialIdeal, _power_chain
from .decomposition import (
    _associated,
    _inclusion_maximal,
    _inclusion_minimal,
    irreducible_decomposition,
)

#: Default cap on the minimal generators of one power in the chain; the
#: ``--max-generators`` option of ``symbolic`` and ``ntf``.
DEFAULT_GENERATOR_CAP = 5000


class Variant(str, enum.Enum):
    MIN_PRIMES = "min-primes"
    ALL_ASS_PRIMES = "all-ass-primes"


def symbolic_powers(I: MonomialIdeal, ks, variant=Variant.MIN_PRIMES,
                    max_generators: int = DEFAULT_GENERATOR_CAP):
    """Yield (k, I^k, symbolic power) for each k in ``ks``, in ascending order.

    I is decomposed once, for its primes.  ``core._power_chain`` grows I^k as
    one chain of products up to max(ks), on packed words in one layout, and
    at each requested k localizes I^k at the primes and intersects.
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
    primes = _associated(irreducible_decomposition(I))
    if variant is Variant.ALL_ASS_PRIMES:
        primes = _inclusion_maximal(primes)
    else:
        primes = _inclusion_minimal(primes)
    yield from _power_chain(I, ks, hi, primes, max_generators)


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
