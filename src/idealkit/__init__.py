"""Exact computations with monomial ideals.

Irreducible and primary decompositions, symbolic powers by both definitions,
Alexander-type duals, Rees and Simis cones with minimal Hilbert bases,
normality and integral closure, plus edge ideals of vertex-weighted oriented
graphs with the strong-cover decomposition and the combinatorial
Cohen-Macaulay classification of weighted oriented forests.
"""

from .core import (
    MAX_EXPONENT,
    Monomial,
    MonomialIdeal,
    MonomialPrime,
    PolyContext,
    intersect_all,
    minimalize,
)
from .decomposition import (
    Decomposition,
    IrreducibleIdeal,
    PrimaryIdeal,
    alexander_dual,
    associated_primes,
    has_embedded_primes,
    irreducible_decomposition,
    is_primary,
    is_unmixed,
    localize,
    minimal_irreducibles,
    minimal_primes,
    primary_decomposition,
    star_dual,
)
from .symbolic import (
    DEFAULT_GENERATOR_CAP,
    NtfReport,
    Variant,
    ntf_probe,
    symbolic_power_ass,
    symbolic_power_min,
    symbolic_powers,
)
from .cones import (
    DEFAULT_LATTICE_CAP,
    EqualityCertificate,
    HilbertBasis,
    RationalCone,
    check_symbolic_rees_normal,
    cones_equal,
    dual_description,
    hilbert_basis,
    integral_closure,
    is_normal,
    is_pointed,
    rees_cone,
    simis_cone,
    symbolic_rees_generators,
    symbolic_vs_ordinary_certificate,
)
from .digraphs import (
    DEFAULT_VERTEX_CAP,
    CmResult,
    CmStatus,
    CoverPartition,
    DigraphStructure,
    WeightedDigraph,
    depth_reduction_step,
    polarize,
)
from .errors import (
    ContextMismatchError,
    DigraphError,
    EmbeddedPrimeError,
    ExponentOverflowError,
    HypothesisError,
    IdealKitError,
    ImproperIdealError,
    NonPointedConeError,
    ParseError,
    ResourceCapError,
)

__version__ = "0.1.0"
