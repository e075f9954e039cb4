"""Exhaustively verified constructions over finite commutative rings.

Rings are dense operation tables over index sets, so every structural claim
(associativity, ideal closure, hom property, isomorphism) is a finite array
identity. The package builds amalgamations of a hom along an ideal together
with the classical constructions they subsume, and every named proposition
about them ships as a check that recomputes both sides on the instance.
"""

from .amalgamation import (
    Amalgam,
    DottedSum,
    amalgam,
    canonical_isos,
    domain_criterion_check,
    dorroh,
    dorroh_check,
    dotted_sum,
    dotted_transport,
    duplication,
    n_amalgam,
    pullback,
    reduced_criterion_check,
    retraction_criterion_check,
    same_amalgam,
)
from .config import guard_limit, set_size_guard, size_guard
from .constructions import (
    Idealization,
    cpi_ideal,
    cpi_prime,
    d_plus_m,
    nagata_idealization,
    noetherian_report,
    noetherian_verdict_xjx,
    trunc_poly_amalgam,
)
from .dsl_cli import evaluate, generate_catalog, main, parse
from .errors import FinringError
from .morphisms import (
    RingHom,
    enumerate_homs,
    find_iso,
    find_section,
    identity_hom,
    kernel,
    verify_iso,
)
from .reports import VerificationReport, reports_to_json
from .rings import (
    FiniteRng,
    direct_product,
    from_tables,
    galois_field,
    trunc_poly,
    zmod,
)
from .subobjects import (
    Ideal,
    Subrng,
    all_ideals,
    ideal_from_generators,
    localization,
    nilradical,
    quotient_ring,
    subring_generated,
)

__version__ = "0.1.0"
