"""Exact-arithmetic invariants of surface cone singularities.

Cones are encoded by ample Q-divisors on the projective line; everything
downstream (resolution graphs, log discrepancies, finite catalogs, toric
plt blow-ups, Tjurina numbers) is computed exactly over the rationals.
"""

from .catalog import (
    CatalogEntry,
    catalog_consistency_check,
    enumerate_catalog,
    is_member,
)
from .cones import (
    CentralFiber,
    ConeTriple,
    central_fiber_of_plt_blowup,
    fano_angle,
    is_klt_cone,
    isotropy_at,
    log_fano_quotient,
    max_isotropy,
    veronese,
    vertex_log_discrepancy,
)
from .divisors import INF, PointP1, QDivisorP1, SeifertData
from .errors import (
    DomainError,
    NotACone,
    NotContractible,
    NotIsolated,
    NotLogFano,
    SingularMatrixError,
)
from .groebner import (
    GroebnerBasis,
    Poly,
    buchberger,
    parse_polynomial,
    quotient_dimension,
    tjurina,
    tjurina_family,
)
from .rationals import (
    RationalMatrix,
    format_rational,
    hj_expand,
    is_negative_definite,
    parse_rational,
    solve_linear,
)
from .resolution import (
    DiscrepancyReport,
    DualGraph,
    build_graph,
    discrepancies,
)
from .toric_an import (
    AnBoundsReport,
    PltBlowupRecord,
    enumerate_plt_blowups,
    verify_example_bounds,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
