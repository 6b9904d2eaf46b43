"""Exact independence polynomials and the equivalence classes of paths and cycles.

Public surface re-exported here: graph construction and canonical
forms, exact polynomial arithmetic with Sturm-chain root counting, the
independence polynomial evaluator and its brute-force twin, the
irreducible basis factorization of path/cycle polynomials, the
classifiers for path and cycle equivalence classes, and the exhaustive
oracle used to confirm them at small sizes.
"""

from .graphcore import (
    FamilySpec,
    Graph,
    Graph6Error,
    build,
    canonical_form,
    graph6_read,
    graph6_write,
)
from .polyalg import (
    IntPoly,
    SturmChain,
    all_roots_real_below,
    count_real_roots,
    isolate_real_roots,
    poly_gcd,
    real_roots_approx,
)
from .indpoly import (
    bruteforce_counts,
    cycle_polynomial,
    independence_polynomial,
    path_polynomial,
)
from .factorbasis import (
    BasisFactor,
    FactorizationError,
    basis_f,
    basis_ftilde,
    cyclotomic,
    factor_cycle,
    factor_into_basis,
    factor_path,
    product_of,
    real_cyclotomic,
)
from .classify import (
    CATALOGUE,
    CatalogueEntry,
    EquivClass,
    EvenCycleClassNote,
    Verdict,
    cycle_class,
    elimination_value,
    path_class,
    screen_family,
    sweep_family,
)
from .oracle import (
    EnumFilter,
    catalogue_class_search,
    enumerate_graphs,
    equivalence_class_bruteforce,
    naive_bucket_count,
    unlabeled_graph_count,
)

__version__ = "0.1.0"
