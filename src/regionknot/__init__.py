"""Region crossing change calculus on knot diagrams.

Parse PD codes, trace regions, realize crossing changes by region crossing
changes over GF(2), compute exact region unknotting numbers with a Jones
triviality oracle, produce constructive small unknotting certificates, and
verify the Boolean-algebra structure of the RCC effect map.
"""

from .boolalg import (
    AxiomReport,
    RestrictedAlgebra,
    black_white_pairs,
    build_restricted,
    verify_axioms,
    verify_homomorphism,
    verify_order_isomorphism,
)
from .catalog import (
    CatalogEntry,
    MalformedCatalog,
    bundled_catalog,
    bundled_diagram,
    load_catalog,
    parse_catalog,
)
from .construct import (
    NotAKnot,
    add_kink,
    braid_closure,
    montesinos_diagram,
    rational_diagram,
)
from .diagram import (
    Basepoint,
    Coloring,
    Crossing,
    EdgeLabelNotTwice,
    KnotDiagram,
    MalformedToken,
    MultipleComponents,
    NotPlanar,
    ReducibleDiagram,
    RegionMap,
    UnknownCrossing,
    apply_crossing_changes,
    checkerboard,
    edge_arrivals,
    faces,
    is_irreducible,
    parse_pd,
)
from .gf2 import (
    Gf2Matrix,
    Inconsistent,
    Singular,
    rank,
    right_inverse,
)
from .polynomial import LaurentPolynomial
from .rcc import (
    CrossingSet,
    NotBlackWhitePair,
    ProofContractViolated,
    RccMap,
    RegionSet,
    apply_rcc,
    bw_complements,
    phi,
    rcc_map,
    region_choice_matrix,
    solve_avoiding,
    solve_for_crossings,
    splice_solution,
)
from .reference import (
    PowerSetAlgebra,
    delete_columns,
    determinant,
    incidence_discrepancies,
    invert_square,
    is_trivial,
    kernel,
    phi_bruteforce,
    solve_affine,
)
from .unknotting import (
    EquilibriumReport,
    TooManyCrossings,
    UnknottingCertificate,
    bw_complement_bound,
    equilibrium,
    is_monotone,
    jones_normalized,
    kauffman_bracket,
    monotone_target,
    region_unknotting_number,
    small_unknotting_set,
)

__version__ = "0.1.0"
