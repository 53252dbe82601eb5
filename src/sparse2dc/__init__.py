"""Exact 2-distance coloring of sparse graphs.

Core pieces: an immutable graph type with distance-2 machinery, exact
potential-function evaluation via minimum cuts, exact and constructive
2-distance coloring, a charge-transfer (discharging) engine with an
auditable ledger, and corpus/verification harnesses.
"""

from .coloring import (
    Coloring,
    SearchBudgetExceeded,
    chi2_exact,
    color_2distance,
    hall_check,
    is_valid_2distance,
)
from .discharging import (
    ChargeLedger,
    endgame_report,
    run_discharge,
    verify_ledger,
)
from .graph import (
    Graph,
    PathDescriptor,
    check_girth_mad_bound,
    d_star,
    degree_two_runs,
    girth,
    square,
    subdivide,
    two_distance_neighborhood,
)
from .io import autodetect, from_graph6, parse_edge_list, to_graph6, write_edge_list
from .potential import (
    DENSITY_BOUND,
    PotentialParams,
    PotentialResult,
    add_path,
    mad_exact,
    rho,
    rho_star,
    rho_star_bruteforce,
    verify_potential_laws,
)
from .reductions import (
    Configuration,
    ForestOfStarsError,
    InternalContradiction,
    Reduction,
    apply_reduction,
    classify_vertices,
    constructive_color,
    detect_configuration,
    extend_coloring,
)
from .verify import (
    CorpusRecord,
    HuntReport,
    VerificationVerdict,
    generate_corpus,
    hunt,
    save_corpus,
    verify_theorem,
)

__version__ = "0.1.0"
