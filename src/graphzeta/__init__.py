"""graphzeta: exact Ihara zeta and L-functions of finite graphs and their
abelian branched covers, and Iwasawa invariants of p-adic voltage towers.

All arithmetic is exact: arbitrary-precision integers and rationals,
prime-power cyclotomic fields, and group rings of cyclic p-groups.
"""

from .cyclo import Valuation, ordp_fraction
from .datum_io import datum_to_dict, dump_datum, load_datum, parse_datum
from .equivariant import (
    EquivEulerChar,
    EquivZeta,
    equivariant_euler_char,
    equiv_zeta,
    eta_for_subgroup_action,
    eta_poly,
    gamma_exponents,
    inflation_check,
    norm_map,
    trace_map,
)
from .errors import CertificationError, DatumError, GraphError, HypothesisError
from .graphs import (
    SerreGraph,
    adjacency_and_degree,
    connected,
    euler_characteristic,
    ihara_zeta_reciprocal,
    reduced_closed_path_counts,
    spanning_tree_count,
    validate_graph,
)
from .groupring import GroupRingElem, groupring_idempotent
from .iwasawa import (
    GSeries,
    IwasawaInvariants,
    TowerRow,
    char_ideal_generator,
    closed_form_invariants,
    fit_and_certify,
    g_series,
    lambda_components,
    mu_lambda,
    tower_sweep,
)
from .lfunctions import (
    CharacterLabel,
    CharacterTable,
    character_table,
    character_tables,
    characters,
    product_formula_check,
    r0,
    vanishing_order_check,
    xi_poly,
)
from .poly import UniPoly
from .tower import (
    LevelGraph,
    TowerDatum,
    build_level_graph,
    ramification_profile,
    tower_euler_char,
)

__version__ = "0.1.0"
