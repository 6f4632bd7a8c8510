"""Every exported name resolves, and names removed from the API stay gone."""

import importlib
import itertools
import pkgutil
import re
from pathlib import Path

import pytest

import graphzeta
from conftest import modules_naming

MODULES = sorted(info.name for info in pkgutil.iter_modules(graphzeta.__path__))
README = Path(__file__).resolve().parent.parent / "README.md"

# (module, name) pairs deleted from the library, each also checked at the top
# level (graphzeta.det_commutative among them); each has a surviving route:
# UniPoly.derivative / UniPoly.__call__, CycloNum.norm, the groupring
# character layer, det_cyclotomic_poly at j = 0 for integer polynomial
# matrices (det_poly_int) and over Z[zeta_{p^j}] (h and z), and
# det_groupring_poly for group-ring and rational matrices; every polynomial
# determinant takes its matrix as terms.
# The cofactor determinant, eta_direct, norm_map_direct and
# l_reciprocal_of_sum (product_formula_check takes one norm per orbit
# instead) live on as test oracles in tests/oracles.py.  The truncated
# power series and the two zeta series built from it gave way to
# graphs.path_counts_from_zeta, an integer identity on the path counts.
# The dense dart transition matrix and its matrix powers are the path-count
# oracle in tests/oracles.py; reduced_closed_path_counts works sparsely.
# The lfunctions command renders integer coordinates with str, so the
# CycloNum renderers fmt_cyclo and fmt_cyclo_poly lost their caller, and
# the character table conjugates integer coordinates, so the CycloNum
# polynomial conjugation galois_conjugate is a test oracle in tests/oracles.py.
# The orbit norms of every j come from one orbit_norms call (Graeffe
# root-powering); the per-j kernel route orbit_norm is the test oracle
# orbit_norm_by_kernel.  The stabilizer-in-kernel test of a vertex is
# membership in orbit_vertices(d, j), K_j; CycloNum.inverse takes the other
# Galois conjugates over the norm, so the Q[X] Euclid helpers are gone; the
# subgroup action on a cover indexes vertices by per-base-vertex offsets.
# Integer determinants above the Bareiss size go to det_cyclotomic_poly at
# j = 0, so the Hadamard-bound CRT route is gone.  Character values travel
# as integer coordinate rows, so the per-character CycloNum route is gone:
# character_table / character_tables and CharacterTable.orbit_rows give h,
# h(1) and h'(1) of every character (r0 gives its c-exponent) and
# from_character_values takes values as coordinates; CycloNum with
# _phi_tail, _reduce, zeta and ordp_cyclo, level_matrices (for eta_direct),
# character_idempotent and a per-character h, z and LfnData built from
# level_matrices are test oracles in tests/oracles.py.  Every norm is a
# Graeffe chain on coefficients packed by poly.pack (cyclo.coordinate_norm,
# norm_groupring_poly), so the private packing and the product over the
# roots mod q are gone.  The multimodular pass takes one problem, so the
# cross-problem pass _det_orbits is gone: det_cyclotomic_poly deduplicates
# and routes each problem itself.  Per prime the pass takes one characteristic
# polynomial (_charpoly_mod) of the block companion matrix of S + A u + B u^2
# (or of M(0) when D = 0), so the evaluation at D + 1 points, its batched
# elimination and chunk size, the denominator inversion and the Newton
# interpolation are gone.  A level's h is the product of its character
# table's orbit norms (CharacterTable.level_h), so level_h_poly and the
# norm kernel det_norm_cyclotomic are gone; the primes of a pass are
# searched afresh per call, so the prime cache is gone; UniPoly compares
# its coefficients with 0 inline.  Galois conjugates are gathers of Python
# lists and only the multimodular pass uses numpy, so the numpy index pair
# and the int64-or-object array helper are gone.  A level is built one way
# (build_level_graph), so the quotient of a built level is the test oracle
# quotient_level_graph in tests/oracles.py, reading darts by index; the sweep
# takes each orbit's stabilizer power as its exponent, orbit_level_exponent.
REMOVED = [
    ("poly", "poly_derivative"),
    ("poly", "poly_eval"),
    ("cyclo", "cyclo_norm_to_Q"),
    ("report", "fmt_groupring_poly"),
    ("groupring", "_order_exponent"),
    ("lfunctions", "_reassemble_polys"),
    ("equivariant", "_char_apply"),
    ("equivariant", "_idft_subgroup"),
    ("linalg", "_lagrange"),
    ("linalg", "_det_poly_cyclo_at_level"),
    ("linalg", "_det_poly"),
    ("linalg", "det_commutative"),
    ("linalg", "det_fraction"),
    ("linalg", "det_cofactor"),
    ("linalg", "_det_field"),
    ("linalg", "_newton_interpolate"),
    ("linalg", "_det_poly_cyclo"),
    ("linalg", "_det_poly_rational"),
    ("linalg", "_det_groupring_poly"),
    ("linalg", "_scalar_kind"),
    ("linalg", "_COFACTOR_POLY_MAX_DIM"),
    ("linalg", "_poly_entry"),
    ("linalg", "_clear_row_denominators"),
    ("lfunctions", "_normalize_cyclo_poly"),
    ("lfunctions", "_three_term_matrix"),
    ("equivariant", "eta_direct"),
    ("equivariant", "norm_map_direct"),
    ("lfunctions", "l_reciprocal_of_sum"),
    ("linalg", "det_poly_int"),
    ("poly", "TruncSeries"),
    ("graphs", "zeta_series_from_counts"),
    ("graphs", "zeta_reciprocal_series"),
    ("graphs", "dart_transition_matrix"),
    ("report", "fmt_cyclo"),
    ("report", "fmt_cyclo_poly"),
    ("groupring", "galois_conjugate"),
    ("lfunctions", "orbit_norm"),
    ("lfunctions", "kernel_contains_stabilizer"),
    ("cyclo", "_poly_trim"),
    ("cyclo", "_poly_divmod"),
    ("cyclo", "_poly_modinv"),
    ("equivariant", "_vertex_lookup"),
    ("linalg", "_det_crt"),
    ("linalg", "_hadamard_bound"),
    ("cyclo", "CycloNum"),
    ("cyclo", "_phi_tail"),
    ("cyclo", "_reduce"),
    ("cyclo", "zeta"),
    ("cyclo", "ordp_cyclo"),
    ("tower", "level_matrices"),
    ("groupring", "apply_character"),
    ("groupring", "_monomials"),
    ("groupring", "character_idempotent"),
    ("lfunctions", "h_poly"),
    ("lfunctions", "z_poly"),
    ("lfunctions", "_three_term_poly"),
    ("lfunctions", "special_values"),
    ("lfunctions", "SpecialValues"),
    ("lfunctions", "lfn_data"),
    ("lfunctions", "LfnData"),
    ("linalg", "_pack"),
    ("linalg", "_prod_mod"),
    ("linalg", "_det_orbits"),
    ("linalg", "_det_mod_batch"),
    ("linalg", "_FLOOR_DIVIDE_MIN"),
    ("linalg", "_inverses_mod"),
    ("linalg", "_interpolate_mod"),
    ("linalg", "_BATCH_ENTRIES"),
    ("linalg", "det_norm_cyclotomic"),
    ("lfunctions", "level_h_poly"),
    ("linalg", "_PRIME_SUPPLY"),
    ("poly", "_is_zero"),
    ("cyclo", "_galois_index_pair"),
    ("cyclo", "_int_array"),
    ("tower", "quotient_level_graph"),
    ("lfunctions", "orbit_level_factor"),
]

# (module, class, attribute) triples deleted from a class: a dart's label is its index
# e p^n + sigma, and whether a character kills a subgroup is one congruence
REMOVED_ATTRIBUTES = [
    ("tower", "LevelGraph", "dart_base"),
    ("tower", "LevelGraph", "dart_sigma"),
    ("groupring", "CharacterLabel", "kernel_contains"),
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"graphzeta.{name}")
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing


@pytest.mark.parametrize("module_name, attr", REMOVED)
def test_removed_names_are_gone(module_name, attr):
    module = importlib.import_module(f"graphzeta.{module_name}")
    assert not hasattr(module, attr)
    assert attr not in getattr(module, "__all__", [])
    assert not hasattr(graphzeta, attr)


@pytest.mark.parametrize("module_name, cls, attr", REMOVED_ATTRIBUTES)
def test_removed_attributes_are_gone(module_name, cls, attr):
    import dataclasses

    owner = getattr(importlib.import_module(f"graphzeta.{module_name}"), cls)
    assert not hasattr(owner, attr)
    assert attr not in {field.name for field in dataclasses.fields(owner)}
    assert f"`{cls}.{attr}" in README.read_text()


def test_public_removed_names_have_a_readme_row():
    # each public (module, name) of REMOVED is named `module.name in the first column of
    # README's table of removed names and their replacements
    lines = README.read_text().splitlines()
    start = lines.index("| removed | use instead |") + 2
    rows = itertools.takewhile(lambda line: line.startswith("|"), lines[start:])
    first_column = "\n".join(row.split(" | ")[0] for row in rows)
    public = [(module, attr) for module, attr in REMOVED if not attr.startswith("_")]
    assert public
    missing = [f"{m}.{a}" for m, a in public if not re.search(rf"`{m}\.{a}\b", first_column)]
    assert not missing


def test_character_labels_reexported_from_groupring():
    from graphzeta import groupring, lfunctions

    assert lfunctions.CharacterLabel is groupring.CharacterLabel
    assert lfunctions.characters is groupring.characters


def test_character_values_stay_coordinate_rows_between_kernel_and_transform():
    # the table keeps h only as integer rows; linalg and report hold no CycloNum
    import dataclasses

    from graphzeta import linalg, report
    from graphzeta.lfunctions import CharacterTable

    assert "rep_h" not in {field.name for field in dataclasses.fields(CharacterTable)}
    assert not hasattr(linalg, "CycloNum") and not hasattr(report, "CycloNum")


def test_no_module_binds_a_cyclonum():
    # the library's one representation of a character value is its integer coordinate rows
    from graphzeta.groupring import CharacterLabel

    assert modules_naming("CycloNum") == []
    assert not hasattr(CharacterLabel, "value")
