"""Every exported name resolves, and names removed from the API stay gone."""

import importlib
import pkgutil

import pytest

import graphzeta

MODULES = sorted(info.name for info in pkgutil.iter_modules(graphzeta.__path__))

# (module, name) pairs deleted from the library; each has a surviving route:
# UniPoly.derivative / UniPoly.__call__, CycloNum.norm, the groupring
# character layer, _newton_interpolate / _det_poly_cyclo in linalg, and
# det_poly_int for integer and rational polynomial matrices.
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


def test_character_labels_reexported_from_groupring():
    from graphzeta import groupring, lfunctions

    assert lfunctions.CharacterLabel is groupring.CharacterLabel
    assert lfunctions.characters is groupring.characters
