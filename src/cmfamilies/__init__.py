"""Calogero-Moser families, Lusztig families, cuspidal families, symplectic
leaves and rigid modules for the Coxeter types A, B, D and I2(m), at exact
rational parameters."""

# The per-type table and the layers import each other as module objects;
# entering the package through the table lets every layer finish first.
from . import coxeter  # noqa: F401
from .cuspidal import (
    annotated_families,
    cuspidal_families,
    leaves_B,
    leaves_D,
    rigid_implies_cuspidal_check,
    rigid_modules,
)
from .exact import CherednikParameter, Cyclotomic, charged_residue, residue
from .families import (
    Family,
    FamilyPartition,
    clifford_descent,
    cm_families,
    lusztig_families,
    tau_twist,
)
from .symbols import bar, symbol_of

__all__ = [
    "CherednikParameter",
    "Cyclotomic",
    "Family",
    "FamilyPartition",
    "annotated_families",
    "bar",
    "charged_residue",
    "clifford_descent",
    "cm_families",
    "cuspidal_families",
    "leaves_B",
    "leaves_D",
    "lusztig_families",
    "residue",
    "rigid_implies_cuspidal_check",
    "rigid_modules",
    "symbol_of",
    "tau_twist",
]

__version__ = "0.1.0"
