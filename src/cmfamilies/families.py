"""Calogero-Moser and Lusztig family partitions of Irr W for types A, B, D and
I2(m), the tau twist, and clifford_descent: the test reference for D keys."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from . import coxeter
from .exact import CherednikParameter, Cyclotomic
from .partitions import Bipartition, DLabel, d_label
from .reps import (
    I2_CLASS_PARAM,
    i2_character_table,
    i2_classes,
    i2_induced_from_reflection,
    i2_labels,
)


@dataclass(frozen=True, slots=True)
class Family:
    members: tuple
    leaf_label: str | None = None
    cuspidal: bool = False

    @property
    def is_singleton(self) -> bool:
        return len(self.members) == 1


@dataclass(frozen=True)
class FamilyPartition:
    size: int  # n, or m for I2
    param: CherednikParameter
    method: str  # "CM" | "Lusztig"
    families: tuple[Family, ...]

    def family_of(self, label) -> Family:
        for f in self.families:
            if label in f.members:
                return f
        raise KeyError(f"label {label!r} not in any family")

    def as_sets(self) -> frozenset[frozenset]:
        return frozenset(frozenset(f.members) for f in self.families)


def _canonical(families, **meta) -> FamilyPartition:
    """The partition into the given nonempty label collections, each sorted,
    in the order of their member tuples: the families are disjoint, so that is
    the order of their first members."""
    members = sorted([tuple(sorted(f)) for f in families])
    if not all(members):
        raise ValueError("families are nonempty")
    return FamilyPartition(families=tuple(map(Family, members)), **meta)


def _group_by(labels, keyfunc) -> list[tuple]:
    buckets: dict = {}
    for lab in labels:
        buckets.setdefault(keyfunc(lab), []).append(lab)
    return list(buckets.values())


def irr_labels(type_tag: str, size: int) -> tuple:
    return coxeter.lookup(type_tag).labels(size)


def _drive(path: str, size: int, param: CherednikParameter) -> FamilyPartition:
    """The partition by one path: one family at param = 0, else the fibres of
    the entry's key."""
    entry = coxeter.checked(size, param)
    labels = irr_labels(param.type_tag, size)
    meta = dict(size=size, param=param, method=path)
    if param.is_zero():
        return _canonical([labels], **meta)
    key = entry.cm_key if path == "CM" else entry.lusztig_key
    return _canonical(_group_by(labels, key(size, param)), **meta)


# ---------------------------------------------------------------------------
# Calogero-Moser families
# ---------------------------------------------------------------------------

def cm_families(size: int, param: CherednikParameter) -> FamilyPartition:
    return _drive("CM", size, param)


def _euler_key(m: int, param: CherednikParameter) -> dict[str, Cyclotomic]:
    """Every label's Euler pairing sum_C c(C)|C|chi(C) over the reflection
    classes C of I2(m), in Q(zeta_m), with c(C) the parameter I2_CLASS_PARAM names."""
    weight = {cls: getattr(param, name) for cls, name in I2_CLASS_PARAM.items()}
    weights = [(cls, weight[cls] * size) for cls, size in i2_classes(m) if cls in weight]
    return {
        lab: sum((row[cls] * w for cls, w in weights), Cyclotomic.zero(m))
        for lab, row in i2_character_table(m).items()
    }


# ---------------------------------------------------------------------------
# Lusztig families
# ---------------------------------------------------------------------------

def lusztig_families(size: int, param: CherednikParameter) -> FamilyPartition:
    if any(v < 0 for v in param.values):
        raise ValueError(
            "Lusztig families are defined for nonnegative parameters; "
            "twist by a linear character (tau) to reduce to this case"
        )
    return _drive("Lusztig", size, param)


# ---------------------------------------------------------------------------
# Symmetries and descent
# ---------------------------------------------------------------------------

def swap_bipartition(bp: Bipartition) -> Bipartition:
    return (bp[1], bp[0])


def tau_twist(fp: FamilyPartition) -> FamilyPartition:
    """Type-B partition at (c1, kappa) -> partition at (-c1, kappa), its
    families unmarked (no cuspidal flag or leaf label)."""
    if fp.param.type_tag != "B":
        raise ValueError("tau twist is a type-B operation")
    new_param = CherednikParameter.type_B(-fp.param.c1, fp.param.kappa)
    fams = [map(swap_bipartition, f.members) for f in fp.families]
    return _canonical(fams, size=fp.size, param=new_param, method=fp.method)


def clifford_descent(fp: FamilyPartition) -> FamilyPartition:
    """Descend a B_n family partition at c1 = 0 to D_n.

    Each B_n family maps to the set of D_n constituents of the restrictions of
    its members; a singleton family {(lam, lam)} splits into the two singleton
    families {lam}_1 and {lam}_2.  The families are swap-stable and disjoint,
    so no two of them give the same constituents.
    """
    if fp.param.type_tag != "B":
        raise ValueError("descent starts from a type-B partition")
    if fp.param.c1 != 0:
        raise ValueError("Clifford descent needs c1 = 0")
    n = fp.size
    d_param = CherednikParameter.type_D(fp.param.kappa)
    out: list[list[DLabel]] = []
    for f in fp.families:
        members = set(f.members)
        if members != {swap_bipartition(bp) for bp in members}:
            raise AssertionError("family not stable under component swap at c1 = 0")
        if len(members) == 1:
            (bp,) = members
            if bp[0] == bp[1]:
                out.append([d_label(bp[0], bp[1], 1)])
                out.append([d_label(bp[0], bp[1], 2)])
                continue
        constituents: set[DLabel] = set()
        for lam, mu in members:
            if lam == mu:
                constituents.add(d_label(lam, mu, 1))
                constituents.add(d_label(lam, mu, 2))
            else:
                constituents.add(d_label(lam, mu))
        out.append(sorted(constituents))
    return _canonical(out, size=n, param=d_param, method=fp.method)


# ---------------------------------------------------------------------------
# Dihedral a-function and j-induction
# ---------------------------------------------------------------------------

@cache
def dihedral_a_function(m: int, a, b) -> dict[str, Fraction]:
    """Lusztig a-values of Irr I2(m) at b = c(s), a = c(t) >= 0, one formula
    for every m (stated in the reps docstring); built once per (m, a, b) and
    shared, so callers only read it."""
    a, b = Fraction(a), Fraction(b)
    if a < 0 or b < 0 or (a == 0 and b == 0):
        raise ValueError("need a, b >= 0, not both zero")
    half = Fraction(m, 2)
    linear = {"1": Fraction(0), "eps": half * (a + b),
              "eps1": a + max(0, (half - 1) * (a - b)), "eps2": b + max(0, (half - 1) * (b - a))}
    return {lab: linear.get(lab, max(a, b)) for lab in i2_labels(m)}


def dihedral_j_induction(m: int, a, b, parabolic: int, chi: str) -> dict[str, int]:
    """j-induction from P_1 = <s> or P_2 = <t>: the explicit induction
    decomposition filtered by equality of a-values.  The a-value of chi on
    P is 0 for the trivial character and the class parameter for psi."""
    a, b = Fraction(a), Fraction(b)
    ind = i2_induced_from_reflection(m, parabolic, chi)
    a_w = dihedral_a_function(m, a, b)
    c = {"a": a, "b": b}[I2_CLASS_PARAM["st"[parabolic - 1]]]
    target = {"1": Fraction(0), "psi": c}[chi]
    return {lab: mult for lab, mult in ind.items() if a_w[lab] == target}
