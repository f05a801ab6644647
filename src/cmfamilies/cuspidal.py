"""Symplectic-leaf posets, cuspidal-family detection, and the rigid-module
classifier with its brute-force rigidity-equation oracle.

The oracle evaluates one equation for every type A, B, D and I2(m): pi is
rigid when T(y, x) = sum_s c(s)(y, alpha_s)(alpha_s^v, x) pi(s) = 0 for all y in
h and x in h*.  T is W-equivariant, pi(w) T(y, x) pi(w)^-1 = T(wy, wx), and the
W-orbit of y = e_1 spans h, so the one row T(e_1, x) = 0 is the whole
equation; it sums over the reflections with (e_1, alpha_s) != 0, which are the
ones the type's table entry lists.  In types A, B and D, Stab_W(e_1) permutes
the coordinates 2..n and pi(w) T(e_1, x_2) pi(w)^-1 = T(e_1, w x_2), so the
conditions x_1 and x_2 are the whole row; for I2, h has only those two."""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache, reduce

from . import coxeter
from . import families as fam
from .exact import CherednikParameter
from .families import Family, FamilyPartition, cm_families, lusztig_families
from .partitions import partitions, refinement_le
from .reps import mat_add, mat_is_zero, mat_scale


# ---------------------------------------------------------------------------
# Symplectic leaves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Leaf:
    index: object  # k for B/D; a partition for degenerate B
    dimension: int
    parabolic_label: str
    parabolic_order: int  # the order of the parabolic subgroup named by the label


@dataclass(frozen=True)
class LeafPoset:
    leaves: tuple[Leaf, ...]
    order: frozenset  # pairs (below_index, above_index), strict closure order

    def below(self, leaf: Leaf) -> tuple:
        return tuple(l.index for l in self.leaves if (l.index, leaf.index) in self.order)

    def is_antisymmetric(self) -> bool:
        return not any((b, a) in self.order and (a, b) in self.order for (a, b) in self.order)

    def zero_dimensional(self) -> tuple[Leaf, ...]:
        return tuple(l for l in self.leaves if l.dimension == 0)

    def to_json(self) -> list[dict]:
        out = []
        for l in self.leaves:
            idx = l.index if isinstance(l.index, int) else list(l.index)
            out.append(
                {
                    "k": idx,
                    "dim": l.dimension,
                    "parabolic": l.parabolic_label,
                    "below": [
                        (b if isinstance(b, int) else list(b)) for b in self.below(l)
                    ],
                }
            )
        return out


def leaves_B(n: int, c1, kappa) -> LeafPoset:
    """Leaf poset for B_n at (c1, kappa) != 0.  At the zero parameter the
    origin is a leaf of its own, which the kappa = 0 poset below lacks."""
    param = CherednikParameter.type_B(c1, kappa)
    if param.is_zero():
        raise ValueError("the type-B classification needs (c1, kappa) != 0")
    if param.kappa == 0:
        # degenerate: leaves L_lam of dimension 2*len(lam), labels S_lam,
        # ordered by Young-subgroup containment (refinement)
        leaves = tuple(
            Leaf(index=lam, dimension=2 * len(lam), parabolic_label=f"S_{list(lam)}",
                 parabolic_order=math.prod(math.factorial(p) for p in lam))
            for lam in partitions(n)
        )
        order = frozenset(
            (a.index, b.index)
            for a in leaves
            for b in leaves
            if a.index != b.index and refinement_le(b.index, a.index)
        )
        return LeafPoset(leaves=leaves, order=order)
    # off the walls |m| <= n - 1 (m = n stands for a non-integral m) only
    # k = 0 is left: the open leaf B0 alone
    m = param.b_integral_m()
    m = n if m is None else abs(m)
    ks = [k for k in range(n + 1) if k * (k + m) <= n]
    leaves = tuple(
        Leaf(index=k, dimension=2 * (n - j), parabolic_label=f"B{j}",
             parabolic_order=2**j * math.factorial(j))
        for k in ks
        for j in [k * (k + m)]
    )
    order = frozenset((a, b) for a in ks for b in ks if a > b)
    return LeafPoset(leaves=leaves, order=order)


def leaves_D(n: int, kappa) -> LeafPoset:
    """Leaf poset for D_n (n >= 2) at kappa != 0.  The parabolic D1 of k = 1
    is the trivial group, so its leaf is the open one, of dimension 2n."""
    if Fraction(kappa) == 0:
        raise ValueError("the type-D classification needs kappa != 0")
    if n < 2:
        raise ValueError("need n >= 2")
    ks = [k for k in range(1, n + 1) if k * k <= n]
    leaves = tuple(
        Leaf(index=k, dimension=2 * n if k == 1 else 2 * (n - j),
             parabolic_label=f"D{j}", parabolic_order=2 ** (j - 1) * math.factorial(j))
        for k in ks
        for j in [k * k]
    )
    order = frozenset((a, b) for a in ks for b in ks if a > b)
    return LeafPoset(leaves=leaves, order=order)


def parabolic_order_refined(poset: LeafPoset) -> bool:
    """True iff the closure order refines the parabolic-label containment order
    (deeper leaf has the larger parabolic)."""
    by_index = {l.index: l for l in poset.leaves}
    return all(by_index[a].parabolic_order >= by_index[b].parabolic_order for a, b in poset.order)


# ---------------------------------------------------------------------------
# Cuspidal families
# ---------------------------------------------------------------------------

def cuspidal_families(fp: FamilyPartition) -> list[Family]:
    """The cuspidal families, with leaf labels, of a partition that
    annotated_families returned."""
    return [f for f in fp.families if f.cuspidal]


def annotated_families(size: int, param: CherednikParameter, method: str = "CM") -> FamilyPartition:
    """Family partition with cuspidal flags and leaf labels filled in."""
    if method == "CM":
        fp = cm_families(size, param)
    elif method == "Lusztig":
        fp = lusztig_families(size, param)
    else:
        raise ValueError(f"unknown method {method!r}")

    if param.is_zero():
        # the unique family is cuspidal in both senses
        anchor = (fp.families[0].members[0], None)
    else:
        anchor = coxeter.lookup(param.type_tag).anchor(size, param)
    if anchor is None:
        return fp
    label, leaf_label = anchor
    cusp = fp.family_of(label)
    marked = replace(cusp, cuspidal=True, leaf_label=leaf_label)
    return replace(fp, families=tuple(marked if f is cusp else f for f in fp.families))


# ---------------------------------------------------------------------------
# Rigid modules
# ---------------------------------------------------------------------------

def rigid_modules(size: int, param: CherednikParameter, mode: str = "closed_form") -> list:
    coxeter.checked(size, param)
    if mode == "closed_form":
        return _rigid_closed_form(size, param)
    if mode == "equation_oracle":
        return _rigid_oracle(size, param)
    raise ValueError(f"unknown mode {mode!r}")


def _rigid_closed_form(size: int, param: CherednikParameter) -> list:
    labels = fam.irr_labels(param.type_tag, size)
    if param.is_zero():
        return sorted(labels)
    entry = coxeter.lookup(param.type_tag)
    return sorted(entry.rigid(size, param, entry.anchor(size, param)))


# -- the rigidity-equation oracle --------------------------------------------

def _rigid_oracle(size: int, param: CherednikParameter) -> list:
    entry = coxeter.lookup(param.type_tag)
    if size > entry.oracle_max:
        raise ValueError(f"oracle mode for type {param.type_tag} is bounded by "
                         f"{entry.size_flag} <= {entry.oracle_max}")
    return sorted(lab for lab in entry.labels(size) if _label_rigid(lab, size, param))


@cache
def _rigidity_sums(type_tag: str, module, size: int) -> tuple:
    """The rigidity sums on the named module on the row y = e_1, one condition
    for each of x_1 and x_2: Stab_W(e_1) permutes the coordinates 2..n, so
    each condition x_l with l >= 3 is conjugate to the one for x_2.

    A condition is a tuple of (class name, sum over the reflections s of the
    class of (e_1, alpha_s)(alpha_s^v, x_l) pi(s)); the entry lists exactly the
    reflections with (e_1, alpha_s) != 0.  The parameter enters only in
    _label_rigid, so these are built once per module, however many labels
    are decided on it."""
    sums: dict = {}  # l -> {class name: matrix}
    for name, coroot, root, mat in coxeter.lookup(type_tag).reflections(module, size):
        for l, x in enumerate(coroot[:2]):
            if x == 0:
                continue
            by_class = sums.setdefault(l, {})
            term = mat_scale(root[0] * x, mat)
            by_class[name] = mat_add(by_class[name], term) if name in by_class else term
    return tuple(tuple(by_class.items()) for by_class in sums.values())


def _label_rigid(label, size: int, param: CherednikParameter) -> bool:
    """The rigidity equation sum_s c(s)(e_1, alpha_s)(alpha_s^v, x) pi(s) = 0,
    for every basis vector x, with c(s) the parameter value named by s's class."""
    module = coxeter.lookup(param.type_tag).module(label)
    for condition in _rigidity_sums(param.type_tag, module, size):
        terms = [mat_scale(getattr(param, name), mat) for name, mat in condition
                 if getattr(param, name) != 0]
        if terms and not mat_is_zero(reduce(mat_add, terms)):
            return False
    return True


# ---------------------------------------------------------------------------
# Theorem-level checks
# ---------------------------------------------------------------------------

def rigid_implies_cuspidal_check(fp: FamilyPartition) -> bool:
    """Every closed-form rigid label at (fp.size, fp.param) lies in a cuspidal
    family of fp, a partition that annotated_families returned."""
    rigids = rigid_modules(fp.size, fp.param, mode="closed_form")
    return all(fp.family_of(lab).cuspidal for lab in rigids)
