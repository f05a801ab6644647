"""Symplectic-leaf posets, cuspidal-family detection, and the rigid-module
classifier with its rigidity oracle.

The oracle decides, for every type A, B, D and I2(m), whether pi is rigid:
whether T(y, x) = sum_s c(s)(y, alpha_s)(alpha_s^v, x) pi(s) = 0 for all y in h
and x in h*.  For real c, y and x, T(y, x) is Hermitian for a W-invariant
inner product on pi, since each pi(s) is a unitary involution; so it is 0 iff
tr T(y, x)^2 = 0, and summed over orthonormal bases that is the trace form
Q_pi(c) = sum_{s,s'} c(s)c(s')<alpha_s, alpha_s'><alpha_s^v, alpha_s'^v> chi_pi(ss').
Q_pi is a quadratic form in the class parameters, and its Gram matrix, which
the type's table entry reads from characters, depends on the label only
(the formulas per type are in `coxeter`).  No module is built."""
from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import cache

from . import coxeter
from . import families as fam
from .exact import CherednikParameter
from .families import Family, FamilyPartition, cm_families, lusztig_families
from .partitions import partitions, refinement_le


# ---------------------------------------------------------------------------
# Symplectic leaves
# ---------------------------------------------------------------------------

class Leaf(namedtuple("Leaf", "index dimension parabolic_label parabolic_order")):
    # index: k for B/D; a partition for degenerate B
    # dimension: int; parabolic_label: str
    # parabolic_order: the order of the parabolic subgroup named by the label
    __slots__ = ()


class LeafPoset(namedtuple("LeafPoset", "leaves order")):
    # leaves: tuple[Leaf, ...]
    # order: frozenset of pairs (below_index, above_index), strict closure order
    __slots__ = ()

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
    ks = range((math.isqrt(m * m + 4 * n) - m) // 2 + 1)  # every k with k(k + m) <= n
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
    ks = range(1, math.isqrt(n) + 1)
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
    marked = cusp._replace(cuspidal=True, leaf_label=leaf_label)
    return fp._replace(families=tuple(marked if f is cusp else f for f in fp.families))


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
    """Every label at the zero parameter; elsewhere the entry's closed form,
    which for A, B and D enumerates no label."""
    if param.is_zero():
        return list(fam.irr_labels(param.type_tag, size))
    entry = coxeter.lookup(param.type_tag)
    return sorted(entry.rigid(size, param, entry.anchor(size, param)))


# -- the rigidity oracle -------------------------------------------------------

def _rigid_oracle(size: int, param: CherednikParameter) -> list:
    """The labels whose trace form vanishes at param.  The parameter is scaled
    to ints by the lcm of its denominators: Q is homogeneous, so its zeros
    stay where they are."""
    entry = coxeter.lookup(param.type_tag)
    if size > entry.oracle_max:
        raise ValueError(f"oracle mode for type {param.type_tag} is bounded by "
                         f"{entry.size_flag} <= {entry.oracle_max}")
    scale = math.lcm(*(v.denominator for v in param.values))
    c = {name: int(v * scale) for name, v in zip(entry.params, param.values)}
    gram = lambda lab: _gram(param.type_tag, entry.module(lab), size)
    return sorted(lab for lab in entry.labels(size)
                  if not sum(c[p] * c[q] * g for (p, q), g in gram(lab)))


@cache
def _gram(type_tag: str, module, size: int) -> tuple:
    """The trace form's Gram entries ((p, p'), g) on the named module, built
    once per module however many labels and parameters are decided on it."""
    return coxeter.lookup(type_tag).trace_form(module, size)


# ---------------------------------------------------------------------------
# Theorem-level checks
# ---------------------------------------------------------------------------

def rigid_implies_cuspidal_check(fp: FamilyPartition) -> bool:
    """Every closed-form rigid label at (fp.size, fp.param) lies in a cuspidal
    family of fp, a partition that annotated_families returned."""
    rigids = rigid_modules(fp.size, fp.param, mode="closed_form")
    return all(fp.family_of(lab).cuspidal for lab in rigids)
