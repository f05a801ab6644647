"""Symplectic-leaf posets, cuspidal-family detection, and the rigid-module
classifier with its brute-force rigidity-equation oracle."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache

from . import coxeter
from . import families as fam
from .exact import CherednikParameter, Cyclotomic
from .families import Family, FamilyPartition, cm_families, lusztig_families
from .partitions import Bipartition, Partition, partitions, refinement_le
from .reps import (
    build_B_rep,
    build_dihedral_rep,
    bn_neg_transposition_matrix,
    bn_transposition_matrix,
    i2_reflection_matrix,
    mat_add,
    mat_is_zero,
    mat_scale,
    sn_transposition_matrix,
)


# ---------------------------------------------------------------------------
# Symplectic leaves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Leaf:
    index: object  # k for B/D; a partition for degenerate B
    dimension: int
    parabolic_label: str


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
    """Leaf poset for B_n at (c1, kappa)."""
    param = CherednikParameter.type_B(c1, kappa)
    if param.kappa == 0:
        # degenerate: leaves L_lam of dimension 2*len(lam), labels S_lam,
        # ordered by Young-subgroup containment (refinement)
        leaves = tuple(
            Leaf(index=lam, dimension=2 * len(lam), parabolic_label=f"S_{list(lam)}")
            for lam in partitions(n)
        )
        order = frozenset(
            (a.index, b.index)
            for a in leaves
            for b in leaves
            if a.index != b.index and refinement_le(b.index, a.index)
        )
        return LeafPoset(leaves=leaves, order=order)
    if not param.b_is_singular(n):
        return LeafPoset(leaves=(Leaf(index=0, dimension=2 * n, parabolic_label="B0"),), order=frozenset())
    m = abs(param.b_integral_m())
    ks = [k for k in range(n + 1) if k * (k + m) <= n]
    leaves = tuple(
        Leaf(index=k, dimension=2 * (n - k * (k + m)), parabolic_label=f"B{k * (k + m)}")
        for k in ks
    )
    order = frozenset((a, b) for a in ks for b in ks if a > b)
    return LeafPoset(leaves=leaves, order=order)


def leaves_D(n: int, kappa) -> LeafPoset:
    """Leaf poset for D_n (n >= 2) at kappa != 0."""
    if Fraction(kappa) == 0:
        raise ValueError("the type-D classification needs kappa != 0")
    if n < 2:
        raise ValueError("need n >= 2")
    ks = [k for k in range(1, n + 1) if k * k <= n]
    leaves = tuple(
        Leaf(index=k, dimension=2 * (n - k * k), parabolic_label=f"D{k * k}") for k in ks
    )
    order = frozenset((a, b) for a in ks for b in ks if a > b)
    return LeafPoset(leaves=leaves, order=order)


def parabolic_order_refined(poset: LeafPoset) -> bool:
    """True iff the closure order refines the parabolic-label containment order
    (deeper leaf has the larger parabolic)."""

    def order_of(label: str):
        kind, body = label[0], label[1:]
        if kind == "B":
            k = int(body)
            return 2**k * math.factorial(k)
        if kind == "D":
            k = int(body)
            return max(2 ** (k - 1) * math.factorial(k), 1)
        # S_lam, rendered as "S_[...]" from a list of ints
        out = 1
        for p in json.loads(body.removeprefix("_")):
            out *= math.factorial(p)
        return out

    by_index = {l.index: l for l in poset.leaves}
    for a, b in poset.order:
        if order_of(by_index[a].parabolic_label) < order_of(by_index[b].parabolic_label):
            return False
    return True


# ---------------------------------------------------------------------------
# Cuspidal families
# ---------------------------------------------------------------------------

def _mark_cuspidal(fp: FamilyPartition, members_of_cuspidal, leaf_label: str | None):
    out = []
    for f in fp.families:
        if set(f.members) == set(members_of_cuspidal):
            out.append(replace(f, cuspidal=True, leaf_label=leaf_label))
        else:
            out.append(f)
    return replace(fp, families=tuple(out))


def cuspidal_families(type_tag: str, size: int, param: CherednikParameter,
                      method: str = "CM") -> list[Family]:
    """The cuspidal families of the given partition method, with leaf labels."""
    fp = annotated_families(type_tag, size, param, method)
    return [f for f in fp.families if f.cuspidal]


def annotated_families(type_tag: str, size: int, param: CherednikParameter,
                       method: str = "CM") -> FamilyPartition:
    """Family partition with cuspidal flags and leaf labels filled in."""
    if method == "CM":
        fp = cm_families(type_tag, size, param)
    elif method == "Lusztig":
        fp = lusztig_families(type_tag, size, param)
    else:
        raise ValueError(f"unknown method {method!r}")

    if param.is_zero():
        # the unique family is cuspidal in both senses
        anchor = (fp.families[0].members[0], None)
    else:
        anchor = coxeter.lookup(type_tag).anchor(size, param)
    if anchor is None:
        return fp
    label, leaf_label = anchor
    return _mark_cuspidal(fp, fp.family_of(label).members, leaf_label)


# ---------------------------------------------------------------------------
# Rigid modules
# ---------------------------------------------------------------------------

def rigid_modules(type_tag: str, size: int, param: CherednikParameter,
                  mode: str = "closed_form") -> list:
    if mode == "closed_form":
        return _rigid_closed_form(type_tag, size, param)
    if mode == "equation_oracle":
        return _rigid_oracle(type_tag, size, param)
    raise ValueError(f"unknown mode {mode!r}")


def _rigid_closed_form(type_tag: str, size: int, param: CherednikParameter) -> list:
    labels = fam.irr_labels(type_tag, size)
    if param.is_zero():
        return sorted(labels)
    entry = coxeter.lookup(type_tag)
    return sorted(entry.rigid(size, param, entry.anchor(size, param)))


# -- the brute-force rigidity-equation oracle -------------------------------

def _rigid_oracle(type_tag: str, size: int, param: CherednikParameter) -> list:
    entry = coxeter.lookup(type_tag)
    if entry.oracle is None:
        raise ValueError(f"oracle mode has no rigidity sums for type {type_tag!r}; use closed_form")
    if size > entry.oracle_max:
        raise ValueError(
            f"oracle mode for type {type_tag} is bounded by {entry.size_flag} <= {entry.oracle_max}"
        )
    return sorted(lab for lab in entry.labels(size) if entry.oracle(lab, size, param))


def _a_label_rigid(lam: Partition, n: int, c: Fraction) -> bool:
    """Vanishing of sum_s c (y_k, alpha_s)(alpha_s^v, x_l) pi(s) over the
    transpositions of S_n, for all basis pairs (k, l)."""
    if c == 0:
        return True
    if n == 1:
        return True
    mats = {}
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            mats[(i, j)] = sn_transposition_matrix(lam, i, j)
    d = len(next(iter(mats.values())))
    zero = tuple(tuple(Fraction(0) for _ in range(d)) for _ in range(d))
    for k in range(1, n + 1):
        # diagonal condition: sum over transpositions through k
        acc = zero
        for i in range(1, n + 1):
            if i != k:
                acc = mat_add(acc, mats[(min(i, k), max(i, k))])
        if not mat_is_zero(mat_scale(c, acc)):
            return False
    for k in range(1, n):
        for l in range(k + 1, n + 1):
            if not mat_is_zero(mat_scale(-c, mats[(k, l)])):
                return False
    return True


@cache
def _b_reflection_data(bp: Bipartition):
    """Precompute per-representation matrices entering the rigidity sums.

    Returns (E, A, D) where E[k] is eps_k(-1), A[k] = sum_{j != k}
    (s_{kj} + s_{kj,-1}), and D[(k,l)] = s_{kl} - s_{kl,-1}."""
    rep = build_B_rep(bp)
    n = sum(bp[0]) + sum(bp[1])
    E = {k: rep.generators[f"eps{k}"] for k in range(1, n + 1)}
    P = {}
    N = {}
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            P[(i, j)] = bn_transposition_matrix(rep, i, j)
            N[(i, j)] = bn_neg_transposition_matrix(rep, i, j)
    d = rep.dim
    zero = tuple(tuple(Fraction(0) for _ in range(d)) for _ in range(d))
    A = {}
    for k in range(1, n + 1):
        acc = zero
        for i in range(1, n + 1):
            if i != k:
                key = (min(i, k), max(i, k))
                acc = mat_add(acc, mat_add(P[key], N[key]))
        A[k] = acc
    D = {}
    for key, p in P.items():
        D[key] = mat_add(p, mat_scale(Fraction(-1), N[key]))
    return E, A, D


def _b_label_rigid(bp: Bipartition, n: int, c1: Fraction, kappa: Fraction) -> bool:
    """Exact evaluation of the rigidity sums for every basis pair (y_k, x_l).

    The pairing table gives, for the class of eps_j(-1) (weight c1), the value
    2 at k = j = l, and for s_{ij,u} (weight kappa) the value 1 at k = l in
    {i,j} and -u at k != l in {i,j}."""
    if c1 == 0 and kappa == 0:
        return True
    if n == 1:
        # only eps_1: condition 2*c1*pi(eps_1) = 0
        return c1 == 0
    E, A, D = _b_reflection_data(bp)
    for k in E:
        total = mat_add(mat_scale(2 * c1, E[k]), mat_scale(kappa, A[k]))
        if not mat_is_zero(total):
            return False
    if kappa != 0:
        for key, dmat in D.items():
            if not mat_is_zero(dmat):
                return False
    return True


def _i2_label_rigid(label: str, m: int, a: Fraction, b: Fraction) -> bool:
    """Vanishing of sum_l c(s_l) (y_i, x_j)_{s_l} rho(s_l) over Q(zeta_m).

    c(s_l) is b for even l (class of s) and a for odd l (class of t); the
    pairing values are -1, zeta^{-l}, zeta^{l}, -1 for (i,j) = (1,1), (1,2),
    (2,1), (2,2)."""
    if a == 0 and b == 0:
        return True
    rep = build_dihedral_rep(label, m)
    refl = [i2_reflection_matrix(rep, l, m) for l in range(m)]
    zero = Cyclotomic.zero(m)
    coefs = {
        (1, 1): lambda l: Cyclotomic.from_rational(m, -1),
        (1, 2): lambda l: Cyclotomic.zeta(m, -l),
        (2, 1): lambda l: Cyclotomic.zeta(m, l),
        (2, 2): lambda l: Cyclotomic.from_rational(m, -1),
    }
    for coef in coefs.values():
        acc = tuple(tuple(zero for _ in range(rep.dim)) for _ in range(rep.dim))
        for l in range(m):
            weight = b if l % 2 == 0 else a
            if weight == 0:
                continue
            acc = mat_add(acc, mat_scale(coef(l) * weight, refl[l]))
        if not mat_is_zero(acc):
            return False
    return True


# ---------------------------------------------------------------------------
# Theorem-level checks
# ---------------------------------------------------------------------------

def rigid_implies_cuspidal_check(type_tag: str, size: int, param: CherednikParameter) -> bool:
    """Every rigid label's CM family is cuspidal."""
    rigids = rigid_modules(type_tag, size, param, mode="closed_form")
    if not rigids:
        return True
    fp = annotated_families(type_tag, size, param, method="CM")
    return all(fp.family_of(lab).cuspidal for lab in rigids)
