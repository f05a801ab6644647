"""Exact matrix representations and character theory for S_n, B_n and I2(m).

S_n and B_n irreducibles are built in one seminormal form (rational
entries), on the standard tableaux of a partition for S_n and of a
bipartition for B_n; dihedral irreducibles from the standard
two-dimensional matrices over Q(zeta_m).  Characters are computed
combinatorially (Murnaghan-Nakayama for S_n, class fusion for the wreath
product) so that matrix traces have an independent oracle to be checked
against.

A module is the tuple of the matrices of W's Coxeter generators:
(s_1, ..., s_{n-1}) for S_n, (t, s_1, ..., s_{n-1}) with t = eps_1(-1) for
B_n, and (s, t) for I2(m).

Each I2(m) fact is said once, here: I2_LINEAR_SIGNS gives the linear
characters' signs on the reflection classes (s, t), I2_CLASS_PARAM each
class's parameter, c(s) = b and c(t) = a.  Lusztig's a-values
(families.dihedral_a_function) are 0 on 1, max(a, b) on every phi_i,
m(a + b)/2 on eps, a + max(0, (m/2 - 1)(a - b)) on eps1 and
b + max(0, (m/2 - 1)(b - a)) on eps2.

A matrix is sparse rows: one dict {column: entry} per row, holding only the
nonzero entries (Fraction or Cyclotomic), so a product costs about the number
of nonzero pairs and two matrices are equal exactly when their rows are.  No
function here mutates a row it is given: the cached builders share their rows.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial

from .exact import Cyclotomic
from .partitions import (
    Bipartition,
    Partition,
    bipartitions,
    hook_dimension,
    partitions,
)

# Row r is {c: entry (r, c)} over the nonzero entries only, so a zero row is {}.
Matrix = tuple[dict, ...]


# ---------------------------------------------------------------------------
# The sparse-row kernel (entries: Fraction or Cyclotomic)
# ---------------------------------------------------------------------------

def mat_identity(d: int, one=Fraction(1)) -> Matrix:
    return tuple({i: one} for i in range(d))

def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """a b, each nonzero entry of a times the nonzero entries of the matching
    row of b; an entry that cancels to zero is dropped."""
    out = []
    for row in a:
        acc: dict = {}
        for t, x in row.items():
            for j, y in b[t].items():
                acc[j] = acc[j] + x * y if j in acc else x * y
        out.append({j: v for j, v in acc.items() if v})
    return tuple(out)

def mat_add(a: Matrix, b: Matrix) -> Matrix:
    out = []
    for ra, rb in zip(a, b):
        row = dict(ra)
        for j, y in rb.items():
            v = row[j] + y if j in row else y
            if v:
                row[j] = v
            else:
                del row[j]
        out.append(row)
    return tuple(out)

def mat_scale(c, a: Matrix) -> Matrix:
    if c == 1:  # a Matrix is never mutated, so a itself is 1 * a
        return a
    if not c:
        return tuple({} for _ in a)
    return tuple({j: c * x for j, x in row.items()} for row in a)

def mat_is_zero(a: Matrix) -> bool:
    return not any(a)

def _as_int(q: Fraction) -> int:
    """q as an int; ArithmeticError if it is not one (an assert would vanish under -O)."""
    if q.denominator != 1:
        raise ArithmeticError(f"expected an integer, got {q}")
    return int(q)

def _exact_div(a: int, b: int) -> int:
    """a / b for ints; ArithmeticError if b does not divide a.  The class sums
    divide a centralizer order in W by one in a subgroup, which divides it."""
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError(f"{b} does not divide {a}")
    return q


# ---------------------------------------------------------------------------
# The seminormal form on standard multitableaux, for S_n and B_n
# ---------------------------------------------------------------------------

@cache
def standard_tableaux(shape: tuple[Partition, ...]) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The standard tableaux of a tuple of partitions ((lam,) for S_n, a
    bipartition for B_n), each as its vector v: v[k-1] is the pair
    (component, content) of the box holding k.  The vector determines the
    tableau: the boxes of one content in one component fill their diagonal
    in order.  Built corner by corner: n sits in a removable corner."""
    out = []
    for c, lam in enumerate(shape):
        for i, row in enumerate(lam):
            if i + 1 == len(lam) or lam[i + 1] < row:
                rest = lam[:i] + ((row - 1,) if row > 1 else ()) + lam[i + 1:]
                out += (v + ((c, row - 1 - i),)
                        for v in standard_tableaux(shape[:c] + (rest,) + shape[c + 1:]))
    return tuple(out) or ((),)


def _seminormal(shape: tuple[Partition, ...]) -> tuple[Matrix, ...]:
    """s_1, ..., s_{n-1} in the seminormal form on the standard tableaux of
    shape (Hoefsmit).  s_a maps v to the tableau with a and a + 1 swapped,
    with entry 1, when they lie in different components.  In one component,
    with d = content(a+1) - content(a), s_a fixes v with sign +1 when they
    share a row (d = 1) and -1 when they share a column (d = -1); else
    |d| >= 2, and s_a is 1/d on the diagonal and 1 (d > 0) or 1 - 1/d^2
    (d < 0) at the swapped tableau."""
    tabs = standard_tableaux(shape)
    index = {v: i for i, v in enumerate(tabs)}
    one = Fraction(1)
    mats = []
    for a in range(1, len(tabs[0])):
        rows = [{} for _ in tabs]
        for j, v in enumerate(tabs):  # column j: the image of v
            (ca, xa), (cb, xb) = v[a - 1], v[a]
            d = xb - xa
            if ca == cb and d in (1, -1):
                rows[j][j] = Fraction(d)
                continue
            swapped = index[v[:a - 1] + (v[a], v[a - 1]) + v[a + 1:]]
            if ca != cb:
                rows[swapped][j] = one
            else:
                rows[j][j] = Fraction(1, d)
                rows[swapped][j] = one if d > 0 else 1 - Fraction(1, d * d)
        mats.append(tuple(rows))
    return tuple(mats)


@cache
def symmetric_generator_matrices(lam: Partition) -> tuple[Matrix, ...]:
    """The seminormal matrices of s_1, ..., s_{n-1} on pi_lam."""
    return _seminormal((lam,))


@cache
def build_B_rep(bp: Bipartition) -> tuple[Matrix, ...]:
    """The Coxeter generators (t, s_1, ..., s_{n-1}) of B_n on pi_bp, on the
    standard bitableaux of bp: t = eps_1(-1) is +1 where 1 lies in lam0 and
    -1 where it lies in lam1, and s_a is the seminormal form."""
    if not any(bp):
        raise ValueError("need n >= 1")
    t = tuple({r: Fraction(-1 if v[0][0] else 1)} for r, v in enumerate(standard_tableaux(bp)))
    return (t, *_seminormal(bp))


def _transposition(s: tuple[Matrix, ...], j: int, k: int) -> Matrix:
    """Matrix of the transposition (j, k) from those of s_1, ..., s_{n-1}."""
    if j > k:
        j, k = k, j
    mat = s[k - 2]  # s_{k-1}
    for i in range(k - 2, j - 1, -1):
        mat = mat_mul(mat_mul(s[i - 1], mat), s[i - 1])
    return mat


def sn_transposition_matrix(lam: Partition, j: int, k: int) -> Matrix:
    """Matrix of the transposition (j, k), 1 <= j < k <= n."""
    return _transposition(symmetric_generator_matrices(lam), j, k)


def jucys_murphy_eigenvalue(lam: Partition):
    """Scalar of z_n = sum_{j<n} s_{jn} on pi_lam; rectangles (l^b) give l-b.

    Returns the integer scalar, or the string "non-scalar" when z_n does not
    act by a scalar (exactly the non-rectangular shapes).
    """
    n = sum(lam)
    if n <= 1:
        return 0
    d = hook_dimension(lam)
    total = None
    for j in range(1, n):
        m = sn_transposition_matrix(lam, j, n)
        total = m if total is None else mat_add(total, m)
    diag = total[0].get(0, Fraction(0))  # a zero eigenvalue leaves row 0 empty
    if total == mat_scale(diag, mat_identity(d)):
        return _as_int(diag)
    return "non-scalar"


# ---------------------------------------------------------------------------
# S_n characters (Murnaghan-Nakayama) and classes
# ---------------------------------------------------------------------------

@cache
def zee(mu: Partition) -> int:
    """Centralizer order of the class mu in S_n."""
    out = 1
    mult: dict[int, int] = {}
    for p in mu:
        mult[p] = mult.get(p, 0) + 1
    for p, m in mult.items():
        out *= factorial(m) * p**m
    return out


@cache
def sn_character(lam: Partition, mu: Partition) -> int:
    """chi_lam(mu) by the Murnaghan-Nakayama rule (beta-number form)."""
    if sum(lam) != sum(mu):
        raise ValueError("shape/class size mismatch")
    if not mu:
        return 1
    t = mu[0]
    rest = mu[1:]
    L = len(lam) + t  # enough beta numbers
    beta = sorted(lam[i] + (L - 1 - i) if i < len(lam) else (L - 1 - i) for i in range(L))
    beta_set = set(beta)
    total = 0
    for b in beta:
        nb = b - t
        if nb < 0 or nb in beta_set:
            continue
        between = sum(1 for x in beta if nb < x < b)
        new_beta = sorted(beta_set - {b} | {nb})
        # convert beta numbers back to a partition
        parts = tuple(x - i for i, x in enumerate(new_beta))
        newlam = tuple(p for p in reversed(parts) if p > 0)
        total += (-1) ** between * sn_character(newlam, rest)
    return total


def _merge(a: Partition, b: Partition) -> Partition:
    return tuple(sorted(a + b, reverse=True))


# ---------------------------------------------------------------------------
# B_n classes and characters (combinatorial)
# ---------------------------------------------------------------------------

# A class of B_n is a pair (alpha, beta) of partitions with total n: alpha
# holds the positive cycle types, beta the negative ones.  So the classes are
# listed by partitions.bipartitions(n).
BnClass = tuple[Partition, Partition]


def bn_centralizer_order(cls: BnClass) -> int:
    a, b = cls
    return (2 ** len(a)) * zee(a) * (2 ** len(b)) * zee(b)


@cache
def _submultisets(mu: Partition) -> tuple[tuple[Partition, Partition], ...]:
    """Distinct sub-multisets of a partition, as (sub, complement) pairs."""
    parts = sorted(set(mu))
    mults = [mu.count(p) for p in parts]

    def rec(i):
        if i == len(parts):
            yield (), ()
            return
        p, m = parts[i], mults[i]
        for take in range(m + 1):
            for sub, comp in rec(i + 1):
                yield (p,) * take + sub, (p,) * (m - take) + comp

    return tuple((tuple(sorted(sub, reverse=True)), tuple(sorted(comp, reverse=True)))
                 for sub, comp in rec(0))


@cache
def bn_character(bp: Bipartition, cls: BnClass) -> int:
    """chi_{(lam0, lam1)} on the class (alpha, beta), via class fusion.

    chi is induced from B_r x B_{n-r} with the first factor the pullback of
    chi_{lam0} through B_r -> S_r and the second the gamma-twisted pullback
    of chi_{lam1}; gamma is (-1)^(number of negative cycles).
    """
    lam0, lam1 = bp
    r = sum(lam0)
    alpha, beta = cls
    z = bn_centralizer_order(cls)
    total = 0
    for a1, a2 in _submultisets(alpha):
        for b1, b2 in _submultisets(beta):
            if sum(a1) + sum(b1) != r:
                continue
            v1 = sn_character(lam0, _merge(a1, b1))
            v2 = sn_character(lam1, _merge(a2, b2)) * (-1) ** len(b2)
            z12 = bn_centralizer_order((a1, b1)) * bn_centralizer_order((a2, b2))
            total += v1 * v2 * _exact_div(z, z12)
    return total


def bn_inner_product(n: int, phi: dict, psi: dict) -> Fraction:
    """<phi, psi> over B_n for real-valued class functions (dicts class->value):
    the sum over classes of phi psi |class|, over |B_n|."""
    order = 2**n * factorial(n)
    return Fraction(
        sum(phi[c] * psi[c] * _exact_div(order, bn_centralizer_order(c)) for c in bipartitions(n)),
        order,
    )


@cache
def bn_character_dict(bp: Bipartition) -> dict:
    n = sum(bp[0]) + sum(bp[1])
    return {c: bn_character(bp, c) for c in bipartitions(n)}


# ---------------------------------------------------------------------------
# Induced characters (class-fusion formula)
# ---------------------------------------------------------------------------

def induced_from_sj_bnj(nu: Partition, bp: Bipartition, n: int) -> dict:
    """Character of Ind from S_j x B_{n-j} of chi_nu x chi_bp, j = |nu|."""
    j = sum(nu)
    k = sum(bp[0]) + sum(bp[1])
    if j + k != n:
        raise ValueError("sizes must add to n")
    out = {}
    for cls in bipartitions(n):
        alpha, beta = cls
        z = bn_centralizer_order(cls)
        total = 0
        for mu, a_rest in _submultisets(alpha):
            if sum(mu) != j:
                continue
            sub_cls = (a_rest, beta)
            total += (sn_character(nu, mu) * bn_character(bp, sub_cls)
                      * _exact_div(z, zee(mu) * bn_centralizer_order(sub_cls)))
        out[cls] = total
    return out


def induced_from_young(nu1: Partition, nu2: Partition, n: int) -> dict:
    """Character of Ind from S_j x S_{n-j} of chi_nu1 x chi_nu2 (inside S_n)."""
    if sum(nu1) + sum(nu2) != n:
        raise ValueError("sizes must add to n")
    j = sum(nu1)
    out = {}
    for mu in partitions(n):
        z = zee(mu)
        total = 0
        for m1, m2 in _submultisets(mu):
            if sum(m1) != j:
                continue
            total += (sn_character(nu1, m1) * sn_character(nu2, m2)
                      * _exact_div(z, zee(m1) * zee(m2)))
        out[mu] = total
    return out


def sn_norm(n: int, phi: dict) -> Fraction:
    """<phi, phi> over S_n: the sum over classes of phi^2 |class|, over n!."""
    order = factorial(n)
    return Fraction(sum(phi[mu] ** 2 * _exact_div(order, zee(mu)) for mu in partitions(n)), order)


# ---------------------------------------------------------------------------
# B_n transpositions
# ---------------------------------------------------------------------------

def bn_transposition_matrix(gens: tuple[Matrix, ...], j: int, k: int) -> Matrix:
    """Matrix of s_{jk} (plain transposition) from the generators (t, s_1, ...)."""
    return _transposition(gens[1:], j, k)


def bn_neg_transposition_matrix(e: Matrix, s_jk: Matrix) -> Matrix:
    """Matrix of s_{jk,-1} = e s_{jk} e, for e = eps_j(-1), from the matrix of s_{jk}.

    e is diagonal with entries +-1, so the conjugation negates entry (r, c)
    exactly where those two diagonal entries differ."""
    signs = [row[r] > 0 for r, row in enumerate(e)]
    return tuple(
        {c: -x if sr != signs[c] else x for c, x in row.items()}
        for row, sr in zip(s_jk, signs)
    )


# ---------------------------------------------------------------------------
# Dihedral groups I2(m)
# ---------------------------------------------------------------------------

# The signs of each linear character on the reflection classes (s, t); odd m
# has one reflection class, so it keeps "1" and "eps" only.
I2_LINEAR_SIGNS = {"1": (1, 1), "eps": (-1, -1), "eps1": (1, -1), "eps2": (-1, 1)}

# The parameter of each reflection class: c(s) = b, c(t) = a.
I2_CLASS_PARAM = {"s": "b", "t": "a"}


def i2_labels(m: int) -> tuple[str, ...]:
    if m < 5:
        raise ValueError("m >= 5 required")
    linear = tuple(I2_LINEAR_SIGNS)[:4 if m % 2 == 0 else 2]
    return linear + tuple(f"phi_{i}" for i in range(1, (m - 1) // 2 + 1))


def i2_classes(m: int) -> tuple[tuple[str, int], ...]:
    """(name, size) pairs: e, r^l, and the reflection class(es)."""
    out = [("e", 1)]
    half = m // 2
    for l in range(1, (m - 1) // 2 + 1):
        out.append((f"r{l}", 2))
    if m % 2 == 0:
        out.append((f"r{half}", 1))
        out.append(("s", half))
        out.append(("t", half))
    else:
        out.append(("s", m))
    return tuple(out)


def i2_character(label: str, cls: str, m: int) -> Cyclotomic:
    """Character value as an element of Q(zeta_m).  A linear character is its
    sign on a reflection class and (sign s * sign t)^l on r^l; phi_i is
    zeta^(il) + zeta^(-il) on r^l and 0 on the reflections."""
    l = None if cls in ("s", "t") else int(cls[1:] or 0)  # e is r^0
    signs = I2_LINEAR_SIGNS.get(label)
    if signs is not None:
        s, t = signs
        value = (s * t) ** l if l is not None else signs["st".index(cls)]
        return Cyclotomic.from_rational(m, value)
    if l is None:
        return Cyclotomic.from_rational(m, 0)
    i = int(label.split("_")[1])
    return Cyclotomic.zeta(m, i * l) + Cyclotomic.zeta(m, -i * l)


@cache
def i2_character_table(m: int) -> dict[str, dict[str, Cyclotomic]]:
    """label -> class -> character value; built once per m and shared, so
    callers only read it."""
    return {
        lab: {cls: i2_character(lab, cls, m) for cls, _ in i2_classes(m)}
        for lab in i2_labels(m)
    }


def build_dihedral_rep(label: str, m: int) -> tuple[Matrix, Matrix]:
    """Matrices of the generating reflections (s, t) (r = s t)."""
    if label not in i2_labels(m):
        raise ValueError(f"unknown dihedral label {label!r} for m={m}")
    rat = lambda q: Cyclotomic.from_rational(m, q)
    if label in I2_LINEAR_SIGNS:
        return tuple(({0: rat(x)},) for x in I2_LINEAR_SIGNS[label])
    i = int(label.split("_")[1])
    return ({1: rat(1)}, {0: rat(1)}), ({1: Cyclotomic.zeta(m, -i)}, {0: Cyclotomic.zeta(m, i)})


def i2_reflection_matrix(gens: tuple[Matrix, Matrix], m: int) -> tuple[Matrix, ...]:
    """The reflections (s_0, ..., s_{m-1}) with s_l = r^l s, r = s t: one
    running product s_l = r s_{l-1}."""
    s, t = gens
    r = mat_mul(s, t)
    out = [s]
    for _ in range(1, m):
        out.append(mat_mul(r, out[-1]))
    return tuple(out)


def i2_induced_from_reflection(m: int, parabolic: int, chi: str) -> dict[str, int]:
    """Decomposition of Ind_{P}^{W} chi for P = <s> (parabolic=1) or <t> (2).

    chi is "1" or "psi" (the nontrivial character of the order-2 subgroup).
    Returns irreducible label -> multiplicity, by Frobenius reciprocity: the
    multiplicity of phi is <Res_P phi, chi>_P = (phi(1) + chi(r) phi(r)) / 2,
    r the generator of P.  That is (1 + chi(r) sigma) / 2 for a linear
    character with sign sigma on r's class, and (2 + 0) / 2 = 1 for each phi_i.
    """
    if parabolic not in (1, 2):
        raise ValueError("parabolic must be 1 or 2")
    refl = 1 if m % 2 == 0 and parabolic == 2 else 0  # r's class: t, else s
    sign = 1 if chi == "1" else -1
    out = {}
    for lab in i2_labels(m):
        signs = I2_LINEAR_SIGNS.get(lab)
        mult = (1 + sign * signs[refl]) // 2 if signs else 1
        if mult:
            out[lab] = mult
    return out
