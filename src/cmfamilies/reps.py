"""Exact matrix representations and character theory for S_n, B_n and I2(m).

S_n and B_n irreducibles are built in one seminormal form (rational
entries), on the standard tableaux of a partition for S_n and of a
bipartition for B_n; dihedral irreducibles from the standard
two-dimensional matrices over Q(zeta_m).  Characters are computed
combinatorially, so that matrix traces have an independent oracle to be
checked against: one Murnaghan-Nakayama rule (_mn) gives the irreducible
characters of S_n and B_n and the characters induced from the parabolics
S_j x S_{n-j} and S_j x B_{n-j}, each by its table of weights.

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
    partitions,
)

# Row r is {c: entry (r, c)} over the nonzero entries only, so a zero row is {}.
Matrix = tuple[dict, ...]


# ---------------------------------------------------------------------------
# The sparse-row kernel (entries: Fraction or Cyclotomic)
# ---------------------------------------------------------------------------

def mat_identity(d: int) -> Matrix:
    one = Fraction(1)
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

def _as_int(q: Fraction) -> int:
    """q as an int; ArithmeticError if it is not one (an assert would vanish under -O)."""
    if q.denominator != 1:
        raise ArithmeticError(f"expected an integer, got {q}")
    return int(q)

def _exact_div(a: int, b: int) -> int:
    """a / b for ints; ArithmeticError if b does not divide a.  The inner
    products divide |W| by a centralizer order in W, which divides it."""
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
    total = None
    for j in range(1, n):
        m = sn_transposition_matrix(lam, j, n)
        total = m if total is None else mat_add(total, m)
    diag = total[0].get(0, Fraction(0))  # a zero eigenvalue leaves row 0 empty
    if total == mat_scale(diag, mat_identity(len(total))):
        return _as_int(diag)
    return "non-scalar"


# ---------------------------------------------------------------------------
# Characters: one Murnaghan-Nakayama rule for S_n, B_n and their inductions
# ---------------------------------------------------------------------------

# A class of B_n is a pair (alpha, beta) of partitions with total n: alpha
# holds the positive cycle types, beta the negative ones.  So the classes are
# listed by partitions.bipartitions(n).
BnClass = tuple[Partition, Partition]


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


def bn_centralizer_order(cls: BnClass) -> int:
    a, b = cls
    return (2 ** len(a)) * zee(a) * (2 ** len(b)) * zee(b)


@cache
def _rim_hooks(lam: Partition, p: int) -> tuple[tuple[Partition, int], ...]:
    """(lam less a rim hook of length p, (-1)^height) for each such hook.  On
    beta-numbers a hook moves one b to a free b - p, and its height is the
    number of beta-numbers it passes."""
    L = len(lam) + p  # enough beta-numbers
    beta = {part + L - 1 - i for i, part in enumerate(lam + (0,) * p)}
    out = []
    for b in beta:
        if b >= p and b - p not in beta:
            new = sorted(beta - {b} | {b - p}, reverse=True)
            rest = tuple(x - (L - 1 - i) for i, x in enumerate(new) if x > L - 1 - i)
            out.append((rest, (-1) ** sum(b - p < x < b for x in beta)))
    return tuple(out)


@cache
def _mn(shape: tuple[Partition, ...], cycles: tuple[int, ...],
        positive: tuple[int, ...], negative: tuple[int, ...]) -> int:
    """The Murnaghan-Nakayama rule on a tuple of partitions (Macdonald, ch. I,
    App. B).  The first cycle p (a negative cycle is written -p) removes a rim
    hook of length |p| from some component c, with the sign (-1)^height times
    the weight positive[c] or negative[c], and the other cycles go on from
    what is left.  The weights, per component:

        character              shape              positive    negative
        sn_character           (lam,)             (1,)        ()
        bn_character           (lam0, lam1)       (1, 1)      (1, -1)
        induced_from_young     (nu1, nu2)         (1, 1)      ()
        induced_from_sj_bnj    (lam0, lam1, nu)   (1, 1, 2)   (1, -1, 0)

    The adjoint of multiplying by a power sum is a derivation, so a product of
    characters is the rule on their components; and Ind from S_j to B_j of
    chi_nu is the sum of c^nu_ab chi_(a,b), which the weights 2 and 0 give."""
    if sum(map(sum, shape)) != sum(map(abs, cycles)):
        raise ValueError("shape/class size mismatch")
    if not cycles:
        return 1
    p, rest = cycles[0], cycles[1:]
    total = 0
    for c, w in enumerate(positive if p > 0 else negative):
        if w:
            for lam, sign in _rim_hooks(shape[c], abs(p)):
                sub = shape[:c] + (lam,) + shape[c + 1:]
                total += w * sign * _mn(sub, rest, positive, negative)
    return total


def _cycles(cls: BnClass) -> tuple[int, ...]:
    """The cycles of a B_n class, a negative one written -p."""
    return cls[0] + tuple(-p for p in cls[1])


@cache
def sn_character(lam: Partition, mu: Partition) -> int:
    """chi_lam(mu)."""
    return _mn((lam,), mu, (1,), ())


@cache
def bn_character(bp: Bipartition, cls: BnClass) -> int:
    """chi_{(lam0, lam1)} on the class (alpha, beta)."""
    return _mn(bp, _cycles(cls), (1, 1), (1, -1))


@cache
def bn_character_dict(bp: Bipartition) -> dict:
    n = sum(bp[0]) + sum(bp[1])
    return {c: bn_character(bp, c) for c in bipartitions(n)}


def induced_from_young(nu1: Partition, nu2: Partition, n: int) -> dict:
    """Character of Ind from S_j x S_{n-j} of chi_nu1 x chi_nu2 (inside S_n)."""
    return {mu: _mn((nu1, nu2), mu, (1, 1), ()) for mu in partitions(n)}


def induced_from_sj_bnj(nu: Partition, bp: Bipartition, n: int) -> dict:
    """Character of Ind from S_j x B_{n-j} of chi_nu x chi_bp, j = |nu|."""
    return {cls: _mn((*bp, nu), _cycles(cls), (1, 1, 2), (1, -1, 0)) for cls in bipartitions(n)}


def sn_inner_product(n: int, phi: dict, psi: dict) -> Fraction:
    """<phi, psi> over S_n for real-valued class functions (dicts class->value):
    the sum over classes of phi psi |class|, over n!."""
    order = factorial(n)
    return Fraction(
        sum(phi[mu] * psi[mu] * _exact_div(order, zee(mu)) for mu in partitions(n)),
        order,
    )


def bn_inner_product(n: int, phi: dict, psi: dict) -> Fraction:
    """<phi, psi> over B_n for real-valued class functions (dicts class->value):
    the sum over classes of phi psi |class|, over |B_n|."""
    order = 2**n * factorial(n)
    return Fraction(
        sum(phi[c] * psi[c] * _exact_div(order, bn_centralizer_order(c)) for c in bipartitions(n)),
        order,
    )


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
