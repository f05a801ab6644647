"""The per-type table: one entry for each of the types A, B, D and I2(m).

Everything that differs between the types is read from here: the parameter
names, the size flag, the irreducible labels and their text forms, the CM
and Lusztig keys, whose fibres are the families, the cuspidal anchor, the
rigid closed form, the reflections with their roots and coroots, and the
leaf poset.  The functions in `families`, `cuspidal` and `cli` that read an
entry are the same for every type; in particular the rigidity-equation
oracle in `cuspidal` is one equation, summed over the entry's reflections.

The table and the layers import each other as module objects, and an entry
looks each layer function up in its module when it is called.  So nothing is
resolved at import time, and a function rebound in its module (as the
benchmark's tracer does) is the one that runs.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm
from typing import Callable

from . import cuspidal, exact, families, partitions, reps, symbols


@dataclass(frozen=True)
class CoxeterType:
    params: tuple[str, ...]  # parameter names, in CherednikParameter.values order
    size_flag: str  # "n", or "m" for I2(m)
    min_size: int
    parameter: Callable  # (values, size) -> CherednikParameter
    generic: Callable  # size -> parameter values whose families are the generic ones
    labels: Callable  # size -> the labels of Irr W
    label_text: Callable
    # below, param is nonzero; the callers handle param = 0 for every type
    # (size, param) -> (label -> key); the families are the fibres of the key
    cm_key: Callable
    lusztig_key: Callable
    anchor: Callable  # (size, param) -> (label, leaf label) in the cuspidal family, or None
    rigid: Callable  # (size, param, anchor) -> rigid labels, closed form
    # (module, size) -> (class parameter name, coroot, root, matrix) for exactly
    # the reflections s of W with (e_1, alpha_s) != 0, the only ones the
    # one-row rigidity equation sums over, acting on the module that
    # module(label) names; coroot and root are coordinate tuples in dual bases
    # of h and h*
    reflections: Callable
    oracle_max: int  # largest size the rigidity-equation oracle is run at
    leaves: Callable | None = None  # (size, param) -> LeafPoset
    module: Callable = lambda label: label  # label -> the module the oracle decides it on


def lookup(type_tag: str) -> CoxeterType:
    try:
        return TYPES[type_tag]
    except KeyError:
        raise ValueError(f"unknown type {type_tag!r}") from None


def checked(size: int, param) -> CoxeterType:
    """The entry of param's type; ValueError unless size is at least the
    type's smallest and param is a parameter of that type at this size (odd
    m forces a = b in I2(m))."""
    entry = lookup(param.type_tag)
    if size < entry.min_size:
        raise ValueError(f"need {entry.size_flag} >= {entry.min_size}")
    entry.parameter(param.values, size)
    return entry


def _anchor_alone(size, param, anchor) -> list:
    return [anchor[0]] if anchor else []


def _vector(n: int, entries: dict) -> tuple:
    """The coordinates of sum_i entries[i] e_i (1-based i) in Q^n."""
    return tuple(Fraction(entries.get(i, 0)) for i in range(1, n + 1))


def _transpositions_of_1(gens):
    """s_12, s_13, ..., s_1n from the adjacent transpositions s_1, ..., s_{n-1},
    one conjugation each: s_1,j+1 = s_j s_1j s_j."""
    s = None
    for g in gens:
        s = g if s is None else reps.mat_mul(reps.mat_mul(g, s), g)
        yield s


# ---------------------------------------------------------------------------
# Type A: every label keys as itself; the transpositions on Young's seminormal form
# ---------------------------------------------------------------------------

def _a_reflections(lam, n):
    """The transpositions s_1j, with root and coroot e_1 - e_j."""
    for j, s_1j in enumerate(_transpositions_of_1(reps.symmetric_generator_matrices(lam)), 2):
        root = _vector(n, {1: 1, j: -1})
        yield "c", root, root, s_1j


# ---------------------------------------------------------------------------
# Type B: charged residues, symbol contents, the box (k^(k+m)) with n = k(k+m)
# ---------------------------------------------------------------------------

def _int_charge(c1, kappa) -> tuple[int, int, int]:
    """The charge (0, c1, -kappa) times the lcm of the denominators, as ints.
    A positive scale keeps equal sorted keys equal and unequal ones unequal,
    so the families do not change."""
    scale = lcm(c1.denominator, kappa.denominator)
    return 0, int(c1 * scale), int(-kappa * scale)


def _b_cm_key(n, param):
    charge = _int_charge(param.c1, param.kappa)
    return lambda bp: exact.charged_residue(bp, charge)


def _b_lusztig_key(n, param):
    """|lam1| at kappa = 0; the label itself at a non-integral c1/kappa;
    else the symbol content at (m, 1), m = c1/kappa.  Every m >= n lies in
    the chamber c1/kappa > n - 1 of singleton families, so m = n stands for
    all of them and the symbol rows stay short."""
    if param.kappa == 0:
        return lambda bp: sum(bp[1])
    m = param.b_integral_m()
    if m is None:
        return lambda bp: bp
    N, m = max(n, 1), min(m, n)
    return lambda bp: symbols.content_key(symbols.symbol_of(bp, N, m, 1))


def _b_anchor(n, param):
    """The box (k^(k+|m|)) in the component picked by the sign of m = c1/kappa,
    when m is an integer and n = k(k+|m|)."""
    m = param.b_integral_m()
    if m is None:
        return None
    for k in range(1, n + 1):
        if k * (k + abs(m)) == n:
            box = (k,) * (k + abs(m))
            return ((box, ()) if m >= 0 else ((), box)), f"B{n}"
    return None


def _b_rigid(n, param, anchor) -> list:
    """The anchor and its sign twist (lam, mu) -> (mu', lam')."""
    if anchor is None:
        return []
    lam, mu = anchor[0]
    return [anchor[0], (partitions.conjugate(mu), partitions.conjugate(lam))]


def _b_reflections(bp, n):
    """eps_1(-1) with root e_1 and coroot 2e_1 (class c1); s_1j and
    s_1j,-1 = eps_1(-1) s_1j eps_1(-1), with root = coroot = e_1 - e_j and
    e_1 + e_j (class kappa); all on the seminormal form of bp on its
    standard bitableaux."""
    t, *s = reps.build_B_rep(bp)
    yield "c1", _vector(n, {1: 2}), _vector(n, {1: 1}), t
    for j, s_1j in enumerate(_transpositions_of_1(s), 2):
        minus, plus = _vector(n, {1: 1, j: -1}), _vector(n, {1: 1, j: 1})
        yield "kappa", minus, minus, s_1j
        yield "kappa", plus, plus, reps.bn_neg_transposition_matrix(t, s_1j)


# ---------------------------------------------------------------------------
# Type D: the type-B keys at c1 = 0, with split labels apart
# ---------------------------------------------------------------------------

def _d_key(b_key):
    """The D_n key from a type-B key: a split label {lam}_i keys as itself,
    any other label {lam, mu} as (lam, mu) does in B_n at (0, kappa).  The B
    keys at c1 = 0 are swap-stable, so it does not matter which of (lam, mu)
    and (mu, lam) d_label keeps.  The symbol of (lam, lam) holds each content
    entry twice, so (lam, lam) is alone in its B family, and these fibres are
    the Clifford descent of the B families: Lusztig's type-D families."""
    def key(n, param):
        b = b_key(n, exact.CherednikParameter.type_B(0, param.kappa))
        return lambda lab: lab if lab[2] is not None else b(lab[:2])
    return key


def _d_reflections(bp, n):
    """The class-kappa reflections of B_n (those of D_n) on the B_n module of
    bp = lab[:2].  A split label {lam, lam}_1,2 is decided on the whole
    (lam, lam) module: conjugation by eps_1(-1) swaps the two halves and
    preserves the rigidity equation, so either both halves are rigid or
    neither is."""
    return (r for r in _b_reflections(bp, n) if r[0] == "kappa")


def _d_anchor(n, param):
    k = isqrt(n)
    return (partitions.d_label((k,) * k, ()), f"D{n}") if k * k == n else None


# ---------------------------------------------------------------------------
# Type I2(m): Euler pairing, a-function fibres, phi_1 anchors the cuspidal family
# ---------------------------------------------------------------------------

def _i2_rigid(m, param, anchor) -> list:
    """1, eps and phi_1 only where a + b = 0; eps1, eps2 and, for even m,
    phi_{(m-2)/2} only where a = b; every other phi_i always."""
    a, b = param.a, param.b

    def rigid(lab) -> bool:
        if lab in ("1", "eps", "phi_1"):
            return a + b == 0
        if lab in ("eps1", "eps2") or (m % 2 == 0 and lab == f"phi_{(m - 2) // 2}"):
            return a == b
        return True

    return [lab for lab in reps.i2_labels(m) if rigid(lab)]


def _i2_reflections(label, m):
    """s_l = r^l s for l < m, conjugate to s for even l and to t for odd l,
    with that class's parameter (reps.I2_CLASS_PARAM).  In the basis where s
    swaps the two coordinates, s_l has root (1, -zeta^l) and coroot
    (1, -zeta^-l)."""
    gens = reps.build_dihedral_rep(label, m)
    one = exact.Cyclotomic.from_rational(m, 1)
    for l, s_l in enumerate(reps.i2_reflection_matrix(gens, m)):
        root = (one, -exact.Cyclotomic.zeta(m, l))
        coroot = (one, -exact.Cyclotomic.zeta(m, -l))
        yield reps.I2_CLASS_PARAM["st"[l % 2]], coroot, root, s_l


TYPES: dict[str, CoxeterType] = {
    "A": CoxeterType(
        params=("c",),
        size_flag="n",
        min_size=1,
        parameter=lambda values, n: exact.CherednikParameter.type_A(*values),
        generic=lambda n: (1,),
        labels=lambda n: partitions.partitions(n),
        label_text=partitions.format_partition,
        cm_key=lambda n, param: lambda lab: lab,
        lusztig_key=lambda n, param: lambda lab: lab,
        # S_1 is the trivial group: its one family is cuspidal, its one label rigid
        anchor=lambda n, param: ((1,), None) if n == 1 else None,
        rigid=_anchor_alone,
        reflections=_a_reflections,
        oracle_max=6,
    ),
    "B": CoxeterType(
        params=("c1", "kappa"),
        size_flag="n",
        min_size=1,
        parameter=lambda values, n: exact.CherednikParameter.type_B(*values),
        generic=lambda n: (Fraction(1, 2), 1),
        labels=lambda n: partitions.bipartitions(n),
        label_text=partitions.format_bipartition,
        cm_key=_b_cm_key,
        lusztig_key=_b_lusztig_key,
        anchor=_b_anchor,
        rigid=_b_rigid,
        reflections=_b_reflections,
        oracle_max=7,
        leaves=lambda n, param: cuspidal.leaves_B(n, param.c1, param.kappa),
    ),
    "D": CoxeterType(
        params=("kappa",),
        size_flag="n",
        min_size=2,
        parameter=lambda values, n: exact.CherednikParameter.type_D(*values),
        generic=lambda n: (1,),
        labels=lambda n: partitions.d_labels(n),
        label_text=partitions.format_d_label,
        cm_key=_d_key(_b_cm_key),
        lusztig_key=_d_key(_b_lusztig_key),
        anchor=_d_anchor,
        rigid=_anchor_alone,
        reflections=_d_reflections,
        oracle_max=7,
        leaves=lambda n, param: cuspidal.leaves_D(n, param.kappa),
        module=lambda lab: lab[:2],
    ),
    "I2": CoxeterType(
        params=("a", "b"),
        size_flag="m",
        min_size=5,
        parameter=lambda values, m: exact.CherednikParameter.type_I2(*values, m=m),
        generic=lambda m: (1, 2 - m % 2),  # odd m forces a = b
        labels=lambda m: reps.i2_labels(m),
        label_text=str,
        cm_key=lambda m, param: families._euler_key(m, param).__getitem__,
        # the Lusztig families are the fibres of the a-function
        lusztig_key=lambda m, param: families.dihedral_a_function(m, param.a, param.b).__getitem__,
        anchor=lambda m, param: ("phi_1", None),
        rigid=_i2_rigid,
        reflections=_i2_reflections,
        oracle_max=16,
    ),
}
