"""The per-type table: one entry for each of the types A, B, D and I2(m).

Everything that differs between the types is read from here: the parameter
names, the size flag, the irreducible labels and their text forms, the CM
and Lusztig keys, whose fibres are the families, the cuspidal anchor, the
rigid closed form, the Gram matrix of the rigidity trace form, and the leaf
poset.  The functions in `families`, `cuspidal` and `cli` that read an entry
are the same for every type.

The B and D keys are ints that code multisets.  A multiset of values x,
each at a slot pos(x) >= 0 and none occurring 2**w times or more, codes as
the sum of 2**(w pos(x)): the code is injective, and the code of a union is
the sum of the codes, so a label's key is the sum of its components' codes.

Each pi(s) is a unitary involution, so T(y, x) is Hermitian and pi is rigid
iff its trace form Q_pi vanishes (see `cuspidal`).  Each entry's trace_form
is the Gram matrix of Q_pi in the class parameters, read from characters and
scaled to ints:

    B_n    c1^2 chi(1) + 2(n-1) c1 kappa chi(eps_1 s_12)
           + kappa^2 ((n-1) chi(1) + (n-1)(n-2) chi(3-cycle))       (Q / 4n)
    D_n    the kappa^2 part of B_n, on the B_n module of lab[:2]
    S_n    c^2 (2n(n-1) chi(1) + n(n-1)(n-2) chi(3-cycle))
    I2(m)  sum_{k,l} c_k c_l (2 + zeta^(k-l) + zeta^(l-k)) chi(r^(k-l)),
           c_k the parameter of the class of s_k = r^k s

The table and the layers import each other as module objects, and an entry
looks each layer function up in its module when it is called.  So nothing is
resolved at import time, and a function rebound in its module (as the
benchmark's tracer does) is the one that runs.
"""
from __future__ import annotations

from collections import defaultdict, namedtuple
from fractions import Fraction
from functools import cache
from itertools import count
from math import isqrt

from . import cuspidal, exact, families, partitions, reps, symbols


class CoxeterType(namedtuple(
        "CoxeterType",
        "params size_flag min_size parameter generic labels label_text cm_key lusztig_key"
        " anchor rigid trace_form oracle_max leaves module",
        defaults=(None, lambda label: label))):
    # params: parameter names, in CherednikParameter.values order
    # size_flag: "n", or "m" for I2(m)
    # parameter: (values, size) -> CherednikParameter
    # generic: size -> parameter values whose families are the generic ones
    # labels: size -> the labels of Irr W
    # below, param is nonzero; the callers handle param = 0 for every type
    # cm_key, lusztig_key: (size, param) -> (label -> key); the families are
    # the fibres of the key
    # anchor: (size, param) -> (label, leaf label) in the cuspidal family, or None
    # rigid: (size, param, anchor) -> rigid labels, closed form
    # trace_form: (module, size) -> ((p, p'), g) pairs over class parameter
    # names: the int Gram matrix of the trace form Q(c) = sum g c_p c_p' on the
    # module that module(label) names, read from its character; pi is rigid iff
    # Q(c) = 0, since each T(y, x) is Hermitian (each pi(s) a unitary involution)
    # oracle_max: largest size the rigidity oracle is run at
    # leaves: (size, param) -> LeafPoset, or None
    # module: label -> the module the oracle decides it on
    __slots__ = ()


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


# ---------------------------------------------------------------------------
# Type A: every label keys as itself; the trace form on the transpositions
# ---------------------------------------------------------------------------

def _a_trace_form(lam, n):
    """Each of the C(n, 2) transpositions pairs with itself with weight
    <alpha, alpha>^2 = 4, and with each of the 2(n-2) that share one point
    with weight 1, their product a 3-cycle."""
    three = reps.sn_character(lam, (3,) + (1,) * (n - 3)) if n >= 3 else 0
    return ((("c", "c"), 2 * n * (n - 1) * reps.sn_character(lam, (1,) * n)
             + n * (n - 1) * (n - 2) * three),)


# ---------------------------------------------------------------------------
# Type B: charged residues, symbol contents, the box (k^(k+m)) with n = k(k+m)
# ---------------------------------------------------------------------------

def _b_cm_key(n, param):
    """|lam1| at kappa = 0.  Else the code of the charged residue at
    (0, c1, -kappa), each exponent divided by -kappa (an injective map): the
    contents c of lam0 and c - m of lam1, m = c1/kappa, at the slots c + 3n
    and c - m + 3n.  Contents lie in [1 - n, n - 1], so the components share
    no value once m is not an integer or |m| >= 2n - 1, and all such m give
    the same fibres: m is clamped to [-2n, 2n], a non-integral m standing as
    -2n, so every slot is in [1, 6n - 1].  A value occurs at most n < 2**w
    times.  Each lam's code is built once and kept as long as the key."""
    if param.kappa == 0:
        return lambda bp: sum(bp[1])
    m, w = param.c1 / param.kappa, n.bit_length()
    m = max(-2 * n, min(int(m), 2 * n)) if m.denominator == 1 else -2 * n
    power = {c: 1 << w * (c + n) for c in range(1 - n, n)}.__getitem__
    code = cache(lambda lam: sum(map(power, partitions.contents(lam))))
    return lambda bp: (code(bp[0]) << 2 * n * w) + (code(bp[1]) << (2 * n - m) * w)


def _b_lusztig_key(n, param):
    """|lam1| at kappa = 0; the label itself at a non-integral c1/kappa;
    else the code of the symbol content at (m, 1), m = c1/kappa, with the
    fibres of content_key(symbol_of(bp, N, m, 1)).  Every m >= n lies in the
    chamber c1/kappa > n - 1 of singleton families, so m = n stands for them
    all.  Each distinct entry gets a slot on first sight, so any int entries
    code injectively, and rows of N + m and N entries hold a value at most
    2N + m times.  The codes and sums are built once per (component, length)
    and kept as long as the key; each label's two sums are checked against
    the point's expected weight, the check symbol_of makes."""
    if param.kappa == 0:
        return lambda bp: sum(bp[1])
    m = param.b_integral_m()
    if m is None:
        return lambda bp: bp
    N, m = max(n, 1), min(m, n)
    weight = symbols.expected_weight(n, N, m, 1)
    w = (2 * N + m).bit_length()
    power = defaultdict(map((1).__lshift__, count(0, w)).__next__)  # slots in order of sight

    @cache
    def row(lam, length):
        entries, total = symbols.integral_row(lam, length)
        return sum(map(power.__getitem__, entries)), total

    def key(bp):
        (beta, b), (gamma, g) = row(bp[0], N + m), row(bp[1], N)
        if b + g != weight:
            raise AssertionError("weight equation violated")
        return beta + gamma

    return key


def _b_anchor(n, param):
    """The box (k^(k+|m|)) in the component picked by the sign of m = c1/kappa,
    when m is an integer and n = k(k+|m|)."""
    m = param.b_integral_m()
    if m is None:
        return None
    k = (isqrt(m * m + 4 * n) - abs(m)) // 2  # the root of k(k + |m|) = n, if it is an integer
    if k * (k + abs(m)) != n:
        return None
    box = (k,) * (k + abs(m))
    return ((box, ()) if m >= 0 else ((), box)), f"B{n}"


def _b_rigid(n, param, anchor) -> list:
    """The anchor and its sign twist (lam, mu) -> (mu', lam')."""
    if anchor is None:
        return []
    lam, mu = anchor[0]
    return [anchor[0], (partitions.conjugate(mu), partitions.conjugate(lam))]


def _b_trace_form(bp, n):
    """Q / 4n.  Each eps_i(-1) (root e_i, coroot 2e_i) pairs with itself with
    weight 4; with each of the 2(n-1) reflections s_ij, s_ij,-1 (root = coroot
    = e_i -+ e_j), in both orders, with weight 2, their product in the class
    ((1^(n-2)), (2)) of eps_1 s_12.  Each of the n(n-1) reflections s_ij,+-1
    pairs with itself with weight 4, and with each of the 4(n-2) that share
    one index with weight 1, their product a 3-cycle ((3, 1^(n-3)), ())."""
    chi = lambda *cls: reps.bn_character(bp, cls)
    one = chi((1,) * n, ())
    eps_s = chi((1,) * (n - 2), (2,)) if n >= 2 else 0
    three = chi((3,) + (1,) * (n - 3), ()) if n >= 3 else 0
    return ((("c1", "c1"), one), (("c1", "kappa"), 2 * (n - 1) * eps_s),
            (("kappa", "kappa"), (n - 1) * one + (n - 1) * (n - 2) * three))


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


def _d_trace_form(bp, n):
    """The kappa^2 part of the B_n form, on the B_n module of bp = lab[:2]:
    the reflections of D_n are the class-kappa ones of B_n.  A split label
    {lam, lam}_1,2 is decided on the whole (lam, lam) module: each half's
    character is half of it on the classes of 1 and of a 3-cycle, neither of
    which splits, so both halves are rigid or neither is."""
    return _b_trace_form(bp, n)[2:]


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


def _rational_int(x) -> int:
    """The Cyclotomic x as an int; ArithmeticError if it is not one."""
    if any(x.coeffs[1:]):
        raise ArithmeticError(f"expected an integer, got {x}")
    return reps._as_int(Fraction(x.coeffs[0], x.den))


def _i2_trace_form(label, m):
    """The reflections s_k = r^k s (k < m) lie in the class of s for even k
    and of t for odd k (reps.I2_CLASS_PARAM), and s_k s_l = r^(k-l).  The
    roots of s_k and s_l meet at the angle pi(k-l)/m, so the pair weighs
    4cos^2 = 2 + zeta^(k-l) + zeta^(l-k).  Grouped by d = k - l: for even m
    each d comes from m/2 pairs (k, l) within one class if d is even, and
    from m/2 pairs in each order across the classes if d is odd; for odd m
    there is one class and each d comes from m pairs.  d and m - d give equal
    terms, the characters being real."""
    chi, zeta = reps.i2_character_table(m)[label], exact.Cyclotomic.zeta
    sums = [exact.Cyclotomic.zero(m)] * 2  # over even d, over odd d
    for d in range(m // 2 + 1):
        term = (2 + zeta(m, d) + zeta(m, -d)) * chi[f"r{d}" if d else "e"]
        sums[d % 2] += term if 2 * d in (0, m) else 2 * term
    s, t = reps.I2_CLASS_PARAM["s"], reps.I2_CLASS_PARAM["t"]
    if m % 2:
        return (((s, s), _rational_int(m * (sums[0] + sums[1]))),)
    within = _rational_int(m // 2 * sums[0])
    return (((s, s), within), ((t, t), within), ((s, t), _rational_int(m * sums[1])))


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
        trace_form=_a_trace_form,
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
        trace_form=_b_trace_form,
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
        trace_form=_d_trace_form,
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
        trace_form=_i2_trace_form,
        oracle_max=16,
    ),
}
