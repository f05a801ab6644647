import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from math import comb, factorial
from pathlib import Path

import pytest

import cmfamilies
from cmfamilies import reps
from cmfamilies.exact import Cyclotomic
from cmfamilies.partitions import bipartitions, partitions
from cmfamilies.reps import (
    bn_centralizer_order,
    bn_character,
    bn_character_dict,
    bn_inner_product,
    bn_neg_transposition_matrix,
    bn_transposition_matrix,
    build_B_rep,
    build_dihedral_rep,
    i2_character,
    i2_character_table,
    i2_classes,
    i2_induced_from_reflection,
    i2_labels,
    induced_from_sj_bnj,
    induced_from_young,
    jucys_murphy_eigenvalue,
    mat_add,
    mat_identity,
    mat_mul,
    mat_scale,
    sn_character,
    sn_inner_product,
    standard_tableaux,
    symmetric_generator_matrices,
    zee,
)
from cmfamilies.verify import _a_order, _b_order, _coxeter_relations_ok
from test_cuspidal import mat_is_zero
from test_partitions import hook_dimension


# -- references that only these tests use ------------------------------------

def bn_order(n):
    return 2**n * factorial(n)


def bn_class_size(n, cls):
    return bn_order(n) // bn_centralizer_order(cls)


def bn_dim(bp):
    r = sum(bp[0])
    return comb(r + sum(bp[1]), r) * hook_dimension(bp[0]) * hook_dimension(bp[1])


def mat_trace(a):
    return sum((row[i] for i, row in enumerate(a) if i in row), Fraction(0))


def identity(d, one):
    """The d x d identity with the given one of its entry ring."""
    return tuple({i: one} for i in range(d))


def eps_matrix(bp, j):
    """eps_j(-1) on the module of bp: diagonal, +1 on the standard bitableaux
    whose entry j lies in lam0 (component 0 of v[j-1]) and -1 on the others."""
    return tuple({r: Fraction(1 if v[j - 1][0] == 0 else -1)}
                 for r, v in enumerate(standard_tableaux(bp)))


def bn_class_matrix(bp, cls):
    """Matrix of an element of the class (alpha, beta) of B_n: each part p is
    the p-cycle s_j s_(j+1) ... s_(j+p-2) on its own block j, ..., j+p-1, times
    eps_j when the part is in beta (a negative cycle)."""
    s = build_B_rep(bp)  # (t, s_1, ..., s_(n-1)): s_a is s[a]
    mat, j = mat_identity(len(s[0])), 1
    for p, negative in [(p, False) for p in cls[0]] + [(p, True) for p in cls[1]]:
        for factor in [s[a] for a in range(j, j + p - 1)] + [eps_matrix(bp, j)] * negative:
            mat = mat_mul(mat, factor)
        j += p
    return mat


def i2_class_matrix(gens, cls, m):
    """Matrix of s, t, or r^l = (st)^l (the class e is r^0)."""
    s, t = gens
    if cls in ("s", "t"):
        return s if cls == "s" else t
    r = mat_mul(s, t)
    out = identity(len(s), Cyclotomic.from_rational(m, 1))
    for _ in range(0 if cls == "e" else int(cls[1:])):
        out = mat_mul(r, out)
    return out


def decompose_sn(n, phi):
    """Irreducible multiplicities of the S_n class function phi."""
    out = {}
    for lam in partitions(n):
        mult = sum(Fraction(phi[mu] * sn_character(lam, mu), zee(mu)) for mu in partitions(n))
        if mult:
            out[lam] = mult
    return out


def decompose_bn(n, phi):
    """Irreducible multiplicities of the B_n class function phi."""
    out = {}
    for bp in bipartitions(n):
        mult = bn_inner_product(n, phi, bn_character_dict(bp))
        if mult:
            out[bp] = mult
    return out


def i2_induced_by_class_fusion(m, parabolic, chi):
    """Decomposition of Ind_P^W chi for P = <s> (parabolic=1) or <t> (2), by
    Frobenius from the class-fusion induced character, summed over Q(zeta_m)."""
    refl_cls = "s" if m % 2 == 1 or parabolic == 1 else "t"
    gen_value = Fraction(1) if chi == "1" else Fraction(-1)
    order = 2 * m
    classes = i2_classes(m)
    ind = {}
    for cls, size in classes:
        if cls == "e":
            ind[cls] = Fraction(order, 2)  # index of P
        elif cls == refl_cls:
            # only the generator of P meets this class
            ind[cls] = Fraction(order, 2 * size) * gen_value
        else:
            ind[cls] = Fraction(0)
    table = i2_character_table(m)
    out = {}
    for lab in i2_labels(m):
        total = sum((table[lab][cls].conjugate() * (ind[cls] * size) for cls, size in classes),
                    Cyclotomic.zero(m))
        assert not any(total.coeffs[1:])  # a rational number
        mult = Fraction(total.coeffs[0], total.den * order)
        assert mult.denominator == 1
        if mult:
            out[lab] = int(mult)
    return out


def test_standard_tableaux_counts():
    for n in range(1, 6):
        for lam in partitions(n):
            assert len(standard_tableaux((lam,))) == hook_dimension(lam)
        for bp in bipartitions(n):
            assert len(standard_tableaux(bp)) == bn_dim(bp)


# -- the two builders the seminormal form on multitableaux replaced, kept as
# references: Young's form on row tableaux for S_n, coset induction for B_n

def ref_row_tableaux(lam):
    """All standard tableaux of shape lam (entries 1..n) as tuples of rows, sorted."""
    def build(shape, k):
        if k == 0:
            yield tuple(() for _ in shape)
            return
        for i, row in enumerate(shape):
            if row > 0 and (i == len(shape) - 1 or shape[i + 1] < row):
                for t in build(shape[:i] + (row - 1,) + shape[i + 1:], k - 1):
                    yield t[:i] + (t[i] + (k,),) + t[i + 1:]

    return tuple(sorted(build(lam, sum(lam))))


def ref_symmetric_generator_matrices(lam):
    """Young's seminormal s_1, ..., s_{n-1} on the row tableaux of lam."""
    tabs = ref_row_tableaux(lam)
    index = {t: i for i, t in enumerate(tabs)}
    mats = []
    for a in range(1, sum(lam)):
        rows = [{} for _ in tabs]
        for j, t in enumerate(tabs):  # column j: the image of tableau t
            pos = {v: (r, c) for r, row in enumerate(t) for c, v in enumerate(row)}
            (ra, ca), (rb, cb) = pos[a], pos[a + 1]
            if ra == rb:
                rows[j][j] = Fraction(1)
            elif ca == cb:
                rows[j][j] = Fraction(-1)
            else:
                dist = (cb - rb) - (ca - ra)
                swapped = tuple(
                    tuple(a + 1 if v == a else a if v == a + 1 else v for v in row) for row in t)
                rows[j][j] = Fraction(1, dist)
                rows[index[swapped]][j] = Fraction(1) if dist > 0 else 1 - Fraction(1, dist * dist)
        mats.append(tuple(rows))
    return tuple(mats)


def ref_b_rep_basis(bp):
    """(A, i, j): A the r-subset of coordinates carrying the untwisted factor,
    (i, j) the row tableaux of lam0 and lam1 by index."""
    lam0, lam1 = bp
    r, n = sum(lam0), sum(lam0) + sum(lam1)
    return tuple((A, i, j) for A in combinations(range(1, n + 1), r)
                 for i in range(hook_dimension(lam0)) for j in range(hook_dimension(lam1)))


def ref_build_B_rep(bp):
    """(t, s_1, ..., s_{n-1}) of B_n on pi_bp, induced from B_r x B_{n-r}."""
    lam0, lam1 = bp
    n = sum(lam0) + sum(lam1)
    basis = ref_b_rep_basis(bp)
    index = {b: k for k, b in enumerate(basis)}
    gens0 = ref_symmetric_generator_matrices(lam0)
    gens1 = ref_symmetric_generator_matrices(lam1)
    one = Fraction(1)
    generators = [tuple({r: one if 1 in A else -one} for r, (A, _, _) in enumerate(basis))]
    for a in range(1, n):
        rows = []  # row (A, i, j) of s_a
        for A, i, j in basis:
            if a in A and a + 1 in A:
                m = gens0[A.index(a)]
                rows.append({index[(A, i2, j)]: x for i2, x in m[i].items()})
            elif a not in A and a + 1 not in A:
                comp = tuple(x for x in range(1, n + 1) if x not in A)
                m = gens1[comp.index(a)]
                rows.append({index[(A, i, j2)]: x for j2, x in m[j].items()})
            else:
                rows.append({index[(tuple(sorted(set(A) ^ {a, a + 1})), i, j)]: one})
        generators.append(tuple(rows))
    return tuple(generators)


def _coset_vector(bp, A, i, j):
    """The standard bitableau, as its vector, of the coset basis vector
    (A, i, j): the entries of A, in order, fill the i-th row tableau of lam0,
    and the other entries the j-th row tableau of lam1."""
    n = sum(bp[0]) + sum(bp[1])
    rest = tuple(k for k in range(1, n + 1) if k not in A)
    tabs = ((A, ref_row_tableaux(bp[0])[i]), (rest, ref_row_tableaux(bp[1])[j]))
    out = {}
    for component, (entries, t) in enumerate(tabs):
        for r, row in enumerate(t):
            for c, k in enumerate(row):
                out[entries[k - 1]] = (component, c - r)
    return tuple(out[k] for k in range(1, n + 1))


def _relabelled(mats, old, new):
    """The matrices on the basis old, moved onto the basis new, which lists
    the same vectors in another order."""
    assert sorted(old) == sorted(new) and len(set(new)) == len(new)
    place = {v: k for k, v in enumerate(new)}
    perm = [place[v] for v in old]
    out = []
    for m in mats:
        rows = [None] * len(m)
        for r, row in enumerate(m):
            rows[perm[r]] = {perm[c]: x for c, x in row.items()}
        out.append(tuple(rows))
    return tuple(out)


def test_seminormal_form_matches_row_tableaux_and_coset_induction():
    for n in range(1, 6):
        for lam in partitions(n):
            old = [_coset_vector((lam, ()), tuple(range(1, n + 1)), i, 0)
                   for i in range(hook_dimension(lam))]
            want = _relabelled(ref_symmetric_generator_matrices(lam), old, standard_tableaux((lam,)))
            assert symmetric_generator_matrices(lam) == want
        for bp in bipartitions(n):
            old = [_coset_vector(bp, *b) for b in ref_b_rep_basis(bp)]
            assert build_B_rep(bp) == _relabelled(ref_build_B_rep(bp), old, standard_tableaux(bp))


def test_sn_relations():
    for n in range(1, 6):
        for lam in partitions(n):
            assert _coxeter_relations_ok(symmetric_generator_matrices(lam), _a_order)


def test_bn_relations():
    for n in range(1, 4):
        for bp in bipartitions(n):
            gens = build_B_rep(bp)
            assert len(gens) == n
            assert gens[0] == eps_matrix(bp, 1)
            assert _coxeter_relations_ok(gens, _b_order)


def test_i2_relations():
    for m in (5, 6, 7, 12):
        for lab in i2_labels(m):
            assert _coxeter_relations_ok(build_dihedral_rep(lab, m), lambda i, j: m)


def _perturbed(gens, g, r, c):
    """gens with entry (r, c) of gens[g] increased by 1."""
    unit = tuple({c: Fraction(1)} if i == r else {} for i in range(len(gens[g])))
    return gens[:g] + (mat_add(gens[g], unit),) + gens[g + 1:]


def test_coxeter_relations_reject_planted_defects():
    sn = symmetric_generator_matrices((2, 1))
    assert _coxeter_relations_ok(sn, _a_order)
    assert not _coxeter_relations_ok(_perturbed(sn, 0, 0, 1), _a_order)
    bn = build_B_rep(((1,), (1,)))
    assert _coxeter_relations_ok(bn, _b_order)
    assert not _coxeter_relations_ok(_perturbed(bn, 1, 0, 0), _b_order)
    # (t s_1)^4 = 1 but t s_1 t != s_1 t s_1 on this module
    assert not _coxeter_relations_ok(bn, lambda i, j: 3 if {i, j} == {0, 1} else _a_order(i, j))
    phi = build_dihedral_rep("phi_1", 5)
    assert _coxeter_relations_ok(phi, lambda i, j: 5)
    assert not _coxeter_relations_ok(phi, lambda i, j: 6)


def test_murnaghan_nakayama_values():
    assert sn_character((2, 1), (1, 1, 1)) == 2
    assert sn_character((2, 1), (2, 1)) == 0
    assert sn_character((2, 1), (3,)) == -1
    assert sn_character((4,), (2, 2)) == 1
    assert sn_character((2, 2), (2, 2)) == 2


def test_sn_orthonormality():
    for n in range(1, 6):
        labs = partitions(n)
        for lam in labs:
            for nu in labs:
                ip = sum(
                    Fraction(sn_character(lam, mu) * sn_character(nu, mu), zee(mu))
                    for mu in partitions(n)
                )
                assert ip == (1 if lam == nu else 0)


def test_bn_dims_and_order():
    for n in range(1, 5):
        assert sum(bn_dim(bp) ** 2 for bp in bipartitions(n)) == bn_order(n)
        assert sum(bn_class_size(n, cls) for cls in bipartitions(n)) == bn_order(n)


def test_bn_orthonormality():
    for n in range(1, 5):
        labs = bipartitions(n)
        for bp1 in labs:
            for bp2 in labs:
                ip = bn_inner_product(n, bn_character_dict(bp1), bn_character_dict(bp2))
                assert ip == (1 if bp1 == bp2 else 0)


def test_bn_trace_matches_character():
    for n in range(1, 4):
        for bp in bipartitions(n):
            for cls in bipartitions(n):
                assert mat_trace(bn_class_matrix(bp, cls)) == bn_character(bp, cls)


def test_bn_character_matches_generator_traces():
    # the classes of t = ((1^(n-1)), (1)) and s_1 = ((2, 1^(n-2)), ())
    for n in range(1, 8):
        for bp in bipartitions(n):
            gens = build_B_rep(bp)
            assert mat_trace(gens[0]) == bn_character(bp, ((1,) * (n - 1), (1,)))
            if n > 1:
                assert mat_trace(gens[1]) == bn_character(bp, ((2,) + (1,) * (n - 2), ()))


def test_i2_trace_matches_character():
    for m in (5, 8):
        for lab in i2_labels(m):
            gens = build_dihedral_rep(lab, m)
            for cls, _size in i2_classes(m):
                assert mat_trace(i2_class_matrix(gens, cls, m)) == i2_character(lab, cls, m)


def test_i2_character_table_is_built_once_per_m():
    table = i2_character_table(8)
    assert i2_character_table(8) is table
    assert i2_character_table(10) is not table
    assert table["phi_1"]["r1"] == i2_character("phi_1", "r1", 8)


def test_jucys_murphy():
    assert jucys_murphy_eigenvalue((2, 2)) == 0
    assert jucys_murphy_eigenvalue((3,)) == 2
    assert jucys_murphy_eigenvalue((1, 1, 1)) == -2
    assert jucys_murphy_eigenvalue((3, 1)) == "non-scalar"
    for l in range(1, 7):
        for b in range(1, 7):
            if l * b <= 6:
                assert jucys_murphy_eigenvalue((l,) * b) == l - b


def test_induced_from_young_decomposes():
    phi = induced_from_young((1,), (1,), 2)
    assert decompose_sn(2, phi) == {(2,): 1, (1, 1): 1}
    phi = induced_from_young((2,), (1,), 3)
    assert decompose_sn(3, phi) == {(3,): 1, (2, 1): 1}


def test_induced_from_parabolics_of_bn():
    phi = induced_from_sj_bnj((1,), ((), ()), 1)
    assert decompose_bn(1, phi) == {((1,), ()): 1, ((), (1,)): 1}
    phi = induced_from_sj_bnj((1,), ((1,), ()), 2)
    dec = decompose_bn(2, phi)
    assert all(v >= 1 for v in dec.values())
    total = sum(v * bn_dim(bp) for bp, v in dec.items())
    assert total == 4  # index of S_1 x B_1 in B_2 times dim of the inducing module


def test_i2_induction_total_dimension():
    for m in (5, 6, 8, 9):
        for p in (1, 2):
            for chi in ("1", "psi"):
                dec = i2_induced_from_reflection(m, p, chi)
                dims = {"1": 1, "eps": 1, "eps1": 1, "eps2": 1}
                total = sum(
                    v * dims.get(lab, 2) for lab, v in dec.items()
                )
                assert total == m  # index of the order-2 parabolic in I2(m)


def test_i2_induction_matches_class_fusion():
    for m in range(5, 41):
        for p in (1, 2):
            for chi in ("1", "psi"):
                assert i2_induced_from_reflection(m, p, chi) == i2_induced_by_class_fusion(m, p, chi)
    with pytest.raises(ValueError):
        i2_induced_from_reflection(8, 3, "1")


def test_sn_norm_of_irreducible():
    for n in range(1, 5):
        for lam in partitions(n):
            phi = {mu: sn_character(lam, mu) for mu in partitions(n)}
            assert sn_inner_product(n, phi, phi) == 1


def test_d_restriction_norms():
    # restriction to D_n has norm 1 except for split labels (lam = mu), norm 2
    for n in (2, 3, 4, 5):
        for bp in bipartitions(n):
            tot = 0
            for cls in bipartitions(n):
                if len(cls[1]) % 2 == 0:
                    tot += bn_character(bp, cls) ** 2 * bn_class_size(n, cls)
            norm = Fraction(tot, bn_order(n) // 2)
            assert norm == (2 if bp[0] == bp[1] else 1)


# -- the sparse-row matrix kernel against dense references -----------------

def dense(a, width):
    """The sparse-row matrix a as dense rows of the given width, 0 where a
    stores nothing."""
    return tuple(tuple(row.get(j, 0) for j in range(width)) for row in a)


def _dense_mul(a, b):
    out = []
    for i in range(len(a)):
        row = []
        for j in range(len(b[0])):
            total = a[i][0] * b[0][j]
            for t in range(1, len(b)):
                total = total + a[i][t] * b[t][j]
            row.append(total)
        out.append(tuple(row))
    return tuple(out)


def _kernel_cases():
    """Lists of same-shape square matrices; every ordered pair of a list is a case."""
    for n in range(1, 4):
        for bp in bipartitions(n):
            yield [*build_B_rep(bp), *(eps_matrix(bp, j) for j in range(2, n + 1))]
    for n in range(2, 6):
        for lam in partitions(n):
            yield list(symmetric_generator_matrices(lam))
    for m in range(5, 9):
        for lab in i2_labels(m):
            yield list(build_dihedral_rep(lab, m))
    q = Fraction
    yield [({}, {}), ({0: q(1), 1: q(-2)}, {1: q(3, 4)})]
    yield [({0: q(-5, 3)},), ({},)]


def _assert_sparse(a, width, entry_type):
    """The kernel's invariant: rows store only nonzero entries of the one
    entry ring, never an int, at columns inside the width."""
    for row in a:
        for j, x in row.items():
            assert 0 <= j < width
            assert type(x) is entry_type
            assert x


def _assert_entries(got, want, width, entry_type):
    _assert_sparse(got, width, entry_type)
    assert len(got) == len(want)
    for row, ref in zip(dense(got, width), want):
        assert len(row) == len(ref)
        for x, y in zip(row, ref):
            assert x == y


def _scalars(entry):
    rationals = (Fraction(0), Fraction(1), Fraction(-1), Fraction(-3, 2))
    if isinstance(entry, Cyclotomic):
        return rationals + (Cyclotomic.zero(entry.m), Cyclotomic.zeta(entry.m))
    return rationals


def test_matrix_kernel_matches_dense_reference():
    for mats in _kernel_cases():
        sample = next(x for a in mats for row in a for x in row.values())
        entry_type = type(sample)
        width = len(mats[0])
        before = [tuple(dict(row) for row in a) for a in mats]
        for a in mats:
            _assert_sparse(a, width, entry_type)
            da = dense(a, width)
            for b in mats:
                db = dense(b, width)
                _assert_entries(mat_mul(a, b), _dense_mul(da, db), width, entry_type)
                _assert_entries(
                    mat_add(a, b),
                    tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(da, db)),
                    width,
                    entry_type,
                )
            for c in _scalars(sample):
                want = tuple(tuple(c * x for x in row) for row in da)
                _assert_entries(mat_scale(c, a), want, width, entry_type)
        # no kernel function mutates a row it is given
        assert [tuple(dict(row) for row in a) for a in mats] == before


def test_matrix_kernel_non_square_product():
    q = Fraction
    a = ({0: q(1), 2: q(2)}, {})
    b = ({}, {0: q(5)}, {0: q(-1, 2)})
    got = mat_mul(a, b)
    _assert_entries(got, _dense_mul(dense(a, 3), dense(b, 1)), 1, Fraction)
    assert got == ({0: q(-1)}, {})


def _generator_cases():
    """Coxeter generators (involutions) with the one of their entry ring."""
    for n in range(1, 4):
        for bp in bipartitions(n):
            yield build_B_rep(bp), Fraction(1)
    for n in range(2, 6):
        for lam in partitions(n):
            yield symmetric_generator_matrices(lam), Fraction(1)
    for m in range(5, 9):
        for lab in i2_labels(m):
            yield build_dihedral_rep(lab, m), Cyclotomic.from_rational(m, 1)


def test_matrix_kernel_drops_cancelled_entries():
    """Sums and products that cancel leave empty rows, on both entry rings."""
    for gens, one in _generator_cases():
        for g in gens:
            empty = tuple({} for _ in g)
            assert mat_add(g, mat_scale(-1, g)) == empty
            assert mat_add(mat_mul(g, g), mat_scale(-1, identity(len(g), one))) == empty
            assert mat_is_zero(empty) and not mat_is_zero(g)


def test_neg_transposition_is_eps_conjugate():
    for n in range(2, 5):
        for bp in bipartitions(n):
            gens = build_B_rep(bp)
            for j in range(1, n):
                eps = eps_matrix(bp, j)
                for k in range(j + 1, n + 1):
                    s_jk = bn_transposition_matrix(gens, j, k)
                    assert bn_neg_transposition_matrix(eps, s_jk) == mat_mul(mat_mul(eps, s_jk), eps)


def test_mat_is_zero_on_both_entry_rings():
    q, c = Fraction, Cyclotomic
    assert mat_is_zero(({}, {}))
    assert not mat_is_zero(({}, {1: q(-1, 3)}))
    # zeta^9 = zeta in Q(zeta_8): the first sum cancels, the second leaves 1
    assert mat_is_zero(mat_add(({0: c.zeta(8)},), ({0: -c.zeta(8, 9)},)))
    assert not mat_is_zero(mat_add(({0: c.zeta(8)},), ({0: c.from_rational(8, 1) - c.zeta(8, 9)},)))


INTEGRALITY_CHECK = """
from fractions import Fraction
from cmfamilies.reps import _as_int
print(type(_as_int(Fraction(6, 3))).__name__, _as_int(Fraction(6, 3)))
try:
    print("returned", _as_int(Fraction(1, 2)))
except ArithmeticError:
    print("ArithmeticError")
"""


def test_integrality_check_raises_under_optimize():
    # python -O strips assert statements; the integrality check must not rely on them
    src = str(Path(cmfamilies.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-O", "-c", INTEGRALITY_CHECK], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout.split("\n")[:-1] == ["int 2", "ArithmeticError"]


# -- the Fraction class-fusion formulas, kept as references ---------------------
# The package computes every character by one Murnaghan-Nakayama rule on
# tuples of partitions; these sum S_n characters over the ways a class of W
# splits between the factors of a subgroup, as Fractions v / z_sub scaled by z.

def _merge(a, b):
    return tuple(sorted(a + b, reverse=True))


def _submultisets(mu):
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


def ref_bn_character(bp, cls):
    lam0, lam1 = bp
    total = Fraction(0)
    for a1, a2 in _submultisets(cls[0]):
        for b1, b2 in _submultisets(cls[1]):
            if sum(a1) + sum(b1) != sum(lam0):
                continue
            v1 = sn_character(lam0, _merge(a1, b1))
            v2 = sn_character(lam1, _merge(a2, b2)) * (-1) ** len(b2)
            total += Fraction(v1 * v2, bn_centralizer_order((a1, b1)) * bn_centralizer_order((a2, b2)))
    return bn_centralizer_order(cls) * total


def ref_induced_from_sj_bnj(nu, bp, n):
    out = {}
    for cls in bipartitions(n):
        total = Fraction(0)
        for mu, a_rest in _submultisets(cls[0]):
            if sum(mu) == sum(nu):
                sub = (a_rest, cls[1])
                total += Fraction(sn_character(nu, mu) * ref_bn_character(bp, sub),
                                  zee(mu) * bn_centralizer_order(sub))
        out[cls] = bn_centralizer_order(cls) * total
    return out


def ref_induced_from_young(nu1, nu2, n):
    out = {}
    for mu in partitions(n):
        total = sum((Fraction(sn_character(nu1, m1) * sn_character(nu2, m2), zee(m1) * zee(m2))
                     for m1, m2 in _submultisets(mu) if sum(m1) == sum(nu1)), Fraction(0))
        out[mu] = zee(mu) * total
    return out


def ref_bn_inner_product(n, phi, psi):
    return sum((Fraction(phi[c] * psi[c], bn_centralizer_order(c)) for c in bipartitions(n)),
               Fraction(0))


def ref_sn_inner_product(n, phi, psi):
    return sum((Fraction(phi[mu] * psi[mu], zee(mu)) for mu in partitions(n)), Fraction(0))


def _assert_int_dict(got, want):
    assert got == want and all(type(v) is int for v in got.values())
    assert all(v.denominator == 1 for v in want.values())


def test_bn_character_matches_fraction_reference():
    for n in range(1, 6):
        for bp in bipartitions(n):
            for cls in bipartitions(n):
                v, want = bn_character(bp, cls), ref_bn_character(bp, cls)
                assert type(v) is int and want.denominator == 1 and v == want


def test_induced_characters_match_fraction_reference():
    for n in range(1, 6):
        for j in range(n + 1):
            for nu1 in partitions(j):
                for nu2 in partitions(n - j):
                    _assert_int_dict(induced_from_young(nu1, nu2, n),
                                     ref_induced_from_young(nu1, nu2, n))
    for n in range(1, 5):
        for j in range(n + 1):
            for nu in partitions(j):
                for bp in bipartitions(n - j):
                    _assert_int_dict(induced_from_sj_bnj(nu, bp, n),
                                     ref_induced_from_sj_bnj(nu, bp, n))


def test_inner_products_match_fraction_reference():
    for n in range(1, 5):
        chars = [bn_character_dict(bp) for bp in bipartitions(n)]
        chars += [induced_from_sj_bnj(nu, bp, n) for j in range(1, n + 1)
                  for nu in partitions(j) for bp in bipartitions(n - j)]
        for phi in chars:
            for psi in chars[:8]:
                got = bn_inner_product(n, phi, psi)
                assert type(got) is Fraction and got == ref_bn_inner_product(n, phi, psi)
    for n in range(1, 6):
        for j in range(n + 1):
            for nu1 in partitions(j):
                for nu2 in partitions(n - j):
                    phi = induced_from_young(nu1, nu2, n)
                    got = sn_inner_product(n, phi, phi)
                    assert type(got) is Fraction and got == ref_sn_inner_product(n, phi, phi)


def _clear_character_memos():
    for memo in (reps.sn_character, reps.bn_character, reps.bn_character_dict, reps._mn):
        memo.cache_clear()


@pytest.fixture
def fresh_characters():
    """The character memos empty before and after the test, so that no value
    computed under a planted defect reaches another test."""
    _clear_character_memos()
    yield
    _clear_character_memos()


def test_wrong_centralizer_order_raises(fresh_characters, monkeypatch):
    # A centralizer order that does not divide |W| must fail the inner
    # product, never be floored: z(2,1) read as 4 in S_3 (|S_3| = 6), and the
    # B_3 class ((1, 1), (1,)) read as 17 (|B_3| = 48).  The characters divide
    # by no centralizer, so they keep their values.
    chars = {lam: {mu: sn_character(lam, mu) for mu in partitions(3)} for lam in partitions(3)}
    bchars = {bp: bn_character_dict(bp) for bp in bipartitions(3)}
    real, real_b = reps.zee, reps.bn_centralizer_order
    monkeypatch.setattr(reps, "zee", lambda mu: 4 if mu == (2, 1) else real(mu))
    for lam, nu in combinations(partitions(3), 2):
        with pytest.raises(ArithmeticError):
            sn_inner_product(3, chars[lam], chars[nu])
    with pytest.raises(ArithmeticError):
        sn_inner_product(3, induced_from_young((2,), (1,), 3), chars[(3,)])
    monkeypatch.undo()
    monkeypatch.setattr(reps, "bn_centralizer_order",
                        lambda c: 17 if c == ((1, 1), (1,)) else real_b(c))
    _clear_character_memos()
    assert {bp: bn_character_dict(bp) for bp in bipartitions(3)} == bchars
    for bp in bipartitions(3):
        with pytest.raises(ArithmeticError):
            bn_inner_product(3, bchars[bp], bchars[bp])
    with pytest.raises(ArithmeticError):
        bn_inner_product(3, induced_from_sj_bnj((1,), ((1,), (1,)), 3), bchars[((2,), (1,))])


def test_characters_reject_mismatched_sizes():
    with pytest.raises(ValueError, match="size mismatch"):
        sn_character((2, 1), (2,))
    with pytest.raises(ValueError, match="size mismatch"):
        sn_character((2,), (2, 1))
    # chi_((2),(1)) is 3 on the identity of B_3, but (1, 1) is a class of B_2
    with pytest.raises(ValueError, match="size mismatch"):
        bn_character(((2,), (1,)), ((1, 1), ()))
    with pytest.raises(ValueError, match="size mismatch"):
        bn_character(((1,), ()), ((1,), (1,)))
    with pytest.raises(ValueError):
        induced_from_young((2,), (1,), 4)
    with pytest.raises(ValueError):
        induced_from_young((2,), (1,), 2)
    with pytest.raises(ValueError):
        induced_from_sj_bnj((1,), ((1,), (1,)), 2)
    with pytest.raises(ValueError):
        induced_from_sj_bnj((1,), ((1,), ()), 3)
