import hashlib
import json
import math
from fractions import Fraction
from functools import cache, reduce
from itertools import combinations
from pathlib import Path

import pytest

from cmfamilies import cli, coxeter, cuspidal, exact, partitions, reps, symbols
from cmfamilies.cuspidal import (
    annotated_families,
    cuspidal_families,
    leaves_B,
    leaves_D,
    parabolic_order_refined,
    rigid_implies_cuspidal_check,
    rigid_modules,
)
from cmfamilies.exact import CherednikParameter
from cmfamilies.partitions import bipartitions, d_labels, dagger, subpartitions_of_box
from test_cli_golden import GOLDEN, ORACLE_ROWS


def test_leaves_b61():
    lp = leaves_B(6, 1, 1)
    assert sorted(l.dimension for l in lp.leaves) == [0, 8, 12]
    assert [l.parabolic_label for l in lp.leaves] == ["B0", "B2", "B6"]
    assert lp.is_antisymmetric() and parabolic_order_refined(lp)
    deepest = next(l for l in lp.leaves if l.dimension == 0)
    assert set(lp.below(deepest)) == set()
    top = next(l for l in lp.leaves if l.dimension == 12)
    assert set(lp.below(top)) == {1, 2}


def test_leaves_b_formula():
    # n=4, m=0: k in {1,2}, dims {6,0}; n=3, m=0: k=1 dim 4 only; n=9: 0-dim at k=3
    dims = sorted(l.dimension for l in leaves_B(4, 0, 1).leaves)
    assert dims == [0, 6, 8]  # includes the open leaf k=0
    dims = sorted(l.dimension for l in leaves_B(3, 0, 1).leaves)
    assert dims == [4, 6]
    assert 0 in [l.dimension for l in leaves_B(9, 0, 1).leaves]


def test_leaves_nonsingular_open_only():
    # off the walls |m| <= n - 1, integral or not, only the open leaf B0 is left
    for n, c1 in ((4, Fraction(1, 2)), (3, 3), (3, -5)):
        lp = leaves_B(n, c1, 1)
        assert [(l.index, l.dimension, l.parabolic_label) for l in lp.leaves] == [(0, 2 * n, "B0")]
        assert not lp.order


def test_leaves_degenerate():
    lp = leaves_B(4, 1, 0)
    assert all(l.dimension == 2 * len(l.index) for l in lp.leaves)
    assert lp.is_antisymmetric() and parabolic_order_refined(lp)
    # at c = 0 the origin is a leaf of its own, which the kappa = 0 poset lacks
    for n in (1, 2, 5):
        with pytest.raises(ValueError):
            leaves_B(n, 0, 0)


def test_leaves_d4():
    lp = leaves_D(4, 1)
    assert sorted(l.dimension for l in lp.leaves) == [0, 8]
    with pytest.raises(ValueError):
        leaves_D(4, 0)


def test_open_leaf_has_full_dimension():
    """The leaf whose parabolic is the trivial group (B0, D1, or S_lam with
    lam = (1^n)) is the open one, of dimension 2n: X(D2) = X(A1)^2 has one
    leaf, of dimension 4."""
    assert [(l.index, l.dimension) for l in leaves_D(2, 1).leaves] == [(1, 4)]
    for n in range(1, 11):
        posets = [leaves_B(n, c1, kappa) for c1, kappa in
                  ((0, 1), (1, 1), (2, 1), (-3, 1), (Fraction(1, 2), 1), (1, 0), (7, 2))]
        posets += [leaves_D(n, kappa) for kappa in (1, -1, Fraction(1, 2)) if n >= 2]
        for lp in posets:
            trivial = [l for l in lp.leaves if l.parabolic_order == 1]
            assert [l.dimension for l in trivial] == [2 * n], (n, lp)


def test_leaf_parabolic_order_is_the_group_order():
    """Each leaf carries the order of the parabolic its label names: B_j, D_j or S_lam."""
    posets = [leaves_B(n, c1, kappa) for n in range(1, 10) for c1, kappa in ((0, 1), (2, 1), (1, 0))]
    posets += [leaves_D(n, 1) for n in range(2, 10)]
    for lp in posets:
        for leaf in lp.leaves:
            kind, rest = leaf.parabolic_label[0], leaf.parabolic_label[1:]
            if kind == "S":
                expected = math.prod(math.factorial(p) for p in json.loads(rest[1:]))
            else:
                j = int(rest)
                expected = 2**j * math.factorial(j) // (2 if kind == "D" else 1)
            assert leaf.parabolic_order == expected, leaf


# The loops over the size that the isqrt closed forms of coxeter._b_anchor,
# leaves_B and leaves_D replaced, kept as their references

def _ref_box_ks(n, a):
    return [k for k in range(1, n + 1) if k * (k + a) == n]


def _ref_leaf_ks_B(n, a):
    return [k for k in range(n + 1) if k * (k + a) <= n]


def _ref_leaf_ks_D(n):
    return [k for k in range(1, n + 1) if k * k <= n]


def test_b_anchor_solves_the_box_equation_like_the_loop():
    params = {m: CherednikParameter.type_B(m, 1) for m in range(-302, 303)}
    for n in range(1, 301):
        for a in range(n + 3):
            ks = _ref_box_ks(n, a)
            for m in (a, -a):
                want = None
                if ks:
                    box = (ks[0],) * (ks[0] + a)
                    want = ((box, ()) if m >= 0 else ((), box)), f"B{n}"
                assert coxeter._b_anchor(n, params[m]) == want, (n, m)


def test_leaf_ks_match_the_loops():
    for n in range(1, 301):
        for m in range(-(n + 2), n + 3):
            assert [l.index for l in leaves_B(n, m, 1).leaves] == _ref_leaf_ks_B(n, abs(m)), (n, m)
        # a non-integral c1/kappa leaves only the k with k(k + n) <= n
        assert [l.index for l in leaves_B(n, Fraction(1, 2), 1).leaves] == _ref_leaf_ks_B(n, n)
        if n >= 2:
            assert [l.index for l in leaves_D(n, 1).leaves] == _ref_leaf_ks_D(n), n


def test_leaves_json_shape():
    entry = leaves_B(6, 1, 1).to_json()[-1]
    assert set(entry) == {"k", "dim", "parabolic", "below"}
    assert entry["dim"] == 0 and entry["parabolic"] == "B6"


def test_cuspidal_b61_display():
    fams = cuspidal_families(annotated_families(6, CherednikParameter.type_B(1, 1), "CM"))
    assert len(fams) == 1
    want = {(lam, dagger(lam, 2, 1)) for lam in subpartitions_of_box(2, 1)}
    assert set(fams[0].members) == want
    assert len(want) == 10
    assert fams[0].leaf_label == "B6"


def test_cuspidal_b32_display():
    fams = cuspidal_families(annotated_families(3, CherednikParameter.type_B(2, 1), "Lusztig"))
    assert len(fams) == 1 and len(fams[0].members) == 4
    data = json.loads((Path(__file__).resolve().parent / "data" / "fcusp_1_2.json").read_text())
    assert set(fams[0].members) == {(tuple(p0), tuple(p1)) for p0, p1 in data["members"]}


def test_cuspidal_none_when_no_rectangle():
    assert cuspidal_families(annotated_families(5, CherednikParameter.type_B(0, 1), "CM")) == []
    assert cuspidal_families(annotated_families(4, CherednikParameter.type_A(1), "CM")) == []
    assert cuspidal_families(annotated_families(4, CherednikParameter.type_B(1, 0), "CM")) == []


def test_cuspidal_zero_parameter():
    fams = cuspidal_families(annotated_families(3, CherednikParameter.type_B(0, 0), "CM"))
    assert len(fams) == 1 and len(fams[0].members) == 10  # all of Irr B_3


def test_cuspidal_i2_odd_convention():
    fams = cuspidal_families(annotated_families(7, CherednikParameter.type_I2(1, 1), "Lusztig"))
    assert len(fams) == 1
    assert set(fams[0].members) == {"phi_1", "phi_2", "phi_3"}


def test_cuspidal_d4():
    fams = cuspidal_families(annotated_families(4, CherednikParameter.type_D(1), "CM"))
    assert len(fams) == 1 and fams[0].leaf_label == "D4"


def test_rigid_closed_form_examples():
    assert rigid_modules(4, CherednikParameter.type_B(0, 1)) == [
        ((), (2, 2)),
        ((2, 2), ()),
    ]
    assert rigid_modules(2, CherednikParameter.type_B(1, 1)) == [
        ((), (2,)),
        ((1, 1), ()),
    ]
    assert rigid_modules(4, CherednikParameter.type_D(1)) == [((2, 2), (), None)]
    assert rigid_modules(4, CherednikParameter.type_A(1)) == []
    got = rigid_modules(8, CherednikParameter.type_I2(-1, 1))
    assert got == ["1", "eps", "phi_1", "phi_2"]


def test_rigid_negative_m_swap():
    pos = rigid_modules(2, CherednikParameter.type_B(1, 1))
    neg = rigid_modules(2, CherednikParameter.type_B(-1, 1))
    assert sorted((b, a) for a, b in pos) == neg


def test_rigid_closed_form_enumerates_no_label(monkeypatch):
    """Off the zero parameter the B and D closed forms name their labels
    directly: B210 at c1 = kappa = 1 (n = 14 * 15) and D400 (n = 20^2)."""
    def refuse(n):
        raise AssertionError(f"enumerated the labels of size {n}")
    monkeypatch.setattr(partitions, "bipartitions", refuse)
    monkeypatch.setattr(partitions, "d_labels", refuse)
    box = (14,) * 15
    assert rigid_modules(210, CherednikParameter.type_B(1, 1)) == [((), (15,) * 14), (box, ())]
    assert rigid_modules(400, CherednikParameter.type_D(1)) == [((20,) * 20, (), None)]


def test_rigid_zero_parameter_all():
    labels = rigid_modules(2, CherednikParameter.type_B(0, 0))
    assert len(labels) == 5


ORACLE_POINTS = {
    "A": lambda n: [(0,), (1,), (-2,)],
    # every integral m = c1/kappa on a wall |m| < n, a smooth point and kappa = 0
    "B": lambda n: [(m, 1) for m in range(1 - n, n)] + [(Fraction(1, 2), 1), (1, 0)],
    "D": lambda n: [(1,), (-1,), (Fraction(1, 2),), (Fraction(-7, 3),)],
    # odd m forces a = b
    "I2": lambda m: ([(1, 1), (-1, -1)] if m % 2 else
                     [(1, 1), (-1, 1), (1, 2), (2, 1), (0, 1), (1, 0)]),
}
ORACLE_CASES = [(tag, size) for tag, entry in coxeter.TYPES.items()
                for size in range(entry.min_size, entry.oracle_max + 1)]


@pytest.mark.parametrize("type_tag,size", ORACLE_CASES)
def test_rigid_closed_form_matches_oracle(type_tag, size):
    """At every size from the type's min_size to its oracle_max, the closed
    form and the rigidity oracle find the same rigid labels at each of the
    type's points."""
    entry = coxeter.TYPES[type_tag]
    mismatched = []
    for values in ORACLE_POINTS[type_tag](size):
        p = entry.parameter(values, size)
        if rigid_modules(size, p, "closed_form") != rigid_modules(size, p, "equation_oracle"):
            mismatched.append(values)
    assert not mismatched


def test_split_d_halves_share_one_gram_entry():
    """The halves {lam, lam}_1,2 of a split D label are decided on the one
    (lam, lam) module, so the trace form's Gram matrix is built once per lab[:2]."""
    cuspidal._gram.cache_clear()
    rigid_modules(6, CherednikParameter.type_D(1), "equation_oracle")
    modules = {lab[:2] for lab in d_labels(6)}
    assert len(modules) < len(d_labels(6))
    assert cuspidal._gram.cache_info().misses == len(modules)


# ---------------------------------------------------------------------------
# The rigidity equation on modules: the reference for the trace form
# ---------------------------------------------------------------------------
#
# pi is rigid when T(y, x) = sum_s c(s)(y, alpha_s)(alpha_s^v, x) pi(s) = 0 for
# all y in h and x in h*.  T is W-equivariant, pi(w) T(y, x) pi(w)^-1 =
# T(wy, wx), and the W-orbit of y = e_1 spans h, so the one row T(e_1, x) = 0
# is the whole equation; it sums over the reflections with (e_1, alpha_s) != 0,
# which the builders below list.  In types A, B and D, Stab_W(e_1) permutes the
# coordinates 2..n and pi(w) T(e_1, x_2) pi(w)^-1 = T(e_1, w x_2), so the
# conditions x_1 and x_2 are the whole row; for I2, h has only those two.

def mat_is_zero(a) -> bool:
    return not any(a)


def _vector(n, entries):
    """The coordinates of sum_i entries[i] e_i (1-based i) in Q^n."""
    return tuple(Fraction(entries.get(i, 0)) for i in range(1, n + 1))


def _transpositions_of_1(gens):
    """s_12, s_13, ..., s_1n from the adjacent transpositions s_1, ..., s_{n-1},
    one conjugation each: s_1,j+1 = s_j s_1j s_j."""
    s = None
    for g in gens:
        s = g if s is None else reps.mat_mul(reps.mat_mul(g, s), g)
        yield s


def _a_reflections(lam, n):
    """The transpositions s_1j, with root and coroot e_1 - e_j."""
    for j, s_1j in enumerate(_transpositions_of_1(reps.symmetric_generator_matrices(lam)), 2):
        root = _vector(n, {1: 1, j: -1})
        yield "c", root, root, s_1j


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


def _d_reflections(bp, n):
    """The class-kappa reflections of B_n (those of D_n) on the B_n module of
    bp = lab[:2].  A split label {lam, lam}_1,2 is decided on the whole
    (lam, lam) module: conjugation by eps_1(-1) swaps the two halves and
    preserves the rigidity equation, so either both halves are rigid or
    neither is."""
    return (r for r in _b_reflections(bp, n) if r[0] == "kappa")


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


# type tag -> (module, size) -> (class parameter name, coroot, root, matrix)
# for exactly the reflections s of W with (e_1, alpha_s) != 0, acting on the
# module that the entry's module(label) names; coroot and root are coordinate
# tuples in dual bases of h and h*
REFLECTIONS = {"A": _a_reflections, "B": _b_reflections, "D": _d_reflections,
               "I2": _i2_reflections}


@cache
def _rigidity_sums(type_tag, module, size):
    """The rigidity sums on the named module on the row y = e_1, one condition
    for each of x_1 and x_2.  A condition is a tuple of (class name, sum over
    the reflections s of the class of (e_1, alpha_s)(alpha_s^v, x_l) pi(s))."""
    sums = {}  # l -> {class name: matrix}
    for name, coroot, root, mat in REFLECTIONS[type_tag](module, size):
        for l, x in enumerate(coroot[:2]):
            if x == 0:
                continue
            by_class = sums.setdefault(l, {})
            term = reps.mat_scale(root[0] * x, mat)
            by_class[name] = reps.mat_add(by_class[name], term) if name in by_class else term
    return tuple(tuple(by_class.items()) for by_class in sums.values())


def _label_rigid(label, size, param):
    """The rigidity equation sum_s c(s)(e_1, alpha_s)(alpha_s^v, x) pi(s) = 0,
    for every basis vector x, with c(s) the parameter value named by s's class."""
    module = coxeter.lookup(param.type_tag).module(label)
    for condition in _rigidity_sums(param.type_tag, module, size):
        terms = [reps.mat_scale(getattr(param, name), mat) for name, mat in condition
                 if getattr(param, name) != 0]
        if terms and not mat_is_zero(reduce(reps.mat_add, terms)):
            return False
    return True


def equation_rigid(size, param):
    """The rigid labels by the one-row rigidity equation on the modules."""
    labels = coxeter.lookup(param.type_tag).labels(size)
    return sorted(lab for lab in labels if _label_rigid(lab, size, param))


@pytest.mark.parametrize("type_tag,size", ORACLE_CASES)
def test_equation_matches_trace_form(type_tag, size):
    """The matrix equation and the trace form find the same rigid labels at
    every ORACLE_POINTS point, at every size up to the type's oracle_max."""
    entry = coxeter.TYPES[type_tag]
    mismatched = []
    for values in ORACLE_POINTS[type_tag](size):
        p = entry.parameter(values, size)
        if equation_rigid(size, p) != rigid_modules(size, p, "equation_oracle"):
            mismatched.append(values)
    assert not mismatched


@pytest.mark.parametrize("query", ORACLE_ROWS)
def test_equation_matches_trace_form_on_golden_rows(query):
    args = cli.build_parser().parse_args(query.split())
    size, param = cli._size(args), cli._build_param(args)
    assert equation_rigid(size, param) == rigid_modules(size, param, "equation_oracle")


def _raise(*args, **kwargs):
    raise AssertionError("the rigidity oracle called a guarded function")


def test_oracle_builds_no_module_and_reads_no_closed_form(monkeypatch, capsys):
    """The trace-form oracle decides every ORACLE_POINTS point and every golden
    oracle row, with the same output, while the module builders, the matrix
    product, both family keys and every closed form raise."""
    for name in ("build_B_rep", "symmetric_generator_matrices", "build_dihedral_rep", "mat_mul"):
        monkeypatch.setattr(reps, name, _raise)
    monkeypatch.setattr(exact, "charged_residue", _raise)
    monkeypatch.setattr(partitions, "contents", _raise)
    for name in ("symbol_of", "integral_row"):
        monkeypatch.setattr(symbols, name, _raise)
    for tag, entry in coxeter.TYPES.items():
        guarded = entry._replace(rigid=_raise, anchor=_raise, cm_key=_raise, lusztig_key=_raise)
        monkeypatch.setitem(coxeter.TYPES, tag, guarded)
    cuspidal._gram.cache_clear()
    for type_tag, size in ORACLE_CASES:
        for values in ORACLE_POINTS[type_tag](size):
            param = coxeter.TYPES[type_tag].parameter(values, size)
            rigid_modules(size, param, "equation_oracle")
    golden = {q: digest for q, code, digest in GOLDEN if q in ORACLE_ROWS}
    for query in ORACLE_ROWS:
        assert cli.main(query.split()) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == golden[query]
    cuspidal._gram.cache_clear()


def _rigid_by_gram(labels, gram, values):
    """The labels whose form sum g c_p c_p' is 0 at the named values."""
    return sorted(lab for lab in labels
                  if not sum(values[p] * values[q] * g for (p, q), g in gram(lab)))


def _b_points(n):
    return [(m, kappa) for m in range(-n, n + 1) for kappa in (1, -1)]


def _b_gram(n):
    """label -> {(p, p'): g} of the B_n trace form, called directly (no size bound)."""
    return {bp: dict(coxeter.TYPES["B"].trace_form(bp, n)) for bp in bipartitions(n)}


# a planted defect maps (n, the true B_n Gram entries) to wrong ones
B_DEFECTS = {
    "c1 kappa term dropped": lambda n, g: {**g, ("c1", "kappa"): 0},
    "c1 kappa sign flipped": lambda n, g: {**g, ("c1", "kappa"): -g["c1", "kappa"]},
    # G_kk = (n-1) chi(1) + (n-1)(n-2) chi(3-cycle) and G_c1c1 = chi(1)
    "3-cycle term dropped": lambda n, g: {**g, ("kappa", "kappa"): (n - 1) * g["c1", "c1"]},
    "identity weight doubled": lambda n, g: {
        **g, ("c1", "c1"): 2 * g["c1", "c1"],
        ("kappa", "kappa"): g["kappa", "kappa"] + (n - 1) * g["c1", "c1"]},
}


def test_b_trace_form_matches_closed_form_beyond_the_oracle_bound():
    """B_1-B_9 at every integral |m| <= n, kappa = +-1: the B Gram entries give
    the closed form's rigid labels, and each planted defect in them gives
    other labels at some point (B_8 and B_9 lie beyond oracle_max; B_9 at
    m = 0 is the first k = 3 box)."""
    caught = dict.fromkeys(B_DEFECTS, 0)
    for n in range(1, 10):
        grams = _b_gram(n)
        for c1, kappa in _b_points(n):
            want = rigid_modules(n, CherednikParameter.type_B(c1, kappa), "closed_form")
            values = {"c1": c1, "kappa": kappa}
            assert _rigid_by_gram(grams, lambda bp: grams[bp].items(), values) == want, (n, c1)
            for name, defect in B_DEFECTS.items():
                got = _rigid_by_gram(grams, lambda bp: defect(n, grams[bp]).items(), values)
                caught[name] += got != want
    assert all(caught.values()), caught


def test_b_trace_form_is_positive_semidefinite():
    """Q = sum of tr T(y, x)^2 >= 0: for every label of B_1-B_8 the 2 x 2 Gram
    matrix [[G_c1c1, G_c1k / 2], [G_c1k / 2, G_kk]] is positive semidefinite."""
    for n in range(1, 9):
        for bp, g in _b_gram(n).items():
            one, cross, kk = g["c1", "c1"], g["c1", "kappa"], g["kappa", "kappa"]
            assert one >= 0 and kk >= 0 and 4 * one * kk >= cross * cross, (bp, g)


def _i2_gram_by_pairs(label, m, weight):
    """The I2(m) Gram entries from the double sum over the reflections
    s_k = r^k s, s_l (k, l < m): class parameters c_k, c_l, pair weight
    weight(d) and character chi(r^d), d = k - l mod m; (p, p') and (p', p)
    are summed into one entry."""
    chi = reps.i2_character_table(m)[label]
    # odd m has the one class, of s
    param = lambda k: reps.I2_CLASS_PARAM["t" if m % 2 == 0 and k % 2 else "s"]
    count = {}
    for k in range(m):
        for l in range(m):
            key, d = tuple(sorted((param(k), param(l)), reverse=True)), (k - l) % m
            count[key, d] = count.get((key, d), 0) + 1
    out = {}
    for (key, d), w in count.items():
        out[key] = out.get(key, 0) + w * weight(m, d) * chi[f"r{min(d, m - d)}" if d else "e"]
    return {key: coxeter._rational_int(x) for key, x in out.items()}


def _i2_weight(m, d):
    return 2 + exact.Cyclotomic.zeta(m, d) + exact.Cyclotomic.zeta(m, -d)


def test_i2_trace_form_matches_the_pair_sum():
    """The grouped, folded I2 Gram entries equal the double sum over pairs of
    reflections, for m = 5..16."""
    for m in range(5, 17):
        for label in reps.i2_labels(m):
            got = dict(coxeter.TYPES["I2"].trace_form(label, m))
            assert got == _i2_gram_by_pairs(label, m, _i2_weight), (m, label)


# 4cos^2 of the angle between the roots is 2 + zeta^d + zeta^-d; planted
# defects: the constant dropped (2cos of twice the angle), or the angle ignored
I2_DEFECTS = {
    "2cos 2theta": lambda m, d: exact.Cyclotomic.zeta(m, d) + exact.Cyclotomic.zeta(m, -d),
    "no angle": lambda m, d: exact.Cyclotomic.from_rational(m, 2),
}


@pytest.mark.parametrize("defect", sorted(I2_DEFECTS))
def test_i2_wrong_pair_weight_is_caught(defect):
    """A wrong pair weight gives other rigid labels than the closed form at
    some ORACLE_POINTS point of I2(5)-I2(12)."""
    caught = 0
    for m in range(5, 13):
        labels = reps.i2_labels(m)
        grams = {lab: _i2_gram_by_pairs(lab, m, I2_DEFECTS[defect]) for lab in labels}
        for a, b in ORACLE_POINTS["I2"](m):
            want = rigid_modules(m, CherednikParameter.type_I2(a, b), "closed_form")
            caught += _rigid_by_gram(labels, lambda lab: grams[lab].items(), {"a": a, "b": b}) != want
    assert caught


def _all_reflections(type_tag, label, size):
    """Every reflection of W, each transposition built on its own: (class
    name, coroot, root, matrix)."""
    def vector(entries):
        return tuple(Fraction(entries.get(i, 0)) for i in range(1, size + 1))

    if type_tag == "I2":  # every root of I2(m) meets the first coordinate
        yield from _i2_reflections(label, size)
    elif type_tag == "A":
        for i, j in combinations(range(1, size + 1), 2):
            root = vector({i: 1, j: -1})
            yield "c", root, root, reps.sn_transposition_matrix(label, i, j)
    else:
        gens, basis = reps.build_B_rep(label), reps.standard_tableaux(label)

        def eps(j):
            """eps_j(-1): diagonal, +1 on the bitableaux v whose entry j lies in
            lam0 (component 0 of v[j-1])."""
            return tuple({r: Fraction(1 if v[j - 1][0] == 0 else -1)} for r, v in enumerate(basis))

        for j in range(1, size + 1):
            yield "c1", vector({j: 2}), vector({j: 1}), eps(j)
        for i, j in combinations(range(1, size + 1), 2):
            minus, plus = vector({i: 1, j: -1}), vector({i: 1, j: 1})
            s_ij = reps.bn_transposition_matrix(gens, i, j)
            yield "kappa", minus, minus, s_ij
            yield "kappa", plus, plus, reps.bn_neg_transposition_matrix(eps(i), s_ij)


def _rigid_every_pair(type_tag, size, param, pairs=None):
    """The rigid labels by sum_s c(s)(y_k, alpha_s)(alpha_s^v, x_l) pi(s) = 0
    for every basis pair (k, l), or for the pairs given."""
    out = []
    for label in coxeter.TYPES[type_tag].labels(size):
        sums = {}
        for name, coroot, root, mat in _all_reflections(type_tag, label, size):
            c = getattr(param, name)
            for k, y in enumerate(root):
                for l, x in enumerate(coroot):
                    if c * y * x != 0 and (pairs is None or (k, l) in pairs):
                        term = reps.mat_scale(c * y * x, mat)
                        sums[k, l] = reps.mat_add(sums[k, l], term) if (k, l) in sums else term
        if all(mat_is_zero(s) for s in sums.values()):
            out.append(label)
    return sorted(out)


def _reference_points():
    for n in range(1, 6):
        yield "A", n, (1,)
    b_points = [(m, 1) for m in range(-3, 4)]
    b_points += [(Fraction(1, 2), 1), (Fraction(7, 3), Fraction(1, 3)), (1, 0)]
    for n in range(1, 5):
        for values in b_points:
            yield "B", n, values
    for m in range(5, 11):
        regimes = [(1, 1)] if m % 2 else [(1, 1), (-1, 1), (1, 2), (2, 1), (0, 1), (1, 0), (3, -2)]
        for values in regimes:
            yield "I2", m, values


@pytest.mark.parametrize("type_tag,size,values", list(_reference_points()))
def test_one_row_oracle_matches_every_pair(type_tag, size, values):
    """The one-row oracle finds the rigid labels that every (y_k, x_l) row of
    the equation, over every reflection of W, finds."""
    param = coxeter.TYPES[type_tag].parameter(values, size)
    assert rigid_modules(size, param, "equation_oracle") == _rigid_every_pair(type_tag, size, param)


@pytest.mark.parametrize("type_tag,size,values,label", [
    ("A", 4, (1,), (2, 2)),
    ("B", 2, (0, 1), ((1,), (1,))),
])
def test_first_condition_alone_is_not_enough(type_tag, size, values, label):
    """The condition x_1 of the row y = e_1 alone accepts a label that the
    whole equation rejects, so the oracle's second condition x_2 carries weight."""
    param = coxeter.TYPES[type_tag].parameter(values, size)
    assert label in _rigid_every_pair(type_tag, size, param, pairs={(0, 0)})
    assert label not in _rigid_every_pair(type_tag, size, param)
    assert label not in rigid_modules(size, param, "equation_oracle")


def test_rigid_oracle_rejects_out_of_scale():
    with pytest.raises(ValueError):
        rigid_modules(8, CherednikParameter.type_B(1, 1), "equation_oracle")
    with pytest.raises(ValueError):
        rigid_modules(8, CherednikParameter.type_D(1), "equation_oracle")
    with pytest.raises(ValueError):
        rigid_modules(18, CherednikParameter.type_I2(1, 1), "equation_oracle")
    # odd m forces a = b
    for mode in ("closed_form", "equation_oracle"):
        with pytest.raises(ValueError):
            rigid_modules(7, CherednikParameter.type_I2(1, 2), mode)


def test_rigid_labels_lie_in_cuspidal_family():
    p = CherednikParameter.type_B(1, 1)
    fp = annotated_families(6, p, "CM")
    for lab in rigid_modules(6, p):
        assert fp.family_of(lab).cuspidal


def test_rigid_implies_cuspidal_samples():
    points = [
        (6, CherednikParameter.type_B(1, 1)),
        (8, CherednikParameter.type_I2(1, 1)),
        (5, CherednikParameter.type_D(1)),
        (5, CherednikParameter.type_B(Fraction(1, 2), 1)),
    ]
    for size, param in points:
        assert rigid_implies_cuspidal_check(annotated_families(size, param, "CM"))


def test_singleton_families_never_cuspidal():
    for n in range(1, 7):
        for m in range(0, 3):
            fp = annotated_families(n, CherednikParameter.type_B(m, 1), "CM")
            for f in fp.families:
                if f.is_singleton and not fp.param.is_zero():
                    assert not f.cuspidal
