import json
import math
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from cmfamilies import coxeter, cuspidal, reps
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
from cmfamilies.partitions import d_labels, dagger, subpartitions_of_box


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
    form and the rigidity-equation oracle find the same rigid labels at each
    of the type's points."""
    entry = coxeter.TYPES[type_tag]
    mismatched = []
    for values in ORACLE_POINTS[type_tag](size):
        p = entry.parameter(values, size)
        if rigid_modules(size, p, "closed_form") != rigid_modules(size, p, "equation_oracle"):
            mismatched.append(values)
    assert not mismatched


def test_split_d_halves_share_one_sums_entry():
    """The halves {lam, lam}_1,2 of a split D label are decided on the one
    (lam, lam) module, so the rigidity sums are built once per lab[:2]."""
    cuspidal._rigidity_sums.cache_clear()
    rigid_modules(6, CherednikParameter.type_D(1), "equation_oracle")
    modules = {lab[:2] for lab in d_labels(6)}
    assert len(modules) < len(d_labels(6))
    assert cuspidal._rigidity_sums.cache_info().misses == len(modules)


def _all_reflections(type_tag, label, size):
    """Every reflection of W, each transposition built on its own: (class
    name, coroot, root, matrix)."""
    def vector(entries):
        return tuple(Fraction(entries.get(i, 0)) for i in range(1, size + 1))

    if type_tag == "I2":  # every root of I2(m) meets the first coordinate
        yield from coxeter.TYPES["I2"].reflections(label, size)
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
        if all(reps.mat_is_zero(s) for s in sums.values()):
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
