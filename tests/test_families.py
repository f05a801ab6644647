import gc
import sys
from fractions import Fraction
from functools import cache
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmfamilies import coxeter, exact, families, reps, symbols
from cmfamilies import fixtures as fx
from cmfamilies.cuspidal import rigid_modules
from cmfamilies.exact import CherednikParameter
from cmfamilies.families import (
    clifford_descent,
    cm_families,
    dihedral_a_function,
    dihedral_j_induction,
    lusztig_families,
    swap_bipartition,
    tau_twist,
)
from cmfamilies.partitions import bipartitions, d_labels
from cmfamilies.symbols import content_key, symbol_of


def test_type_a_singletons_and_zero():
    fp = cm_families(4, CherednikParameter.type_A(1))
    assert all(f.is_singleton for f in fp.families)
    fp0 = cm_families(4, CherednikParameter.type_A(0))
    assert len(fp0.families) == 1


def test_b_families_small_equal():
    for n in range(1, 7):
        for m in range(0, 4):
            p = CherednikParameter.type_B(m, 1)
            assert cm_families(n, p).as_sets() == lusztig_families(n, p).as_sets()


def test_b_degenerate_by_second_size():
    p = CherednikParameter.type_B(1, 0)
    fp = cm_families(4, p)
    assert len(fp.families) == 5  # grouped by |lam1| = 0..4
    assert fp.as_sets() == lusztig_families(4, p).as_sets()


def test_b_non_integral_singletons():
    p = CherednikParameter.type_B(Fraction(1, 2), 1)
    fp = lusztig_families(5, p)
    assert all(f.is_singleton for f in fp.families)
    assert cm_families(5, p).as_sets() == fp.as_sets()


def test_d_families_small_equal():
    for n in range(2, 7):
        p = CherednikParameter.type_D(1)
        assert cm_families(n, p).as_sets() == lusztig_families(n, p).as_sets()


def test_d4_cuspidal_class():
    fp = cm_families(4, CherednikParameter.type_D(1))
    fam = fp.family_of(((2, 2), (), None))
    assert set(fam.members) == {
        ((2,), (1, 1), None),
        ((2, 1), (1,), None),
        ((2, 2), (), None),
    }


def test_d_split_labels_are_singletons():
    # a split label {lam}_i keys as itself on both paths
    for n in range(2, 11):
        fps = [cm_families(n, CherednikParameter.type_D(k)) for k in (1, -1, Fraction(1, 2))]
        fps += [lusztig_families(n, CherednikParameter.type_D(k)) for k in (1, Fraction(1, 2))]
        for fp in fps:
            for f in fp.families:
                if any(lab[2] is not None for lab in f.members):
                    assert f.is_singleton, (n, fp.method, f)


def test_paths_stay_independent(monkeypatch):
    """The CM key never builds a symbol or a symbol row, and the Lusztig key
    never a residue or a component's charged contents."""
    def forbidden(*args):
        raise AssertionError("the other path's key was called")

    points = [(n, CherednikParameter.type_B(m, 1)) for n in range(1, 6) for m in range(4)]
    points += [(n, CherednikParameter.type_D(k)) for n in range(2, 7) for k in (1, Fraction(1, 2))]
    with monkeypatch.context() as mp:
        for name in ("symbol_of", "content_key", "integral_row", "expected_weight"):
            mp.setattr(symbols, name, forbidden)
        cm = [cm_families(n, p).as_sets() for n, p in points]
    with monkeypatch.context() as mp:
        mp.setattr(exact, "charged_residue", forbidden)
        mp.setattr(exact, "charged_contents", forbidden)
        assert [lusztig_families(n, p).as_sets() for n, p in points] == cm


I2_EQUAL = [(1, 1), (Fraction(7, 3), Fraction(7, 3))]
I2_UNEQUAL = [(1, 2), (2, 1), (0, 1), (1, 0), (Fraction(1, 3), Fraction(5, 2)),
              (Fraction(5, 2), Fraction(1, 3)), (0, Fraction(7, 3)), (Fraction(7, 3), 0)]


def test_i2_families_match_reference():
    for m in range(5, 25):
        params = I2_EQUAL if m % 2 else I2_EQUAL + I2_UNEQUAL
        for a, b in params:
            p = CherednikParameter.type_I2(a, b)
            assert cm_families(m, p).as_sets() == fx.table2_families(m, a, b)
            assert lusztig_families(m, p).as_sets() == fx.table2_families(m, a, b)


def test_b_lusztig_families_constant_beyond_the_walls():
    # every m >= n lies in the chamber c1/kappa > n - 1, where the families
    # are the same (singletons) as at m = n; the reference groups by the
    # symbol contents at the true m, with its rows of n + m entries
    for n in range(1, 8):
        at_n = lusztig_families(n, CherednikParameter.type_B(n, 1)).as_sets()
        assert all(len(f) == 1 for f in at_n)
        for m in range(n, 3 * n + 2):
            groups: dict = {}
            for bp in bipartitions(n):
                groups.setdefault(content_key(symbol_of(bp, n, m, 1)), set()).add(bp)
            assert {frozenset(g) for g in groups.values()} == at_n
            assert lusztig_families(n, CherednikParameter.type_B(m, 1)).as_sets() == at_n


def test_lusztig_rejects_negative():
    with pytest.raises(ValueError):
        lusztig_families(3, CherednikParameter.type_B(-1, 1))


@settings(max_examples=40)
@given(st.integers(1, 6), st.integers(0, 3))
def test_tau_twist_property(n, m):
    pos = cm_families(n, CherednikParameter.type_B(m, 1))
    neg = cm_families(n, CherednikParameter.type_B(-m, 1))
    assert tau_twist(pos).as_sets() == neg.as_sets()
    # tau is an involution on partitions of Irr
    assert tau_twist(tau_twist(pos)).as_sets() == pos.as_sets()


@settings(max_examples=40)
@given(
    st.integers(1, 6),
    st.sampled_from([Fraction(2), Fraction(1, 3), Fraction(5, 2)]),
    st.integers(0, 3),
)
def test_rescaling_invariance(n, alpha, m):
    base = cm_families(n, CherednikParameter.type_B(m, 1))
    scaled = cm_families(n, CherednikParameter.type_B(m * alpha, alpha))
    assert base.as_sets() == scaled.as_sets()
    lbase = lusztig_families(n, CherednikParameter.type_B(m, 1))
    lscaled = lusztig_families(n, CherednikParameter.type_B(m * alpha, alpha))
    assert lbase.as_sets() == lscaled.as_sets()


def test_clifford_descent_swap_stability():
    fp = lusztig_families(4, CherednikParameter.type_B(0, 1))
    for f in fp.families:
        mem = set(f.members)
        assert {swap_bipartition(bp) for bp in mem} == mem
    down = clifford_descent(fp)
    assert down.param.type_tag == "D"
    # the D Lusztig key is the Clifford descent of the B Lusztig families
    for n in range(2, 13):
        for kappa in (1, Fraction(1, 2), 3):
            by_key = lusztig_families(n, CherednikParameter.type_D(kappa)).as_sets()
            down = clifford_descent(lusztig_families(n, CherednikParameter.type_B(0, kappa)))
            assert by_key == down.as_sets(), (n, kappa)


def test_dihedral_a_function_sample():
    vals = dihedral_a_function(8, 1, 1)
    assert vals["1"] == 0 and vals["eps"] == 8
    assert vals["eps1"] == 1 and vals["phi_2"] == 1
    vals = dihedral_a_function(8, 1, 2)  # b > a > 0
    assert vals["eps"] == 12 and vals["eps2"] == 5 and vals["phi_1"] == 2


def ref_dihedral_a_function(m, a, b):
    """The a-values as three cases on the order of a and b, the odd-m labels
    popped at the end."""
    a, b = Fraction(a), Fraction(b)
    out = {"1": Fraction(0)}
    if a == b:
        for i in range(1, (m - 1) // 2 + 1):
            out[f"phi_{i}"] = a
        out["eps"] = m * a
        out["eps1"] = a
        out["eps2"] = a
    elif b > a:
        for i in range(1, (m - 1) // 2 + 1):
            out[f"phi_{i}"] = b
        out["eps"] = Fraction(m, 2) * (a + b)
        out["eps1"] = a
        out["eps2"] = Fraction(m, 2) * (b - a) + a
    else:
        for i in range(1, (m - 1) // 2 + 1):
            out[f"phi_{i}"] = a
        out["eps"] = Fraction(m, 2) * (a + b)
        out["eps2"] = b
        out["eps1"] = Fraction(m, 2) * (a - b) + b
    if m % 2 == 1:
        out.pop("eps1", None)
        out.pop("eps2", None)
    return out


A_GRID = [0, Fraction(1, 3), Fraction(1, 2), 1, Fraction(3, 2), 2, Fraction(7, 3), 5]


def test_dihedral_a_function_matches_three_case_reference():
    for m in range(5, 17):
        for a in A_GRID:
            for b in A_GRID:
                if a or b:
                    want = ref_dihedral_a_function(m, a, b)
                    assert dihedral_a_function(m, a, b) == want, (m, a, b)


def test_i2_lusztig_path_reads_no_characters(monkeypatch):
    """The I2 Lusztig families, the closed-form rigid modules and the
    j-induction read neither the character table nor the Euler key."""
    def forbidden(*args):
        raise AssertionError("a character or the Euler key was read")

    points = [(m, CherednikParameter.type_I2(1, 1)) for m in (5, 7, 8)]
    points += [(m, CherednikParameter.type_I2(a, b)) for m in (6, 8, 16)
               for a, b in I2_UNEQUAL]

    def compute():
        return [(lusztig_families(m, p).as_sets(), rigid_modules(m, p, "closed_form"),
                 [dihedral_j_induction(m, p.a, p.b, parabolic, chi)
                  for parabolic in (1, 2) for chi in ("1", "psi")])
                for m, p in points]

    want = compute()
    originals = {name: getattr(mod, name) for mod, name in
                 ((reps, "i2_character_table"), (reps, "i2_character"), (families, "_euler_key"))}
    with monkeypatch.context() as mp:
        for modname, mod in list(sys.modules.items()):
            if modname == "cmfamilies" or modname.startswith("cmfamilies."):
                for name, fn in originals.items():
                    if getattr(mod, name, None) is fn:
                        mp.setattr(mod, name, forbidden)
        assert families.i2_character_table is forbidden
        dihedral_a_function.cache_clear()
        got = compute()
    assert got == want


def test_dihedral_j_induction_matches_reference():
    for m in (6, 8, 10):
        for a, b in ((1, 1), (1, 2), (2, 1), (0, 1), (1, 0)):
            want = fx.table4_j_induction(m, a, b)
            for (p, chi), labels in want.items():
                assert set(dihedral_j_induction(m, a, b, p, chi)) == labels


CM_POINTS = [(1, 1), (Fraction(1, 2), 1), (Fraction(7, 3), Fraction(1, 3)), (Fraction(3, 2), Fraction(1, 2)),
             (-2, 1), (Fraction(2, 5), Fraction(-3, 7)), (1, 0), (0, Fraction(5, 4))]


def test_cm_keys_are_int_and_scale_invariant(monkeypatch):
    # the CM path rescales the charge to ints, so every component's charged
    # contents, and with them every key, are ints; a positive scale leaves the
    # groups alone
    keys = []
    charged = exact.charged_contents

    def recording(lam, shift, step):
        keys.append(charged(lam, shift, step))
        return keys[-1]

    monkeypatch.setattr(exact, "charged_contents", recording)
    cases = [(n, CherednikParameter.type_B, point) for n in range(1, 7) for point in CM_POINTS]
    cases += [(n, CherednikParameter.type_D, (kappa,))
              for n in range(2, 7) for kappa in (1, 3, Fraction(2, 3), Fraction(-1, 2))]
    for n, make, point in cases:
        keys.clear()
        groups = cm_families(n, make(*point)).as_sets()
        assert keys and all(type(x) is int for key in keys for x in key)
        for alpha in (Fraction(1, 3), Fraction(5, 2), 7):
            scaled = make(*(alpha * v for v in point))
            assert cm_families(n, scaled).as_sets() == groups


# ---------------------------------------------------------------------------
# The memoised B and D keys against the per-label references
# ---------------------------------------------------------------------------

def _int_charge(c1, kappa):
    scale = lcm(c1.denominator, kappa.denominator)
    return 0, int(c1 * scale), int(-kappa * scale)


def _b_ref_points(n):
    """(param, cm reference, lusztig reference or None) at B_n: every integral
    m = 0 .. n + 2 at kappa = 1, past the clamp m >= n; a rescaled integral,
    a non-integral, a rescaled fractional, a kappa = 0 and a negative-c1 point
    for the CM key."""
    N = max(n, 1)
    points = [(Fraction(m), Fraction(1), m) for m in range(n + 3)]
    points += [(Fraction(4), Fraction(2, 3), 6), (Fraction(1, 2), Fraction(1), None),
               (Fraction(7, 3), Fraction(1, 3), 7), (Fraction(5, 3), Fraction(2, 7), None),
               (Fraction(3), Fraction(0), None), (Fraction(-2), Fraction(1), None),
               (Fraction(-5, 2), Fraction(3, 4), None)]
    for c1, kappa, m in points:
        charge = _int_charge(c1, kappa)
        lusztig = None
        if m is not None:
            lusztig = lambda bp, m=min(m, n): content_key(symbol_of(bp, N, m, 1))
        yield (CherednikParameter.type_B(c1, kappa),
               lambda bp, charge=charge: exact.charged_residue(bp, charge), lusztig)


def _check_b_and_d_keys():
    """Every memoised B_n key (n <= 10) and D_n key (2 <= n <= 10, kappa in
    {1, 1/2, 3}) equals its per-label reference at every label.  Each key is
    read before its reference, so a key that raises fails here first."""
    b, d = coxeter.TYPES["B"], coxeter.TYPES["D"]
    for n in range(1, 11):
        labels = bipartitions(n)
        for param, cm_ref, lusztig_ref in _b_ref_points(n):
            key = b.cm_key(n, param)
            for bp in labels:
                assert key(bp) == cm_ref(bp), (n, param, bp)
            if lusztig_ref:
                key = b.lusztig_key(n, param)
                for bp in labels:
                    assert key(bp) == lusztig_ref(bp), (n, param, bp)
    for n in range(2, 11):
        for kappa in (Fraction(1), Fraction(1, 2), Fraction(3)):
            param, charge = CherednikParameter.type_D(kappa), _int_charge(Fraction(0), kappa)
            refs = ((d.cm_key, lambda bp: exact.charged_residue(bp, charge)),
                    (d.lusztig_key, lambda bp: content_key(symbol_of(bp, n, 0, 1))))
            for make, ref in refs:
                key = make(n, param)
                for lab in d_labels(n):
                    assert key(lab) == (lab if lab[2] is not None else ref(lab[:2])), (n, kappa, lab)


def test_memoised_keys_match_the_per_label_references():
    _check_b_and_d_keys()


def test_planted_row_padding_defect_fails_the_key_reference(monkeypatch):
    real = symbols.integral_row
    monkeypatch.setattr(symbols, "integral_row", lambda lam, length: real(lam, length + 1))
    with pytest.raises(AssertionError):
        _check_b_and_d_keys()


def test_planted_weight_defect_fails_the_key_weight_check(monkeypatch):
    real = symbols.expected_weight
    monkeypatch.setattr(symbols, "expected_weight", lambda *args: real(*args) + 1)
    with pytest.raises(AssertionError, match="weight equation violated"):
        _check_b_and_d_keys()


def test_weight_check_runs_at_every_label(monkeypatch):
    # one component's row sum off by one: only the labels holding it raise
    real, bad = symbols.integral_row, (2, 1)

    def off(lam, length):
        row, total = real(lam, length)
        return row, total + (lam == bad)

    monkeypatch.setattr(symbols, "integral_row", off)
    key = coxeter.TYPES["B"].lusztig_key(5, CherednikParameter.type_B(1, 1))
    for bp in bipartitions(5):
        if bad in bp:
            with pytest.raises(AssertionError, match="weight equation violated"):
                key(bp)
        else:
            key(bp)


def test_no_key_memo_outlives_its_partition():
    """Five B_6 points, each partitioned on both paths, leave every
    module-level functools cache of exact, symbols, coxeter and families as
    the first point left it, and no key memo alive."""
    def sizes():
        return {(mod.__name__, name): f.cache_info().currsize
                for mod in (exact, symbols, coxeter, families)
                for name, f in vars(mod).items() if hasattr(f, "cache_info")}

    points = [(1, 1), (3, 1), (Fraction(1, 2), 1), (Fraction(14, 3), Fraction(2, 3)), (1, 0)]
    after_first = None
    for point in points:
        param = CherednikParameter.type_B(*point)
        cm_families(6, param)
        lusztig_families(6, param)
        after_first = after_first or sizes()
        assert sizes() == after_first, point
    memo = type(cache(len))
    gc.collect()
    assert not [f for f in gc.get_objects() if type(f) is memo
                and f.__wrapped__ in (exact.charged_contents, symbols.integral_row)]
