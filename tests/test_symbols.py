from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmfamilies.fixtures import load_fixture
from cmfamilies.partitions import bipartitions, conjugate, dagger, subpartitions_of_box
from cmfamilies.symbols import (
    BSymbol,
    bar,
    content_key,
    expected_weight,
    family_k_invariant,
    is_cuspidal_symbol,
    normalize,
    same_lusztig_family,
    shift,
    symbol_bipartition,
    symbol_of,
    weight,
)


def bp_strategy(max_n):
    return st.integers(0, max_n).flatmap(lambda n: st.sampled_from(bipartitions(n)))


def test_symbol_example_fixture():
    ex = load_fixture("symbol-example-411")
    bp = tuple(tuple(p) for p in ex["bipartition"])
    s = symbol_of(bp, ex["N"], Fraction(ex["c1"]), Fraction(ex["kappa"]))
    assert s == BSymbol.from_json(ex["symbol"])
    bs = bar(s, ex["bar_t"])
    assert bs == BSymbol.from_json(ex["bar_symbol"])
    assert symbol_bipartition(bs) == tuple(tuple(p) for p in ex["bar_bipartition"])


@settings(max_examples=120)
@given(bp_strategy(8), st.integers(0, 3), st.integers(0, 2))
def test_weight_equation(bp, m, pad):
    n = sum(bp[0]) + sum(bp[1])
    N = max(n, len(bp[0]), len(bp[1]), 1) + pad
    s = symbol_of(bp, N, m, 1)
    assert weight(s) == expected_weight(n, N, m, 1)
    assert symbol_bipartition(s) == bp


@settings(max_examples=60)
@given(bp_strategy(6), st.integers(0, 2), st.integers(1, 3))
def test_shift_preserves_label(bp, m, i):
    n = sum(bp[0]) + sum(bp[1])
    N = max(n, 1)
    s = symbol_of(bp, N, m, 1)
    assert shift(s, i) == symbol_of(bp, N + i, m, 1)


def test_non_integral_symbol():
    s = symbol_of(((1,), ()), 1, Fraction(1, 2), 1)
    assert s.r == Fraction(1, 2) and s.m == 0
    s2 = symbol_of(((1,), ()), 1, Fraction(3, 2), Fraction(1, 2))
    assert s2.m == 3
    with pytest.raises(ValueError):
        symbol_of(((1,), ()), 1, 1, 0)
    with pytest.raises(ValueError):
        symbol_of(((1,), ()), 1, -1, 1)


def test_rescaling_normalize():
    for alpha in (Fraction(2), Fraction(1, 3)):
        s = symbol_of(((2, 1), (1,)), 3, 1, 1)
        t = symbol_of(((2, 1), (1,)), 3, alpha, alpha)
        assert normalize(t) == normalize(s) == s


@settings(max_examples=60)
@given(bp_strategy(6), bp_strategy(6), st.integers(0, 2))
def test_same_family_is_equivalence(bp1, bp2, m):
    n1 = sum(bp1[0]) + sum(bp1[1])
    n2 = sum(bp2[0]) + sum(bp2[1])
    if n1 != n2:
        return
    assert same_lusztig_family(bp1, bp1, m, 1)
    assert same_lusztig_family(bp1, bp2, m, 1) == same_lusztig_family(bp2, bp1, m, 1)


@settings(max_examples=80)
@given(bp_strategy(6), st.integers(0, 2))
def test_family_size_invariant(bp, m):
    n = sum(bp[0]) + sum(bp[1])
    N = max(n, 1)
    s = symbol_of(bp, N, m, 1)
    k, size = family_k_invariant(s)
    family = [
        other
        for other in bipartitions(n)
        if content_key(symbol_of(other, N, m, 1)) == content_key(s)
    ]
    assert len(family) == size == comb(2 * k + m, k)


def test_cuspidal_symbol_iff_rectangle():
    # a cuspidal content class exists at (m,1) iff n = k(k+m), and the class
    # is exactly the dagger family
    for m in (0, 1, 2):
        for n in range(0, 7):
            N = max(n, 1)
            cusp = [
                bp for bp in bipartitions(n) if is_cuspidal_symbol(symbol_of(bp, N, m, 1))
            ]
            ks = [k for k in range(1, n + 1) if k * (k + m) == n]
            if n == 0:
                assert cusp == [((), ())]
            elif ks:
                (k,) = ks
                want = sorted((lam, dagger(lam, k, m)) for lam in subpartitions_of_box(k, m))
                assert sorted(cusp) == want
            else:
                assert cusp == []


@settings(max_examples=80)
@given(bp_strategy(6), st.integers(0, 2), st.integers(0, 3))
def test_bar_involution_and_label(bp, m, extra):
    n = sum(bp[0]) + sum(bp[1])
    s = symbol_of(bp, max(n, 1), m, 1)
    t = int(max((*s.beta, *s.gamma), default=0)) + extra
    bs = bar(s, t)
    assert bar(bs, t) == s
    assert symbol_bipartition(bs) == (conjugate(bp[1]), conjugate(bp[0]))


def test_bar_rejects_non_integral():
    s = symbol_of(((1,), ()), 1, Fraction(1, 2), 1)
    with pytest.raises(ValueError):
        bar(s)


def test_d_cuspidal_symbol_fixture():
    data = load_fixture("d_cuspidal_symbols")
    for case in data["cases"]:
        labels = set()
        for sj in case["symbols"]:
            s = BSymbol.from_json(sj)
            assert is_cuspidal_symbol(s)
            assert weight(s) == expected_weight(case["n"], s.N, 0, 1)
            labels.add(symbol_bipartition(s))
        k = case["k"]
        assert ((k,) * k, ()) in labels


def test_symbol_json_roundtrip():
    s = symbol_of(((2, 1), (1,)), 3, Fraction(3, 2), Fraction(1, 2))
    assert BSymbol.from_json(s.to_json()) == s


def _fields(s):
    return (*s.beta, *s.gamma, s.m, s.kappa, s.r)


@pytest.mark.parametrize(
    "c1, kappa",
    [(1, 1), (3, 2), (Fraction(6), Fraction(2)), (Fraction(1, 2), 1),
     (Fraction(3, 2), Fraction(1, 2)), (Fraction(5, 2), 1), (Fraction(7, 3), Fraction(1, 3))],
)
def test_symbols_never_hold_floats(c1, kappa):
    # int at an integral point, Fraction elsewhere; never a float
    integral = Fraction(c1).denominator == Fraction(kappa).denominator == 1
    for n in range(0, 5):
        for bp in bipartitions(n):
            s = symbol_of(bp, max(n, 1), c1, kappa)
            made = [s, normalize(s), shift(s, 2), bar(normalize(s)), BSymbol.from_json(s.to_json())]
            for t in made:
                assert all(type(x) in (int, Fraction) for x in _fields(t))
            assert all(type(x) is int for x in _fields(normalize(s)))
            if integral:
                assert all(type(x) is int for x in _fields(s))
                assert all(type(x) is int for x in _fields(shift(s, 2)))
            assert symbol_bipartition(s) == bp
            assert normalize(s) == symbol_of(bp, max(n, 1), s.m, 1)


def test_content_key_is_int_at_integral_points():
    for c1, kappa in [(0, 1), (1, 1), (3, 1), (Fraction(6), Fraction(2)), (0, 5)]:
        for n in range(0, 7):
            for bp in bipartitions(n):
                key = content_key(symbol_of(bp, max(n, 1), c1, kappa))
                assert all(type(x) is int for x in key)
