import json
from collections import Counter
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmfamilies.partitions import bipartitions, conjugate, dagger, subpartitions_of_box
from cmfamilies.symbols import (
    MAX_ROW,
    BSymbol,
    bar,
    content_key,
    expected_weight,
    symbol_of,
    weight,
)

DATA = Path(__file__).resolve().parent / "data"


# -- references that only these tests use ------------------------------------

def symbol_from_json(d):
    """Read back a symbol that BSymbol.to_json wrote: every entry, kappa and r
    as a Fraction."""
    return BSymbol(beta=tuple(map(Fraction, d["beta"])), gamma=tuple(map(Fraction, d["gamma"])),
                   m=d["m"], kappa=Fraction(d["kappa"]), r=Fraction(d["r"]))


def assert_symbol(s):
    """The invariants that symbol_of and bar guarantee by construction."""
    assert s.kappa > 0 and 0 <= s.r < s.kappa and s.m >= 0
    assert len(s.beta) == len(s.gamma) + s.m
    for row in (s.beta, s.gamma):
        assert all(x >= 0 for x in row)
        assert all(a < b for a, b in zip(row, row[1:]))
    assert all((b - s.r) % s.kappa == 0 for b in s.beta)
    assert all(g % s.kappa == 0 for g in s.gamma)


def symbol_bipartition(s):
    """The labeled bipartition of a symbol."""
    Nm, N = len(s.beta), len(s.gamma)
    lam0 = [(s.beta[i - 1] - s.r) // s.kappa - (i - 1) for i in range(1, Nm + 1)]
    lam1 = [s.gamma[j - 1] // s.kappa - (j - 1) for j in range(1, N + 1)]
    return tuple(p for p in reversed(lam0) if p > 0), tuple(p for p in reversed(lam1) if p > 0)


def shift(s, i):
    """i-fold shift: prepend r to beta and 0 to gamma, add kappa to older entries."""
    for _ in range(i):
        s = BSymbol(beta=(s.r,) + tuple(b + s.kappa for b in s.beta),
                    gamma=(0,) + tuple(g + s.kappa for g in s.gamma), m=s.m, kappa=s.kappa, r=s.r)
    return s


def normalize(s):
    """Integral form at kappa = 1, r = 0: entries (beta - r)/kappa and gamma/kappa."""
    return BSymbol(beta=tuple((b - s.r) // s.kappa for b in s.beta),
                   gamma=tuple(g // s.kappa for g in s.gamma), m=s.m, kappa=1, r=0)


def content(s):
    """The multiset of the entries of the normalized symbol."""
    t = normalize(s)
    return Counter(t.beta + t.gamma)


def is_cuspidal_symbol(s):
    """The content multiplicities n_0, n_1, ... weakly decrease (no gaps)."""
    counts = content(s)
    n = [counts[i] for i in range(max(counts, default=-1) + 1)]
    return all(a >= b for a, b in zip(n, n[1:]))


def family_k_invariant(s):
    """(k, predicted family size C(2k+m, k)): k is N less the doubled contents."""
    k = len(s.gamma) - sum(1 for c in content(s).values() if c == 2)
    assert k >= 0
    return k, comb(2 * k + s.m, k)


def bp_strategy(max_n):
    return st.integers(0, max_n).flatmap(lambda n: st.sampled_from(bipartitions(n)))


def test_symbol_example_fixture():
    ex = json.loads((DATA / "symbol_example_411.json").read_text())
    bp = tuple(tuple(p) for p in ex["bipartition"])
    s = symbol_of(bp, ex["N"], Fraction(ex["c1"]), Fraction(ex["kappa"]))
    assert s == symbol_from_json(ex["symbol"])
    bs = bar(s, ex["bar_t"])
    assert bs == symbol_from_json(ex["bar_symbol"])
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


@settings(max_examples=150)
@given(bp_strategy(6),
       st.one_of(st.integers(0, 6), st.fractions(0, 6, max_denominator=4)),
       st.one_of(st.integers(1, 3), st.fractions(Fraction(1, 4), 3, max_denominator=4)),
       st.integers(0, 2), st.integers(0, 3))
def test_builders_keep_the_symbol_invariants(bp, c1, kappa, pad, extra):
    n = sum(bp[0]) + sum(bp[1])
    N = max(n, 1) + pad
    s = symbol_of(bp, N, c1, kappa)
    assert_symbol(s)
    integral = symbol_of(bp, N, s.m, 1)
    assert_symbol(integral)
    t = max((*integral.beta, *integral.gamma), default=0) + extra
    assert_symbol(bar(integral, t))
    assert_symbol(bar(integral))


def test_row_bound():
    # rows of exactly MAX_ROW entries are built; one entry more is refused
    assert len(symbol_of(((), ()), 0, MAX_ROW, 1).beta) == MAX_ROW
    assert len(symbol_of(((1,), ()), MAX_ROW - 3, 3, 1).beta) == MAX_ROW
    with pytest.raises(ValueError, match="row bound"):
        symbol_of(((), ()), 0, MAX_ROW + 1, 1)
    with pytest.raises(ValueError, match="row bound"):
        symbol_of(((1,), ()), MAX_ROW - 2, Fraction(9, 2), Fraction(3, 2))
    s = symbol_of(((1,), ()), 1, 0, 1)
    assert len(bar(s, MAX_ROW - 1).beta) == MAX_ROW - 1
    with pytest.raises(ValueError, match="row bound"):
        bar(s, MAX_ROW)


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
    data = json.loads((DATA / "d_cuspidal_symbols.json").read_text())
    for case in data["cases"]:
        labels = set()
        for sj in case["symbols"]:
            s = symbol_from_json(sj)
            assert is_cuspidal_symbol(s)
            assert weight(s) == expected_weight(case["n"], len(s.gamma), 0, 1)
            labels.add(symbol_bipartition(s))
        k = case["k"]
        assert ((k,) * k, ()) in labels


def test_symbol_json_roundtrip():
    s = symbol_of(((2, 1), (1,)), 3, Fraction(3, 2), Fraction(1, 2))
    assert symbol_from_json(s.to_json()) == s


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
            made = [s, normalize(s), shift(s, 2), bar(normalize(s)), symbol_from_json(s.to_json())]
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
