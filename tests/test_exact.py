import os
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cmfamilies
from cmfamilies.exact import (
    CherednikParameter,
    Cyclotomic,
    charged_residue,
    cyclotomic_poly,
    residue,
)

def test_residue():
    assert residue((2, 1)) == (-1, 0, 1)
    assert residue(()) == ()


def test_charged_residue_example():
    # at charge (0, c1, -kappa) both parts contribute on shifted lattices
    assert charged_residue(((1,), (1,)), (0, 1, -1)) == (0, 1)


def test_cyclotomic_polys():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_field_ops():
    for m in (5, 8, 12):
        z = Cyclotomic.zeta(m)
        acc = Cyclotomic.from_rational(m, 1)
        for _ in range(m):
            acc = acc * z
        assert acc == 1
        assert (z * z.conjugate()) == 1
        assert (z + z.conjugate()).conjugate() == z + z.conjugate()


def test_cyclotomic_truth_value_is_nonzero():
    for m in (5, 8, 12):
        z = Cyclotomic.zeta(m)
        assert z and Cyclotomic.from_rational(m, -1)
        assert not Cyclotomic.zero(m)
        assert not sum((Cyclotomic.zeta(m, l) for l in range(m)), Cyclotomic.zero(m))


@settings(max_examples=100)
@given(st.integers(1, 16).flatmap(lambda m: st.tuples(st.just(m), st.integers(0, 3 * m))))
def test_cyclotomic_sums(args):
    # sum_{l<m} zeta^{il} is nonzero exactly when m divides i
    m, i = args
    total = Cyclotomic.zero(m)
    for l in range(m):
        total = total + Cyclotomic.zeta(m, i * l)
    assert bool(total) == (i % m == 0)


# A reference for Cyclotomic: Fraction coefficient lists in Q[x]/(x^m - 1), where
# a product is a cyclic convolution and conjugation an index permutation; only
# the comparison reduces mod Phi_m (which divides x^m - 1), by long division.

REF_VALUES = [Fraction(1), Fraction(-1, 2), Fraction(0), Fraction(3), Fraction(2, 3),
              Fraction(-5, 4), Fraction(0), Fraction(7, 6)]


def _ref_samples(m):
    """Fixed length-m coefficient lists: 0, 1, zeta and five dense patterns."""
    unit = lambda k: [Fraction(int(i == k)) for i in range(m)]
    dense = [[REF_VALUES[(i * (k + 1) + k) % len(REF_VALUES)] for i in range(m)]
             for k in range(5)]
    return [[Fraction(0)] * m, unit(0), unit(1 % m)] + dense


def _ref_mul(a, b):
    m = len(a)
    out = [Fraction(0)] * m
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[(i + j) % m] += x * y
    return out


def _ref_reduce(cs):
    m = len(cs)
    phi = cyclotomic_poly(m)
    deg = len(phi) - 1
    cs = list(cs)
    for i in range(m - 1, deg - 1, -1):
        c = cs[i]
        for j, p in enumerate(phi):
            cs[i - deg + j] -= c * p
    return cs[:deg]


def _assert_canonical(x, m):
    assert x.m == m and len(x.coeffs) == len(cyclotomic_poly(m)) - 1
    assert all(type(c) is int for c in x.coeffs) and type(x.den) is int
    assert x.den > 0 and gcd(x.den, *x.coeffs) == 1


def _agrees(x, ref):
    """x is canonical and equals the reference list ref (length m)."""
    _assert_canonical(x, len(ref))
    return [Fraction(c, x.den) for c in x.coeffs] == _ref_reduce(ref)


def test_cyclotomic_matches_fraction_reference():
    for m in range(1, 17):
        refs = _ref_samples(m)
        xs = [Cyclotomic(m, r) for r in refs]
        for x, a in zip(xs, refs):
            assert _agrees(x, a)
            assert _agrees(-x, [-c for c in a])
            assert _agrees(x.conjugate(), [a[-i % m] for i in range(m)])
            for q in (0, 3, -2, Fraction(-3, 4), Fraction(5, 2)):
                scaled = [c * q for c in a]
                assert _agrees(x * q, scaled) and _agrees(q * x, scaled)
                shifted = [a[0] + q] + a[1:]
                assert _agrees(x + q, shifted) and _agrees(q + x, shifted)
                assert _agrees(x - q, [a[0] - q] + a[1:])
                assert _agrees(q - x, [q - a[0]] + [-c for c in a[1:]])
                assert (x == q) == (_ref_reduce(a) == _ref_reduce([q] + [0] * (m - 1)))
            reduced = _ref_reduce(a)
            assert bool(x) == any(reduced)
            for y, b in zip(xs, refs):
                assert _agrees(x + y, [s + t for s, t in zip(a, b)])
                assert _agrees(x - y, [s - t for s, t in zip(a, b)])
                assert _agrees(x * y, _ref_mul(a, b))
                assert (x == y) == (_ref_reduce(a) == _ref_reduce(b))


def test_cyclotomic_equal_values_have_equal_form():
    def same(x, y):
        return x == y and (x.coeffs, x.den, hash(x)) == (y.coeffs, y.den, hash(y))

    for m in range(1, 17):
        z = Cyclotomic.zeta(m)
        power = Cyclotomic.from_rational(m, 1)
        for _ in range(m):
            power = power * z
        assert same(power, Cyclotomic.from_rational(m, 1))
        assert same(Cyclotomic.zeta(m, m + 1), z)
        assert same(z + -z, Cyclotomic.zero(m)) and same(z * 0, Cyclotomic.zero(m))
        assert same(Cyclotomic(m, [Fraction(2, 4)]), Cyclotomic.from_rational(m, Fraction(1, 2)))
        for r in _ref_samples(m):
            x = Cyclotomic(m, r)
            assert same((x * Fraction(1, 2)) * 2, x)
            assert same(x + z - z, x)
            assert same(x.conjugate().conjugate(), x)
    with pytest.raises(ValueError):
        Cyclotomic.zeta(5) + Cyclotomic.zeta(8)
    with pytest.raises(ValueError):
        Cyclotomic.zeta(5) * Cyclotomic.zeta(10)


def test_rational_cyclotomic_hashes_as_its_fraction():
    # equal objects must hash equal, or set and dict lookups miss them
    for m in (1, 5, 8, 12):
        for q in (0, 1, -3, Fraction(1, 2), Fraction(-7, 3)):
            x = Cyclotomic.from_rational(m, q)
            assert x == q and hash(x) == hash(q)
            assert q in {x} and x in {q}
            assert {q: "v"}[x] == "v"
    assert 1 in {Cyclotomic.from_rational(8, 1)}


def test_cyclotomic_equality_across_conductors():
    # elements of two conductors are equal exactly when both are the same rational,
    # so == agrees with the hash and stays transitive
    c5, c8 = Cyclotomic.from_rational(5, 1), Cyclotomic.from_rational(8, 1)
    assert c5 == 1 == c8 and c5 == c8 and c8 == c5
    assert len({1, c5, c8}) == 1 and len({c5, c8}) == 1
    half5, half8 = (Cyclotomic.from_rational(m, Fraction(1, 2)) for m in (5, 8))
    assert half5 == half8 and half5 != c8
    assert Cyclotomic.zero(5) == Cyclotomic.zero(8)
    assert Cyclotomic.zeta(5) != Cyclotomic.zeta(8)
    assert Cyclotomic.zeta(8, 4) == Cyclotomic.from_rational(5, -1)  # zeta_8^4 = -1
    assert c5 + Cyclotomic.zeta(5) != c8 + Cyclotomic.zeta(8)
    with pytest.raises(ValueError):
        c5 + c8  # mixed-conductor arithmetic still raises


def test_cyclotomic_rejects_floats():
    z = Cyclotomic.zeta(8)
    ops = [lambda: z * 0.1, lambda: 0.1 * z, lambda: z + 0.5, lambda: 0.5 + z,
           lambda: z - 0.5, lambda: 0.5 - z, lambda: Cyclotomic(8, [0.5]),
           lambda: Cyclotomic(8, [1, 2.0]), lambda: Cyclotomic.from_rational(8, 0.25)]
    for op in ops:
        with pytest.raises(TypeError):
            op()


def _schoolbook(a, b, m):
    """The dense product of two length-m int lists mod x^m - 1, then reduced
    mod Phi_m by long division: deg Phi_m ints."""
    out = [0] * m
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[(i + j) % m] += x * y
    phi = cyclotomic_poly(m)
    deg = len(phi) - 1
    for i in range(m - 1, deg - 1, -1):
        c = out[i]
        for j, p in enumerate(phi):
            out[i - deg + j] -= c * p
    return out[:deg]


def _product_samples(m):
    """(length-m int numerators, den): 0, 1, -1, 1/2, zeta^k and
    zeta^k + zeta^-k for k in {1, m//2, m-1}, and one dense element."""
    unit = lambda k: [int(i == k % m) for i in range(m)]
    out = [([0] * m, 1), (unit(0), 1), ([-c for c in unit(0)], 1), (unit(0), 2)]
    for k in sorted({1, m // 2, m - 1}):
        out += [(unit(k), 1), ([x + y for x, y in zip(unit(k), unit(-k))], 1)]
    return out + [([(3 * i * i - 2 * i + 1) % 7 - 3 for i in range(m)], 5)]


def test_cyclotomic_products_match_dense_schoolbook():
    # every pair of samples, both orders: the sparse path, and the scalar path
    # when either factor is rational, agree with a dense product in coeffs,
    # den and hash
    def form(x):
        return x.coeffs, x.den, hash(x)

    for m in range(1, 25):
        samples = _product_samples(m)
        xs = [Cyclotomic(m, [Fraction(c, d) for c in a]) for a, d in samples]
        for x, (a, da) in zip(xs, samples):
            for y, (b, db) in zip(xs, samples):
                want = Cyclotomic(m, [Fraction(c, da * db) for c in _schoolbook(a, b, m)])
                assert form(x * y) == form(want)
                _assert_canonical(x * y, m)
            for q in (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2)):
                dense = _schoolbook(a, [q.numerator] + [0] * (m - 1), m)
                want = Cyclotomic(m, [Fraction(c, da * q.denominator) for c in dense])
                assert form(x * q) == form(q * x) == form(want)
        with pytest.raises(TypeError):
            xs[-1] * 0.5
        with pytest.raises(TypeError):
            0.5 * xs[-1]


def test_parameter_shapes():
    p = CherednikParameter.type_B("1/2", 1)
    assert p.c1 == Fraction(1, 2) and p.kappa == 1
    assert p.b_integral_m() is None
    assert CherednikParameter.type_B(3, 1).b_integral_m() == 3
    with pytest.raises(ValueError):
        CherednikParameter.type_I2(1, 2, m=7)
    with pytest.raises(ValueError):
        CherednikParameter("A", (1, 2))
    assert CherednikParameter.type_A(0).is_zero()
    assert CherednikParameter.type_B(1, 0).to_json() == {"c1": "1", "kappa": "0"}


WRONG_TYPE_ACCESS = """
from cmfamilies.exact import CherednikParameter as P
cases = [
    lambda: P.type_D(3).c1,
    lambda: P.type_I2(1, 2).kappa,
    lambda: P.type_A(1).a,
    lambda: P.type_B(1, 1).c,
    lambda: P.type_D(0).b_integral_m(),
]
for case in cases:
    try:
        print("returned", case())
    except AttributeError:
        print("AttributeError")
"""


def test_wrong_type_accessors_raise_under_optimize():
    # python -O strips assert statements; the accessors must not rely on them
    src = str(Path(cmfamilies.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-O", "-c", WRONG_TYPE_ACCESS], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout.split("\n")[:-1] == ["AttributeError"] * 5
