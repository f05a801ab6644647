import os
import subprocess
import sys
from fractions import Fraction
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
    cyclotomic_sum_check,
    parse_rational,
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
    m, i = args
    assert cyclotomic_sum_check(i, m) == (i % m != 0)


def test_parse_rational():
    assert parse_rational("3/2") == Fraction(3, 2)
    assert parse_rational("-1") == -1
    with pytest.raises(ValueError):
        parse_rational("x")


def test_parameter_shapes():
    p = CherednikParameter.type_B("1/2", 1)
    assert p.c1 == Fraction(1, 2) and p.kappa == 1
    assert p.b_integral_m() is None
    assert CherednikParameter.type_B(3, 1).b_integral_m() == 3
    assert CherednikParameter.type_B(-2, 1).b_is_singular(3)
    assert not CherednikParameter.type_B(3, 1).b_is_singular(3)
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
    lambda: P.type_I2(1, 1).b_is_singular(3),
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
    assert proc.stdout.split("\n")[:-1] == ["AttributeError"] * 6
