"""Exact arithmetic: residue multisets (the family keys of types B and D),
cyclotomic fields Q(zeta_m), and Cherednik parameters as exact rationals."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Iterable

from . import coxeter
from .partitions import Bipartition, Partition, contents


# ---------------------------------------------------------------------------
# Residues: the family keys of types B and D, as sorted multisets
# ---------------------------------------------------------------------------

def residue(lam: Partition) -> tuple[int, ...]:
    """The contents of the boxes of lam, as a sorted tuple."""
    return contents(lam)


def charged_residue(bp: Bipartition, charge) -> tuple:
    """The exponents of x^{m0} Res_{lam0}(x^{mp}) + x^{m1} Res_{lam1}(x^{mp}),
    with multiplicity, as a sorted tuple."""
    m0, m1, mp = charge
    exponents = [m0 + mp * c for c in residue(bp[0])] + [m1 + mp * c for c in residue(bp[1])]
    return tuple(sorted(exponents))


# ---------------------------------------------------------------------------
# Cyclotomic field Q(zeta_m)
# ---------------------------------------------------------------------------

def _poly_divmod_int(num: list[int], den: list[int]) -> list[int]:
    """Exact quotient of integer polynomials (den monic, remainder known zero)."""
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        coef = num[i + len(den) - 1]
        q[i] = coef
        if coef:
            for j, d in enumerate(den):
                num[i + j] -= coef * d
    if any(num[: len(den) - 1]):
        raise ArithmeticError("nonzero remainder in cyclotomic division")
    return q


@cache
def cyclotomic_poly(m: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the m-th cyclotomic polynomial."""
    if m < 1:
        raise ValueError("m >= 1 required")
    num = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            num = _poly_divmod_int(num, list(cyclotomic_poly(d)))
    return tuple(num)


class Cyclotomic:
    """Residue class in Q[x]/Phi_m(x); x is a primitive m-th root of unity."""

    __slots__ = ("m", "coeffs")

    def __init__(self, m: int, coeffs: Iterable = ()):
        self.m = m
        phi = cyclotomic_poly(m)
        deg = len(phi) - 1
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > deg:
            cs = self._reduce(cs, phi)
        cs += [Fraction(0)] * (deg - len(cs))
        self.coeffs = tuple(cs)

    @staticmethod
    def _reduce(cs: list[Fraction], phi: tuple[int, ...]) -> list[Fraction]:
        deg = len(phi) - 1
        cs = list(cs)
        for i in range(len(cs) - 1, deg - 1, -1):
            c = cs[i]
            if c:
                for j in range(len(phi)):
                    cs[i - deg + j] -= c * phi[j]
        return cs[:deg]

    @classmethod
    def zero(cls, m: int) -> "Cyclotomic":
        return cls(m)

    @classmethod
    def from_rational(cls, m: int, q) -> "Cyclotomic":
        return cls(m, [Fraction(q)])

    @classmethod
    def zeta(cls, m: int, k: int = 1) -> "Cyclotomic":
        k %= m
        return cls(m, [0] * k + [1])

    def _check(self, other: "Cyclotomic"):
        if self.m != other.m:
            raise ValueError("mixed conductors")

    def __add__(self, other):
        if not isinstance(other, Cyclotomic):
            other = Cyclotomic.from_rational(self.m, other)
        self._check(other)
        return Cyclotomic(self.m, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.m, [-a for a in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, Cyclotomic):
            other = Cyclotomic.from_rational(self.m, other)
        return self + (-other)

    def __rsub__(self, other):
        return Cyclotomic.from_rational(self.m, other) - self

    def __mul__(self, other):
        if not isinstance(other, Cyclotomic):
            q = Fraction(other)
            return Cyclotomic(self.m, [a * q for a in self.coeffs])
        self._check(other)
        out = [Fraction(0)] * (2 * len(self.coeffs))
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
        return Cyclotomic(self.m, out)

    __rmul__ = __mul__

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugation: zeta -> zeta^{-1}."""
        out = Cyclotomic.zero(self.m)
        for i, a in enumerate(self.coeffs):
            if a:
                out = out + Cyclotomic.zeta(self.m, -i) * a
        return out

    def __bool__(self) -> bool:
        """False exactly for zero, as for Fraction."""
        return any(self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not rational")
        return self.coeffs[0]

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.from_rational(self.m, other)
        return isinstance(other, Cyclotomic) and self.m == other.m and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.m, self.coeffs))

    def __repr__(self) -> str:
        bits = [f"{c}*z^{i}" for i, c in enumerate(self.coeffs) if c]
        return " + ".join(bits) if bits else "0"

    def to_json(self) -> list[str]:
        return [str(c) for c in self.coeffs]


def cyclotomic_sum_check(i: int, m: int) -> bool:
    """True iff sum_{l<m} zeta^{il} = 0; must equal (i mod m != 0)."""
    if m < 1:
        raise ValueError("m >= 1 required")
    total = Cyclotomic.zero(m)
    for l in range(m):
        total = total + Cyclotomic.zeta(m, i * l)
    return not total


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

def parse_rational(text) -> Fraction:
    """Parse "p", "p/q", "-p/q" into an exact rational."""
    return Fraction(text)


@dataclass(frozen=True)
class CherednikParameter:
    """Exact rational parameter, one value per name in the type's table entry."""

    type_tag: str  # a key of coxeter.TYPES
    values: tuple[Fraction, ...]

    def __post_init__(self):
        names = coxeter.lookup(self.type_tag).params
        vals = tuple(Fraction(v) for v in self.values)
        if len(vals) != len(names):
            raise ValueError(f"type {self.type_tag} needs {len(names)} value(s)")
        object.__setattr__(self, "values", vals)

    # constructors -----------------------------------------------------------
    @classmethod
    def type_A(cls, c) -> "CherednikParameter":
        return cls("A", (Fraction(c),))

    @classmethod
    def type_B(cls, c1, kappa) -> "CherednikParameter":
        return cls("B", (Fraction(c1), Fraction(kappa)))

    @classmethod
    def type_D(cls, kappa) -> "CherednikParameter":
        return cls("D", (Fraction(kappa),))

    @classmethod
    def type_I2(cls, a, b, m: int | None = None) -> "CherednikParameter":
        a, b = Fraction(a), Fraction(b)
        if m is not None and m % 2 == 1 and a != b:
            raise ValueError("odd m forces a = b (one reflection class)")
        return cls("I2", (a, b))

    # accessors --------------------------------------------------------------
    def _value(self, name: str) -> Fraction:
        """The value of the parameter called name; AttributeError if the type has none."""
        names = coxeter.lookup(self.type_tag).params
        if name not in names:
            raise AttributeError(f"type {self.type_tag} has no parameter {name!r}")
        return self.values[names.index(name)]

    c = property(lambda self: self._value("c"))
    c1 = property(lambda self: self._value("c1"))
    kappa = property(lambda self: self._value("kappa"))
    a = property(lambda self: self._value("a"))
    b = property(lambda self: self._value("b"))

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)

    # type-B classification --------------------------------------------------
    def b_integral_m(self) -> int | None:
        """For type B with kappa != 0: c1/kappa if it is an integer, else None."""
        c1, kappa = self.c1, self.kappa
        if kappa == 0:
            return None
        q = c1 / kappa
        return int(q) if q.denominator == 1 else None

    def b_is_singular(self, n: int) -> bool:
        """Type B: parameter lies on the singular locus for B_n."""
        m = self.b_integral_m()
        return self.kappa == 0 or (m is not None and abs(m) <= n - 1)

    def to_json(self) -> dict:
        names = coxeter.lookup(self.type_tag).params
        return {k: str(v) for k, v in zip(names, self.values)}
