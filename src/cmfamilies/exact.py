"""Exact arithmetic: residue multisets (the family keys of types B and D),
cyclotomic fields Q(zeta_m), and Cherednik parameters as exact rationals."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd, lcm
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


def charged_contents(lam: Partition, shift: int, step: int) -> tuple[int, ...]:
    """shift + step*c over the contents c of lam, sorted: one component's
    exponents in charged_residue, with shift its m_i and step m_p."""
    return tuple(sorted([shift + step * c for c in contents(lam)]))


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


@cache
def _phi_tail(m: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """deg Phi_m and the nonzero coefficients (j, phi_j) of Phi_m below x^deg."""
    phi = cyclotomic_poly(m)
    return len(phi) - 1, tuple((j, c) for j, c in enumerate(phi[:-1]) if c)


class Cyclotomic:
    """Q(zeta_m) = Q[x]/Phi_m(x), x a primitive m-th root of unity: phi(m) int numerators
    coeffs over one int den > 0, in lowest terms (zero is 0s over 1), so == and hash
    compare tuples.  Elements of two conductors are equal only when both are the same
    rational.  Coefficients and scalars are ints or Fractions, never floats."""

    __slots__ = ("m", "coeffs", "den")

    def __new__(cls, m: int, coeffs: Iterable = ()):
        cs = list(coeffs)
        if not all(isinstance(c, (int, Fraction)) for c in cs):
            raise TypeError("Cyclotomic coefficients are ints or Fractions")
        den = lcm(*(c.denominator for c in cs))
        return cls._new(m, [c.numerator * (den // c.denominator) for c in cs], den)

    @classmethod
    def _new(cls, m: int, nums: list[int], den: int) -> "Cyclotomic":
        """sum_i nums[i] x^i / den, reduced mod Phi_m (monic, so in ints) and to lowest terms.
        nums is a fresh list: the reduction may write to it."""
        deg, tail = _phi_tail(m)
        if len(nums) > deg:
            for i in range(len(nums) - 1, deg - 1, -1):
                c = nums[i]
                if c:
                    for j, p in tail:
                        nums[i - deg + j] -= c * p
            del nums[deg:]
        elif len(nums) < deg:
            nums += [0] * (deg - len(nums))
        if den != 1 and (g := gcd(den, *nums)) != 1:
            nums = [c // g for c in nums]
            den //= g
        self = object.__new__(cls)
        self.m, self.coeffs, self.den = m, tuple(nums), den
        return self

    @classmethod
    def zero(cls, m: int) -> "Cyclotomic":
        return cls._new(m, [], 1)

    @classmethod
    def from_rational(cls, m: int, q) -> "Cyclotomic":
        return cls(m, [q])

    @classmethod
    def zeta(cls, m: int, k: int = 1) -> "Cyclotomic":
        return cls._new(m, [0] * (k % m) + [1], 1)

    def __add__(self, other):
        a, da = self.coeffs, self.den
        if isinstance(other, Cyclotomic):
            if self.m != other.m:
                raise ValueError("mixed conductors")
            b, db = other.coeffs, other.den
            if da == db:
                return Cyclotomic._new(self.m, [x + y for x, y in zip(a, b)], da)
            return Cyclotomic._new(self.m, [x * db + y * da for x, y in zip(a, b)], da * db)
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        nums = [x * other.denominator for x in a]
        nums[0] += other.numerator * da
        return Cyclotomic._new(self.m, nums, da * other.denominator)

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic._new(self.m, [-x for x in self.coeffs], self.den)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        """A rational factor scales the other; else each nonzero coefficient of
        self times each nonzero one of other, then one reduction."""
        a = self.coeffs
        if isinstance(other, Cyclotomic):
            if self.m != other.m:
                raise ValueError("mixed conductors")
            b, den = other.coeffs, self.den * other.den
            if not any(b[1:]):
                y = b[0]
                return Cyclotomic._new(self.m, [x * y for x in a], den)
            if not any(a[1:]):
                x = a[0]
                return Cyclotomic._new(self.m, [x * y for y in b], den)
            nb = [(j, y) for j, y in enumerate(b) if y]
            out = [0] * (2 * len(a) - 1)
            for i, x in enumerate(a):
                if x:
                    for j, y in nb:
                        out[i + j] += x * y
            return Cyclotomic._new(self.m, out, den)
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        p, q = other.numerator, other.denominator
        return Cyclotomic._new(self.m, [x * p for x in a], self.den * q)

    __rmul__ = __mul__

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugation zeta -> zeta^{-1}: x^i -> x^{-i mod m}, then one reduction."""
        m = self.m
        out = [0] * m
        for i, x in enumerate(self.coeffs):
            out[-i % m] = x
        return Cyclotomic._new(m, out, self.den)

    def __bool__(self) -> bool:
        """False exactly for zero, as for Fraction."""
        return any(self.coeffs)

    def __eq__(self, other) -> bool:
        a = self.coeffs
        if isinstance(other, Cyclotomic):
            b = other.coeffs
            if self.m != other.m:  # equal only as the same rational, as the hash has it
                return a[0] == b[0] and self.den == other.den and not any(a[1:]) and not any(b[1:])
            return self.den == other.den and a == b
        if isinstance(other, (int, Fraction)):
            return a[0] == other.numerator and self.den == other.denominator and not any(a[1:])
        return NotImplemented

    def __hash__(self) -> int:
        """A rational element hashes as its Fraction value, which it equals."""
        a = self.coeffs
        return hash((self.m, self.den, a) if any(a[1:]) else Fraction(a[0], self.den))

    def __repr__(self) -> str:
        bits = [f"{Fraction(c, self.den)}*z^{i}" for i, c in enumerate(self.coeffs) if c]
        return " + ".join(bits) if bits else "0"


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

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

    def to_json(self) -> dict:
        names = coxeter.lookup(self.type_tag).params
        return {k: str(v) for k, v in zip(names, self.values)}
