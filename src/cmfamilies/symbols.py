"""Type-B two-row symbols: construction with its weight check, the content
key, the integral rows and the weight from which the type-B Lusztig key
builds that content without a symbol, and the bar operation."""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cache
from math import comb

from .partitions import Bipartition, Partition

Rational = int | Fraction

MAX_ROW = 100_000
"""The most entries a symbol row may have: symbol_of and bar refuse more."""


def _point(c1, kappa) -> tuple[Rational, Rational]:
    """(c1, kappa) as ints when both are integers, else as Fractions."""
    if type(c1) is int and type(kappa) is int:
        return c1, kappa
    c1, kappa = Fraction(c1), Fraction(kappa)
    if c1.denominator == kappa.denominator == 1:
        return int(c1), int(kappa)
    return c1, kappa


class BSymbol(namedtuple("BSymbol", "beta gamma m kappa r")):
    """Two-row symbol: beta has length N+m, gamma length N.

    Both rows are nonnegative and strictly increasing, with beta_i = r and
    gamma_j = 0 (mod kappa), 0 <= r < kappa.  symbol_of and bar, the only
    builders, make rows that hold this by construction.  The entries are
    ints at an integral point and Fractions elsewhere.
    """

    # beta, gamma: tuple[Rational, ...]; m: int; kappa, r: Rational
    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "beta": [str(b) for b in self.beta],
            "gamma": [str(g) for g in self.gamma],
            "m": self.m,
            "kappa": str(self.kappa),
            "r": str(self.r),
        }


@cache
def _betas(lam: Partition) -> tuple[int, ...]:
    """p_i + i for p = lam reversed: the len(lam) beta-numbers of lam."""
    return tuple([p + i for i, p in enumerate(reversed(lam))])


def _row(lam: Partition, length: int, kappa: Rational, r: Rational) -> tuple:
    """kappa*(p_i + i) + r for i = 0 .. length-1, where p is lam reversed and
    zero-padded in front to length: the beta-numbers of lam, scaled.  At
    kappa = 1, r = 0 that is 0 .. pad-1, then the cached _betas(lam) plus pad."""
    pad = length - len(lam)
    if kappa == 1 and r == 0:
        return (*range(pad), *map(pad.__add__, _betas(lam)))
    parts = (0,) * pad + lam[::-1]
    return tuple([kappa * (p + i) + r for i, p in enumerate(parts)])


def integral_row(lam: Partition, length: int) -> tuple[tuple[int, ...], int]:
    """The row of lam at kappa = 1, r = 0, zero-padded to length, and its sum:
    what symbol_of builds and weighs for one component at an integral point."""
    row = _row(lam, length, 1, 0)
    return row, sum(row)


def symbol_of(bp: Bipartition, N: int, c1, kappa) -> BSymbol:
    """The symbol Sy^N_{(c1,kappa);n}(bp); its entries are ints when c1 and
    kappa are integers."""
    c1, kappa = _point(c1, kappa)
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    if c1 < 0:
        raise ValueError("c1 must be nonnegative")
    m = int(c1 // kappa)
    if N + m > MAX_ROW:
        raise ValueError(f"N + m exceeds the symbol row bound {MAX_ROW}")
    r = c1 - m * kappa
    lam0, lam1 = bp
    if len(lam0) > N + m or len(lam1) > N:
        raise ValueError(f"N={N} not large enough for {bp}")
    s = BSymbol(_row(lam0, N + m, kappa, r), _row(lam1, N, kappa, 0), m, kappa, r)
    if weight(s) != expected_weight(sum(lam0) + sum(lam1), N, c1, kappa):
        raise AssertionError("weight equation violated")
    return s


def weight(s: BSymbol) -> Rational:
    return sum(s.beta) + sum(s.gamma)


def expected_weight(n: int, N: int, c1, kappa) -> Rational:
    c1, kappa = _point(c1, kappa)
    m = int(c1 // kappa)
    r = c1 - m * kappa
    return n * kappa + kappa * N * N + N * (c1 - kappa) + kappa * comb(m, 2) + r * m


def content_key(s: BSymbol) -> tuple:
    """The content multiset as a sorted tuple."""
    return tuple(sorted(s.beta + s.gamma))


def bar(s: BSymbol, t: int | None = None) -> BSymbol:
    """Sign-twist symbol: rows {0..t} minus {t - gamma_j} and {0..t} minus {t - beta_i}.

    Integral case only; t defaults to the largest entry of s.
    """
    if s.kappa != 1 or s.r != 0:
        raise ValueError("bar is defined in the integral case kappa=1, r=0")
    top = max((*s.beta, *s.gamma), default=0)
    if t is None:
        t = top
    if t < top:
        raise ValueError(f"t={t} below the largest entry {top}")
    if t + 1 > MAX_ROW:
        raise ValueError(f"t + 1 exceeds the symbol row bound {MAX_ROW}")
    full = set(range(t + 1))
    new_beta = tuple(sorted(full - {t - g for g in s.gamma}))
    new_gamma = tuple(sorted(full - {t - b for b in s.beta}))
    return BSymbol(new_beta, new_gamma, s.m, s.kappa, s.r)
