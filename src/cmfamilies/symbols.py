"""Type-B two-row symbols: construction with its weight check, the content
key that groups the Lusztig families, and the bar operation."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .partitions import Bipartition

Rational = int | Fraction


def _exact(x) -> Rational:
    """An int as it is; anything else as a Fraction."""
    return x if type(x) is int else Fraction(x)


def _point(c1, kappa) -> tuple[Rational, Rational]:
    """(c1, kappa) as ints when both are integers, else as Fractions."""
    c1, kappa = _exact(c1), _exact(kappa)
    if c1.denominator == kappa.denominator == 1:
        return int(c1), int(kappa)
    return Fraction(c1), Fraction(kappa)


@dataclass(frozen=True)
class BSymbol:
    """Two-row symbol: beta has length N+m, gamma length N.

    Entries are exact rationals; beta_i = r (mod kappa), gamma_j = 0 (mod kappa).
    An int stays an int and anything else becomes a Fraction, so a symbol
    built at an integral point is int throughout.
    """

    beta: tuple[Rational, ...]
    gamma: tuple[Rational, ...]
    m: int
    kappa: Rational
    r: Rational

    def __post_init__(self):
        beta = tuple(map(_exact, self.beta))
        gamma = tuple(map(_exact, self.gamma))
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "kappa", _exact(self.kappa))
        object.__setattr__(self, "r", _exact(self.r))
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        if not (0 <= self.r < self.kappa):
            raise ValueError("need 0 <= r < kappa")
        if self.m < 0:
            raise ValueError("m must be nonnegative")
        if len(beta) != len(gamma) + self.m:
            raise ValueError("beta must have length N + m")
        for row in (beta, gamma):
            if any(x < 0 for x in row):
                raise ValueError("entries must be nonnegative")
            if any(row[i] >= row[i + 1] for i in range(len(row) - 1)):
                raise ValueError("rows must be strictly increasing")
        for b in beta:
            if (b - self.r) % self.kappa != 0:
                raise ValueError("beta entries must be congruent to r mod kappa")
        for g in gamma:
            if g % self.kappa != 0:
                raise ValueError("gamma entries must be divisible by kappa")

    def to_json(self) -> dict:
        return {
            "beta": [str(b) for b in self.beta],
            "gamma": [str(g) for g in self.gamma],
            "m": self.m,
            "kappa": str(self.kappa),
            "r": str(self.r),
        }


def symbol_of(bp: Bipartition, N: int, c1, kappa) -> BSymbol:
    """The symbol Sy^N_{(c1,kappa);n}(bp); its entries are ints when c1 and
    kappa are integers."""
    c1, kappa = _point(c1, kappa)
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    if c1 < 0:
        raise ValueError("c1 must be nonnegative")
    m = int(c1 // kappa)
    r = c1 - m * kappa
    lam0, lam1 = bp
    if len(lam0) > N + m or len(lam1) > N:
        raise ValueError(f"N={N} not large enough for {bp}")

    def part(lam, i):  # 1-based part with zero padding
        return lam[i - 1] if i <= len(lam) else 0

    beta = tuple(kappa * (part(lam0, N + m - i + 1) + i - 1) + r for i in range(1, N + m + 1))
    gamma = tuple(kappa * (part(lam1, N - j + 1) + j - 1) for j in range(1, N + 1))
    s = BSymbol(beta=beta, gamma=gamma, m=m, kappa=kappa, r=r)
    n = sum(lam0) + sum(lam1)
    if weight(s) != expected_weight(n, N, c1, kappa):
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
        t = int(top)
    if t < top:
        raise ValueError(f"t={t} below the largest entry {top}")
    full = set(range(t + 1))
    new_beta = tuple(sorted(full - {t - int(g) for g in s.gamma}))
    new_gamma = tuple(sorted(full - {t - int(b) for b in s.beta}))
    return BSymbol(beta=new_beta, gamma=new_gamma, m=s.m, kappa=s.kappa, r=s.r)
