"""Seeded query lists for the three benchmark workloads.

A workload is a fixed sequence of queries.  The seed only picks parameter
values inside fixed regimes (each regime keeps its own band), so the work in
one session stays comparable from seed to seed.

A query is a dict:
  kind   "cli" (argv for cmfamilies.cli.main) or "suite" (a verify suite key)
  argv   / suite
  check  how the answer is checked against the independent path:
         "exit"    the query exits 0 (its answer is checked by a later one)
         "equal"   families --method both must report "equal": true
         "pair"    rigid oracle labels must equal the closed-form labels of
                   the query named by "pair" (its index in the list)
         "suite"   the suite passes with exactly "checks" checks
"""
from __future__ import annotations

import random
from fractions import Fraction

DEFAULT_SEED = 0

# Check counts of the verify suites at the parent commit; suite 3 is left out
# because rigid-oracle runs the same points through the CLI.
SUITE_CHECKS = {"1": 147, "2": 149, "4": 28, "5": 120, "6": 152, "7": 147, "8": 915, "9": 76}


def _nonintegral(rng: random.Random, lo: int, hi: int) -> Fraction:
    """A rational p/q in (lo, hi) that is not an integer, q in 2..6."""
    while True:
        q = rng.randint(2, 6)
        p = rng.randint(lo * q + 1, hi * q - 1)
        if p % q:
            return Fraction(p, q)


def _positive(rng: random.Random) -> Fraction:
    """A positive rational p/q with 1 <= p <= 5, 1 <= q <= 4."""
    return Fraction(rng.randint(1, 5), rng.randint(1, 4))


def _cli(*argv) -> dict:
    return {"kind": "cli", "argv": [str(a) for a in argv]}


def _families_b(c1, kappa) -> dict:
    q = _cli("families", "--type", "B", "--n", 14, "--c1", c1, "--kappa", kappa,
             "--method", "both")
    q["check"] = "equal"
    return q


def families_large(seed: int) -> list[dict]:
    """B14 (2,665 labels) in six regimes, then D14 (Clifford descent)."""
    rng = random.Random(seed)
    # the cost of an integral point grows with m (symbol rows of length N + m)
    # and so does its output, so each point keeps a narrow band of m
    low, mid, high = rng.randint(1, 3), rng.randint(5, 7), rng.randint(10, 12)
    scaled_m, scale = rng.randint(5, 7), _nonintegral(rng, 0, 3)
    nonint_kappa = _positive(rng)
    nonint = _nonintegral(rng, 0, 13) * nonint_kappa
    degenerate_c1 = _positive(rng)
    d_kappa = _positive(rng)
    queries = [
        _families_b(low, 1),
        _families_b(mid, 1),
        _families_b(high, 1),
        _families_b(scaled_m * scale, scale),
        _families_b(nonint, nonint_kappa),
        _families_b(degenerate_c1, 0),
        _cli("families", "--type", "D", "--n", 14, "--kappa", d_kappa, "--method", "both"),
    ]
    queries[-1]["check"] = "equal"
    return queries


def _rigid_pair(queries: list, size_flag: str, size: int, **param) -> None:
    # "--a=-5/4": argparse would read a separate "-5/4" as an option
    flags = [f"--{k}={v}" for k, v in param.items()]
    type_tag = "I2" if size_flag == "--m" else "B"
    base = ("rigid", "--type", type_tag, size_flag, size, *flags)
    closed = _cli(*base, "--mode", "closed")
    closed["check"] = "exit"
    queries.append(closed)
    oracle = _cli(*base, "--mode", "oracle")
    oracle["check"] = "pair"
    oracle["pair"] = len(queries) - 1
    queries.append(oracle)


def rigid_oracle(seed: int) -> list[dict]:
    """Every suite-3 type-B point through the CLI, then I2(16) in six regimes."""
    rng = random.Random(seed)
    queries: list[dict] = []
    for n in range(1, 6):
        for m in range(-(n - 1), n):
            _rigid_pair(queries, "--n", n, c1=m, kappa=1)
    _rigid_pair(queries, "--n", 4, c1=_nonintegral(rng, 0, 4), kappa=1)
    kappa = _positive(rng)
    _rigid_pair(queries, "--n", 4, c1=_nonintegral(rng, 0, 4) * kappa, kappa=kappa)
    for a, b in ((1, 1), (-1, 1), (1, 2), (2, 1), (0, 1), (1, 0)):
        alpha = _positive(rng)
        _rigid_pair(queries, "--m", 16, a=a * alpha, b=b * alpha)
    return queries


def verify_mix(seed: int) -> list[dict]:
    """verify suites 1, 2 and 4-9, one run_suites call each (grids are fixed)."""
    return [{"kind": "suite", "suite": k, "check": "suite", "checks": n}
            for k, n in SUITE_CHECKS.items()]


WORKLOADS = {
    "families-large": families_large,
    "rigid-oracle": rigid_oracle,
    "verify-mix": verify_mix,
}
