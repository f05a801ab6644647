#!/usr/bin/env python3
"""Compare the closed-form rigid classification against the brute-force
rigidity-equation oracle over the desk-scale grid, with timings.

Usage: python scripts/rigid_scan.py [--max-n N] [--max-m M]

The bounds default to the oracle bounds in the type table (`coxeter.TYPES`).
--max-n bounds type B, and type D up to D's own oracle bound.
"""
import argparse
import time

from cmfamilies import coxeter
from cmfamilies.cuspidal import rigid_modules
from cmfamilies.exact import CherednikParameter


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-n", type=int, default=coxeter.lookup("B").oracle_max)
    ap.add_argument("--max-m", type=int, default=coxeter.lookup("I2").oracle_max)
    args = ap.parse_args()

    t0 = time.time()
    for n in range(1, args.max_n + 1):
        for m in range(-(n - 1), n):
            param = CherednikParameter.type_B(m, 1)
            cf = rigid_modules(n, param, mode="closed_form")
            orc = rigid_modules(n, param, mode="equation_oracle")
            status = "ok" if cf == orc else "MISMATCH"
            print(f"B n={n} m={m:+d}: {len(cf)} rigid, oracle {status}")
    print(f"-- type B done in {time.time() - t0:.1f}s")

    t0 = time.time()
    for n in range(2, min(args.max_n, coxeter.lookup("D").oracle_max) + 1):
        for kappa in (1, -1):
            param = CherednikParameter.type_D(kappa)
            cf = rigid_modules(n, param, mode="closed_form")
            orc = rigid_modules(n, param, mode="equation_oracle")
            status = "ok" if cf == orc else "MISMATCH"
            print(f"D n={n} kappa={kappa:+d}: {len(cf)} rigid, oracle {status}")
    print(f"-- type D done in {time.time() - t0:.1f}s")

    t0 = time.time()
    for m in range(5, args.max_m + 1):
        params = (
            [(1, 1)] if m % 2 else [(1, 1), (-1, 1), (1, 2), (2, 1), (0, 1), (1, 0)]
        )
        for a, b in params:
            param = CherednikParameter.type_I2(a, b)
            cf = rigid_modules(m, param, mode="closed_form")
            orc = rigid_modules(m, param, mode="equation_oracle")
            status = "ok" if cf == orc else "MISMATCH"
            print(f"I2({m}) a={a} b={b}: rigid {cf} oracle {status}")
    print(f"-- dihedral done in {time.time() - t0:.1f}s")


if __name__ == "__main__":
    main()
