#!/usr/bin/env python3
"""Scan a parameter grid and report, per point, the number of families, the
CM=Lusztig equality flag, and the cuspidal family (if any).

Usage: python scripts/family_grid_scan.py [--max-n 8]
"""
import argparse
import time

from cmfamilies.cuspidal import annotated_families
from cmfamilies.families import lusztig_families
from cmfamilies.verify import _full_grid


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-n", type=int, default=8)
    args = ap.parse_args()
    t0 = time.time()
    rows = 0
    for size, param in _full_grid(args.max_n):
        cm = annotated_families(size, param, "CM")
        lu = lusztig_families(size, param)
        cusp = [f for f in cm.families if f.cuspidal]
        cusp_desc = f"cuspidal size {len(cusp[0].members)}" if cusp else "no cuspidal"
        print(
            f"{param.type_tag:>2} size={size:<2} param={param.to_json()} "
            f"families={len(cm.families):<3} equal={cm.as_sets() == lu.as_sets()} {cusp_desc}"
        )
        rows += 1
    print(f"-- {rows} grid points in {time.time() - t0:.1f}s")


if __name__ == "__main__":
    main()
