"""Acceptance gate: one test per verification criterion, each printing a
single pass/fail line and pinning the criterion's check count."""
import time

import pytest

from cmfamilies.verify import SUITES

CRITERIA = {
    "1": (147, "families CM = Lusztig on the full grid", 60.0),
    "2": (149, "cuspidal families agree and match the box classification", 60.0),
    "3": (27, "type-B rigid closed form = equation oracle", 120.0),
    "4": (28, "dihedral families/rigid/cuspidal from first principles", 120.0),
    "5": (120, "dihedral j-induction rows", 60.0),
    "6": (152, "symplectic-leaf posets", 60.0),
    "7": (147, "rigid implies cuspidal on the full grid", 60.0),
    "8": (915, "structural oracles (relations, characters, branching, JM)", 120.0),
    "9": (76, "symmetry suites (component swap, rescaling)", 60.0),
}


@pytest.mark.parametrize("key", sorted(SUITES))
def test_criterion(key, capsys):
    count, description, budget = CRITERIA[key]
    t0 = time.time()
    result = SUITES[key]()
    elapsed = time.time() - t0
    status = "PASS" if result.passed else "FAIL"
    with capsys.disabled():
        print(f"criterion {key} [{status}] {description}: {result.detail} ({elapsed:.1f}s)")
    assert result.passed, f"criterion {key}: {result.detail}"
    assert result.detail == f"{count} checks"
    assert elapsed < budget, f"criterion {key} exceeded {budget}s ({elapsed:.1f}s)"
