"""The dihedral reference tables (JSON files in fixtures/) that verify suites
4 and 5 compare the first-principles I2(m) results against: rigid modules
(table 1), families (table 2) and j-induction (table 4), one row per
parameter regime, with tokens for the label sets that depend on m."""
from __future__ import annotations

import json
from fractions import Fraction
from functools import cache
from importlib import resources

from ..reps import i2_labels


@cache
def load_fixture(name: str) -> dict:
    path = resources.files("cmfamilies") / "fixtures" / f"{name}.json"
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        raise KeyError(f"unknown fixture {name!r}") from None


def _expand_tokens(labels: list[str], m: int) -> list[str]:
    """Replace the symbolic tokens used in the dihedral tables.

    "F" / "Chi" stand for all two-dimensional labels; "R" for the
    two-dimensional labels that are rigid at every nonzero parameter;
    "phi_(m-2)/2" for the label at the excluded even index.
    """
    two_dim = [lab for lab in i2_labels(m) if lab.startswith("phi_")]
    out: list[str] = []
    for lab in labels:
        if lab in ("F", "Chi"):
            out.extend(two_dim)
        elif lab == "R":
            excluded = {"phi_1"}
            if m % 2 == 0:
                excluded.add(f"phi_{(m - 2) // 2}")
            out.extend(l for l in two_dim if l not in excluded)
        elif lab == "phi_(m-2)/2":
            if m % 2 != 0:
                raise ValueError("even-m token in an odd-m row")
            out.append(f"phi_{(m - 2) // 2}")
        else:
            if lab not in i2_labels(m):
                raise ValueError(f"unknown label {lab!r} for m={m}")
            out.append(lab)
    return out


def _regime(m: int, a: Fraction, b: Fraction) -> str:
    if m % 2 == 1:
        if a != b:
            raise ValueError("odd m forces a = b")
        return "b=a>0" if a > 0 else "zero"
    if a == b:
        return "b=a>0" if a > 0 else "zero"
    if b > a:
        return "b>a>0" if a > 0 else "b>a=0"
    return "a>b>0" if b > 0 else "a>b=0"


def table1_rigid(m: int, a, b) -> list[str]:
    """Expected rigid labels from the reference table (nonzero parameters)."""
    a, b = Fraction(a), Fraction(b)
    data = load_fixture("dihedral_table1")
    rows = data["rows_odd"] if m % 2 else data["rows_even"]
    if a == b != 0:
        regime = "equal"
    elif a == -b != 0:
        regime = "opposite"
    elif a != 0 and b != 0:
        regime = "generic"
    elif (a == 0) != (b == 0):
        regime = "one_zero"
    else:
        raise ValueError("table covers nonzero parameters only")
    row = next(r for r in rows if r["regime"] == regime)
    return sorted(_expand_tokens(row["rigid"], m))


def table2_families(m: int, a, b) -> frozenset[frozenset[str]]:
    """Expected family partition from the reference table (a, b > 0 regimes only)."""
    a, b = Fraction(a), Fraction(b)
    data = load_fixture("dihedral_table2")
    rows = data["rows_odd"] if m % 2 else data["rows_even"]
    regime = _regime(m, a, b)
    row = next(r for r in rows if r["regime"] == regime)
    return frozenset(frozenset(_expand_tokens(f, m)) for f in row["families"])


def table4_j_induction(m: int, a, b) -> dict[tuple[int, str], set[str]]:
    """Expected j-induction constituents for even m, keyed by (parabolic, chi)."""
    a, b = Fraction(a), Fraction(b)
    if m % 2:
        raise ValueError("table covers even m")
    data = load_fixture("dihedral_table4")
    regime = _regime(m, a, b)
    row = next(r for r in data["rows"] if r["regime"] == regime)
    return {
        (1, "1"): set(_expand_tokens(row["P1_1"], m)),
        (1, "psi"): set(_expand_tokens(row["P1_psi"], m)),
        (2, "1"): set(_expand_tokens(row["P2_1"], m)),
        (2, "psi"): set(_expand_tokens(row["P2_psi"], m)),
    }
