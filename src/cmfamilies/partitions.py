"""Partitions, bipartitions and the combinatorial maps built on them.

Partitions are tuples of weakly decreasing positive integers (no trailing
zeros); the empty tuple is the unique partition of 0.  Bipartitions are pairs
of partitions.  Labels for type D irreducibles are unordered bipartitions,
possibly carrying a split index when the two components coincide.
"""
from __future__ import annotations

from collections.abc import Iterator
from functools import cache

Partition = tuple[int, ...]
Bipartition = tuple[Partition, Partition]


def is_partition(parts) -> bool:
    """True if parts is a weakly decreasing tuple of positive integers."""
    if not isinstance(parts, tuple):
        return False
    for i, p in enumerate(parts):
        if not isinstance(p, int) or p < 1:
            return False
        if i > 0 and parts[i - 1] < p:
            return False
    return True


@cache
def partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n, in descending lexicographic order."""
    if n < 0:
        return ()
    if n == 0:
        return ((),)

    def gen(remaining: int, largest: int) -> Iterator[Partition]:
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, largest), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first, *rest)

    return tuple(gen(n, n))


@cache
def bipartitions(n: int) -> tuple[Bipartition, ...]:
    """All bipartitions (lam0, lam1) with |lam0| + |lam1| = n."""
    out = []
    for r in range(n + 1):
        for a in partitions(r):
            for b in partitions(n - r):
                out.append((a, b))
    return tuple(out)


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram."""
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > i) for i in range(lam[0]))


@cache
def contents(lam: Partition) -> tuple[int, ...]:
    """Multiset {j - i : (i, j) a box of lam} (0-based), as a sorted tuple."""
    return tuple(sorted([j - i for i, row in enumerate(lam) for j in range(row)]))


def fits_in_box(lam: Partition, k: int, m: int) -> bool:
    """True iff lam fits inside the rectangle (k^(k+m))."""
    return len(lam) <= k + m and (not lam or lam[0] <= k)


def dagger(lam: Partition, k: int, m: int) -> Partition:
    """Box complement dual inside (k^(k+m)): transpose of the reversed complement.

    The i-th part is #{j in [1, k+m] : k - lam_{k+m+1-j} >= i}; concretely the
    conjugate of the complement row lengths (k - lam_j) read bottom-up.
    """
    if k < 1 or m < 0:
        raise ValueError("need k >= 1 and m >= 0")
    if not fits_in_box(lam, k, m):
        raise ValueError(f"{lam} does not fit in the box ({k}^{k + m})")
    padded = lam + (0,) * (k + m - len(lam))
    complement = tuple(sorted((k - p for p in padded), reverse=True))
    # strip trailing zeros before conjugating
    complement = tuple(p for p in complement if p > 0)
    return conjugate(complement)


@cache
def subpartitions_of_box(k: int, m: int) -> tuple[Partition, ...]:
    """All partitions fitting inside (k^(k+m))."""
    out = []
    for n in range(k * (k + m) + 1):
        for lam in partitions(n):
            if fits_in_box(lam, k, m):
                out.append(lam)
    return tuple(out)


@cache
def _fits(parts: Partition, room: tuple[int, ...]) -> bool:
    """True iff the parts (largest first) can be placed into bins with the
    free space room (sorted), a bin of each distinct free space tried once.
    The callers keep sum(parts) = sum(room), so placing every part fills
    every bin."""
    if not parts:
        return True
    p, rest = parts[0], parts[1:]
    return any(
        _fits(rest, tuple(sorted(room[:i] + (r - p,) + room[i + 1:])))
        for i, r in enumerate(room)
        if r >= p and (i == 0 or room[i - 1] != r)
    )


@cache
def refinement_le(lam: Partition, mu: Partition) -> bool:
    """True iff the parts of lam can be grouped into sums giving the parts of mu.

    Equivalently the Young subgroup S_lam embeds in S_mu up to conjugacy.
    """
    if sum(lam) != sum(mu):
        raise ValueError("refinement_le needs partitions of the same n")
    return _fits(lam, tuple(sorted(mu)))


# ---------------------------------------------------------------------------
# Unordered bipartitions (type D labels)
# ---------------------------------------------------------------------------

DLabel = tuple[Partition, Partition, int | None]
"""(first, second, split): first >= second in tuple order; split is None for
first != second and 1 or 2 when first == second."""


def d_label(lam: Partition, mu: Partition, split: int | None = None) -> DLabel:
    """Canonical unordered-bipartition label for type D."""
    first, second = (lam, mu) if lam >= mu else (mu, lam)
    if first == second:
        if split not in (1, 2):
            raise ValueError("equal components need a split index 1 or 2")
        return (first, second, split)
    if split is not None:
        raise ValueError("split index only allowed for equal components")
    return (first, second, None)


@cache
def d_labels(n: int) -> tuple[DLabel, ...]:
    """All type-D irreducible labels for D_n: {lam, mu} once, as (lam, mu)
    with lam > mu, and {lam, lam} split in two."""
    out = []
    for lam, mu in bipartitions(n):
        if lam == mu:
            out += [(lam, mu, 1), (lam, mu, 2)]
        elif lam > mu:
            out.append((lam, mu, None))
    return tuple(out)


# ---------------------------------------------------------------------------
# Text forms
# ---------------------------------------------------------------------------

def format_partition(lam: Partition) -> str:
    return "[" + ",".join(str(p) for p in lam) + "]"


def format_bipartition(bp: Bipartition) -> str:
    return "[" + ",".join(str(p) for p in bp[0]) + "|" + ",".join(str(p) for p in bp[1]) + "]"


def parse_bipartition(text: str) -> Bipartition:
    """Parse the text form "[2,1|1]" (empty components allowed: "[|1,1]")."""
    body = text.strip()
    if not (body.startswith("[") and body.endswith("]")) or "|" not in body:
        raise ValueError(f"not a bipartition: {text!r}")
    left, right = body[1:-1].split("|", 1)

    def side(s: str) -> Partition:
        s = s.strip()
        if not s:
            return ()
        try:
            parts = tuple(int(x) for x in s.split(","))
        except ValueError:
            parts = None
        if not is_partition(parts):
            raise ValueError(f"not a bipartition: {text!r}")
        return parts

    return (side(left), side(right))


def format_d_label(lab: DLabel) -> str:
    first, second, split = lab
    base = "{" + format_partition(first) + "," + format_partition(second) + "}"
    return base + (f"_{split}" if split else "")
