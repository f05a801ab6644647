from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmfamilies.partitions import (
    bipartitions,
    conjugate,
    contents,
    d_labels,
    dagger,
    format_bipartition,
    parse_bipartition,
    partitions,
    refinement_le,
    subpartitions_of_box,
)


def small_partitions(max_n):
    return st.integers(0, max_n).flatmap(lambda n: st.sampled_from(partitions(n)))


def test_partition_counts():
    assert [len(partitions(n)) for n in range(9)] == [1, 1, 2, 3, 5, 7, 11, 15, 22]


def test_bipartition_counts():
    # sum over j of p(j) p(n-j)
    for n in range(7):
        want = sum(len(partitions(j)) * len(partitions(n - j)) for j in range(n + 1))
        assert len(bipartitions(n)) == want


def test_conjugate_involution_examples():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate(()) == ()


@given(small_partitions(10))
def test_conjugate_involution(lam):
    assert conjugate(conjugate(lam)) == lam


def test_contents():
    assert contents((2, 1)) == (-1, 0, 1)
    assert contents((3,)) == (0, 1, 2)


def hook_dimension(lam):
    """Number of standard Young tableaux of shape lam (hook length formula)."""
    conj = conjugate(lam)
    prod = 1
    for i, row in enumerate(lam):
        for j in range(row):
            prod *= (row - j) + (conj[j] - i) - 1
    return factorial(sum(lam)) // prod


def test_hook_dimension():
    assert hook_dimension((2, 2)) == 2
    assert hook_dimension((3, 1, 1)) == 6
    for n in range(1, 7):
        assert sum(hook_dimension(lam) ** 2 for lam in partitions(n)) == factorial(n)


def test_dagger_examples():
    assert dagger((), 1, 2) == (3,)
    assert dagger((1,), 1, 2) == (2,)
    assert dagger((2, 1), 2, 1) == (2, 1)
    assert dagger((2, 2, 2), 2, 1) == ()


@given(st.tuples(st.integers(1, 3), st.integers(0, 3)).flatmap(
    lambda km: st.tuples(st.just(km), st.sampled_from(subpartitions_of_box(*km)))
))
def test_dagger_maps_to_transpose_box(args):
    (k, m), lam = args
    dag = dagger(lam, k, m)
    # dag lives in the transposed box: parts <= k+m, at most k parts
    assert len(dag) <= k and (not dag or dag[0] <= k + m)
    assert sum(lam) + sum(dag) == k * (k + m)
    if m == 0:
        assert dagger(dag, k, 0) == lam


def test_dagger_is_injective():
    for k, m in ((2, 1), (1, 2), (3, 0)):
        images = {dagger(lam, k, m) for lam in subpartitions_of_box(k, m)}
        assert len(images) == len(subpartitions_of_box(k, m))


def test_refinement_examples():
    assert refinement_le((1, 1, 1), (3,))
    assert refinement_le((2, 1), (3,))
    assert not refinement_le((3,), (2, 1))
    assert refinement_le((2, 1), (2, 1))
    assert not refinement_le((2, 2), (3, 1))


def _groupings(parts):
    """The sorted block sums of every set partition of the parts."""
    blocks = [[]]
    for p in parts:
        blocks = [b[:i] + [b[i] + p] + b[i + 1:] for b in blocks for i in range(len(b))] \
            + [b + [p] for b in blocks]
    return {tuple(sorted(b, reverse=True)) for b in blocks}


def test_refinement_le_matches_brute_force_grouping():
    for n in range(9):
        for lam in partitions(n):
            reachable = _groupings(lam)
            for mu in partitions(n):
                assert refinement_le(lam, mu) == (mu in reachable), (lam, mu)


@settings(max_examples=80)
@given(small_partitions(8), small_partitions(8), small_partitions(8))
def test_refinement_partial_order(a, b, c):
    if sum(a) != sum(b) or sum(b) != sum(c):
        return
    assert refinement_le(a, a)
    if refinement_le(a, b) and refinement_le(b, a):
        assert a == b
    if refinement_le(a, b) and refinement_le(b, c):
        assert refinement_le(a, c)


def test_d_labels():
    labs = d_labels(2)
    # D_2: {(2),()}, {(1,1),()}, {(1),(1)}+ and {(1),(1)}-
    assert len(labs) == 4
    splits = [l for l in labs if l[2] is not None]
    assert len(splits) == 2


def test_bipartition_text_roundtrip():
    for bp in bipartitions(4):
        assert parse_bipartition(format_bipartition(bp)) == bp
    assert parse_bipartition("[2,1|1]") == ((2, 1), (1,))
    assert parse_bipartition("[|1,1]") == ((), (1, 1))
    with pytest.raises(ValueError):
        parse_bipartition("[1,2|1]")
