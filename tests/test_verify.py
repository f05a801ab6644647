"""The verify suites: which suites share the family memo, what stays out of
it, that they run in one process, and that a planted defect fails a suite
with a message that names where it is."""
import ast
from fractions import Fraction
from itertools import count
from pathlib import Path

import pytest

from cmfamilies import reps, symbols, verify
from cmfamilies.cli import main
from cmfamilies.exact import CherednikParameter, Cyclotomic
from cmfamilies.reps import mat_mul
from cmfamilies.verify import SUITES, _families, run_suites

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cmfamilies"


@pytest.fixture
def fresh_memo():
    """An empty memo before the test, and again after it, so that no
    partition built here reaches a later test."""
    _families.cache_clear()
    yield
    _families.cache_clear()


def test_suites_reuse_suite_1_partitions(fresh_memo):
    # suites 2, 4, 6 and 7 read only partitions that suite 1 has built; both
    # of suite 2's display points are on the B grid
    run_suites(["1"])
    built = _families.cache_info()
    assert built.misses == built.currsize > 0
    run_suites(["2", "4", "6", "7"])
    after = _families.cache_info()
    assert after.misses == built.misses and after.hits > built.hits


def test_memo_keeps_the_methods_apart(fresh_memo):
    p = CherednikParameter.type_B(1, 1)
    assert _families(4, p).method == "CM"
    assert _families(4, p, "Lusztig").method == "Lusztig"
    assert _families.cache_info().currsize == 2


@pytest.mark.parametrize("subcommand", ["families", "cuspidal"])
def test_cli_queries_bypass_the_memo(fresh_memo, capsys, subcommand):
    run_suites(["7"])
    size = _families.cache_info().currsize
    argv = [subcommand, "--type", "B", "--n", "6", "--c1", "1", "--kappa", "1"]
    assert main(argv) == 0
    capsys.readouterr()
    assert _families.cache_info().currsize == size


def test_only_verify_reads_the_memo():
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text())
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        assert ("_families" in names) == (path.name == "verify.py"), path.name


def test_planted_lusztig_defect_fails_suite_1(fresh_memo, monkeypatch):
    # every symbol row gets an entry of its own, its sum left as it was: each
    # B label off c1 = 0 is its own Lusztig family, so the CM and Lusztig
    # partitions differ
    fresh = count(-1, -1)
    real = symbols.integral_row

    def marked(lam, length):
        row, total = real(lam, length)
        return (*row, next(fresh)), total

    monkeypatch.setattr(symbols, "integral_row", marked)
    result = SUITES["1"]()
    assert not result.passed
    assert "B 6 " in result.detail


def test_run_suites_runs_in_one_process():
    with pytest.raises(ValueError, match="one process"):
        run_suites(["5"], jobs=2)
    # the benchmark session's call
    (result,) = run_suites(["5"], jobs=1)
    assert result.passed and result.name.startswith("5 ")


def test_planted_poset_defect_names_the_poset(fresh_memo, monkeypatch):
    real = verify.parabolic_order_refined
    bad = verify.leaves_B(3, 2, 1)
    monkeypatch.setattr(verify, "parabolic_order_refined", lambda lp: lp != bad and real(lp))
    result = SUITES["6"]()
    assert not result.passed
    assert result.detail == "1 failure(s): poset sanity B n=3 m=2"


def test_planted_class_size_defect_fails_i2_orthogonality(monkeypatch):
    # the inner product reads |s| = 1: the inner products over I2(m) are off
    real = reps.i2_classes
    monkeypatch.setattr(reps, "i2_classes",
                        lambda m: tuple((cls, 1 if cls == "s" else size) for cls, size in real(m)))
    result = SUITES["8"]()
    assert not result.passed
    failed = result.detail.split(": ", 1)[1].split("; ")
    assert failed and all(msg.startswith("I2(") and " orth " in msg for msg in failed)
    assert {msg.split()[0] for msg in failed} == {f"I2({m})" for m in range(5, 17)}


def _left_to_right(a, b, k):
    out = a
    for f in range(1, k):
        out = mat_mul(out, b if f % 2 else a)
    return out


def test_alternating_products_match_left_to_right():
    one = Fraction(1)
    pair = (({0: one, 1: Fraction(2)}, {1: Fraction(-3)}), ({0: Fraction(1, 2)}, {0: -one, 1: one}))
    assert mat_mul(*pair) != mat_mul(*pair[::-1])
    t, s1, s2 = reps.build_B_rep(((2,), (1,)))
    pairs = [reps.build_dihedral_rep("phi_1", 16), (t, s1), (s1, s2), (s2, t), pair]
    for a, b in pairs:
        for k in range(1, 18):
            assert verify._alternating(a, b, k) == _left_to_right(a, b, k), k


def _relation_failures(result):
    assert not result.passed
    failed = result.detail.split(": ", 1)[1].split("; ")
    assert all(" relations " in msg for msg in failed)
    return failed


def test_planted_short_alternating_product_fails_suite_8(monkeypatch):
    real = verify._alternating
    monkeypatch.setattr(verify, "_alternating", lambda a, b, k: real(a, b, k - 1))
    failed = _relation_failures(SUITES["8"]())
    assert {msg.split()[0] for msg in failed} >= {"Sn", "Bn"} | {f"I2({m})" for m in range(5, 17)}


def test_planted_dihedral_entry_defect_fails_suite_8(monkeypatch):
    # t's entry (1, 0) reads zeta^(i+1) for zeta^i on every phi_i; the other
    # entry and s are right
    real = verify.build_dihedral_rep

    def planted(label, m):
        s, t = real(label, m)
        if label.startswith("phi_"):
            i = int(label.split("_")[1])
            t = (t[0], {0: Cyclotomic.zeta(m, i + 1)})
        return s, t

    monkeypatch.setattr(verify, "build_dihedral_rep", planted)
    failed = _relation_failures(SUITES["8"]())
    assert failed == [f"I2({m}) relations {lab}" for m in range(5, 17)
                      for lab in reps.i2_labels(m) if lab.startswith("phi_")]
