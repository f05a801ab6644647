"""The verify suites' family memo: which suites share it, what stays out of
it, and that a defect planted in a family key still fails a suite."""
import ast
from itertools import count
from pathlib import Path

import pytest

from cmfamilies import symbols
from cmfamilies.cli import main
from cmfamilies.exact import CherednikParameter
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
    # every symbol gets a content of its own: each B label is its own
    # Lusztig family, so the CM and Lusztig partitions differ
    fresh = count()
    monkeypatch.setattr(symbols, "content_key", lambda s: next(fresh))
    result = SUITES["1"]()
    assert not result.passed
    assert "B 6 " in result.detail
