import json
from pathlib import Path

import pytest
from test_symbols import symbol_from_json

from cmfamilies import fixtures as fx
from cmfamilies.cuspidal import annotated_families, cuspidal_families
from cmfamilies.exact import CherednikParameter
from cmfamilies.partitions import is_partition

# reference data that only the tests read
DATA = Path(__file__).resolve().parent / "data"


def _data(name: str) -> dict:
    return json.loads((DATA / f"{name}.json").read_text())


def test_unknown_fixture():
    with pytest.raises(KeyError):
        fx.load_fixture("no-such-fixture")


def test_every_fixture_has_source():
    for name in ("dihedral_table1", "dihedral_table2", "dihedral_table4"):
        assert fx.load_fixture(name)["source"]
    for name in ("fcusp_2_1", "fcusp_1_2", "symbol_example_411", "d_cuspidal_symbols"):
        assert _data(name)["source"]


def test_table1_has_five_even_regimes_total():
    data = fx.load_fixture("dihedral_table1")
    assert len(data["rows_even"]) == 4 and len(data["rows_odd"]) == 1


def test_fcusp_members_are_bipartitions():
    for k, m in ((2, 1), (1, 2)):
        mem = [(tuple(p0), tuple(p1)) for p0, p1 in _data(f"fcusp_{k}_{m}")["members"]]
        n = k * (k + m)
        for lam0, lam1 in mem:
            assert is_partition(lam0) or lam0 == ()
            assert is_partition(lam1) or lam1 == ()
            assert sum(lam0) + sum(lam1) == n
        assert len(set(mem)) == len(mem)
        # and they are the one cuspidal family of B_n at c1 = m kappa
        fams = cuspidal_families(annotated_families(n, CherednikParameter.type_B(m, 1), "CM"))
        assert [set(f.members) for f in fams] == [set(mem)]


def test_symbol_fixtures_roundtrip():
    # symbol_from_json reads the string entries that to_json writes as Fractions
    ex = _data("symbol_example_411")
    for key in ("symbol", "bar_symbol"):
        s = symbol_from_json(ex[key])
        assert symbol_from_json(s.to_json()) == s and s.to_json() == ex[key]
    for case in _data("d_cuspidal_symbols")["cases"]:
        for sj in case["symbols"]:
            s = symbol_from_json(sj)
            assert symbol_from_json(s.to_json()) == s and s.to_json() == sj


def test_token_expansion():
    assert fx._expand_tokens(["F"], 8) == ["phi_1", "phi_2", "phi_3"]
    assert fx._expand_tokens(["R"], 8) == ["phi_2"]
    assert fx._expand_tokens(["R"], 9) == ["phi_2", "phi_3", "phi_4"]
    assert fx._expand_tokens(["R"], 6) == []
    with pytest.raises(ValueError):
        fx._expand_tokens(["bogus"], 8)


def test_table_regime_errors():
    with pytest.raises(ValueError):
        fx.table1_rigid(8, 0, 0)
