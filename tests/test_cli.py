import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from test_cli_golden import GOLDEN

import cmfamilies
from cmfamilies import coxeter
from cmfamilies.cli import _json, _tuple_json, main
from cmfamilies.cuspidal import Leaf, annotated_families
from cmfamilies.exact import CherednikParameter
from cmfamilies.families import Family
from cmfamilies.symbols import symbol_of
from cmfamilies.verify import SuiteResult, _suite


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_families_json_schema(capsys):
    code, out, _ = run(
        capsys, "families", "--type", "B", "--n", "6", "--c1", "1", "--kappa", "1"
    )
    assert code == 0
    data = json.loads(out)
    assert data["type"] == "B" and data["n"] == 6
    assert data["param"] == {"c1": "1", "kappa": "1"}
    assert data["method"] == "CM"
    assert sum(len(f["members"]) for f in data["families"]) == 65
    cusp = [f for f in data["families"] if f["cuspidal"]]
    assert len(cusp) == 1 and len(cusp[0]["members"]) == 10


def test_families_both_equal_flag(capsys):
    code, out, _ = run(
        capsys,
        "families", "--type", "I2", "--m", "8", "--a", "1", "--b", "1",
        "--method", "both",
    )
    assert code == 0
    data = json.loads(out)
    assert data["equal"] is True
    assert len(data["partitions"]) == 2


def test_families_deterministic(capsys):
    args = ["families", "--type", "D", "--n", "4", "--kappa", "1"]
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_families_generic_flag(capsys):
    code, out, _ = run(
        capsys,
        "families", "--type", "B", "--n", "4", "--c1", "1/7", "--kappa", "3/5",
        "--generic",
    )
    data = json.loads(out)
    assert code == 0
    assert all(f["is_singleton"] for f in data["families"])


def test_rigid_oracle_json(capsys):
    code, out, _ = run(
        capsys,
        "rigid", "--type", "I2", "--m", "8", "--a", "1", "--b", "1",
        "--mode", "oracle",
    )
    data = json.loads(out)
    assert code == 0
    assert data["mode"] == "equation_oracle"
    assert data["rigid"] == ["eps1", "eps2", "phi_2", "phi_3"]


def test_leaves_json(capsys):
    code, out, _ = run(
        capsys, "leaves", "--type", "B", "--n", "6", "--c1", "1", "--kappa", "1"
    )
    data = json.loads(out)
    assert code == 0
    assert [e["dim"] for e in data] == [12, 8, 0]
    assert data[2]["parabolic"] == "B6" and data[2]["below"] == []


def test_symbols_text(capsys):
    code, out, _ = run(
        capsys,
        "symbols", "--type", "B", "--c1", "1", "--kappa", "1",
        "--bp", "[2,1|1]", "--enn", "3", "--format", "text",
    )
    assert code == 0
    assert out.strip() == "(0,1,3,5 ; 0,1,3)"


def test_text_bipartition_format(capsys):
    code, out, _ = run(
        capsys,
        "families", "--type", "B", "--n", "2", "--c1", "1", "--kappa", "1",
        "--format", "text",
    )
    assert code == 0
    assert "[1,1|]" in out and "[|2]" in out


def test_validation_exit_2(capsys):
    code, _, err = run(capsys, "families", "--type", "B", "--n", "3", "--c1", "1")
    assert code == 2 and "kappa" in err
    code, _, err = run(capsys, "families", "--type", "I2", "--a", "1", "--b", "1")
    assert code == 2 and "--m" in err
    code, _, err = run(
        capsys, "rigid", "--type", "D", "--n", "8", "--kappa", "1", "--mode", "oracle"
    )
    assert code == 2
    code, _, err = run(
        capsys,
        "families", "--type", "I2", "--m", "7", "--a", "1", "--b", "2",
    )
    assert code == 2  # odd m forces a = b
    code, _, err = run(
        capsys,
        "families", "--type", "B", "--n", "3", "--c1", "-1", "--kappa", "1",
        "--method", "Lusztig",
    )
    assert code == 2  # Lusztig method needs nonnegative parameters


PARSE_ERRORS = [
    (["families", "--type", "I2", "--m", "6", "--a", "1/0", "--b", "1"],
     "error: --a: '1/0' is not a rational p/q\n"),
    (["rigid", "--type", "A", "--n", "3", "--c", "1/2/3"],
     "error: --c: '1/2/3' is not a rational p/q\n"),
    (["leaves", "--type", "D", "--n", "4", "--kappa", ""],
     "error: --kappa: '' is not a rational p/q\n"),
    (["symbols", "--type", "B", "--c1", "1", "--kappa", "1", "--bp", "[a|]"],
     "error: not a bipartition: '[a|]'\n"),
    (["symbols", "--type", "B", "--c1", "1", "--kappa", "1", "--bp", "[1|2,,1]"],
     "error: not a bipartition: '[1|2,,1]'\n"),
]


@pytest.mark.parametrize("argv,err", PARSE_ERRORS, ids=[" ".join(a) for a, _ in PARSE_ERRORS])
def test_parse_errors_name_their_flag(capsys, argv, err):
    assert run(capsys, *argv) == (2, "", err)


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "5")
    assert code == 0
    assert out.startswith("[PASS]")


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--suite", "nope")
    assert code == 2


def test_verify_empty_suite_name_quoted_once(capsys):
    code, out, err = run(capsys, "verify", "--suite", "1,,5")
    assert code == 2 and out == ""
    assert err == "error: unknown suite ''\n"


def test_verify_repeated_suite_runs_once(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "5,5")
    assert code == 0
    assert out.splitlines() == ["[PASS] 5 dihedral j-induction: 120 checks"]


def test_suite_ledger_lists_every_failure():
    @_suite("x")
    def mixed():
        for i in range(11):
            yield i % 3 == 0, f"point {i}"

    result = mixed()
    failed = [f"point {i}" for i in range(11) if i % 3]
    assert not result.passed and result.name == "x"
    assert result.detail == "7 failure(s): " + "; ".join(failed)

    @_suite("y")
    def passing():
        for i in range(5):
            yield True, f"point {i}"

    assert passing() == SuiteResult("y", True, "5 checks")


STRAY = [
    # a query, and the type flags in it that its type (or symbols) does not take
    ("families --type B --n 2 --c1 1 --kappa 1 --a 5 --m 9", ["--m", "--a"]),
    ("rigid --type A --n 2 --c 1 --kappa 3", ["--kappa"]),
    ("symbols --type B --c1 1 --kappa 1 --bp [1|] --n 7", ["--n"]),
]


@pytest.mark.parametrize("query,stray", STRAY, ids=[q for q, _ in STRAY])
def test_stray_type_flag_exit_2(capsys, query, stray):
    code, out, err = run(capsys, *query.split())
    assert code == 2 and out == ""
    assert all(flag in err for flag in stray)


GENERIC_CASES = [
    # (type and size, a parameter, the type's generic point, cuspidal family sizes there)
    (["--type", "A", "--n", "1"], ["--c", "1/3"], ["--c", "1"], [1]),
    (["--type", "A", "--n", "3"], ["--c", "1/3"], ["--c", "1"], []),
    (["--type", "B", "--n", "4"], ["--c1", "1/7", "--kappa", "3/5"], ["--c1", "1/2", "--kappa", "1"], []),
    (["--type", "D", "--n", "4"], ["--kappa", "5"], ["--kappa", "1"], [3]),
    (["--type", "I2", "--m", "8"], ["--a", "3", "--b", "3"], ["--a", "1", "--b", "2"], [3]),
    (["--type", "I2", "--m", "7"], ["--a", "2", "--b", "2"], ["--a", "1", "--b", "1"], [3]),
]


@pytest.mark.parametrize("size,param,point,cuspidal", GENERIC_CASES, ids=lambda v: " ".join(map(str, v)))
def test_families_generic_is_the_generic_point(capsys, size, param, point, cuspidal):
    code, out, _ = run(capsys, "families", *size, *param, "--generic", "--method", "both")
    assert code == 0
    generic = json.loads(out)
    code, out, _ = run(capsys, "families", *size, *point, "--method", "both")
    assert code == 0
    computed = json.loads(out)
    user_param = dict(zip((f[2:] for f in param[::2]), param[1::2]))
    for part in computed["partitions"]:
        part["param"] = user_param
    assert generic == computed
    for part in generic["partitions"]:
        assert sorted(len(f["members"]) for f in part["families"] if f["cuspidal"]) == cuspidal


def test_verify_takes_no_jobs_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "5", "--jobs", "2"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_cli_import_loads_no_process_pool():
    src = str(Path(cmfamilies.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    code = ("import sys, cmfamilies.cli; "
            "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


# modules a query never runs, some of them pulled in by dataclasses, typing
# or importlib.resources; -S keeps site's .pth preloads out of the check
COLD_START_FREE = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing",
                   "importlib.resources", "pathlib")


def test_cli_import_loads_only_what_a_query_runs():
    src = str(Path(cmfamilies.__file__).resolve().parent.parent)
    code = (f"import sys; sys.path.insert(0, {src!r}); import cmfamilies.cli; "
            f"print(sorted(set({COLD_START_FREE!r}) & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, check=True, timeout=60)
    assert proc.stdout == "[]\n"


def test_closed_stdout_ends_without_traceback():
    src = str(Path(cmfamilies.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    argv = ["families", "--type", "B", "--n", "12", "--c1", "1/2", "--kappa", "1", "--format", "text"]
    proc = subprocess.Popen([sys.executable, "-m", "cmfamilies", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        assert proc.stdout.readline().startswith("B size=12")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) in (0, 1)
    finally:
        proc.kill()
        proc.stderr.close()
    assert "Traceback" not in err and "Exception ignored" not in err


def test_cached_parser_carries_no_state(capsys):
    """One parser serves every main call: a flag given in one query, or an
    argparse rejection, leaves nothing behind for the next query."""
    golden = {q: (code, digest) for q, code, digest in GOLDEN}
    for query in [
        "families --type B --n 4 --c1 1 --kappa 1 --generic --method both",
        "families --type B --n 4 --c1 1 --kappa 1 --method both",
        "rigid --type B --n 2 --c1 1 --kappa 1 --mode oracle",
        "rigid --type B --n 2 --c1 1 --kappa 1",
        "families --type B --n 4 --c1 1 --kappa 1 --generic --method nope",
        "families --type B --n 4 --c1 1 --kappa 1 --method both",
    ]:
        if query in golden:
            assert main(query.split()) == golden[query][0], query
            digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
            assert digest == golden[query][1], query
        else:
            with pytest.raises(SystemExit) as exc:
                main(query.split())
            assert exc.value.code == 2
            assert capsys.readouterr().out == ""


def _stdlib(o) -> str:
    return json.dumps(o, sort_keys=True, indent=2)


def test_json_writer_matches_stdlib_on_golden_rows(capsys):
    rows = [q for q, code, _ in GOLDEN
            if code == 0 and "--format text" not in q and not q.startswith("verify")]
    assert len(rows) > 20
    for query in rows:
        assert main(query.split()) == 0
        payload = json.loads(capsys.readouterr().out)
        assert _json(payload) == _stdlib(payload), query


EDGE = [
    {},
    [],
    [[[], {}], {"k": [[], {}]}],
    [1, [2, -3], [], 4, [[5]]],
    [-7, 0, 10**40, -(10**40)],
    [True, False, None, 1, 0],
    [1, True, 2],
    {"b": True, "a": False, "c": None, "d": -1},
    ("tuple", 1, (2, 3)),
    'quote " backslash \\ newline \n tab \t',
    {"\u00fc key": ["\u03b6 \u2603 \U0001f600", "a\\b\"c\nd"]},
]


@pytest.mark.parametrize("o", EDGE, ids=range(len(EDGE)))
def test_json_writer_matches_stdlib_on_edge_cases(o):
    _tuple_json.cache_clear()
    assert _json(o) == _stdlib(o)


def test_json_labels_are_written_once_per_process(capsys):
    """A second identical query prints the same bytes from the memo alone."""
    query = "families --type B --n 6 --c1 1 --kappa 1 --method both".split()
    _tuple_json.cache_clear()
    assert main(query) == 0
    first = capsys.readouterr().out
    misses = _tuple_json.cache_info().misses
    assert misses > 0
    assert main(query) == 0
    assert capsys.readouterr().out == first
    assert _tuple_json.cache_info().misses == misses


# the tuple memo is keyed by value, and True == 1.0 == Fraction(1) == 1: a
# tuple holds only ints, strs, None and tuples
@pytest.mark.parametrize(
    "o",
    [0.5, Fraction(1, 3), [1, 2.0], {"c": Fraction(1, 2)},
     (True, 2), (1.0, 2), (Fraction(1), 2), [((), (True,))]],
    ids=["float", "Fraction", "float in list", "Fraction in dict",
         "bool in tuple", "float in tuple", "Fraction in tuple", "bool in nested tuple"],
)
def test_json_writer_rejects_non_json_numbers(o):
    _tuple_json.cache_clear()
    with pytest.raises(TypeError):
        _json(o)


def _records():
    """One instance of each of the package's eight namedtuple records."""
    param = CherednikParameter.type_B(1, 1)
    return [coxeter.TYPES["B"], param, Family((((1,), ()),)), annotated_families(2, param),
            Leaf(1, 2, "B2", 8), coxeter.TYPES["B"].leaves(2, param),
            symbol_of(((1,), ()), 1, 1, 1), SuiteResult("suite", True, "1 checks")]


@pytest.mark.parametrize("wrap", [lambda r: r, lambda r: [1, r], lambda r: {"k": r}],
                         ids=["alone", "in a list", "in a dict"])
def test_json_writer_rejects_records(wrap):
    """A record is a tuple subclass, not a label: the writer refuses it even
    when the plain tuple of its fields is already in the tuple memo."""
    records = _records()
    assert len({type(r) for r in records}) == 8
    _json((1, 2, "B2", 8))
    for record in records:
        with pytest.raises(TypeError, match=type(record).__name__):
            _json(wrap(record))
