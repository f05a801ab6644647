import hashlib
import itertools
import json
import os
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from test_cli_golden import GOLDEN

import cmfamilies
from cmfamilies import cli, coxeter, verify
from cmfamilies.cli import FamilyList, _json, _tuple_json, main
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


def test_rigid_closed_form_answers_a_size_too_large_to_enumerate():
    """B210 has about 10^20 labels; its closed form names the box (14^15) and
    its twist, in a child whose address space is capped at 1 GiB."""
    src = str(Path(cmfamilies.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    cap = 1 << 30
    argv = ["rigid", "--type", "B", "--n", "210", "--c1", "1", "--kappa", "1", "--mode", "closed"]
    proc = subprocess.run(
        [sys.executable, "-m", "cmfamilies", *argv], env=env, capture_output=True, text=True,
        timeout=30, preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["rigid"] == [[[], [15] * 14], [[14] * 15, []]]


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
    return json.dumps(_plain(o), sort_keys=True, indent=2)


def _families_json(families) -> list[dict]:
    """The dict of each Family record: the form the writer's FamilyList
    template must print as json.dumps does."""
    return [{"members": list(f.members), "is_singleton": f.is_singleton,
             "cuspidal": f.cuspidal, "leaf_label": f.leaf_label} for f in families]


def _plain(o):
    """o with every FamilyList in it replaced by its family dicts."""
    if type(o) is FamilyList:
        return _families_json(o)
    if type(o) is list:
        return [_plain(x) for x in o]
    if type(o) is dict:
        return {k: _plain(x) for k, x in o.items()}
    return o


def test_json_writer_matches_stdlib_on_golden_rows(capsys):
    rows = [q for q, code, _ in GOLDEN
            if code == 0 and "--format text" not in q and not q.startswith("verify")]
    assert len(rows) > 20
    for query in rows:
        assert main(query.split()) == 0
        payload = json.loads(capsys.readouterr().out)
        assert _json(payload) == _stdlib(payload), query


B_LABELS = ((((1,), (1,)),), (((2,), ()), ((1, 1), ())))
D_LABELS = (((2,), (2,), 1), ((2,), (2,), 2), ((2,), (1, 1), None))


def _family_edges():
    """A FamilyList held twice at one indent, at two and three indents, and
    empty; then lists of I2 str members, of D labels with None and a split
    index, and of a leaf label that needs escaping next to empty members."""
    one = FamilyList([Family(B_LABELS[0]), Family(B_LABELS[1], "B1", True)])
    two = FamilyList([Family(D_LABELS[:1]), Family(D_LABELS[1:])])
    empty = FamilyList()
    return [
        [one, one],
        {"a": two, "b": [two, {"c": two}]},
        [one, {"o": two}, [empty]],
        [empty, {"e": empty}, empty],
        FamilyList([Family(("1",)), Family(("eps",)), Family(("phi_1", "phi_2"), None, True)]),
        {"families": FamilyList([Family(D_LABELS[:2]), Family(D_LABELS[2:], None, True)])},
        [FamilyList([Family(B_LABELS[1], 'B0 "\u03b6"', True), Family(())])],
    ]


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
    *_family_edges(),
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


def _count_family_writes(monkeypatch) -> list:
    """(FamilyList, indent) of every call of the writer's family template, in
    order."""
    written = []
    write = cli._write_families
    monkeypatch.setattr(cli, "_write_families",
                        lambda fams, pad, out: written.append((fams, pad)) or write(fams, pad, out))
    return written


def test_family_list_is_written_once_per_indent(monkeypatch):
    families = FamilyList([Family(B_LABELS[1], "B1", True), Family(D_LABELS[:1])])
    payload = {"a": families, "b": [families, {"c": families}], "d": families}
    written = _count_family_writes(monkeypatch)
    assert _json(payload) == _stdlib(payload)
    assert sorted(pad for _, pad in written) == sorted(families.pieces) == ["  ", "    ", "      "]


def _not_families():
    """FamilyLists that break the writer's type contract, one way each."""
    labels = B_LABELS[1]
    return [
        [labels],
        [{"members": list(labels)}],
        [Family(labels, None, 1)],
        [Family(labels, None, None)],
        [Family(labels, 3, False)],
        [Family(list(labels))],
        [Family((1,))],
        [Family(labels), Family((None,))],
    ]


@pytest.mark.parametrize("families", _not_families(),
                         ids=["label", "dict", "cuspidal=1", "cuspidal=None", "leaf_label=3",
                              "members list", "int member", "None member"])
def test_json_writer_rejects_malformed_family_lists(families):
    _tuple_json.cache_clear()
    with pytest.raises(TypeError):
        _json({"families": FamilyList(families)})


def _capture_payloads(monkeypatch) -> list:
    """Every payload main hands to the JSON writer, in order."""
    payloads = []
    write = cli._json
    monkeypatch.setattr(cli, "_json", lambda o: payloads.append(o) or write(o))
    return payloads


def _module_state() -> dict:
    """The size of every module-level container and functools cache of cli."""
    return {name: v.cache_info().currsize if hasattr(v, "cache_info") else len(v)
            for name, v in vars(cli).items()
            if hasattr(v, "cache_info") or type(v) in (dict, list, set)}


@pytest.mark.parametrize("query", [
    "families --type B --n 6 --c1 1 --kappa 1 --method both",
    "families --type B --n 4 --c1 1 --kappa 1 --generic --method both",
    "cuspidal --type D --n 9 --kappa 2 --method both",
])
def test_method_both_builds_its_family_dicts_once(capsys, monkeypatch, query):
    """CM = Lusztig here: the two partitions hold one FamilyList, whose
    family dicts are written once; a repeated query adds no memo miss and
    leaves every module-level cache of cli as it was."""
    written = _count_family_writes(monkeypatch)
    payloads = _capture_payloads(monkeypatch)
    assert main(query.split()) == 0
    first = capsys.readouterr().out
    assert first == _stdlib(json.loads(first)) + "\n"
    assert len(written) == 1
    a, b = payloads[0]["partitions"] if query.startswith("families") else payloads[0]
    assert a["families"] is b["families"] and type(a["families"]) is FamilyList
    misses, state = _tuple_json.cache_info().misses, _module_state()
    assert main(query.split()) == 0
    assert capsys.readouterr().out == first
    assert _tuple_json.cache_info().misses == misses
    assert _module_state() == state


def _plant_lusztig(monkeypatch, change) -> None:
    """cli reads a Lusztig partition changed by change; CM is untouched."""
    real = cli.annotated_families

    def planted(size, param, method="CM"):
        fp = real(size, param, method)
        return change(fp) if method == "Lusztig" else fp
    monkeypatch.setattr(cli, "annotated_families", planted)


def _merge_first_two(fp):
    a, b, *rest = fp.families
    merged = Family(tuple(sorted(a.members + b.members)), a.leaf_label, a.cuspidal or b.cuspidal)
    return fp._replace(families=tuple(sorted([merged, *rest], key=lambda f: f.members)))


def _flip_first_flag(fp):
    first, *rest = fp.families
    return fp._replace(families=(first._replace(cuspidal=not first.cuspidal), *rest))


BOTH = "families --type B --n 4 --c1 1 --kappa 1 --method both".split()


@pytest.mark.parametrize("change, equal", [(_merge_first_two, False), (_flip_first_flag, True)],
                         ids=["merged families", "flipped cuspidal flag"])
def test_unequal_families_are_written_unshared(capsys, monkeypatch, change, equal):
    """Partitions whose families differ, in members or only in a cuspidal
    flag, each get their own FamilyList, written on its own; equal compares
    the members alone."""
    _plant_lusztig(monkeypatch, change)
    written = _count_family_writes(monkeypatch)
    payloads = _capture_payloads(monkeypatch)
    assert main(BOTH) == 0
    out = capsys.readouterr().out
    data = json.loads(out)
    assert out == _stdlib(data) + "\n"
    assert data["equal"] is equal
    cm, lusztig = data["partitions"]
    assert cm["families"] != lusztig["families"]
    a, b = payloads[0]["partitions"]
    assert type(a["families"]) is FamilyList and type(b["families"]) is FamilyList
    (first, _), (second, _) = written
    assert [first, second] == [a["families"], b["families"]] and first is not second
    assert main([*BOTH, "--format", "text"]) == 0
    assert capsys.readouterr().out.endswith(f"\nequal: {equal}\n")


def test_equal_agrees_with_set_equality_on_golden_rows(capsys, monkeypatch):
    seen = []
    equal = cli._equal
    monkeypatch.setattr(cli, "_equal", lambda a, b: seen.append((a, b)) or equal(a, b))
    rows = [q for q, code, _ in GOLDEN
            if code == 0 and q.startswith("families") and "--method both" in q]
    for query in rows:
        assert main(query.split()) == 0
    capsys.readouterr()
    assert len(seen) == len(rows) > 5
    for a, b in seen:
        assert equal(a, b) == (a.as_sets() == b.as_sets())


def test_equal_agrees_with_set_equality_on_the_suite_1_grid():
    """Every pair of partitions of one type and size on the suite-1 grid,
    CM and Lusztig, at one point or at two."""
    groups: dict = {}
    for size, param in verify._full_grid():
        groups.setdefault((param.type_tag, size), []).extend(
            [verify._families(size, param), verify._families(size, param, "Lusztig")])
    outcomes = set()
    for parts in groups.values():
        for a, b in itertools.combinations(parts, 2):
            same = a.as_sets() == b.as_sets()
            assert cli._equal(a, b) == same, (a.param, a.method, b.param, b.method)
            outcomes.add(same)
    assert outcomes == {True, False}


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
