"""Command-line frontend: families | cuspidal | rigid | leaves | symbols | verify.

Output is deterministic: canonical family order, sorted labels, sorted JSON
keys.  Exit codes: 0 success, 1 verification failure, 2 validation error:
main turns every ValueError or ZeroDivisionError into "error: ..." on stderr.
"""
from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from functools import cache
from json.encoder import encode_basestring_ascii

from . import coxeter
from .cuspidal import annotated_families, cuspidal_families, rigid_modules
from .exact import CherednikParameter
from .families import Family, FamilyPartition
from .partitions import parse_bipartition
from .symbols import bar, symbol_of
from .verify import run_suites


def _build_param(args, sized: bool = True) -> CherednikParameter:
    """The parameter of the requested type.  The type takes its size flag
    (unless not sized) and its parameter flags; any other type flag given is
    a validation error."""
    t = coxeter.lookup(args.type)
    accepted = (t.size_flag, *t.params) if sized else t.params
    every = dict.fromkeys(f for e in coxeter.TYPES.values() for f in (e.size_flag, *e.params))
    stray = [f"--{f}" for f in every if f not in accepted and getattr(args, f) is not None]
    if stray:
        raise ValueError(f"{args.subcommand} --type {args.type} takes no {', '.join(stray)}")
    if any(getattr(args, name) is None for name in t.params):
        flags = " and ".join(f"--{name}" for name in t.params)
        raise ValueError(f"type {args.type} needs {flags}")
    values = [_rational(name, getattr(args, name)) for name in t.params]
    return t.parameter(values, getattr(args, t.size_flag))


def _rational(flag: str, text: str) -> Fraction:
    """The value of --flag as a Fraction; a ValueError that names the flag if
    text is not one (a zero denominator included)."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"--{flag}: {text!r} is not a rational p/q") from None


def _size(args) -> int:
    t = coxeter.lookup(args.type)
    size = getattr(args, t.size_flag)
    bound = f"{t.size_flag} >= {t.min_size}"
    if size is None:
        raise ValueError(f"type {args.type} needs --{t.size_flag} (with {bound})")
    if size < t.min_size:
        raise ValueError(f"need {bound}")
    return size


def _partitions_json(parts: list[FamilyPartition]) -> list[dict]:
    """The JSON dict of each partition, its families a FamilyList of its
    Family records.  When two partitions have equal families (cuspidal flags
    and leaf labels included), both dicts hold one FamilyList, which the
    writer writes once per indent."""
    if len(parts) == 2 and parts[0].families == parts[1].families:
        families = [FamilyList(parts[0].families)] * 2
    else:
        families = [FamilyList(fp.families) for fp in parts]
    return [{
        "type": fp.param.type_tag,
        coxeter.lookup(fp.param.type_tag).size_flag: fp.size,
        "param": fp.param.to_json(),
        "method": fp.method,
        "families": fams,
    } for fp, fams in zip(parts, families)]


def _equal(a: FamilyPartition, b: FamilyPartition) -> bool:
    """Whether a and b are the same set partition.  Both are canonical
    (families._canonical sorts the members and the families), so they are
    exactly when their member tuples agree."""
    return [f.members for f in a.families] == [f.members for f in b.families]


def _partition_text(fp: FamilyPartition) -> str:
    t = coxeter.lookup(fp.param.type_tag)
    lines = [f"{fp.param.type_tag} size={fp.size} param={fp.param.to_json()} method={fp.method}"]
    for f in fp.families:
        mark = " (cuspidal)" if f.cuspidal else ""
        lines.append("  {" + ", ".join(t.label_text(x) for x in f.members) + "}" + mark)
    return "\n".join(lines)


_BOOLS = {True: "true", False: "false"}
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: _BOOLS.__getitem__,
    type(None): lambda _: "null",
}


class FamilyList(list):
    """A partition's Family records, which _write writes as the list of their
    dicts {"cuspidal", "is_singleton", "leaf_label", "members"}, once per
    indent: it keeps the pieces on the list, so each later occurrence at
    that indent (--method both holds one list twice) appends them again.  It
    must not change after it is first written."""
    __slots__ = ("pieces",)

    def __init__(self, families=()):
        super().__init__(families)
        self.pieces: dict[str, list[str]] = {}


def _json(o) -> str:
    """json.dumps(o, sort_keys=True, indent=2), byte for byte, in one direct
    pass (indent sends json to its pure-Python encoder) that appends pieces to
    one list and joins it once.  Types are matched exactly: it writes list,
    FamilyList, tuple, dict with str keys, str, bool, None and int, and
    anything else (a float, a Fraction, another subclass such as a namedtuple
    record) is a TypeError.
    A tuple (a label or a part of one) holds only ints, strs, None and tuples,
    and its text is built once per (tuple, indent) in a process: that memo is
    keyed by value, where True == 1 == 1.0 and a record equals the tuple of its
    fields, so a tuple holding anything else is a TypeError when it is first
    written."""
    out: list[str] = []
    _write(o, "", out)
    return "".join(out)


def _write(o, pad: str, out: list[str]) -> None:
    """Append the pieces of o's text, indented from pad, to out; the items of
    a list or dict that are scalars are written in place."""
    kind = type(o)
    if kind is tuple:
        out.append(_tuple_json(o, pad))
    elif kind is list:
        if not o:
            out.append("[]")
            return
        inner = pad + "  "
        sep = ",\n" + inner
        opener = "[\n" + inner
        for x in o:
            out.append(opener)
            opener = sep
            scalar = _SCALARS.get(type(x))
            if scalar is None:
                _write(x, inner, out)
            else:
                out.append(scalar(x))
        out.append(f"\n{pad}]")
    elif kind is dict:
        if not o:
            out.append("{}")
            return
        inner = pad + "  "
        sep = ",\n" + inner
        opener = "{\n" + inner
        for k, x in sorted(o.items()):
            out.append(f"{opener}{encode_basestring_ascii(k)}: ")
            opener = sep
            scalar = _SCALARS.get(type(x))
            if scalar is None:
                _write(x, inner, out)
            else:
                out.append(scalar(x))
        out.append(f"\n{pad}}}")
    elif kind is FamilyList:
        pieces = o.pieces.get(pad)
        if pieces is None:
            pieces = o.pieces[pad] = []
            _write_families(o, pad, pieces)
        out.extend(pieces)
    else:
        scalar = _SCALARS.get(kind)
        if scalar is None:
            raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
        out.append(scalar(o))


def _write_families(families: FamilyList, pad: str, out: list[str]) -> None:
    """Append the pieces of the families' text, indented from pad, to out:
    each record through one template whose keys are in sorted order.  A
    record is exactly a Family whose cuspidal is a bool, whose leaf_label is
    a str or None and whose members are a tuple of labels (tuples, or strs
    for I2); anything else is a TypeError."""
    if not families:
        out.append("[]")
        return
    fam_pad = pad + "  "
    key_pad = fam_pad + "  "
    label_pad = key_pad + "  "
    opener = "[\n" + fam_pad + "{\n" + key_pad + '"cuspidal": '
    next_opener = ",\n" + fam_pad + "{\n" + key_pad + '"cuspidal": '
    is_singleton = ",\n" + key_pad + '"is_singleton": '
    leaf_label = ",\n" + key_pad + '"leaf_label": '
    members = ",\n" + key_pad + '"members": [\n' + label_pad
    no_members = ",\n" + key_pad + '"members": []\n' + fam_pad + "}"
    label_sep = ",\n" + label_pad
    closer = "\n" + key_pad + "]\n" + fam_pad + "}"
    for f in families:
        if type(f) is not Family:
            raise TypeError(f"a FamilyList holds only Family records, not {type(f).__name__}")
        cuspidal, leaf, labels = f.cuspidal, f.leaf_label, f.members
        if type(cuspidal) is not bool or type(labels) is not tuple:
            raise TypeError(f"a Family's cuspidal is a bool and its members a tuple: {f!r}")
        if leaf is None:
            leaf = "null"
        elif type(leaf) is str:
            leaf = encode_basestring_ascii(leaf)
        else:
            raise TypeError(f"a Family's leaf_label is a str or None: {f!r}")
        out += (opener, _BOOLS[cuspidal], is_singleton, _BOOLS[f.is_singleton], leaf_label, leaf)
        opener = next_opener
        if not labels:
            out.append(no_members)
            continue
        sep = members
        for lab in labels:
            kind = type(lab)
            if kind is tuple:
                text = _tuple_json(lab, label_pad)
            elif kind is str:
                text = encode_basestring_ascii(lab)
            else:
                raise TypeError(f"a family member is a tuple or a str label: {lab!r}")
            out += (sep, text)
            sep = label_sep
        out.append(closer)
    out.append("\n" + pad + "]")


@cache
def _tuple_json(t: tuple, pad: str) -> str:
    if not all(x is None or type(x) in (int, str, tuple) for x in t):
        raise TypeError(f"a tuple written as JSON holds only ints, strs, None and tuples: {t!r}")
    if not t:
        return "[]"
    inner = pad + "  "
    sep = ",\n" + inner
    body = sep.join([_tuple_json(x, inner) if type(x) is tuple else _SCALARS[type(x)](x) for x in t])
    return f"[\n{inner}{body}\n{pad}]"


def _emit(args, payload_json, payload_text: str) -> None:
    if args.format == "json":
        print(_json(payload_json))
    else:
        print(payload_text)


def cmd_families(args) -> int:
    param = _build_param(args)
    size = _size(args)
    methods = ["CM", "Lusztig"] if args.method == "both" else [args.method]
    if args.generic:
        # the families at the type's generic point, reported for the given param
        t = coxeter.lookup(args.type)
        generic = t.parameter(t.generic(size), size)
        parts = [annotated_families(size, generic, m)._replace(param=param) for m in methods]
    else:
        parts = [annotated_families(size, param, m) for m in methods]
    if args.format == "json":
        out = _partitions_json(parts)
        payload = out[0] if len(out) == 1 else {"partitions": out, "equal": _equal(*parts)}
        _emit(args, payload, "")
    else:
        text = "\n".join(_partition_text(fp) for fp in parts)
        if len(parts) == 2:
            text += f"\nequal: {_equal(*parts)}"
        print(text)
    return 0


def cmd_cuspidal(args) -> int:
    param = _build_param(args)
    size = _size(args)
    methods = ["CM", "Lusztig"] if args.method == "both" else [args.method]
    out = []
    for method in methods:
        fp = annotated_families(size, param, method)
        out.append(fp._replace(families=tuple(cuspidal_families(fp))))
    if args.format == "json":
        payload = _partitions_json(out)
        _emit(args, payload[0] if len(payload) == 1 else payload, "")
    else:
        print("\n".join(_partition_text(fp) for fp in out))
    return 0


def cmd_rigid(args) -> int:
    t = coxeter.lookup(args.type)
    param = _build_param(args)
    size = _size(args)
    mode = {"closed": "closed_form", "oracle": "equation_oracle"}.get(args.mode, args.mode)
    labels = rigid_modules(size, param, mode=mode)
    payload = {
        "type": args.type,
        t.size_flag: size,
        "param": param.to_json(),
        "mode": mode,
        "rigid": labels,
    }
    text = "\n".join(t.label_text(lab) for lab in labels) or "(none)"
    _emit(args, payload, text)
    return 0


def cmd_leaves(args) -> int:
    t = coxeter.lookup(args.type)
    param = _build_param(args)
    size = _size(args)
    if t.leaves is None:
        raise ValueError(f"no leaf poset is computed for type {args.type}")
    payload = t.leaves(size, param).to_json()
    text = "\n".join(
        f"L_{e['k']} dim={e['dim']} parabolic={e['parabolic']} below={e['below']}"
        for e in payload
    )
    _emit(args, payload, text)
    return 0


def cmd_symbols(args) -> int:
    if args.type != "B":
        raise ValueError("symbols are computed for type B")
    param = _build_param(args, sized=False)
    bp = parse_bipartition(args.bp)
    n = sum(bp[0]) + sum(bp[1])
    N = args.enn if args.enn is not None else max(n, 1)
    s = symbol_of(bp, N, param.c1, param.kappa)
    if args.bar is not None:
        s = bar(s, args.bar)
    text = "({} ; {})".format(
        ",".join(str(b) for b in s.beta), ",".join(str(g) for g in s.gamma)
    )
    _emit(args, s.to_json(), text)
    return 0


def cmd_verify(args) -> int:
    keys = None if args.suite == "all" else [k.strip() for k in args.suite.split(",")]
    results = run_suites(keys)
    ok = True
    for r in results:
        print(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail}")
        ok = ok and r.passed
    return 0 if ok else 1


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by every later one;
    parse_args keeps no state in it."""
    ap = argparse.ArgumentParser(
        prog="cmfamilies",
        description="Calogero-Moser and Lusztig families, cuspidal families, "
        "symplectic leaves and rigid modules for types A, B, D and I2(m).",
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def common(p, need_method=False):
        p.add_argument("--type", required=True, choices=list(coxeter.TYPES))
        p.add_argument("--n", type=int)
        p.add_argument("--m", type=int, help="dihedral order parameter (I2 only)")
        p.add_argument("--c", help="type A weight, rational p/q")
        p.add_argument("--c1", help="type B weight of the eps-class")
        p.add_argument("--kappa", help="type B/D weight of the transposition class")
        p.add_argument("--a", help="I2 weight of the t-class")
        p.add_argument("--b", help="I2 weight of the s-class")
        p.add_argument("--format", choices=["json", "text"], default="json")
        if need_method:
            p.add_argument("--method", choices=["CM", "Lusztig", "both"], default="CM")

    p = sub.add_parser("families", help="family partition of Irr W")
    common(p, need_method=True)
    p.add_argument("--generic", action="store_true",
                   help="the families at the type's generic point, reported for this parameter")
    p.set_defaults(func=cmd_families)

    p = sub.add_parser("cuspidal", help="cuspidal families only")
    common(p, need_method=True)
    p.set_defaults(func=cmd_cuspidal)

    p = sub.add_parser("rigid", help="rigid modules")
    common(p)
    p.add_argument("--mode", choices=["closed", "oracle", "closed_form", "equation_oracle"],
                   default="closed_form")
    p.set_defaults(func=cmd_rigid)

    p = sub.add_parser("leaves", help="symplectic-leaf poset (types B and D)")
    common(p)
    p.set_defaults(func=cmd_leaves)

    p = sub.add_parser("symbols", help="type-B symbol of a bipartition")
    common(p)
    p.add_argument("--bp", required=True, help='bipartition, e.g. "[2,1|1]"')
    p.add_argument("--enn", type=int, help="row length N (default: max(n,1))")
    p.add_argument("--bar", type=int, help="apply the sign-twist bar at this t")
    p.set_defaults(func=cmd_symbols)

    p = sub.add_parser("verify", help="run the theorem-verification suites")
    p.add_argument("--suite", default="all",
                   help='"all" or comma-separated suite numbers, e.g. "1,7"')
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout; the flush at exit must not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
