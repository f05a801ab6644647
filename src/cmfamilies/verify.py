"""Theorem-verification suites: one per acceptance-grade check, shared by the
CLI `verify` subcommand and the test suite."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, wraps
from math import comb

from . import coxeter, cuspidal
from . import fixtures as fx
from .cuspidal import (
    cuspidal_families,
    leaves_B,
    leaves_D,
    parabolic_order_refined,
    rigid_implies_cuspidal_check,
    rigid_modules,
)
from .exact import CherednikParameter, Cyclotomic
from .families import FamilyPartition, dihedral_j_induction, tau_twist
from .partitions import bipartitions, dagger, partitions, subpartitions_of_box
from .reps import (
    bn_character_dict,
    bn_inner_product,
    build_B_rep,
    build_dihedral_rep,
    i2_character_table,
    i2_classes,
    i2_labels,
    induced_from_sj_bnj,
    induced_from_young,
    jucys_murphy_eigenvalue,
    mat_identity,
    mat_mul,
    sn_character,
    sn_inner_product,
    symmetric_generator_matrices,
)


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    detail: str


def _suite(name: str):
    """Decorator: the generator of (ok, message) pairs becomes the zero-argument
    suite.  Every pair is one check; the result lists each failed message."""
    def ledger(checks):
        @wraps(checks)
        def suite() -> SuiteResult:
            count, failures = 0, []
            for ok, msg in checks():
                count += 1
                if not ok:
                    failures.append(msg)
            if failures:
                detail = f"{len(failures)} failure(s): " + "; ".join(failures)
                return SuiteResult(name, False, detail)
            return SuiteResult(name, True, f"{count} checks")
        return suite
    return ledger


# ---------------------------------------------------------------------------
# Shared grids
# ---------------------------------------------------------------------------

GRID_N = 8  # largest n of the full grid and of the suite-6 leaf posets


def _b_grid():
    params = [CherednikParameter.type_B(m, 1) for m in range(8)]
    params += [
        CherednikParameter.type_B(1, 0),
        CherednikParameter.type_B(Fraction(1, 2), 1),
        CherednikParameter.type_B(3, 2),
    ]
    return [(n, p) for n in range(1, GRID_N + 1) for p in params]


def _i2_grid():
    out = []
    for m in range(5, 17):
        if m % 2:
            out.append((m, CherednikParameter.type_I2(1, 1)))
        else:
            for a, b in ((1, 1), (1, 2), (2, 1), (0, 1), (1, 0)):
                out.append((m, CherednikParameter.type_I2(a, b)))
    return out


def _full_grid():
    grid = _b_grid()
    grid += [(n, CherednikParameter.type_D(1)) for n in range(2, GRID_N + 1)]
    grid += _i2_grid()
    grid += [(n, CherednikParameter.type_A(c)) for n in range(1, GRID_N + 1) for c in (0, 1)]
    return grid


@cache
def _families(size: int, param: CherednikParameter, method: str = "CM") -> FamilyPartition:
    """annotated_families(size, param, method), built once per process for
    every suite that reads it.  Call it as _families(size, param) for CM and
    _families(size, param, "Lusztig"), so that each partition has one key.

    Only the suites read this memo; the CLI and the library functions build
    each partition afresh.  A test that plants a defect into a family key
    must call _families.cache_clear() before and after it, so that no
    partition built with or without the defect stands in for the other.
    annotated_families is read from its module at call time, so that a
    function rebound there is the one called."""
    return cuspidal.annotated_families(size, param, method)


# ---------------------------------------------------------------------------
# Suites (numbered to match the reported criteria)
# ---------------------------------------------------------------------------

@_suite("1 families CM=Lusztig")
def suite_1_families_equality():
    """CM partition equals Lusztig partition on the full grid."""
    for size, param in _full_grid():
        cm = _families(size, param).as_sets()
        lu = _families(size, param, "Lusztig").as_sets()
        yield cm == lu, f"{param.type_tag} {size} {param.to_json()}"


def _fcusp_failure(size: int, param: CherednikParameter, cm: set) -> str | None:
    """Why the cuspidal families cm of B_size break the box classification:
    at integral c1/kappa = m one family, Fcusp, of size C(2k + |m|, k) when
    size = k(k + |m|), and none otherwise.  None if they do not."""
    m = param.b_integral_m()
    if m is None:
        return None
    ks = [k for k in range(1, size + 1) if k * (k + abs(m)) == size]
    if not ks:
        return f"unexpected cuspidal: B {size} {param.to_json()}" if cm else None
    (k,) = ks
    fcusp = {(lam, dagger(lam, k, abs(m))) for lam in subpartitions_of_box(k, abs(m))}
    if m < 0:
        fcusp = {(b, a) for a, b in fcusp}
    if len(cm) != 1:
        return f"not unique: B {size} {param.to_json()}"
    if next(iter(cm)) != frozenset(fcusp):
        return f"not Fcusp: B {size} {param.to_json()}"
    if len(fcusp) != comb(2 * k + abs(m), k):
        return f"wrong size: B {size} {param.to_json()}"
    return None


@_suite("2 cuspidal CM=Lusztig + Fcusp")
def suite_2_cuspidal_equality():
    """Cuspidal families agree between methods; type-B existence/shape/size."""
    for size, param in _full_grid():
        cm = {frozenset(f.members) for f in cuspidal_families(_families(size, param))}
        lu = {frozenset(f.members) for f in cuspidal_families(_families(size, param, "Lusztig"))}
        if cm != lu:
            msg = f"methods differ: {param.type_tag} {size} {param.to_json()}"
        else:
            msg = _fcusp_failure(size, param, cm) if param.type_tag == "B" else None
        yield msg is None, msg
    # the two displayed instances
    for n, m, want in ((6, 1, 10), (3, 2, 4)):
        fams = cuspidal_families(_families(n, CherednikParameter.type_B(m, 1)))
        yield len(fams) == 1 and len(fams[0].members) == want, f"display size: B {n} m={m}"


@_suite("3 rigid closed_form=oracle (B)")
def suite_3_rigid_oracle_B():
    """Equation oracle matches the closed form for type B plus smooth points."""
    points = []
    for n in range(1, 6):
        for m in range(-(n - 1), n):
            points.append((n, CherednikParameter.type_B(m, 1)))
    points.append((4, CherednikParameter.type_B(Fraction(1, 2), 1)))
    points.append((4, CherednikParameter.type_B(Fraction(7, 3), Fraction(1, 3))))
    for n, param in points:
        cf = rigid_modules(n, param, mode="closed_form")
        orc = rigid_modules(n, param, mode="equation_oracle")
        yield cf == orc, f"B {n} {param.to_json()}"


@_suite("4 dihedral table (families/rigid/cuspidal)")
def suite_4_dihedral_table1():
    """Families, rigids and cuspidals for I2(m) from first principles; one
    check per point, whose message names every part that failed."""
    for m in range(5, 13):
        if m % 2:
            params = [(1, 1)]
        else:
            params = [(1, 1), (-1, 1), (1, 2), (2, 1), (0, 1), (1, 0)]
        for a, b in params:
            param = CherednikParameter.type_I2(a, b)
            failed = []
            if rigid_modules(m, param, mode="equation_oracle") != fx.table1_rigid(m, a, b):
                failed.append("rigid")
            if a >= 0 and b >= 0 and (a, b) != (0, 0):
                if _families(m, param).as_sets() != fx.table2_families(m, a, b):
                    failed.append("families")
                cusp = cuspidal_families(_families(m, param))
                want = cuspidal_families(_families(m, param, "Lusztig"))
                if [set(f.members) for f in cusp] != [set(f.members) for f in want]:
                    failed.append("cuspidal")
            yield not failed, f"{'/'.join(failed)} m={m} a={a} b={b}"


@_suite("5 dihedral j-induction")
def suite_5_dihedral_table4():
    """j-induction from both rank-one parabolics matches the reference rows."""
    for m in range(6, 17, 2):
        for a, b in ((1, 1), (1, 2), (2, 1), (0, 1), (1, 0)):
            want = fx.table4_j_induction(m, a, b)
            for (p, chi), labels in want.items():
                got = set(dihedral_j_induction(m, a, b, p, chi))
                yield got == labels, f"m={m} a={a} b={b} P{p} {chi}"


@_suite("6 leaf posets")
def suite_6_leaves():
    """Leaf dimensions, poset sanity, and cuspidal-leaf existence."""
    lp = leaves_B(6, 1, 1)
    yield sorted(l.dimension for l in lp.leaves) == [0, 8, 12], "B6 (1,1) dims"
    lp = leaves_D(4, 1)
    yield sorted(l.dimension for l in lp.leaves) == [0, 8], "D4 dims"
    for n in range(1, GRID_N + 1):
        lpd = leaves_B(n, 1, 0)
        yield all(l.dimension == 2 * len(l.index) for l in lpd.leaves), f"degenerate dims n={n}"
        yield lpd.is_antisymmetric() and parabolic_order_refined(lpd), f"degenerate poset n={n}"
    posets = [(f"B n={n} m={m}", leaves_B(n, m, 1)) for n in range(1, GRID_N + 1) for m in range(4)]
    posets += [(f"D n={n}", leaves_D(n, 1)) for n in range(2, GRID_N + 1)]
    for name, lp in posets:
        yield lp.is_antisymmetric() and parabolic_order_refined(lp), f"poset sanity {name}"
    # cuspidal leaf exists iff the cuspidal family does (nonzero parameters)
    for size, param in _full_grid():
        leaves = coxeter.lookup(param.type_tag).leaves
        if leaves is None or param.is_zero():
            continue
        lp = leaves(size, param)
        has_zero = bool(lp.zero_dimensional())
        has_cusp = bool(cuspidal_families(_families(size, param)))
        yield has_zero == has_cusp, f"leaf iff family: {param.type_tag} {size} {param.to_json()}"


@_suite("7 rigid => cuspidal")
def suite_7_rigid_implies_cuspidal():
    for size, param in _full_grid():
        ok = rigid_implies_cuspidal_check(_families(size, param))
        yield ok, f"{param.type_tag} {size} {param.to_json()}"


def _a_order(i: int, j: int) -> int:
    return 3 if abs(i - j) == 1 else 2


def _b_order(i: int, j: int) -> int:
    return 4 if {i, j} == {0, 1} else _a_order(i, j)


def _alternating(a, b, k: int):
    """The product a b a ... of k factors."""
    out = a
    for f in range(1, k):
        out = mat_mul(out, b if f % 2 else a)
    return out


def _coxeter_relations_ok(gens, order) -> bool:
    """g_i^2 = 1 for every generator and g_i g_j g_i ... = g_j g_i g_j ..., with
    order(i, j) factors a side, for every pair: the Coxeter presentation of W."""
    for i, g in enumerate(gens):
        if mat_mul(g, g) != mat_identity(len(g)):
            return False
        for j, h in enumerate(gens[i + 1:], i + 1):
            if _alternating(g, h, order(i, j)) != _alternating(h, g, order(i, j)):
                return False
    return True


def _i2_weighted_rows(m: int) -> dict[str, list[Cyclotomic]]:
    """label -> [chi(cls) |cls| for each class of I2(m), in i2_classes order]."""
    return {lab: [row[cls] * size for cls, size in i2_classes(m)]
            for lab, row in i2_character_table(m).items()}


@_suite("8 structural oracles")
def suite_8_structural():
    # the Coxeter presentation of W on every module's generators
    for n in range(1, 6):
        for lam in partitions(n):
            yield (_coxeter_relations_ok(symmetric_generator_matrices(lam), _a_order),
                   f"Sn relations {lam}")
    for n in range(1, 5):
        for bp in bipartitions(n):
            yield _coxeter_relations_ok(build_B_rep(bp), _b_order), f"Bn relations {bp}"
    for m in range(5, 17):
        for lab in i2_labels(m):
            yield (_coxeter_relations_ok(build_dihedral_rep(lab, m), lambda i, j: m),
                   f"I2({m}) relations {lab}")

    # character orthonormality
    for n in range(1, 6):
        labs = partitions(n)
        chars = {lam: {mu: sn_character(lam, mu) for mu in labs} for lam in labs}
        for i, lam in enumerate(labs):
            for nu in labs[i:]:
                ip = sn_inner_product(n, chars[lam], chars[nu])
                yield ip == (1 if lam == nu else 0), f"Sn orth {lam} {nu}"
    for n in range(1, 5):
        labs = bipartitions(n)
        for i, bp1 in enumerate(labs):
            for bp2 in labs[i:]:
                ip = bn_inner_product(n, bn_character_dict(bp1), bn_character_dict(bp2))
                yield ip == (1 if bp1 == bp2 else 0), f"Bn orth {bp1} {bp2}"
    for m in range(5, 17):
        weighted = _i2_weighted_rows(m)
        conj = {lab: [row[cls].conjugate() for cls, _ in i2_classes(m)]
                for lab, row in i2_character_table(m).items()}
        labs = i2_labels(m)
        for i, l1 in enumerate(labs):
            for l2 in labs[i:]:
                total = sum(map(Cyclotomic.__mul__, weighted[l1], conj[l2]), Cyclotomic.zero(m))
                yield total == (2 * m if l1 == l2 else 0), f"I2({m}) orth {l1} {l2}"

    # branching: every irreducible of a proper maximal parabolic, S_j x S_{n-j}
    # of S_n or S_j x B_{n-j} of B_n, induces to a character of norm > 1
    for n in (4, 5):
        for j in range(1, n):
            yield all(sn_inner_product(n, phi, phi) != 1
                      for nu1 in partitions(j) for nu2 in partitions(n - j)
                      for phi in [induced_from_young(nu1, nu2, n)]), f"S{n} parabolic {j}"
    for n in (3, 4):
        for j in range(1, n + 1):
            yield all(bn_inner_product(n, phi, phi) != 1
                      for nu in partitions(j) for bp in bipartitions(n - j)
                      for phi in [induced_from_sj_bnj(nu, bp, n)]), f"B{n} parabolic {j}"

    # Jucys-Murphy element acts by l - b on the rectangle (l^b)
    for l in range(1, 7):
        for b in range(1, 7):
            if l * b <= 6:
                yield jucys_murphy_eigenvalue((l,) * b) == l - b, f"JM ({l}^{b})"


@_suite("9 symmetry suites")
def suite_9_symmetries():
    """Component-swap twist for c1 -> -c1 and rescaling invariance."""
    for n in range(1, 7):
        for m in range(4):
            for kappa in (1, Fraction(1, 2)):
                pos = _families(n, CherednikParameter.type_B(m * kappa, kappa))
                neg = _families(n, CherednikParameter.type_B(-m * kappa, kappa))
                yield tau_twist(pos).as_sets() == neg.as_sets(), f"tau B {n} m={m} k={kappa}"
    scalars = (Fraction(2), Fraction(1, 3))
    points = [
        (4, CherednikParameter.type_B(1, 1)),
        (6, CherednikParameter.type_B(2, 1)),
        (6, CherednikParameter.type_B(1, 0)),
        (6, CherednikParameter.type_A(1)),
        (6, CherednikParameter.type_D(1)),
        (8, CherednikParameter.type_I2(1, 2)),
        (7, CherednikParameter.type_I2(1, 1)),
    ]
    for size, param in points:
        base_cm = _families(size, param).as_sets()
        base_lu = _families(size, param, "Lusztig").as_sets()
        for alpha in scalars:
            scaled = CherednikParameter(param.type_tag, tuple(alpha * v for v in param.values))
            yield (_families(size, scaled).as_sets() == base_cm,
                   f"CM rescale {param.type_tag} {size} x{alpha}")
            yield (_families(size, scaled, "Lusztig").as_sets() == base_lu,
                   f"Lusztig rescale {param.type_tag} {size} x{alpha}")


SUITES = {
    "1": suite_1_families_equality,
    "2": suite_2_cuspidal_equality,
    "3": suite_3_rigid_oracle_B,
    "4": suite_4_dihedral_table1,
    "5": suite_5_dihedral_table4,
    "6": suite_6_leaves,
    "7": suite_7_rigid_implies_cuspidal,
    "8": suite_8_structural,
    "9": suite_9_symmetries,
}


def run_suites(keys=None, jobs: int = 1) -> list[SuiteResult]:
    """Run the suites named by keys (all of them for None) in turn, in this
    process, so that they share the one _families memo.  jobs is kept only
    because the benchmark session passes jobs=1; any other value raises."""
    if jobs != 1:
        raise ValueError("the suites run in one process")
    keys = list(SUITES) if keys is None else list(dict.fromkeys(keys))
    for k in keys:
        if k not in SUITES:
            raise ValueError(f"unknown suite {k!r}")
    return [SUITES[k]() for k in keys]
