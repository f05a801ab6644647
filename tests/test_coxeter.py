"""The reflection data of the reference rigidity equation, the symmetries of
the rigidity oracle, and the names the benchmark's tracer wraps."""
import importlib
import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

from cmfamilies import coxeter
from cmfamilies.cuspidal import rigid_modules
from cmfamilies.families import cm_families, lusztig_families
from cmfamilies.exact import CherednikParameter, Cyclotomic
from cmfamilies.partitions import conjugate
from cmfamilies.reps import mat_identity, mat_mul
from test_cuspidal import REFLECTIONS

SIZES = {"A": range(1, 6), "B": range(1, 5), "D": range(2, 5), "I2": range(5, 13)}
# the reflections s with (e_1, alpha_s) != 0, the only ones the one-row equation sums over
COUNT = {"A": lambda n: n - 1, "B": lambda n: 2 * n - 1, "D": lambda n: 2 * (n - 1),
         "I2": lambda m: m}


@pytest.mark.parametrize("type_tag", sorted(SIZES))
def test_reflections_are_reflections(type_tag):
    entry = coxeter.TYPES[type_tag]
    for size in SIZES[type_tag]:
        for label in entry.labels(size):
            refl = list(REFLECTIONS[type_tag](entry.module(label), size))
            assert len(refl) == COUNT[type_tag](size)
            for name, coroot, root, mat in refl:
                assert name in entry.params
                assert sum(c * r for c, r in zip(coroot, root)) == 2
                assert mat_mul(mat, mat) == mat_identity(len(mat))


def _sign_twist(type_tag, label):
    if type_tag == "A":
        return conjugate(label)
    if type_tag == "B":
        return (conjugate(label[1]), conjugate(label[0]))
    return {"1": "eps", "eps": "1", "eps1": "eps2", "eps2": "eps1"}.get(label, label)


def _points():
    for n in range(1, 6):
        yield "A", n, (1,)
    for n in range(1, 5):
        for m in range(-(n - 1), n):
            yield "B", n, (m, 1)
        for values in ((Fraction(1, 2), 1), (Fraction(7, 3), Fraction(1, 3)), (1, 0)):
            yield "B", n, values
    for m in range(5, 13):
        regimes = [(1, 1)] if m % 2 else [(1, 1), (-1, 1), (1, 2), (2, 1), (0, 1), (1, 0), (3, -2)]
        for values in regimes:
            yield "I2", m, values


@pytest.mark.parametrize("type_tag,size,values", list(_points()))
def test_oracle_symmetries(type_tag, size, values):
    """Rigid sets are closed under tensoring with sign and do not change when
    the parameter is scaled by 2 or by -1."""
    entry = coxeter.TYPES[type_tag]

    def rigid(scale):
        param = entry.parameter([scale * Fraction(v) for v in values], size)
        return rigid_modules(size, param, "equation_oracle")

    got = rigid(1)
    assert sorted(_sign_twist(type_tag, lab) for lab in got) == got
    assert rigid(2) == got
    assert rigid(-1) == got


@pytest.mark.parametrize("type_tag", sorted(coxeter.TYPES))
def test_sizes_below_the_smallest_raise(type_tag):
    """The library refuses a group that does not exist, as the CLI does."""
    entry = coxeter.TYPES[type_tag]
    param = entry.parameter(entry.generic(entry.min_size), entry.min_size)
    calls = (cm_families, lusztig_families, rigid_modules,
             lambda size, p: rigid_modules(size, p, "equation_oracle"))
    for size in {entry.min_size - 1, 0, -1}:
        for call in calls:
            with pytest.raises(ValueError, match=f"^need {entry.size_flag} >= {entry.min_size}$"):
                call(size, param)


def test_tracer_targets_exist():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, attr, _, _ in tracer.TARGETS:
        assert callable(getattr(importlib.import_module(f"cmfamilies.{module}"), attr, None)), attr
    for method in tracer.CYCLOTOMIC_METHODS:
        assert callable(getattr(Cyclotomic, method, None)), method
