"""Outside-in tracer for cmfamilies.

The tracer replaces a function at every cmfamilies module binding that is the
original object (modules import by name: cuspidal binds build_B_rep, families
binds charged_residue, verify binds mat_mul), plus the Cyclotomic arithmetic
methods.  The package itself is not changed on disk.

Each call becomes a span: name, start, end and the span that caused it.  A
span's self time is its duration minus the time of its direct children.
Hot kernels (called up to millions of times) are aggregated: they add to
their name's call count and self time and to their parent's child time, but
keep no span record of their own.  Spans are kept in memory and written out
by the caller when the session ends.  The operand count of mat_mul runs after
the call returns, so its small cost lands in the caller's self time.
"""
from __future__ import annotations

import sys
import time
from collections import defaultdict

PACKAGE = "cmfamilies"

# (module, attribute, metric name or None for "module.attribute", hot)
TARGETS = [
    ("partitions", "partitions", None, True),
    ("partitions", "bipartitions", None, True),
    ("partitions", "d_labels", None, True),
    ("exact", "charged_residue", None, True),
    ("exact", "residue", None, True),
    ("symbols", "symbol_of", None, True),
    ("symbols", "content_key", None, True),
    ("reps", "mat_mul", None, True),
    ("reps", "mat_add", None, True),
    ("reps", "sn_transposition_matrix", None, True),
    ("reps", "bn_transposition_matrix", None, True),
    ("reps", "bn_neg_transposition_matrix", None, True),
    ("reps", "i2_reflection_matrix", None, True),
    ("reps", "symmetric_generator_matrices", None, True),
    ("reps", "sn_character", None, True),
    ("reps", "bn_character", None, True),
    ("reps", "build_B_rep", None, False),
    ("reps", "build_dihedral_rep", None, True),
    ("reps", "i2_character_table", None, False),
    ("families", "irr_labels", None, True),
    ("families", "cm_families", None, False),
    ("families", "lusztig_families", None, False),
    ("families", "clifford_descent", None, False),
    ("cuspidal", "annotated_families", None, False),
    ("cuspidal", "rigid_modules", None, False),
    ("cuspidal", "leaves_B", "cuspidal.leaves", True),
    ("cuspidal", "leaves_D", "cuspidal.leaves", True),
    ("cli", "main", None, False),
]

CYCLOTOMIC_METHODS = {
    "__mul__": "exact.Cyclotomic.mul",
    "__rmul__": "exact.Cyclotomic.mul",
    "__add__": "exact.Cyclotomic.add",
    "__radd__": "exact.Cyclotomic.add",
}


def _nonzero(x) -> bool:
    """Entry test that builds no new Cyclotomic (its == converts the 0)."""
    return any(x.coeffs) if hasattr(x, "coeffs") else x != 0


def _rigid_mode_name(args, kwargs) -> str:
    mode = kwargs.get("mode", args[3] if len(args) > 3 else "closed_form")
    return "cuspidal.rigid_modules." + ("oracle" if mode == "equation_oracle" else mode)


class Tracer:
    """Span recorder: install() wraps the package, wrap() one callable."""

    def __init__(self):
        self.stack = [[0, None]]  # frames: [child_ns, span id]
        self.stats = defaultdict(lambda: [0, 0])  # name -> [calls, self_ns]
        self.counts = defaultdict(int)  # extra counters, e.g. scalar products
        self.spans = []  # (id, parent id, name, start_ns, end_ns, query)
        self.query = None
        self.cached = {}  # "module.name" -> original functools.cache function

    def wrap(self, fn, name, hot: bool, after=None):
        stack, stats, spans = self.stack, self.stats, self.spans
        perf = time.perf_counter_ns

        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            parent = stack[-1]
            span_id = parent[1] if hot else len(spans)
            if not hot:
                spans.append(None)  # reserve the id; filled in on exit
            frame = [0, span_id]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                parent[0] += duration
                stat = stats[label]
                stat[0] += 1
                stat[1] += duration - frame[0]
                if not hot:
                    spans[span_id] = (span_id, parent[1], label, start, end, self.query)
            if after is not None:
                after(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target at each package binding that is the original."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for mod in modules:
            for attr, obj in vars(mod).items():
                if callable(getattr(obj, "cache_info", None)) and obj.__module__ == mod.__name__:
                    self.cached[f"{mod.__name__.removeprefix(PACKAGE + '.')}.{attr}"] = obj
        hooks = {"mat_mul": self._count_products, "irr_labels": self._count_labels}
        for modname, attr, metric, hot in TARGETS:
            original = getattr(sys.modules[f"{PACKAGE}.{modname}"], attr)
            name = metric or f"{modname}.{attr}"
            if attr == "rigid_modules":
                name = _rigid_mode_name
            wrapper = self.wrap(original, name, hot, hooks.get(attr))
            for mod in modules:
                for key, obj in list(vars(mod).items()):
                    if obj is original:
                        setattr(mod, key, wrapper)
        cyclotomic = sys.modules[f"{PACKAGE}.exact"].Cyclotomic
        for method, name in CYCLOTOMIC_METHODS.items():
            setattr(cyclotomic, method, self.wrap(getattr(cyclotomic, method), name, True))

    def _count_products(self, args, result) -> None:
        """Scalar products n*k*m of a mat_mul, and those with both factors nonzero."""
        a, b = args
        k = len(b)
        col_nonzero = [0] * k
        for row in a:
            for t, x in enumerate(row):
                if _nonzero(x):
                    col_nonzero[t] += 1
        useful = sum(c * sum(map(_nonzero, b[t])) for t, c in enumerate(col_nonzero))
        counts = self.counts
        counts["reps.mat_mul.scalar_mults"] += len(a) * k * len(b[0])
        counts["reps.mat_mul.useful_mults"] += useful
        counts["reps.mat_mul.max_dim"] = max(counts["reps.mat_mul.max_dim"], len(a), k, len(b[0]))

    def _count_labels(self, args, result) -> None:
        self.counts["families.labels"] += len(result)

    def cache_rates(self) -> dict:
        """Hit rate of every functools.cache function found in the package."""
        out = {}
        for name, fn in sorted(self.cached.items()):
            info = fn.cache_info()
            total = info.hits + info.misses
            out[name] = info.hits / total if total else 0.0
        return out
