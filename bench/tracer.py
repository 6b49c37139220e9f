"""Per-layer tracing for the benchmark, installed from outside the library.

The tracer wraps the public functions of each centrum layer by rebinding
every module-level name that refers to them, in every loaded centrum module
(``bimodule`` imports ``kernel`` by name, so patching ``exactla.kernel``
alone would miss its calls), and wraps ``Matrix.__matmul__`` and
``Matrix.kron`` on the class.  Nothing under ``src/`` changes.

Each call becomes a span (name, start, end, parent span, verdict id) kept in
memory and written out by ``write_spans``.  Self time is a span's duration
minus the durations of its direct children; the tracer's own bookkeeping
(argument keys, coefficient scans) runs outside the span and is also taken
out of the parent's self time.
"""

from __future__ import annotations

import io
import json
import sys
from fractions import Fraction
from time import perf_counter

# layer -> public functions timed as spans, bottom layer first
TRACED = {
    "exactla": ("rref", "kernel", "cokernel", "inverse", "solve_matrix"),
    "algebra": ("center", "centralizer", "validate_algebra_map"),
    "bimodule": ("tensor_over", "hom_space", "end_algebra", "induced_map",
                 "assoc_iso", "validate_bimodule"),
    "cospanbicat": ("compose_cospans", "vertical_compose",
                    "horizontal_compose", "beta_cell", "validate_cospan",
                    "validate_3cell"),
    "fullcenter": ("Z_hom", "Z_bimodule", "Z_2cell", "mult_transform",
                   "m_square", "verify_lax_functor",
                   "check_theorem58_hypotheses"),
    "cli": ("main", "emit"),
}
# span name -> Matrix method wrapped on the class
METHODS = {"exactla.matmul": "__matmul__", "exactla.kron": "kron"}

# spans whose arguments are keyed, to count calls that repeat an earlier
# call's arguments on the nose
REPEAT = ("algebra.center", "algebra.centralizer", "bimodule.hom_space",
          "bimodule.end_algebra", "cospanbicat.compose_cospans",
          "fullcenter.Z_hom")

# span -> extra counters beyond calls and self_s, with their units
EXTRA = {
    "exactla.rref": (("cells", "count"), ("max_cells", "count")),
    "exactla.matmul": (("mults", "count"),),
    "exactla.kron": (("out_cells", "count"),),
    "bimodule.tensor_over": (("ambient_sum", "count"),
                             ("relation_rank_sum", "count")),
    "cli.emit": (("bytes", "bytes"),),
}


def span_names():
    names = []
    for module, functions in TRACED.items():
        names += [f"{module}.{f}" for f in functions]
        if module == "exactla":
            names += list(METHODS)
    return names


def metric_names():
    """Every per-layer metric the tracer reports, in a fixed order, as
    (name, unit) pairs."""
    out = []
    for span in span_names():
        out.append((f"{span}.calls", "count"))
        out.append((f"{span}.self_s", "s"))
        out += [(f"{span}.{k}", u) for k, u in EXTRA.get(span, ())]
        if span in REPEAT:
            out.append((f"{span}.repeat_frac", "ratio"))
        if span == "exactla.kron":
            out.append(("exactla.coeff_bits_max", "bits"))
    out.append(("bench.trace_overhead_frac", "ratio"))
    return out


def canon(x, memo=None):
    """A hashable value equal for arguments that are equal on the nose:
    matrices by entries, algebras by structure constants and unit, and so
    on through the slots of every centrum object.  Display names are
    ignored."""
    if memo is None:
        memo = {}
    if x is None or isinstance(x, (bool, int, str, Fraction)):
        return x
    key = id(x)
    if key in memo:
        return memo[key]
    if isinstance(x, (list, tuple)):
        out = tuple(canon(v, memo) for v in x)
    elif isinstance(x, dict):
        out = tuple(sorted((k, canon(v, memo)) for k, v in x.items()))
    elif hasattr(x, "zero") and hasattr(x, "from_int"):
        out = ("field", x.name)
    else:
        slots = getattr(type(x), "__slots__", None)
        if slots is None:
            fields = sorted(vars(x))
        else:
            fields = [slots] if isinstance(slots, str) else list(slots)
        out = (type(x).__name__,) + tuple(
            canon(getattr(x, s, None), memo) for s in fields if s != "name")
    memo[key] = out
    return out


class _Stat:
    __slots__ = ("calls", "self_s", "extra", "seen", "repeats")

    def __init__(self, keyed):
        self.calls = 0
        self.self_s = 0.0
        self.extra = {}
        self.seen = set() if keyed else None
        self.repeats = 0


class Tracer:
    """Spans and counters for one traced pass; ``install`` patches the
    loaded centrum modules and ``uninstall`` restores them."""

    def __init__(self):
        self.names = span_names()
        self.stats = {n: _Stat(n in REPEAT) for n in self.names}
        # (span id, name index, start, end, parent id, verdict)
        self.spans = []
        self.verdict = None
        self.active = False
        self.coeff_bits_max = 0
        self._stack = []
        self._next_id = 0
        self._patches = []

    # -- installation -----------------------------------------------------

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "centrum" or n.startswith("centrum.")) and m]
        for layer, functions in TRACED.items():
            home = sys.modules.get(f"centrum.{layer}")
            for fname in functions:
                orig = getattr(home, fname, None)
                if orig is None:
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._patches.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)
        matrix = sys.modules["centrum.exactla"].Matrix
        for name, method in METHODS.items():
            orig = matrix.__dict__[method]
            self._patches.append((matrix, method, orig))
            setattr(matrix, method, self._wrap(name, orig))
        self.active = True

    def uninstall(self):
        self.active = False
        for obj, attr, orig in reversed(self._patches):
            setattr(obj, attr, orig)
        self._patches = []

    # -- the wrapper --------------------------------------------------------

    def _wrap(self, name, fn):
        stat = self.stats[name]
        index = self.names.index(name)
        post = getattr(self, "_post_" + name.replace(".", "_"), None)
        pre = self._pre_emit if name == "cli.emit" else None
        stack = self._stack
        spans = self.spans

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            t_in = perf_counter()
            if stat.seen is not None:
                key = canon((args, kwargs))
                if key in stat.seen:
                    stat.repeats += 1
                else:
                    stat.seen.add(key)
            before = pre() if pre else None
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                stat.calls += 1
                stat.self_s += (t1 - t0) - frame[1]
                spans.append((span_id, index, t0, t1,
                              parent[0] if parent else None, self.verdict))
                if parent is not None:
                    parent[1] += t1 - t_in
            if post:
                t2 = perf_counter()
                post(stat, args, result, before)
                if parent is not None:
                    parent[1] += perf_counter() - t2
            return result

        traced.__wrapped__ = fn
        return traced

    # -- per-span counters ------------------------------------------------

    @staticmethod
    def _add(stat, key, amount):
        stat.extra[key] = stat.extra.get(key, 0) + amount

    def _post_exactla_rref(self, stat, args, result, _):
        m = args[0]
        cells = m.rows * m.cols
        self._add(stat, "cells", cells)
        stat.extra["max_cells"] = max(stat.extra.get("max_cells", 0), cells)
        bits = self.coeff_bits_max
        for row in result[0].data:
            for x in row:
                if isinstance(x, Fraction) and x:
                    bits = max(bits, x.numerator.bit_length(),
                               x.denominator.bit_length())
        self.coeff_bits_max = bits

    def _post_exactla_matmul(self, stat, args, result, _):
        a, b = args
        self._add(stat, "mults", a.rows * a.cols * b.cols)

    def _post_exactla_kron(self, stat, args, result, _):
        self._add(stat, "out_cells", result.rows * result.cols)

    def _post_bimodule_tensor_over(self, stat, args, result, _):
        self._add(stat, "ambient_sum", result.quot.ambient)
        self._add(stat, "relation_rank_sum", result.quot.relations.cols)

    @staticmethod
    def _pre_emit():
        out = sys.stdout
        return out.tell() if isinstance(out, io.StringIO) else None

    def _post_cli_emit(self, stat, args, result, before):
        if before is not None:
            text = sys.stdout.getvalue()[before:]
            self._add(stat, "bytes", len(text.encode("utf-8")))

    # -- results ----------------------------------------------------------

    def metrics(self, overhead_frac):
        """name -> value for every entry of ``metric_names()``."""
        out = {}
        for name, stat in self.stats.items():
            out[f"{name}.calls"] = stat.calls
            out[f"{name}.self_s"] = stat.self_s
            for key, _ in EXTRA.get(name, ()):
                out[f"{name}.{key}"] = stat.extra.get(key, 0)
            if stat.seen is not None:
                out[f"{name}.repeat_frac"] = (stat.repeats / stat.calls
                                              if stat.calls else 0.0)
        out["exactla.coeff_bits_max"] = self.coeff_bits_max
        out["bench.trace_overhead_frac"] = overhead_frac
        return {name: out[name] for name, _ in metric_names()}

    def write_spans(self, path):
        """Write the spans as one JSON object: span names, then rows of
        [id, name index, start, end, parent id, verdict]."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names,
                       "fields": ["id", "name", "start_s", "end_s",
                                  "parent", "verdict"],
                       "spans": self.spans}, fh, separators=(",", ":"))
