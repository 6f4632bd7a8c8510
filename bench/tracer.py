"""Layer spans recorded from outside graphzeta, by wrapping public functions.

`Tracer.install()` replaces each function named in `LAYERS` with a wrapper
that records a span (name, start, end, parent, job).  The function objects
are imported by name into several modules (`cli`, `iwasawa`, `lfunctions`,
`verify`, `equivariant`, the package itself), so every module attribute
that holds the same object is rebound; `restore()` puts the originals back.
Spans stay in memory until the pass ends.

`CycloNum.__mul__` is counted but not spanned: it runs tens of thousands
of times per pass, more often than all spanned functions together.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, function) pairs; the span and metric name is "module.function".
LAYERS = (
    ("datum_io", "load_datum"),
    ("report", "machine_json"),
    ("tower", "build_level_graph"),
    ("tower", "level_matrices"),
    ("graphs", "spanning_tree_count"),
    ("graphs", "ihara_zeta_reciprocal"),
    ("graphs", "reduced_closed_path_counts"),
    ("graphs", "connected"),
    ("linalg", "det_int"),
    ("linalg", "det_fraction"),
    ("linalg", "det_commutative"),
    ("linalg", "det_cofactor"),
    ("groupring", "from_character_values"),
    ("groupring", "apply_character"),
    ("lfunctions", "h_poly"),
    ("lfunctions", "z_poly"),
    ("lfunctions", "special_values"),
    ("equivariant", "eta_poly"),
    ("equivariant", "eta_for_subgroup_action"),
    ("equivariant", "norm_map"),
    ("equivariant", "inflation_check"),
    ("iwasawa", "tower_sweep"),
    ("iwasawa", "g_series"),
    ("iwasawa", "fit_and_certify"),
    ("verify", "run_battery"),
)
LAYER_NAMES = tuple(f"{m}.{f}" for m, f in LAYERS)
MUL_COUNT = "cyclo.CycloNum.mul.calls"
# Counts recorded at a layer boundary besides calls, s and self_s.
EXTRA_COUNTS = (
    "tower.build_level_graph.darts",
    "graphs.spanning_tree_count.dim_max",
    "lfunctions.h_poly.distinct",
)


def layer_metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a stable order."""
    names = [f"{layer}.{part}" for layer in LAYER_NAMES for part in ("calls", "s", "self_s")]
    return names + list(EXTRA_COUNTS) + ["lfunctions.h_poly.useful_ratio", MUL_COUNT]


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index or -1, job]
        self.job = -1
        self.counts = dict.fromkeys(EXTRA_COUNTS + (MUL_COUNT,), 0)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._h_args: set = set()
        self._undo: list[tuple] = []

    # -- hooks for the extra counts -----------------------------------

    def _after(self, name: str, args, kwargs, result) -> None:
        if name == "tower.build_level_graph":
            self.counts["tower.build_level_graph.darts"] += result.graph.n_darts
        elif name == "graphs.spanning_tree_count":
            dim = max(args[0].n_vertices - 1, 0)
            key = "graphs.spanning_tree_count.dim_max"
            self.counts[key] = max(self.counts[key], dim)
        elif name == "lfunctions.h_poly":
            key = (self.job, args, tuple(sorted(kwargs.items())))
            if key not in self._h_args:
                self._h_args.add(key)
                self.counts["lfunctions.h_poly.distinct"] += 1

    # -- wrapping -----------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, self.clock
        after = self._after

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            after(name, args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts[MUL_COUNT] += 1
            return fn(*args)

        return wrapper

    def _rebind(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every layer function wherever a graphzeta module holds it."""
        modules = [
            mod
            for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == "graphzeta" or key.startswith("graphzeta."))
        ]
        by_name = {mod.__name__.rpartition(".")[2]: mod for mod in modules}
        for (mod_name, fn_name), name in zip(LAYERS, LAYER_NAMES):
            original = getattr(by_name.get(mod_name), fn_name, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._span_wrapper(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, attr, wrapper)
        cyclo_num = getattr(by_name.get("cyclo"), "CycloNum", None)
        if cyclo_num is None:
            self.missing.append(MUL_COUNT)
            return
        mul = cyclo_num.__dict__["__mul__"]
        wrapper = self._count_wrapper(mul)
        for attr in ("__mul__", "__rmul__"):
            if cyclo_num.__dict__.get(attr) is mul:
                self._rebind(cyclo_num, attr, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def summarize(spans, counts: dict, factors=None) -> dict[str, float]:
    """Per-layer metrics of one pass from its spans and counts.

    `s` is inclusive time, counting a recursive call once (only spans with
    no ancestor of the same name); `self_s` is a span's duration minus the
    durations of its direct children.  With `factors`, a span of job i has
    its duration scaled by factors[i] (the pass's speed calibration).
    """
    out = {}
    for name in LAYER_NAMES:
        out[f"{name}.calls"] = 0
        out[f"{name}.s"] = 0.0
        out[f"{name}.self_s"] = 0.0
    for name, start, end, parent, job in spans:
        dur = (end - start) * (factors[job] if factors else 1.0)
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += dur
        if parent >= 0:
            out[f"{spans[parent][0]}.self_s"] -= dur
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            out[f"{name}.s"] += dur
    out.update(counts)
    calls = out["lfunctions.h_poly.calls"]
    out["lfunctions.h_poly.useful_ratio"] = out["lfunctions.h_poly.distinct"] / calls if calls else 0.0
    return out
