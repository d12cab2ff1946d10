"""Span tracer for the traced benchmark run.

`Tracer.install()` wraps detchern's layer-boundary functions in every
module namespace that binds them (for example both `partitions.lr_expansion`
and `schubert.lr_expansion`), plus `ChowClass.__mul__`.  Each call records a
span `[name, start, end, parent, op]` in memory; `dump()` writes them out
once, at the end.  `restore()` puts every original object back.

The module also holds the parent-side arithmetic: self time (a span's
duration minus the part of it its child spans cover) and the per-layer
metrics of one benchmark pass.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("partitions", "schubert", "classes", "lagrangian", "microlocal", "cli")

# Layer-boundary functions, by the module that defines them.  Cheap helpers
# called in inner loops (binom, normalize, fits_in, ChowClass.__add__) are
# left out on purpose: their time lands in the calling span's self time.
TARGETS = {
    "partitions": ("lr_expansion", "lr_cache_export", "lr_cache_import"),
    "schubert": ("ChowClass.__mul__", "tangent_chern", "bundle_power_chern", "a_matrix"),
    "classes": (
        "cm_class", "cm_class_via_trace", "csm_class", "csm_open", "euler_obstruction",
        "milnor_class", "chern_fulton_hypersurface", "b_matrix",
        "cm_cache_export", "cm_cache_import",
    ),
    "lagrangian": (
        "conormal", "charcycle", "charcycle_open", "polar_degrees", "ged",
        "ch_from_class", "dual_cm", "symmetry_check",
    ),
    "microlocal": ("ic_char_cycle", "solve_multiplicities", "determinantal_system"),
    "cli": (
        "run", "compute_document", "load_caches", "save_caches",
        "scan_conjectures", "reproduce_reference_tables",
    ),
}

# Span times are integer nanoseconds of CLOCK_MONOTONIC, which on Linux is
# shared by all processes, so a child's spans compare with the parent's
# spawn time.
clock_ns = time.monotonic_ns


class Tracer:
    """In-memory span recorder around detchern's public layer functions."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.op = 0
        self._stack: list[int] = []
        self._boxes: list[tuple[int, int]] = []
        self._kept: dict = {}
        self._patches: list[tuple[object, str, object]] = []

    # --- installation -------------------------------------------------------

    def install(self) -> None:
        mods = {layer: importlib.import_module(f"detchern.{layer}") for layer in LAYERS}
        namespaces = [
            mod for name, mod in list(sys.modules.items())
            if name == "detchern" or name.startswith("detchern.")
        ]
        export_lr = mods["partitions"].lr_cache_export
        export_cm = mods["classes"].cm_cache_export
        fits_in = mods["partitions"].fits_in
        special = {
            "partitions.lr_expansion": lambda name, fn: self._lr_wrapper(name, fn, fits_in),
            "partitions.lr_cache_import": lambda name, fn: self._growth_wrapper(name, fn, export_lr, "lr_imported"),
            "classes.cm_class": lambda name, fn: self._growth_wrapper(name, fn, export_cm, "cm_misses"),
            "schubert.ChowClass.__mul__": self._mul_wrapper,
        }
        try:
            for layer, names in TARGETS.items():
                for name in names:
                    full = f"{layer}.{name}"
                    make = special.get(full, self._span)
                    if "." in name:
                        cls_name, attr = name.split(".")
                        owner = getattr(mods[layer], cls_name)
                        self._patch(owner, attr, make(full, owner.__dict__[attr]))
                        continue
                    original = getattr(mods[layer], name)
                    wrapper = make(full, original)
                    for ns in namespaces:
                        for attr, value in list(vars(ns).items()):
                            if value is original:
                                self._patch(ns, attr, wrapper)
        except BaseException:
            self.restore()
            raise
        self._export_lr = export_lr
        self.counters["lr_size_start"] = len(export_lr())

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # --- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock_ns(), 0, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock_ns()

        return traced

    def _mul_wrapper(self, name: str, fn):
        traced = self._span(name, fn)
        boxes = self._boxes

        @functools.wraps(fn)
        def mul(a, b):
            if not isinstance(b, type(a)):
                return traced(a, b)
            boxes.append((a.box.rows, a.box.cols))
            try:
                return traced(a, b)
            finally:
                boxes.pop()

        return mul

    def _lr_wrapper(self, name: str, fn, fits_in):
        # The hottest call: the span is recorded inline rather than through
        # _span, and the kept-term count is memoized per (lam, mu, box).
        spans, stack = self.spans, self._stack
        boxes, memo, counters = self._boxes, self._kept, self.counters

        @functools.wraps(fn)
        def lr(lam, mu):
            span = [name, clock_ns(), 0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(lam, mu)
            finally:
                stack.pop()
                span[2] = clock_ns()
            if boxes:
                key = (lam, mu, boxes[-1])
                kept = memo.get(key)
                if kept is None:
                    rows, cols = boxes[-1]
                    kept = memo[key] = (len(result), sum(1 for nu in result if fits_in(nu, rows, cols)))
                counters["lr_terms"] += kept[0]
                counters["lr_kept"] += kept[1]
            return result

        return lr

    def _growth_wrapper(self, name: str, fn, export, counter: str):
        """Count how many cache entries a call added, via the public export."""
        traced = self._span(name, fn)
        counters = self.counters

        @functools.wraps(fn)
        def grow(*args, **kwargs):
            before = len(export())
            result = traced(*args, **kwargs)
            counters[counter] += len(export()) - before
            return result

        return grow

    # --- output -------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write the spans and counters, then a second line with the time
        the first one took to write."""
        start = clock_ns()
        self.counters["lr_size_end"] = len(self._export_lr())
        names = sorted({s[0] for s in self.spans})
        index = {name: i for i, name in enumerate(names)}
        payload = {
            "names": names,
            "spans": [[index[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans],
            "counters": dict(self.counters),
        }
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(payload) + "\n")
            fh.flush()
            fh.write(json.dumps({"dump_ns": clock_ns() - start}) + "\n")


def load_dump(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        data = json.loads(fh.readline())
        data.update(json.loads(fh.readline()))
    names = data["names"]
    data["spans"] = [[names[s[0]], s[1], s[2], s[3], s[4]] for s in data["spans"]]
    return data


# --- parent-side arithmetic --------------------------------------------------


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the union of the parts of
    its children's intervals that fall inside it."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, cur_lo, cur_hi = 0.0, None, None
        clipped = sorted(
            (max(spans[c][1], start), min(spans[c][2], end)) for c in children.get(i, ())
        )
        for lo, hi in clipped:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def inclusive_time(spans, name: str) -> float:
    """Summed duration of the spans called `name` that have no ancestor of
    the same name (so recursion is not counted twice)."""
    total = 0.0
    for span in spans:
        if span[0] != name:
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            total += span[2] - span[1]
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_layer_metrics(dumps, spawn_ns, wall_s: float, bytes_read: int, bytes_written: int) -> dict:
    """Per-layer metrics of one traced pass.

    `dumps` holds one span dump per child process of the pass and
    `spawn_ns` the clock reading taken just before each was spawned.
    Times are reported in seconds.
    """
    calls, self_ns, incl_ns = Counter(), Counter(), Counter()
    layer_ns, counters = Counter(), Counter()
    startup_ns = dump_ns = 0
    inclusive_names = (
        "schubert.tangent_chern", "schubert.bundle_power_chern", "schubert.a_matrix",
        "classes.cm_class_via_trace", "cli.load_caches", "cli.save_caches",
    )
    for dump, spawned in zip(dumps, spawn_ns):
        spans, own = dump["spans"], dump["counters"]
        counters.update(own)
        counters["lr_miss"] += (
            own.get("lr_size_end", 0) - own.get("lr_size_start", 0) - own.get("lr_imported", 0)
        )
        dump_ns += dump["dump_ns"]
        if spans:
            startup_ns += min(s[1] for s in spans) - spawned
        for span, self_time in zip(spans, self_times(spans)):
            calls[span[0]] += 1
            self_ns[span[0]] += self_time
            layer_ns[span[0].split(".")[0]] += self_time
        for name in inclusive_names:
            incl_ns[name] += inclusive_time(spans, name)
    sec = 1e-9
    lr_calls = calls["partitions.lr_expansion"]
    cm_calls = calls["classes.cm_class"]
    metrics = {
        "partitions.lr_calls": lr_calls,
        "partitions.lr_miss": counters["lr_miss"],
        "partitions.lr_self_s": self_ns["partitions.lr_expansion"] * sec,
        "partitions.lr_hit_ratio": _ratio(lr_calls - counters["lr_miss"], lr_calls),
        "partitions.lr_kept_ratio": _ratio(counters["lr_kept"], counters["lr_terms"]),
        "schubert.mul_calls": calls["schubert.ChowClass.__mul__"],
        "schubert.mul_self_s": self_ns["schubert.ChowClass.__mul__"] * sec,
        "schubert.tangent_calls": calls["schubert.tangent_chern"],
        "schubert.tangent_s": incl_ns["schubert.tangent_chern"] * sec,
        "schubert.bundle_power_s": incl_ns["schubert.bundle_power_chern"] * sec,
        "schubert.a_matrix_calls": calls["schubert.a_matrix"],
        "schubert.a_matrix_s": incl_ns["schubert.a_matrix"] * sec,
        "classes.cm_calls": cm_calls,
        "classes.cm_hit_ratio": _ratio(cm_calls - counters["cm_misses"], cm_calls),
        "classes.cm_self_s": self_ns["classes.cm_class"] * sec,
        "classes.cm_trace_s": incl_ns["classes.cm_class_via_trace"] * sec,
        "cli.load_s": incl_ns["cli.load_caches"] * sec,
        "cli.save_s": incl_ns["cli.save_caches"] * sec,
        "cli.bytes_read": bytes_read,
        "cli.bytes_written": bytes_written,
        "cli.startup_s": startup_ns * sec,
        "trace.dump_s": dump_ns * sec,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_ns[layer] * sec
    accounted_ns = startup_ns + sum(layer_ns.values()) + dump_ns
    metrics["trace.accounted_ratio"] = _ratio(accounted_ns * sec, wall_s)
    return metrics
