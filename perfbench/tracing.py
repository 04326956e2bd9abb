"""Spans around the package's public functions, installed from outside.

`Tracer.install` wraps every public function of each layer module, plus
`Lattice.pairing` and `Sublattice` construction, and rebinds each wrapper
under every name in every `k3lattices` module that held the original, so
calls are caught where the calling module looks the name up.  `restore`
puts the originals back.  Spans stay in memory until `write`.

A span is (function, start ns, end ns, parent span, request, outermost),
where outermost is false for a call nested inside a call of the same
function.  A layer's self time is the time of its spans minus the time of
their child spans; a function's busy time is the time of its outermost
spans.  Methods of the package's classes other than the two named above
are not wrapped, so their time counts to the span that called them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from pathlib import Path

LAYERS = ("intmat", "lattices", "sublattices", "polynomials", "fibration",
          "fixedlocus", "verify", "cli")

# functions reported one by one, as layer -> (qualified name, metric name)
NAMED = {
    "intmat": [(n, n) for n in ("det_exact", "hermite_normal_form",
                                "smith_normal_form", "solve_rational",
                                "unimodular_inverse")],
    "lattices": [("Lattice.pairing", "pairing"), ("signature", "signature"),
                 ("discriminant_group", "discriminant_group")],
    "sublattices": [("Sublattice.__init__", "Sublattice"),
                    ("is_primitive", "is_primitive"), ("solve_glue", "solve_glue"),
                    ("enumerate_even_overlattices", "enumerate_even_overlattices")],
    "polynomials": [(n, n) for n in ("squarefree_parts", "uniform_valuations",
                                     "extract_rational_roots")],
    "fibration": [(n, n) for n in ("analyze_k3", "build_neron_severi")],
    "fixedlocus": [(n, n) for n in ("walk_chain", "fixed_pair_search")],
    "verify": [("run_verification", "run_verification")],
    "cli": [("main", "main")],
}
METHODS = {"lattices": ["Lattice.pairing"], "sublattices": ["Sublattice.__init__"]}


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    names = []
    for layer in LAYERS:
        names += [f"{layer}.self_ms", f"{layer}.calls"]
        for _, short in NAMED[layer]:
            names += [f"{layer}.{short}.busy_ms", f"{layer}.{short}.calls"]
    return names + ["intmat.hnf.out_bits_max", "intmat.snf.out_bits_max",
                    "lattices.pairing.calls_per_overlattice", "cli.import_ms",
                    "trace.overhead_ratio"]


def unit(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("bits_max"):
        return "bits"
    return "ratio" if name.endswith(("_ratio", "per_overlattice")) else "count"


def _max_bits(*matrices) -> int:
    return max((abs(x).bit_length() for m in matrices for row in m.entries
                for x in row), default=0)


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.request = 0
        self.functions: list[tuple[str, str]] = []  # (layer, qualified name)
        self.active: list[int] = []
        self.bindings: list[tuple[object, str, object, object]] | None = None
        self.hnf_bits = 0
        self.snf_bits = 0
        self.overlattices = 0

    # --- wrapping ---------------------------------------------------------

    def _wrap(self, fn, layer: str, qualname: str, post=None):
        fid = len(self.functions)
        self.functions.append((layer, qualname))
        self.active.append(0)
        spans, stack, active = self.spans, self.stack, self.active
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            outermost = active[fid] == 0
            stack.append(index)
            active[fid] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                active[fid] -= 1
                stack.pop()
                spans[index] = (fid, start, end, parent, self.request, outermost)
            if post is not None:
                post(result)
            return result

        return wrapper

    def _post(self, qualname: str):
        if qualname == "hermite_normal_form":
            def post(result):
                self.hnf_bits = max(self.hnf_bits, _max_bits(result[1]))
        elif qualname == "smith_normal_form":
            def post(result):
                self.snf_bits = max(self.snf_bits, _max_bits(result[1], result[2]))
        elif qualname == "enumerate_even_overlattices":
            def post(result):
                self.overlattices += len(result)
        else:
            return None
        return post

    def _bindings(self) -> list[tuple[object, str, object, object]]:
        """(owner, name, original, wrapper) for every place a wrapped
        function is looked up; built once, on the first install."""
        if self.bindings is not None:
            return self.bindings
        self.bindings = []
        modules = {layer: importlib.import_module(f"k3lattices.{layer}")
                   for layer in LAYERS}
        package = [m for name, m in sorted(sys.modules.items())
                   if name == "k3lattices" or name.startswith("k3lattices.")]
        for layer, module in modules.items():
            for name, obj in sorted(vars(module).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                wrapper = self._wrap(obj, layer, name, self._post(name))
                for other in package:
                    for key, value in list(vars(other).items()):
                        if value is obj:
                            self.bindings.append((other, key, obj, wrapper))
            for qualname in METHODS.get(layer, []):
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                original = vars(cls)[attr]
                self.bindings.append(
                    (cls, attr, original, self._wrap(original, layer, qualname)))
        return self.bindings

    def install(self) -> None:
        for owner, name, _, wrapper in self._bindings():
            setattr(owner, name, wrapper)

    def restore(self) -> None:
        for owner, name, original, _ in self._bindings():
            setattr(owner, name, original)

    # --- reporting ----------------------------------------------------------

    def layer_self_ms(self, requests: set[int] | None = None) -> dict[str, float]:
        """Self time per layer, over all spans or those of the given requests."""
        child = [0] * len(self.spans)
        for fid, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_ns = dict.fromkeys(LAYERS, 0)
        for i, (fid, start, end, _, request, _) in enumerate(self.spans):
            if requests is None or request in requests:
                self_ns[self.functions[fid][0]] += end - start - child[i]
        return {layer: ns / 1e6 for layer, ns in self_ns.items()}

    def metrics(self) -> dict[str, float]:
        """Layer self time and calls, and busy time and calls per named function."""
        self_ms = self.layer_self_ms()
        layer_calls = dict.fromkeys(LAYERS, 0)
        busy_ns = [0] * len(self.functions)
        calls = [0] * len(self.functions)
        for fid, start, end, _, _, outermost in self.spans:
            layer_calls[self.functions[fid][0]] += 1
            calls[fid] += 1
            if outermost:
                busy_ns[fid] += end - start
        by_name = {f: i for i, f in enumerate(self.functions)}
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = self_ms[layer]
            out[f"{layer}.calls"] = layer_calls[layer]
            for qualname, short in NAMED[layer]:
                fid = by_name[(layer, qualname)]
                out[f"{layer}.{short}.busy_ms"] = busy_ns[fid] / 1e6
                out[f"{layer}.{short}.calls"] = calls[fid]
        out["intmat.hnf.out_bits_max"] = self.hnf_bits
        out["intmat.snf.out_bits_max"] = self.snf_bits
        out["lattices.pairing.calls_per_overlattice"] = (
            self._pairings_in_overlattice_search() / self.overlattices
            if self.overlattices else 0)
        return out

    def _pairings_in_overlattice_search(self) -> int:
        by_name = {f: i for i, f in enumerate(self.functions)}
        search = by_name[("sublattices", "enumerate_even_overlattices")]
        pairing = by_name[("lattices", "Lattice.pairing")]
        inside = [False] * len(self.spans)
        count = 0
        for i, (fid, _, _, parent, _, _) in enumerate(self.spans):
            inside[i] = parent >= 0 and (inside[parent]
                                         or self.spans[parent][0] == search)
            count += inside[i] and fid == pairing
        return count

    def write(self, path: Path) -> None:
        """All spans as JSON lines: name, start, end, parent, request."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            for fid, start, end, parent, request, _ in self.spans:
                layer, qualname = self.functions[fid]
                f.write(json.dumps([f"{layer}.{qualname}", start, end, parent,
                                    request]) + "\n")
