"""In-process tracing of the `filiform` modules, installed from outside the package.

`Tracer.install()` must run before anything imports `filiform`.  It records a
span for the execution of each module body at import, then replaces every
public function of each module, wherever a module of the package looks the
name up, and the public and arithmetic methods of its classes, with wrappers
that record a span per call.  A span is (name, start, end, parent); spans and
counters stay in memory until `write_spans` and `layer_metrics` read them.

The layers are the modules of `src/filiform`, and a span named
`<layer>.<function>` belongs to `<layer>`.  A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import gzip
import importlib
import importlib.abc
import importlib.machinery
import inspect
import json
import sys
import time
from array import array
from collections import Counter
from math import comb

LAYERS = ("cli", "systems", "combinatorics", "polynomials", "oracle",
          "cochains", "lie", "forms", "serialize")
# arithmetic dunders do the sparse-map work; __eq__/__hash__/__repr__ do not
_METHOD_DUNDERS = ("__init__", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__")
# the one private name wrapped, because `cli.write_s` times the output writes
_PRIVATE = {"cli": ("_write",)}
# per-variable helpers, called once per variable occurrence (sort keys and
# validation): a span costs more than their body, so their time stays in the
# caller's self time
_UNWRAPPED = {"polynomials": ("check_variable", "var_key", "var_weight",
                              "var_text", "var_cas")}


class _ImportSpans(importlib.abc.MetaPathFinder):
    """Finds `filiform` modules as usual and records a span for each body run."""

    def __init__(self, tracer: "Tracer"):
        self._tracer = tracer

    def find_spec(self, fullname, path, target=None):
        if fullname.partition(".")[0] != "filiform":
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is not None and spec.loader is not None:
            layer = fullname.rpartition(".")[2]
            spec.loader.exec_module = self._tracer.wrap(
                f"{layer}.import", spec.loader.exec_module)
        return spec


class Tracer:
    def __init__(self):
        self.span_names: list[str] = []
        self._ids: dict[str, int] = {}
        self.names = array("q")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: list[int] = []
        self.counters: Counter = Counter()
        self._finder = _ImportSpans(self)

    # ---- recording -----------------------------------------------------

    def wrap(self, name: str, fn, before=None, after=None):
        """`fn` recording one span per call.

        `before(args, kwargs)` may return replacement (args, kwargs);
        `after(args, result)` sees the result.  Both run inside the span.
        """
        nid = self._ids.setdefault(name, len(self.span_names))
        if nid == len(self.span_names):
            self.span_names.append(name)
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                if before is not None:
                    args, kwargs = before(args, kwargs)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    # ---- installation --------------------------------------------------

    def install(self):
        """Import the package with import spans, then wrap every layer."""
        if any(m.partition(".")[0] == "filiform" for m in sys.modules):
            raise RuntimeError("filiform was imported before the tracer")
        sys.meta_path.insert(0, self._finder)
        try:
            modules = {layer: importlib.import_module(f"filiform.{layer}")
                       for layer in LAYERS}
        finally:
            sys.meta_path.remove(self._finder)
        namespaces = [sys.modules["filiform"], *modules.values()]
        hooks = self._hooks()
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, type):
                    if not issubclass(obj, BaseException):
                        self._wrap_class(layer, obj, hooks)
                elif callable(obj) and (not attr.startswith("_")
                                        or attr in _PRIVATE.get(layer, ())):
                    if (inspect.isgeneratorfunction(obj)  # body runs after the call
                            or attr in _UNWRAPPED.get(layer, ())):
                        continue
                    name = f"{layer}.{attr}"
                    traced = self.wrap(name, obj, *hooks.get(name, (None, None)))
                    for space in namespaces:
                        for key, value in list(vars(space).items()):
                            if value is obj:
                                setattr(space, key, traced)
        return modules

    def _wrap_class(self, layer: str, cls: type, hooks) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _METHOD_DUNDERS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            before, after = hooks.get(name, (None, None))
            if isinstance(obj, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, obj.__func__, before, after)))
            elif inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                setattr(cls, attr, self.wrap(name, obj, before, after))

    def _hooks(self) -> dict:
        """Counters kept at the layer boundaries, by span name."""
        counters = self.counters

        def sparse_init(layer):
            # materialise the term iterable to count it; the constructor
            # consumes it once either way
            def before(args, kwargs):
                if len(args) > 1:
                    terms = list(args[1])
                    args = (args[0], terms) + args[2:]
                else:
                    terms = list(kwargs.get("terms", ()))
                    kwargs = dict(kwargs, terms=terms)
                counters[f"{layer}.terms_in"] += len(terms)
                return args, kwargs

            def after(args, result):
                counters[f"{layer}.terms_out"] += len(args[0].terms)
            return before, after

        def memo_probe(args, kwargs):
            if args[1] in args[0]._memo:
                counters["cochains.memo_hits"] += 1
            return args, kwargs

        def built(args, system):
            counters["systems.equations"] += len(system.equations)
            counters["systems.monomials"] += sum(len(eq.poly.terms)
                                                 for eq in system.equations)

        def scan_in(args, kwargs):
            counters["oracle.jacobi_triples"] += comb(args[0].dim, 3)
            return args, kwargs

        def scan_out(args, defects):
            counters["oracle.jacobi_defects"] += len(defects)

        def emitted(args, text):
            counters["serialize.bytes_out"] += len(text.encode("utf-8"))

        return {
            "polynomials.DeformPolynomial.__init__": sparse_init("polynomials"),
            "lie.LieElement.__init__": sparse_init("lie"),
            "cochains.AdjointCochain.value_on_basis": (memo_probe, None),
            "systems.system_finite": (None, built),
            "systems.system_truncated": (None, built),
            "oracle.jacobi_scan": (scan_in, scan_out),
            "serialize.canonical_json": (None, emitted),
            "serialize.system_text": (None, emitted),
            "serialize.system_cas": (None, emitted),
        }

    # ---- results -------------------------------------------------------

    def by_name(self) -> dict[str, tuple[int, float, float]]:
        """span name -> (calls, total seconds, self seconds)."""
        n = len(self.names)
        covered = array("d", bytes(8 * n))
        parents, starts, ends = self.parents, self.starts, self.ends
        for i in range(n):
            p = parents[i]
            if p >= 0:
                covered[p] += ends[i] - starts[i]
        calls = [0] * len(self.span_names)
        total = [0.0] * len(self.span_names)
        own = [0.0] * len(self.span_names)
        for i, nid in enumerate(self.names):
            d = ends[i] - starts[i]
            calls[nid] += 1
            total[nid] += d
            own[nid] += d - covered[i]
        return {name: (calls[i], total[i], own[i]) for i, name in enumerate(self.span_names)}

    def write_spans(self, path) -> None:
        """Spans as gzip: one JSON header line, then the four arrays' raw bytes.

        The header names the arrays in order (`name` indexes `span_names`,
        `parent` is a span index or -1, `start`/`end` are perf_counter seconds).
        """
        header = {"span_names": self.span_names, "spans": len(self.names),
                  "arrays": ["name:int64", "parent:int64", "start:float64", "end:float64"],
                  "byteorder": sys.byteorder}
        with gzip.open(path, "wb", compresslevel=1) as handle:
            handle.write(json.dumps(header).encode("utf-8") + b"\n")
            for column in (self.names, self.parents, self.starts, self.ends):
                column.tofile(handle)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts, ratios and times from the recorded spans and counters."""
    spans = tracer.by_name()
    counters = tracer.counters

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return spans.get(name, (0, 0.0, 0.0))[2]

    def ratio(num, den):
        return num / den if den else 0.0

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(s for name, (_, _, s) in spans.items()
                                     if name.partition(".")[0] == layer)
    out["cli.write_s"] = total("cli._write")
    out["systems.f_poly.calls"] = calls("systems.f_poly")
    out["systems.f_poly.self_s"] = own("systems.f_poly")
    out["systems.builds"] = calls("systems.system_finite") + calls("systems.system_truncated")
    out["systems.equations"] = counters["systems.equations"]
    out["systems.monomials"] = counters["systems.monomials"]
    out["combinatorics.binomial.calls"] = calls("combinatorics.binomial")
    out["combinatorics.binomial.self_s"] = own("combinatorics.binomial")
    out["polynomials.constructed"] = calls("polynomials.DeformPolynomial.__init__")
    out["polynomials.terms_in"] = counters["polynomials.terms_in"]
    out["polynomials.terms_out"] = counters["polynomials.terms_out"]
    out["polynomials.keep_ratio"] = ratio(counters["polynomials.terms_out"],
                                          counters["polynomials.terms_in"])
    out["polynomials.evaluate.calls"] = calls("polynomials.DeformPolynomial.evaluate")
    out["polynomials.evaluate.self_s"] = own("polynomials.DeformPolynomial.evaluate")
    out["oracle.oracle_coefficient.calls"] = calls("oracle.oracle_coefficient")
    out["oracle.oracle_coefficient.self_s"] = own("oracle.oracle_coefficient")
    out["oracle.evaluate_system.s"] = total("oracle.evaluate_system")
    out["oracle.deformed_structure.s"] = total("oracle.deformed_structure")
    out["oracle.jacobi_scan.s"] = total("oracle.jacobi_scan")
    out["oracle.jacobi_triples"] = counters["oracle.jacobi_triples"]
    out["oracle.jacobi_defects"] = counters["oracle.jacobi_defects"]
    out["oracle.defect_ratio"] = ratio(counters["oracle.jacobi_defects"],
                                       counters["oracle.jacobi_triples"])
    out["cochains.psi2_value.calls"] = calls("cochains.psi2_value")
    out["cochains.psi2_value.self_s"] = own("cochains.psi2_value")
    value_calls = calls("cochains.AdjointCochain.value_on_basis")
    out["cochains.value_on_basis.calls"] = value_calls
    out["cochains.memo_hits"] = counters["cochains.memo_hits"]
    out["cochains.memo_hit_ratio"] = ratio(counters["cochains.memo_hits"], value_calls)
    out["lie.constructed"] = calls("lie.LieElement.__init__")
    out["lie.terms_in"] = counters["lie.terms_in"]
    out["lie.terms_out"] = counters["lie.terms_out"]
    out["lie.bracket.calls"] = calls("lie.LieStructure.bracket")
    out["forms.constructed"] = calls("forms.ExtForm.__init__")
    out["forms.dminus1.calls"] = calls("forms.dminus1")
    out["serialize.system_doc.s"] = total("serialize.system_doc")
    out["serialize.canonical_json.s"] = total("serialize.canonical_json")
    out["serialize.bytes_out"] = counters["serialize.bytes_out"]
    out["serialize.parse_assignment.s"] = total("serialize.parse_assignment")
    out["serialize.report_doc.s"] = total("serialize.report_doc")
    return out
