"""Outside-in layer trace for the bigla benchmark.

The tracer wraps public functions of the bigla modules from outside the
package, for the duration of one traced pass, and restores them after.  A
function imported by name into another bigla module (``hc`` and ``cli`` do
``from .uea import delta_word``) is patched in every namespace that holds it.

Two kinds of boundary:

* span layers (``lie``, ``equivalence``, ``uea``, ``hc``, ``linalg``,
  ``deformed``, ``schema``, ``cli``) record one span per call: command id,
  parent span, name, start, end, and the time spent in aggregated children.
  Spans stay in memory and are written when the run ends; self times are
  computed from them afterwards.
* aggregated layers (``scalars``, ``linear``) run millions of times, so
  they only keep a call counter and summed self time per function.

Self time of a call is its duration minus the time of the wrapped calls
made directly inside it.
"""

from __future__ import annotations

import json
import os
import sys
from array import array
from time import perf_counter

# (module, qualified name, metric name); a qualified name "Class.attr"
# patches the class attribute, anything else the module-level function.
SPANS = [
    ("lie", "check_lie", "check_lie"),
    ("lie", "check_homogeneity", "check_homogeneity"),
    ("lie", "check_antisymmetry", "check_antisymmetry"),
    ("lie", "check_jacobi", "check_jacobi"),
    ("lie", "jacobiator", "jacobiator"),
    ("lie", "require_lie", "require_lie"),
    ("lie", "BiGradedAssocAlgebra.check_associativity", "check_associativity"),
    ("lie", "BiGradedAssocAlgebra.check_unit", "check_unit"),
    ("equivalence", "unbraid", "unbraid"),
    ("equivalence", "rebraid", "rebraid"),
    ("equivalence", "jacobiator_alpha_check", "jacobiator_alpha_check"),
    ("equivalence", "SuperLieAlgebraWithInvolution.check", "check"),
    # the rewriting engine; the module-level normal_form only delegates to it
    ("uea", "EnvelopingAlgebra.normal_form", "normal_form"),
    ("uea", "uea_multiply", "uea_multiply"),
    ("uea", "TensorElement.__mul__", "TensorElement.mul"),
    ("uea", "antipode", "antipode"),
    ("uea", "weyl_map", "weyl_map"),
    ("uea", "delta", "delta"),
    ("uea", "delta_slot", "delta_slot"),
    ("uea", "delta_word", "delta_word"),
    ("hc", "convolution_commutes", "convolution_commutes"),
    ("hc", "convolution", "convolution"),
    ("hc", "equivariant_hom_basis", "equivariant_hom_basis"),
    ("hc", "equivariant_functionals", "equivariant_functionals"),
    ("hc", "bch_product", "bch_product"),
    ("linalg", "Echelon.add_row", "Echelon.add_row"),
    ("linalg", "Echelon.nullspace", "Echelon.nullspace"),
    ("deformed", "parse_poly", "parse_poly"),
    ("deformed", "star_product", "star_product"),
    ("deformed", "to_complex", "to_complex"),
    ("deformed", "character_at", "character_at"),
    ("deformed", "star_vs_pointwise_distinguisher", "star_vs_pointwise_distinguisher"),
    ("schema", "load_path", "load_path"),
    ("schema", "dumps", "dumps"),
    ("cli", "main", "main"),
]

AGGREGATES = [
    ("scalars", "CycloScalar.__add__", "add"),
    ("scalars", "CycloScalar.__radd__", "add"),
    ("scalars", "CycloScalar.__sub__", "sub"),
    ("scalars", "CycloScalar.__rsub__", "sub"),
    ("scalars", "CycloScalar.__neg__", "neg"),
    ("scalars", "CycloScalar.__mul__", "mul"),
    ("scalars", "CycloScalar.__rmul__", "mul"),
    ("scalars", "CycloScalar.inverse", "inverse"),
    ("scalars", "CycloScalar.galois", "galois"),
    ("scalars", "CycloScalar.conj", "conj"),
    ("linear", "Vector.__add__", "Vector.add"),
    ("linear", "Vector.__sub__", "Vector.sub"),
    ("linear", "Vector.__neg__", "Vector.neg"),
    ("linear", "Vector.scale", "Vector.scale"),
    ("linear", "Vector.homogeneous_parts", "Vector.homogeneous_parts"),
    ("linear", "LinearMap.__call__", "LinearMap.call"),
    ("linear", "BilinearMap.__call__", "BilinearMap.call"),
]

# per-layer metrics reported by the traced run, with their units
LAYER_METRICS = {
    "scalars.add.calls": "count",
    "scalars.mul.calls": "count",
    "scalars.mul_full.calls": "count",
    "scalars.inverse.calls": "count",
    "scalars.self_s": "s",
    "linear.Vector.add.calls": "count",
    "linear.BilinearMap.call.calls": "count",
    "linear.self_s": "s",
    "lie.jacobiator.calls": "count",
    "lie.self_s": "s",
    "equivalence.jacobiator_alpha_check.calls": "count",
    "equivalence.jacobiator_alpha_check.self_s": "s",
    "equivalence.unbraid.self_s": "s",
    "equivalence.rebraid.self_s": "s",
    "uea.normal_form.calls": "count",
    "uea.normal_form.self_s": "s",
    "uea.normal_form.max_depth": "count",
    "uea.normal_form.repeat_frac": "ratio",
    "uea.uea_multiply.calls": "count",
    "uea.uea_multiply.self_s": "s",
    "uea.TensorElement.mul.calls": "count",
    "uea.TensorElement.mul.self_s": "s",
    "uea.antipode.self_s": "s",
    "uea.weyl_map.self_s": "s",
    "uea.delta_word.calls": "count",
    "uea.delta_word.self_s": "s",
    "uea.delta_word.repeat_frac": "ratio",
    "hc.convolution.calls": "count",
    "hc.convolution.self_s": "s",
    "hc.equivariant_functionals.self_s": "s",
    "hc.bch_product.self_s": "s",
    "linalg.Echelon.add_row.calls": "count",
    "linalg.Echelon.add_row.self_s": "s",
    "linalg.Echelon.add_row.dependent_frac": "ratio",
    "linalg.Echelon.nullspace.self_s": "s",
    "linalg.Echelon.pivot_fill": "count",
    "deformed.star_product.calls": "count",
    "deformed.star_product.self_s": "s",
    "deformed.to_complex.self_s": "s",
    "schema.load_path.calls": "count",
    "schema.load_path.self_s": "s",
    "cli.main.self_s": "s",
    "trace_overhead_frac": "ratio",
}

TIME_METRICS = frozenset(k for k, u in LAYER_METRICS.items() if u == "s")


def _resolve(module, qualname):
    owner = module
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Wraps the listed bigla functions while installed; one per traced pass."""

    def __init__(self):
        self.names: list[str] = []
        # span records, one entry per call, as parallel arrays
        self.span_cmd = array("l")
        self.span_parent = array("l")
        self.span_name = array("l")
        self.span_t0 = array("d")
        self.span_t1 = array("d")
        self.span_agg = array("d")
        self.calls: dict[str, int] = {}
        self.agg_self: dict[str, float] = {}
        self.extra: dict[str, float] = {
            "scalars.mul_full.calls": 0, "uea.normal_form.max_depth": 0,
            "uea.normal_form.repeats": 0, "uea.delta_word.repeats": 0,
            "linalg.Echelon.add_row.dependent": 0,
            "linalg.Echelon.pivot_rows": 0, "linalg.Echelon.pivot_nonzeros": 0}
        self._patches: list[tuple[object, str, object]] = []
        self._cmd = -1
        self._seen_nf: set = set()
        self._seen_dw: set = set()
        # frames: [aggregated child time, span child time, span index]
        self._stack: list[list] = [[0.0, 0.0, -1]]

    # lifecycle

    def begin_command(self, cmd_id: int):
        self._cmd = cmd_id
        self._seen_nf.clear()
        self._seen_dw.clear()

    def install(self):
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "bigla" or name.startswith("bigla.")}
        for layer, qualname, metric in SPANS:
            self._patch(mods, layer, qualname, self._span_wrapper(layer, metric, qualname))
        for layer, qualname, metric in AGGREGATES:
            self._patch(mods, layer, qualname, self._agg_wrapper(layer, metric, qualname))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, mods, layer, qualname, make):
        owner, attr = _resolve(mods[f"bigla.{layer}"], qualname)
        original = owner.__dict__[attr]
        wrapped = make(original)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)
        if "." in qualname:
            return
        # module-level function: also patch every namespace that imported it
        for mod in mods.values():
            for name, value in list(vars(mod).items()):
                if value is original and mod is not owner:
                    self._patches.append((mod, name, original))
                    setattr(mod, name, wrapped)

    # wrappers

    def _hooks(self, qualname):
        """(enter, leave, done) callbacks for the span metrics beyond calls
        and time: enter before the call, leave after it in any case, done
        with the result after a normal return."""
        extra = self.extra
        if qualname == "EnvelopingAlgebra.normal_form":
            seen, depth = self._seen_nf, [0]

            def enter(args):
                depth[0] += 1
                if depth[0] > extra["uea.normal_form.max_depth"]:
                    extra["uea.normal_form.max_depth"] = depth[0]
                k = (args[0], tuple(args[1]))
                if k in seen:
                    extra["uea.normal_form.repeats"] += 1
                else:
                    seen.add(k)

            def leave():
                depth[0] -= 1

            return enter, leave, None
        if qualname == "delta_word":
            seen = self._seen_dw

            def enter(args):
                k = (args[0], tuple(args[1]))
                if k in seen:
                    extra["uea.delta_word.repeats"] += 1
                else:
                    seen.add(k)

            return enter, None, None
        if qualname == "Echelon.add_row":
            def done(result):
                if result is None:
                    extra["linalg.Echelon.add_row.dependent"] += 1

            return None, None, done
        if qualname == "Echelon.nullspace":
            def enter(args):
                rows = args[0].pivots.values()
                extra["linalg.Echelon.pivot_rows"] += len(rows)
                extra["linalg.Echelon.pivot_nonzeros"] += sum(len(r) for r in rows)

            return enter, None, None
        return None, None, None

    def _span_wrapper(self, layer, metric, qualname):
        key = f"{layer}.{metric}"
        nid = len(self.names)
        self.names.append(key)
        stack = self._stack
        cmd_a, par_a, name_a = self.span_cmd, self.span_parent, self.span_name
        t0_a, t1_a, agg_a = self.span_t0, self.span_t1, self.span_agg
        enter, leave, done = self._hooks(qualname)
        tracer = self

        def make(fn):
            def wrapped(*args, **kwargs):
                if enter is not None:
                    enter(args)
                parent = stack[-1]
                sid = len(t0_a)
                cmd_a.append(tracer._cmd)
                par_a.append(parent[2])
                name_a.append(nid)
                t0_a.append(0.0)
                t1_a.append(0.0)
                agg_a.append(0.0)
                frame = [0.0, 0.0, sid]
                stack.append(frame)
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = perf_counter()
                    stack.pop()
                    t0_a[sid] = t0
                    t1_a[sid] = t1
                    agg_a[sid] = frame[0]
                    parent[1] += t1 - t0
                    if leave is not None:
                        leave()
                if done is not None:
                    done(result)
                return result

            return wrapped

        return make

    def _agg_wrapper(self, layer, metric, qualname):
        key = f"{layer}.{metric}"
        self.calls.setdefault(key, 0)
        self.agg_self.setdefault(key, 0.0)
        calls, agg_self, stack, extra = self.calls, self.agg_self, self._stack, self.extra
        full_mul = qualname in ("CycloScalar.__mul__", "CycloScalar.__rmul__")

        def make(fn):
            def wrapped(*args):
                if full_mul:
                    a, b = args
                    bc = getattr(b, "c", None)
                    if (bc is not None and (a.c[1] or a.c[2] or a.c[3])
                            and (bc[1] or bc[2] or bc[3])):
                        extra["scalars.mul_full.calls"] += 1
                parent = stack[-1]
                frame = [0.0, 0.0, -1]
                stack.append(frame)
                t0 = perf_counter()
                try:
                    return fn(*args)
                finally:
                    dur = perf_counter() - t0
                    stack.pop()
                    calls[key] += 1
                    agg_self[key] += dur - frame[0] - frame[1]
                    parent[0] += dur

            return wrapped

        return make

    # results

    def span_self_times(self) -> dict[str, float]:
        """Self time per span name: duration minus child spans and minus
        aggregated calls made directly inside the span."""
        n = len(self.span_t0)
        t0, t1, par = self.span_t0, self.span_t1, self.span_parent
        own = [t1[i] - t0[i] - self.span_agg[i] for i in range(n)]
        for i in range(n):
            p = par[i]
            if p >= 0:
                own[p] -= t1[i] - t0[i]
        out = {name: 0.0 for name in self.names}
        for i in range(n):
            out[self.names[self.span_name[i]]] += own[i]
        return out

    def span_calls(self) -> dict[str, int]:
        counts = [0] * len(self.names)
        for nid in self.span_name:
            counts[nid] += 1
        return dict(zip(self.names, counts))

    def layer_metrics(self) -> dict[str, float]:
        """Every LAYER_METRICS entry except trace_overhead_frac."""
        calls = dict(self.calls)
        calls.update(self.span_calls())
        selfs = dict(self.agg_self)
        selfs.update(self.span_self_times())
        extra = self.extra
        out: dict[str, float] = {}
        for name in LAYER_METRICS:
            if name.endswith(".calls"):
                if name == "scalars.mul_full.calls":
                    out[name] = int(extra[name])
                else:
                    out[name] = calls[name[:-len(".calls")]]
            elif name.endswith(".self_s"):
                stem = name[:-len(".self_s")]
                if stem in selfs:
                    out[name] = selfs[stem]
                else:  # a whole layer
                    out[name] = sum(v for k, v in selfs.items()
                                    if k.startswith(stem + "."))
        nf = calls["uea.normal_form"]
        dw = calls["uea.delta_word"]
        rows = calls["linalg.Echelon.add_row"]
        out["uea.normal_form.max_depth"] = int(extra["uea.normal_form.max_depth"])
        out["uea.normal_form.repeat_frac"] = extra["uea.normal_form.repeats"] / nf if nf else 0.0
        out["uea.delta_word.repeat_frac"] = extra["uea.delta_word.repeats"] / dw if dw else 0.0
        out["linalg.Echelon.add_row.dependent_frac"] = (
            extra["linalg.Echelon.add_row.dependent"] / rows if rows else 0.0)
        prow = extra["linalg.Echelon.pivot_rows"]
        out["linalg.Echelon.pivot_fill"] = extra["linalg.Echelon.pivot_nonzeros"] / prow if prow else 0.0
        return out

    def counts(self) -> dict[str, float]:
        """The metrics that must repeat exactly between traced passes."""
        return {k: v for k, v in self.layer_metrics().items() if k not in TIME_METRICS}

    def write(self, path: str):
        """Write the spans: a JSON index plus one binary file per column."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        columns = {"cmd": self.span_cmd, "parent": self.span_parent,
                   "name": self.span_name, "t0": self.span_t0,
                   "t1": self.span_t1, "agg": self.span_agg}
        index = {"names": self.names, "spans": len(self.span_t0),
                 "columns": {k: {"typecode": a.typecode,
                                 "file": f"{os.path.basename(path)}.{k}"}
                             for k, a in columns.items()},
                 "aggregates": {"calls": self.calls, "self_s": self.agg_self}}
        for k, a in columns.items():
            with open(f"{path}.{k}", "wb") as fh:
                a.tofile(fh)
        with open(f"{path}.json", "w") as fh:
            json.dump(index, fh, indent=1, sort_keys=True)
