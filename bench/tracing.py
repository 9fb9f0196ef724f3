"""Per-layer tracing from outside the program.

``Tracer.install()`` wraps the public functions of each deforma layer,
replacing every binding through which a caller looks the function up: the
defining module's global, each ``from x import f`` copy in another deforma
module, and entries of module-level dicts such as the CLI command table.
Methods are wrapped on their class.  ``uninstall()`` restores everything.

Three kinds of wrapper:

* ``SPAN``: each call is recorded as (name, start, end, parent, task) in
  memory and written out when the run ends.
* ``HOT``: too many calls to record one by one (``Dgla.bracket`` runs about
  a million times per ``axioms`` pass); calls and times are aggregated.
* ``COUNT``: counted, never timed (``Dgla.pair_bracket``), so its time stays
  in its caller's self time.

Self time is a span's duration minus the time covered by its child spans,
accumulated while the spans close.  ``FractionCounter`` is a separate
counting pass: it counts ``Fraction`` arithmetic calls and is never timed.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter
from fractions import Fraction
from math import comb
from time import perf_counter

SPAN, HOT, COUNT = "span", "hot", "count"

_CLI_COMMANDS = ("cmd_validate", "cmd_cohomology", "cmd_mc", "cmd_gauge",
                 "cmd_linf_check", "cmd_cartan_check", "cmd_transport",
                 "cmd_holim", "cmd_period")

# (span name, "module:attribute", kind); a name may cover several targets
LAYERS = [
    ("linalg.rref", "deforma.linalg:rref", SPAN),
    ("linalg.nullspace", "deforma.linalg:nullspace", SPAN),
    ("linalg.solve", "deforma.linalg:solve", SPAN),
    ("linalg.in_span", "deforma.linalg:in_span", SPAN),
    ("graded.cohomology", "deforma.graded:cohomology", SPAN),
    ("graded.induced_map_on_cohomology",
     "deforma.graded:induced_map_on_cohomology", SPAN),
    ("graded.quotient_complex", "deforma.graded:quotient_complex", SPAN),
    ("dgla.validate_dgla", "deforma.dgla:validate_dgla", SPAN),
    ("dgla.validate_morphism", "deforma.dgla:validate_morphism", SPAN),
    ("dgla.restrict_to_sub", "deforma.dgla:restrict_to_sub", SPAN),
    ("dgla.bracket", "deforma.dgla:Dgla.bracket", HOT),
    ("dgla.pair_bracket", "deforma.dgla:Dgla.pair_bracket", COUNT),
    ("endo.end_dgla", "deforma.endo:end_dgla", SPAN),
    ("artin.tensor_nilpotent", "deforma.artin:tensor_nilpotent", SPAN),
    ("convolution.hom_dgla_slice", "deforma.convolution:hom_dgla_slice", SPAN),
    ("convolution.taylor_from_linear",
     "deforma.convolution:taylor_from_linear", SPAN),
    ("convolution.linf_residual", "deforma.convolution:linf_residual", SPAN),
    ("cartan.gauge_zero_transport", "deforma.cartan:gauge_zero_transport", SPAN),
    ("mc.gauge_act", "deforma.mc:gauge_act", SPAN),
    ("mc.mc_residue", "deforma.mc:mc_residue", SPAN),
    ("mc.gauge_equivalent", "deforma.mc:gauge_equivalent", SPAN),
    ("mc.irrelevant_stabilizer", "deforma.mc:irrelevant_stabilizer", SPAN),
    ("mc.mc_extend", "deforma.mc:mc_extend", SPAN),
    ("mc.bch", "deforma.mc:bch", SPAN),
    ("mc.pi1_multiply", "deforma.mc:pi1_multiply", SPAN),
    ("holim.path_dgla", "deforma.holim:path_dgla", SPAN),
    ("holim.holim_bounded", "deforma.holim:holim_bounded", SPAN),
    ("holim.holim_cohomology_bounded",
     "deforma.holim:holim_cohomology_bounded", SPAN),
    ("holim.map_into_holim", "deforma.holim:map_into_holim", SPAN),
    ("holim.quasi_abelian_witness", "deforma.holim:quasi_abelian_witness", SPAN),
    ("period.contraction_cartan", "deforma.period:contraction_cartan", SPAN),
    ("period.period_differential", "deforma.period:period_differential", SPAN),
    ("models.parse_model", "deforma.models:parse_model", SPAN),
    ("cli.report_emit", "deforma.cli:report_emit", SPAN),
] + [("cli.command", f"deforma.cli:{name}", SPAN) for name in _CLI_COMMANDS]

# the per-layer metrics a traced run reports, with unit and direction
PER_LAYER = [
    ("dgla.validate_dgla.self_s", "s", "lower"),
    ("dgla.validate_dgla.instances", "count", "lower"),
    ("dgla.bracket.calls", "count", "lower"),
    ("dgla.bracket.self_s", "s", "lower"),
    ("dgla.pair_bracket.calls", "count", "lower"),
    ("dgla.pair_bracket.nonzero_ratio", "ratio", "higher"),
    ("dgla.table_density", "ratio", "higher"),
    ("dgla.restrict_to_sub.self_s", "s", "lower"),
    ("convolution.hom_dgla_slice.self_s", "s", "lower"),
    ("convolution.hom_dgla_slice.dim", "count", "lower"),
    ("endo.end_dgla.self_s", "s", "lower"),
    ("linalg.rref.calls", "count", "lower"),
    ("linalg.rref.cells", "count", "lower"),
    ("linalg.rref.self_s", "s", "lower"),
    ("linalg.solve.calls", "count", "lower"),
    ("linalg.nullspace.calls", "count", "lower"),
    ("linalg.in_span.calls", "count", "lower"),
    ("graded.cohomology.self_s", "s", "lower"),
    ("graded.induced_map_on_cohomology.self_s", "s", "lower"),
    ("holim.path_dgla.self_s", "s", "lower"),
    ("holim.holim_bounded.self_s", "s", "lower"),
    ("holim.holim_bounded.dim", "count", "lower"),
    ("period.period_differential.self_s", "s", "lower"),
    ("mc.gauge_act.calls", "count", "lower"),
    ("mc.gauge_act.self_s", "s", "lower"),
    ("mc.gauge_equivalent.self_s", "s", "lower"),
    ("mc.gauge_equivalent.conclusive_ratio", "ratio", "higher"),
    ("mc.irrelevant_stabilizer.self_s", "s", "lower"),
    ("mc.mc_extend.self_s", "s", "lower"),
    ("mc.bch.calls", "count", "lower"),
    ("mc.bch.self_s", "s", "lower"),
    ("artin.tensor_nilpotent.self_s", "s", "lower"),
    ("artin.tensor_nilpotent.dim", "count", "lower"),
    ("cli.import_s", "s", "lower"),
    ("models.parse_model.self_s", "s", "lower"),
    ("cli.command.self_s", "s", "lower"),
    ("cli.report_emit.self_s", "s", "lower"),
    ("fraction.ops", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.attributed_ratio", "ratio", "higher"),
]


def _resolve(target: str):
    module, attr = target.split(":")
    mod = importlib.import_module(module)
    if "." in attr:
        cls_name, meth = attr.split(".")
        return mod, getattr(mod, cls_name), meth
    return mod, None, attr


def validate_instances(g) -> int:
    """Antisymmetry, Leibniz and Jacobi instances validate_dgla checks on g."""
    sp = g.space
    n = sum(sp.dim(d) for d in sp.degrees)
    anti = sum(comb(sp.dim(m) + 1, 2) for (m, k) in g.brackets if m == k)
    return anti + n * n + comb(n + 2, 3)


def table_counts(g) -> tuple[int, int]:
    """(stored, nonzero) structure constants of g's bracket tables."""
    stored = nonzero = 0
    for table in g.brackets.values():
        for row in table:
            for v in row:
                stored += len(v)
                nonzero += sum(1 for c in v if c)
    return stored, nonzero


def _hook_rref(counts, args, result):
    a = args[0]
    counts["linalg.rref.cells"] += len(a) * (len(a[0]) if a else 0)


def _hook_validate(counts, args, result):
    g = args[0]
    counts["dgla.validate_dgla.instances"] += validate_instances(g)
    stored, nonzero = table_counts(g)
    counts["dgla.table.stored"] += stored
    counts["dgla.table.nonzero"] += nonzero


def _hook_dim(key, space_of):
    def hook(counts, args, result):
        counts[key] += space_of(result).total_dim()
    return hook


def _hook_verdict(counts, args, result):
    counts[f"mc.gauge_equivalent.{result.status}"] += 1


HOOKS = {
    "linalg.rref": _hook_rref,
    "dgla.validate_dgla": _hook_validate,
    "convolution.hom_dgla_slice": _hook_dim("convolution.hom_dgla_slice.dim",
                                            lambda r: r.space),
    "holim.holim_bounded": _hook_dim("holim.holim_bounded.dim",
                                     lambda r: r.complex.space),
    "artin.tensor_nilpotent": _hook_dim("artin.tensor_nilpotent.dim",
                                        lambda r: r.space),
    "mc.gauge_equivalent": _hook_verdict,
}


class Tracer:
    """Spans and counters for the calls made while ``run_task`` runs."""

    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent, task]
        self.stats: dict[str, list] = {}     # name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self._stack: list[list] = []         # open calls: [start, child_s]
        self._current = -1                   # innermost recorded span
        self._task = -1
        self._patches: list[tuple] = []

    # -- wrapping ----------------------------------------------------------
    def install(self):
        for name, target, kind in LAYERS:
            mod, cls, attr = _resolve(target)
            if cls is not None:
                original = cls.__dict__[attr]
                self._patch(cls, attr, self._wrap(name, kind, original), setattr)
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(name, kind, original)
            for other in list(sys.modules.values()):
                if not getattr(other, "__name__", "").startswith("deforma"):
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._patch(other, key, wrapper, setattr)
                    elif isinstance(value, dict) and not key.startswith("__"):
                        for dkey, dvalue in list(value.items()):
                            if dvalue is original:
                                self._patch(value, dkey, wrapper,
                                            dict.__setitem__)

    def _patch(self, container, key, wrapper, setter):
        getter = getattr if setter is setattr else dict.__getitem__
        self._patches.append((container, key, getter(container, key), setter))
        setter(container, key, wrapper)

    def uninstall(self):
        for container, key, original, setter in reversed(self._patches):
            setter(container, key, original)
        self._patches.clear()

    def _wrap(self, name, kind, fn):
        tracer = self
        if kind == COUNT:
            calls, nonzero = f"{name}.calls", f"{name}.nonzero"

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                if tracer._task >= 0:
                    tracer.counts[calls] += 1
                    if result:
                        tracer.counts[nonzero] += 1
                return result
            return counted
        hook = HOOKS.get(name)
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        record = kind == SPAN

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if tracer._task < 0:
                return fn(*args, **kwargs)
            result = tracer._call(name, stats, record, fn, args, kwargs)
            if hook is not None:
                hook(tracer.counts, args, result)
            return result
        return spanned

    def _call(self, name, stats, record, fn, args, kwargs):
        parent = self._current
        index = -1
        if record:
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, self._task])
            self._current = index
        frame = [perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            duration = end - frame[0]
            stats[0] += 1
            stats[1] += duration
            stats[2] += duration - frame[1]
            if self._stack:
                self._stack[-1][1] += duration
            if record:
                self.spans[index][1:3] = [frame[0], end]
                self._current = parent

    # -- task roots ----------------------------------------------------------
    def run_task(self, index: int, fn):
        """Run one task as a root span named "task"."""
        self._task = index
        try:
            return self._call("task", self.stats.setdefault("task", [0, 0.0, 0.0]),
                              True, fn, (), {})
        finally:
            self._task = -1

    # -- results -----------------------------------------------------------
    def metric(self, name: str) -> float:
        counts = self.counts
        if name == "dgla.pair_bracket.nonzero_ratio":
            return _ratio(counts["dgla.pair_bracket.nonzero"],
                          counts["dgla.pair_bracket.calls"])
        if name == "dgla.table_density":
            return _ratio(counts["dgla.table.nonzero"], counts["dgla.table.stored"])
        if name == "mc.gauge_equivalent.conclusive_ratio":
            verdicts = [counts[f"mc.gauge_equivalent.{s}"]
                        for s in ("equivalent", "not_equivalent", "inconclusive")]
            return _ratio(verdicts[0] + verdicts[1], sum(verdicts))
        if name == "trace.attributed_ratio":
            calls, total, self_s = self.stats.get("task", (0, 0.0, 0.0))
            return _ratio(total - self_s, total)
        span, _, field = name.rpartition(".")
        if field == "self_s":
            return self.stats.get(span, (0, 0.0, 0.0))[2]
        if field == "calls" and span in self.stats:
            return self.stats[span][0]
        return counts[name]

    def dump(self, path: str):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans,
                       "stats": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                                 for k, v in sorted(self.stats.items())},
                       "counts": dict(sorted(self.counts.items()))}, fh)
            fh.write("\n")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


class FractionCounter:
    """Counts Fraction arithmetic calls made while ``run_task`` runs."""

    OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
           "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__",
           "__mod__", "__rmod__", "__pow__", "__rpow__", "__neg__", "__pos__",
           "__abs__")

    def __init__(self):
        self.ops = 0
        self._originals = {op: Fraction.__dict__[op] for op in self.OPS}
        self._wrappers = {op: self._counting(fn)
                          for op, fn in self._originals.items()}

    def _counting(self, fn):
        counter = self

        @functools.wraps(fn)
        def wrapper(*args):
            counter.ops += 1
            return fn(*args)
        return wrapper

    def run_task(self, index: int, fn):
        for op, wrapper in self._wrappers.items():
            setattr(Fraction, op, wrapper)
        try:
            return fn()
        finally:
            for op, original in self._originals.items():
                setattr(Fraction, op, original)
