"""Outside-in span tracing of idealkit, installed from the benchmark's files.

``Tracer.install()`` replaces each traced function by a wrapper that records
a span (job, parent span, name, start, end, self time).  A function bound
under several names (``from .x import y`` copies the binding) is replaced
under every name in every ``idealkit`` module that holds the same object;
methods are replaced on their class.  ``uninstall()`` restores the originals,
so traced and untraced passes alternate in one process.  Spans stay in
memory; ``fold()`` turns each job's spans into per-pass aggregates between
jobs, outside the job's timing.

Left unwrapped because one call costs less than the wrapper itself (about
0.5 us): ``_linalg.dot``, ``_linalg.primitive``, ``MonomialIdeal.contains``,
``Monomial`` arithmetic, ``formats.monomial_to_text`` and
``formats.parse_monomial``.  Their time counts as self time of the traced
function that calls them.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict


def _len(_args, out):
    return len(out)


def _gens(_args, out):
    return len(out.exponents)


def _candidates(args, _out):
    return len(set(args[0]))


def _elements(_args, out):
    return len(out.elements)


def _rays(args, out):
    # dual_description returns its argument untouched when both
    # representations are present: no rays were computed then.
    return 0 if args and args[0] is out else len(out.rays)


# (layer, attribute path in idealkit.<layer>, span name, extra-count hook)
TARGETS = [
    ("cli", "main", "main", None),
    ("formats", "parse_ideal_file", "parse_ideal_file", None),
    ("formats", "parse_digraph_file", "parse_digraph_file", None),
    ("formats", "parse_cone_file", "parse_cone_file", None),
    ("formats", "ideal_to_text", "ideal_to_text", None),
    ("formats", "cone_to_source", "cone_to_source", None),
    ("formats", "hilbert_basis_to_text", "hilbert_basis_to_text", None),
    ("symbolic", "symbolic_power", "symbolic_power", None),
    ("symbolic", "symbolic_power_min", "symbolic_power_min", None),
    ("symbolic", "symbolic_power_ass", "symbolic_power_ass", None),
    ("symbolic", "ntf_probe", "ntf_probe", None),
    ("decomposition", "irreducible_decomposition", "irreducible_decomposition", _len),
    ("decomposition", "primary_decomposition", "primary_decomposition", None),
    ("decomposition", "associated_primes", "associated_primes", None),
    ("decomposition", "minimal_primes", "minimal_primes", None),
    ("decomposition", "has_embedded_primes", "has_embedded_primes", None),
    ("decomposition", "localize", "localize", None),
    ("decomposition", "alexander_dual", "alexander_dual", None),
    ("decomposition", "star_dual", "star_dual", None),
    ("decomposition", "IrreducibleIdeal.__post_init__", "IrreducibleIdeal.init", None),
    ("digraphs", "WeightedDigraph.strong_covers", "strong_covers", _len),
    ("digraphs", "WeightedDigraph.is_strong_cover", "is_strong_cover", None),
    ("digraphs", "WeightedDigraph.prt_decomposition", "prt_decomposition", None),
    ("cones", "rees_cone", "rees_cone", None),
    ("cones", "dual_description", "dual_description", _rays),
    ("cones", "simis_cone", "simis_cone", _rays),
    ("cones", "hilbert_basis", "hilbert_basis", _elements),
    ("cones", "_reduce_generators", "reduce_generators", _candidates),
    ("cones", "semigroup_member", "semigroup_member", None),
    ("cones", "is_normal", "is_normal", None),
    ("cones", "integral_closure", "integral_closure", None),
    ("cones", "symbolic_rees_generators", "symbolic_rees_generators", None),
    ("_linalg", "rank", "rank", None),
    ("_linalg", "independent_rows", "independent_rows", None),
    ("_linalg", "frac_inverse", "frac_inverse", None),
    ("_linalg", "diagonalize", "diagonalize", None),
    ("_linalg", "kernel_lattice_basis", "kernel_lattice_basis", None),
    ("core", "MonomialIdeal.__mul__", "mul", _gens),
    ("core", "MonomialIdeal.__pow__", "pow", _gens),
    ("core", "MonomialIdeal.intersect", "intersect", _gens),
    ("core", "MonomialIdeal.colon", "colon", _gens),
    ("core", "intersect_all", "intersect_all", None),
    ("core", "_minimal_vecs", "_minimal_vecs", None),
]

# Metric names must start with a letter or digit, so the module _linalg
# reports as "linalg".
LAYERS = ("cli", "formats", "symbolic", "decomposition", "digraphs", "cones",
          "linalg", "core")


def _metric_layer(module):
    return module.lstrip("_")

# The per-layer metrics a --trace 1 run reports (BENCHMARK.json lists the
# same names); metrics() computes more, and the results file keeps them all.
PER_LAYER = (
    [f"decomposition.{f}.{m}" for f in ("irreducible_decomposition", "localize")
     for m in ("calls", "self_s")]
    + ["decomposition.raw_components", "decomposition.components_out",
       "decomposition.irredundant_yield"]
    + [f"digraphs.strong_covers.{m}" for m in ("calls", "self_s")]
    + ["digraphs.covers_tested", "digraphs.covers_out", "digraphs.strong_yield"]
    + [f"core.{f}.{m}" for f in ("mul", "pow", "intersect", "colon", "_minimal_vecs")
       for m in ("calls", "self_s")]
    + ["core.gens_out"]
    + [f"symbolic.{f}.calls" for f in ("symbolic_power_min", "symbolic_power_ass",
                                       "ntf_probe")]
    + ["symbolic.pow_per_power"]
    + [f"cones.{f}.{m}" for f in ("dual_description", "simis_cone", "hilbert_basis",
                                  "semigroup_member") for m in ("calls", "self_s")]
    + ["cones.hb_candidates", "cones.hb_elements_out", "cones.hb_yield",
       "cones.rays_out"]
    + [f"linalg.{f}.{m}" for f in ("rank", "independent_rows", "frac_inverse",
                                    "diagonalize", "kernel_lattice_basis")
       for m in ("calls", "self_s")]
    + ["formats.parse.calls", "formats.render.calls"]
    + [f"{layer}.self_s" for layer in LAYERS]
    + ["trace.overhead_frac", "trace.accounted_frac"]
)

_CORE_OPS = ("core.mul", "core.pow", "core.intersect", "core.colon")
_SYM_POWERS = ("symbolic.symbolic_power_min", "symbolic.symbolic_power_ass")

# ancestor bits: a span's mask says which of these enclose it
_BITS = {"decomposition.irreducible_decomposition": 1,
         "symbolic.symbolic_power_min": 2, "symbolic.symbolic_power_ass": 2,
         "core.mul": 4, "core.pow": 4, "core.intersect": 4, "core.colon": 4}


class Tracer:
    def __init__(self):
        self.spans = []       # (job, parent, name, start_ns, end_ns, self_ns, extra)
        self.stack = []       # [span id, child ns]
        self.job = -1
        self.missing = []     # target paths absent from this idealkit
        self.bindings = {}    # span name -> names it was installed under
        self._saved = []      # (owner, attribute, original)
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.extra = defaultdict(int)
        self.derived = defaultdict(int)

    # -- installation ------------------------------------------------------
    def install(self):
        pkg = [m for n, m in sorted(sys.modules.items())
               if n == "idealkit" or n.startswith("idealkit.")]
        for layer, path, short, hook in TARGETS:
            name = f"{_metric_layer(layer)}.{short}"
            owner = sys.modules[f"idealkit.{layer}"]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            orig = (owner.__dict__.get(attr) if cls_path
                    else getattr(owner, attr, None)) if owner is not None else None
            if orig is None:
                if f"idealkit.{layer}.{path}" not in self.missing:
                    self.missing.append(f"idealkit.{layer}.{path}")
                continue
            wrapper = self._wrap(name, orig, hook)
            if cls_path:
                sites = [(owner, attr)]
            else:
                sites = [(m, k) for m in pkg for k, v in vars(m).items() if v is orig]
            for site_owner, key in sites:
                self._saved.append((site_owner, key, orig))
                setattr(site_owner, key, wrapper)
            self.bindings[name] = sorted(
                f"{getattr(o, '__name__', '?')}.{k}" for o, k in sites)

    def uninstall(self):
        for owner, key, orig in reversed(self._saved):
            setattr(owner, key, orig)
        self._saved.clear()

    def _wrap(self, name, fn, hook):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0]
            stack.append(frame)
            out, done = None, False
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                done = True
                return out
            finally:
                t1 = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                spans[sid] = (tracer.job, parent, name, t0, t1, t1 - t0 - frame[1],
                              hook(args, out) if hook and done else 0)

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    # -- aggregation ---------------------------------------------------------
    def fold(self, keep=None):
        """Add the recorded spans to the aggregates and clear them.

        ``keep`` (a list) receives the raw spans when given, as
        (job, span id, parent id or -1, name, start ns, end ns, self ns,
        extra count); ids count from 0 within each job.
        """
        masks = [0] * len(self.spans)
        calls, self_ns, extra, derived = self.calls, self.self_ns, self.extra, self.derived
        for sid, span in enumerate(self.spans):
            _job, parent, name, _t0, _t1, own, x = span
            mask = 0
            if parent >= 0:
                mask = masks[parent] | _BITS.get(self.spans[parent][2], 0)
            masks[sid] = mask
            calls[name] += 1
            self_ns[name] += own
            extra[name] += x
            if name == "decomposition.IrreducibleIdeal.init" and mask & 1:
                derived["raw_components"] += 1
            elif name == "core.pow" and mask & 2:
                derived["pow_in_symbolic"] += 1
            if name in _SYM_POWERS and not mask & 2:
                derived["symbolic_outer"] += 1
            if name in _CORE_OPS and not mask & 4:
                derived["gens_out"] += x
        if keep is not None:
            keep.extend((s[0], sid) + s[1:] for sid, s in enumerate(self.spans))
        self.spans.clear()

    def metrics(self, passes, traced_s, untraced_s):
        """Per-layer metrics, per pass through the job list."""
        calls = {k: v / passes for k, v in self.calls.items()}
        self_s = {k: v / 1e9 / passes for k, v in self.self_ns.items()}
        extra = {k: v / passes for k, v in self.extra.items()}
        derived = {k: v / passes for k, v in self.derived.items()}

        def ratio(a, b):
            return a / b if b else 0.0

        out = {}
        for layer, _path, short, _hook in TARGETS:
            name = f"{_metric_layer(layer)}.{short}"
            out[f"{name}.calls"] = calls.get(name, 0.0)
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum((v for k, v in self_s.items()
                                          if k.split(".", 1)[0] == layer), 0.0)
        raw = derived.get("raw_components", 0.0)
        comps = extra.get("decomposition.irreducible_decomposition", 0.0)
        out["decomposition.raw_components"] = raw
        out["decomposition.components_out"] = comps
        out["decomposition.irredundant_yield"] = ratio(comps, raw)
        tested = calls.get("digraphs.is_strong_cover", 0.0)
        strong = extra.get("digraphs.strong_covers", 0.0)
        out["digraphs.covers_tested"] = tested
        out["digraphs.covers_out"] = strong
        out["digraphs.strong_yield"] = ratio(strong, tested)
        out["core.gens_out"] = derived.get("gens_out", 0.0)
        out["symbolic.pow_per_power"] = ratio(derived.get("pow_in_symbolic", 0.0),
                                              derived.get("symbolic_outer", 0.0))
        cands = extra.get("cones.reduce_generators", 0.0)
        elems = extra.get("cones.hilbert_basis", 0.0)
        out["cones.hb_candidates"] = cands
        out["cones.hb_elements_out"] = elems
        out["cones.hb_yield"] = ratio(elems, cands)
        out["cones.rays_out"] = (extra.get("cones.dual_description", 0.0)
                                 + extra.get("cones.simis_cone", 0.0))
        out["formats.parse.calls"] = sum((v for k, v in calls.items()
                                          if k.startswith("formats.parse_")), 0.0)
        out["formats.render.calls"] = sum((v for k, v in calls.items()
                                           if k.startswith("formats.")
                                           and not k.startswith("formats.parse_")), 0.0)
        total_self = sum(self_s.values())
        out["trace.overhead_frac"] = ratio(traced_s, untraced_s) - 1.0
        out["trace.accounted_frac"] = ratio(total_self, traced_s / passes)
        return out
