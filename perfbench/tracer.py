"""Outside-in tracer: spans and counts recorded around kurzmani's entry points.

Nothing in the package is edited.  While a ``Tracer`` is installed it
replaces

* module-level functions, in every ``kurzmani`` module that holds the same
  object under that name (``apps.verify_dichotomy`` is a separate global
  from ``dichotomy.verify_dichotomy``, so both are rebound);
* methods on their class (``FundamentalOperator.cell``, ``LPContext.lpcell``
  and the others in ``SPANS``);
* scipy functions as seen through one importing module's global
  (``linsys.expm``), which are counted, not timed.

Each wrapped call appends a span ``(name, start, end, parent)`` to an
in-memory list; ``aggregate`` turns a list of spans into per-name totals,
self times (duration minus the time covered by child spans) and call counts.
A target that does not exist in the package is not an error: it is recorded
in ``missing`` with the reason, and every metric that needs it is reported
missing by the caller.
"""

import functools
import sys
import time

import numpy as np

# (span name, module, attribute or "Class.method")
SPANS = (
    ("apps.ide_to_context", "kurzmani.apps", "ide_to_context"),
    ("apps.mde_to_context", "kurzmani.apps", "mde_to_context"),
    ("apps.check_hypotheses", "kurzmani.apps", "check_hypotheses"),
    ("funcspace.path_add", "kurzmani.funcspace", "PiecewisePath.__add__"),
    ("funcspace.total_variation", "kurzmani.funcspace", "total_variation"),
    ("funcspace.running_integral", "kurzmani.funcspace", "running_integral"),
    ("linsys.lambda_from_ide", "kurzmani.linsys", "lambda_from_ide"),
    ("linsys.check_regularity", "kurzmani.linsys", "check_regularity"),
    ("linsys.value", "kurzmani.linsys", "FundamentalOperator.value"),
    ("linsys.cell", "kurzmani.linsys", "FundamentalOperator.cell"),
    ("dichotomy.spectral_projection", "kurzmani.dichotomy", "spectral_projection"),
    ("dichotomy.verify_dichotomy", "kurzmani.dichotomy", "verify_dichotomy"),
    ("dichotomy.projection_family", "kurzmani.dichotomy", "projection_family"),
    ("lp_manifold.lpcell", "kurzmani.lp_manifold", "LPContext.lpcell"),
    ("lp_manifold.initial_path", "kurzmani.lp_manifold", "LPContext.initial_path"),
    ("lp_manifold.apply", "kurzmani.lp_manifold", "lp_operator_apply"),
    ("lp_manifold.solve_lp", "kurzmani.lp_manifold", "solve_lp"),
    ("lp_manifold.manifold_graph", "kurzmani.lp_manifold", "manifold_graph"),
    ("lp_manifold.bisect", "kurzmani.lp_manifold", "bisect_manifold_oracle"),
    ("lp_manifold.classify", "kurzmani.lp_manifold", "classify_initial"),
    ("kurzweil.ks_ref", "kurzmani.kurzweil", "ks_integral_ref"),
    ("kurzweil.stieltjes", "kurzmani.kurzweil", "stieltjes_integral"),
)

# (counter name, importing module, global name): scipy calls, counted only
COUNTS = (
    ("linsys.expm_calls", "kurzmani.linsys", "expm"),
    ("linsys.solve_ivp_calls", "kurzmani.linsys", "solve_ivp"),
    ("lp_manifold.ref_expm_calls", "kurzmani.lp_manifold", "expm"),
)


def _span_name(name, args, kwargs):
    """Split the operator apply by mode; every other span keeps its name."""
    if name != "lp_manifold.apply":
        return name
    mode = kwargs.get("mode", args[4] if len(args) > 4 else None)
    if mode is None:
        mode = getattr(args[3] if len(args) > 3 else kwargs.get("ctx"), "mode", None)
    return "lp_manifold.apply_ref" if mode == "reference" else "lp_manifold.apply_fast"


class Tracer:
    """Installs wrappers on entry, restores the originals on exit."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent index or -1)
        self.counts = {}
        self.results = []        # (span name, return value) of selected calls
        self.missing = {}        # target -> reason it could not be wrapped
        self._stack = []
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, keep_result):
        spans, stack, results = self.spans, self._stack, self.results

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = _span_name(name, args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (label, start, end, parent)
            if keep_result:
                results.append((label, out))
            return out
        return traced

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return counted

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, keep_results=()):
        self.reset()
        mods = {k: m for k, m in sys.modules.items()
                if k == "kurzmani" or k.startswith("kurzmani.")}
        for name, modname, target in SPANS:
            mod = mods.get(modname)
            if mod is None:
                self.missing[name] = "module %s not importable" % modname
                continue
            if "." in target:
                cls_name, meth = target.split(".")
                cls = getattr(mod, cls_name, None)
                if cls is None or meth not in cls.__dict__:
                    self.missing[name] = "%s.%s does not exist" % (modname, target)
                    continue
                self._set(cls, meth, self._wrap(name, cls.__dict__[meth],
                                                name in keep_results))
                continue
            orig = mod.__dict__.get(target)
            if orig is None:
                self.missing[name] = "%s.%s does not exist" % (modname, target)
                continue
            wrapped = self._wrap(name, orig, name in keep_results)
            for m in mods.values():
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        self._set(m, attr, wrapped)
        for name, modname, attr in COUNTS:
            mod = mods.get(modname)
            if mod is None or attr not in vars(mod):
                self.missing[name] = ("%s has no module global %s (imported "
                                      "locally or not used)" % (modname, attr))
                continue
            self.counts.setdefault(name, 0)
            self._set(mod, attr, self._counter(name, vars(mod)[attr]))
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def reset(self):
        """Forget recorded spans, counts and results; keep the wrappers."""
        self.spans.clear()
        self.results.clear()
        for k in self.counts:
            self.counts[k] = 0


def aggregate(spans):
    """Per span name: total inclusive seconds, self seconds, call count and
    the list of single-call durations."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, parent) in enumerate(spans):
        rec = out.setdefault(name, {"total_s": 0.0, "self_s": 0.0, "calls": 0,
                                    "durations": []})
        dur = end - start
        rec["total_s"] += dur
        rec["self_s"] += dur - child[i]
        rec["calls"] += 1
        rec["durations"].append(dur)
    return out


# Per-layer metrics of one traced repeat: (name, unit, span or counter it
# is read from).  Times are inclusive sums over the repeat unless the name
# says "self"; "_calls" are call counts.  The cli.* metrics and the
# accuracy figures are produced by the workloads, not by spans.
LAYER_METRICS = (
    ("apps.context_build_self_s", "s", "apps.ide_to_context"),
    ("apps.check_hypotheses_s", "s", "apps.check_hypotheses"),
    ("funcspace.path_add_calls", "count", "funcspace.path_add"),
    ("funcspace.path_add_s", "s", "funcspace.path_add"),
    ("funcspace.total_variation_s", "s", "funcspace.total_variation"),
    ("funcspace.running_integral_s", "s", "funcspace.running_integral"),
    ("linsys.lambda_from_ide_s", "s", "linsys.lambda_from_ide"),
    ("linsys.check_regularity_calls", "count", "linsys.check_regularity"),
    ("linsys.check_regularity_s", "s", "linsys.check_regularity"),
    ("linsys.value_calls", "count", "linsys.value"),
    ("linsys.value_s", "s", "linsys.value"),
    ("linsys.cell_calls", "count", "linsys.cell"),
    ("linsys.cell_s", "s", "linsys.cell"),
    ("linsys.expm_calls", "count", "linsys.expm_calls"),
    ("linsys.solve_ivp_calls", "count", "linsys.solve_ivp_calls"),
    ("dichotomy.spectral_projection_s", "s", "dichotomy.spectral_projection"),
    ("dichotomy.verify_dichotomy_s", "s", "dichotomy.verify_dichotomy"),
    ("dichotomy.projection_family_s", "s", "dichotomy.projection_family"),
    ("dichotomy.envelope_samples", "count", "dichotomy.verify_dichotomy"),
    ("lp_manifold.lpcell_calls", "count", "lp_manifold.lpcell"),
    ("lp_manifold.lpcell_s", "s", "lp_manifold.lpcell"),
    ("lp_manifold.initial_path_s", "s", "lp_manifold.initial_path"),
    ("lp_manifold.apply_fast_calls", "count", "lp_manifold.apply"),
    ("lp_manifold.apply_fast_ms", "ms", "lp_manifold.apply"),
    ("lp_manifold.iterations_per_solve", "count", "lp_manifold.solve_lp"),
    ("lp_manifold.samples_ok_ratio", "1", "lp_manifold.manifold_graph"),
    ("lp_manifold.L_empirical", "1", "lp_manifold.manifold_graph"),
    ("lp_manifold.apply_ref_s", "s", "lp_manifold.apply"),
    ("lp_manifold.ref_expm_calls", "count", "lp_manifold.ref_expm_calls"),
    ("lp_manifold.bisect_s", "s", "lp_manifold.bisect"),
    ("lp_manifold.classify_calls", "count", "lp_manifold.classify"),
    ("kurzweil.ks_ref_s", "s", "kurzweil.ks_ref"),
    ("kurzweil.ks_ref_rounds", "count", "kurzweil.ks_ref"),
    ("kurzweil.stieltjes_s", "s", "kurzweil.stieltjes"),
)


def layer_metrics(agg, counts, results, missing):
    """The ``LAYER_METRICS`` of one traced repeat.  A metric whose target
    could not be wrapped, or a ratio or mean with nothing to average over,
    is left out, and reported missing by the caller."""
    def total(name):
        return agg[name]["total_s"] if name in agg else 0.0

    def calls(name):
        return agg[name]["calls"] if name in agg else 0

    def kept(name):
        return [out for label, out in results if label == name]

    m = {
        "apps.context_build_self_s": sum(agg[k]["self_s"] for k in (
            "apps.ide_to_context", "apps.mde_to_context") if k in agg),
        "apps.check_hypotheses_s": total("apps.check_hypotheses"),
        "funcspace.path_add_calls": calls("funcspace.path_add"),
        "funcspace.path_add_s": total("funcspace.path_add"),
        "funcspace.total_variation_s": total("funcspace.total_variation"),
        "funcspace.running_integral_s": total("funcspace.running_integral"),
        "linsys.lambda_from_ide_s": total("linsys.lambda_from_ide"),
        "linsys.check_regularity_calls": calls("linsys.check_regularity"),
        "linsys.check_regularity_s": total("linsys.check_regularity"),
        "linsys.value_calls": calls("linsys.value"),
        "linsys.value_s": total("linsys.value"),
        "linsys.cell_calls": calls("linsys.cell"),
        "linsys.cell_s": total("linsys.cell"),
        "dichotomy.spectral_projection_s": total("dichotomy.spectral_projection"),
        "dichotomy.verify_dichotomy_s": total("dichotomy.verify_dichotomy"),
        "dichotomy.projection_family_s": total("dichotomy.projection_family"),
        "dichotomy.envelope_samples": sum(
            len(out[2].samples) for out in kept("dichotomy.verify_dichotomy")),
        "lp_manifold.lpcell_calls": calls("lp_manifold.lpcell"),
        "lp_manifold.lpcell_s": total("lp_manifold.lpcell"),
        "lp_manifold.initial_path_s": total("lp_manifold.initial_path"),
        "lp_manifold.apply_fast_calls": calls("lp_manifold.apply_fast"),
        "lp_manifold.apply_ref_s": total("lp_manifold.apply_ref"),
        "lp_manifold.bisect_s": total("lp_manifold.bisect"),
        "lp_manifold.classify_calls": calls("lp_manifold.classify"),
        "kurzweil.ks_ref_s": total("kurzweil.ks_ref"),
        "kurzweil.ks_ref_rounds": sum(
            out.refinement_rounds for out in kept("kurzweil.ks_ref")),
        "kurzweil.stieltjes_s": total("kurzweil.stieltjes"),
    }
    for name in ("linsys.expm_calls", "linsys.solve_ivp_calls",
                 "lp_manifold.ref_expm_calls"):
        if name in counts:
            m[name] = counts[name]
    fast = agg.get("lp_manifold.apply_fast")
    if fast:
        m["lp_manifold.apply_fast_ms"] = 1e3 * float(np.median(fast["durations"]))
    solves = kept("lp_manifold.solve_lp")
    if solves:
        m["lp_manifold.iterations_per_solve"] = float(
            np.mean([s.iterations for s in solves]))
    graphs = kept("lp_manifold.manifold_graph")
    if graphs:
        m["lp_manifold.samples_ok_ratio"] = (
            sum(len(g.ok_samples) for g in graphs)
            / sum(len(g.samples) for g in graphs))
        m["lp_manifold.L_empirical"] = max(g.L_empirical for g in graphs)
    for name, _, source in LAYER_METRICS:
        if source in missing:
            m.pop(name, None)
    return m
