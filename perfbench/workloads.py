"""The four benchmark workloads and the correctness checks they apply.

Every workload takes a ``Run`` (seed, time budget, trace flag, smoke flag)
and returns a ``Result``: the end-to-end samples it measured, the per-layer
samples of its traced repeats, the accuracy figures its checks produced, and
the number of operations attempted and failed.  An operation fails when it
raises, exits non-zero, or misses a tolerance of ``tests/test_acceptance.py``
(the tolerances are repeated below and are never looser).

The package is driven from outside only: public functions in-process, and
``python -m kurzmani.cli`` in a child process for the CLI sweep.
"""

import itertools
import math
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback

import numpy as np

import tracer as tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CONFIGS = os.path.join(ROOT, "configs")
WORK = os.path.join(ROOT, ".perfbench-out")

# acceptance tolerances (tests/test_acceptance.py)
TOL_PLANAR = 5e-3         # |m + zeta^2/3| <= 5e-3 zeta^2            (06)
TOL_CLOSED_FORM = 5e-3    # |m - closed form| <= 5e-3 max(zeta^2, 1e-8) (07)
TOL_ORACLE = 1e-4         # |m - eta*| <= 1e-4                          (07)
TOL_MODE_GAP = 1e-5       # fast vs reference apply                     (12)
TOL_CROSS_CHECK = 1e-6    # randomized cross_check cases                (01)
TOL_FLOW = 1e-9           # scalar-MDE flow_residual
BISECT_XTOL = 1e-7        # bisection resolution used by test 07


def planar_closed_form(zeta):
    """m(0, zeta) = -zeta^2 / 3 for the saddle with f = (0, x^2)."""
    return -zeta * zeta / 3.0


def impulsive_closed_form(zeta, eps=0.05):
    """Bounded-solution value at s = 0 for configs/impulsive_saddle.json.

    The stable coordinate is zeta e^{-t} boosted by 1.1 at each integer, so
    the unstable component sums a geometric series of per-period integrals
    of e^{-sigma} x(sigma)^2 (ratio 1.21 e^{-3}).
    """
    q = 1.21 * math.exp(-3.0)
    return -eps * zeta * zeta * (1.0 - math.exp(-3.0)) / (3.0 * (1.0 - q))


def closed_form_error(m, zeta, closed_form):
    """|m - closed form| as a share of max(zeta^2, 1e-8): passes at <= 5e-3."""
    return abs(m - closed_form(zeta)) / max(zeta * zeta, 1e-8)


class Run:
    def __init__(self, workload, seed, seconds, trace, smoke):
        self.workload = workload
        self.seed = seed
        self.seconds = float(seconds)
        self.trace = bool(trace)
        self.smoke = bool(smoke)
        self.rng = np.random.default_rng(seed)
        self.calib_ms = []

    def calibrate(self, rounds):
        """Time a fixed numpy kernel: one LAPACK-sized part and one part
        made of the tiny-matrix calls the solver itself issues.  Taken at
        the start and before every repeat, so drift in machine speed shows
        as env.calib_ms; no metric is divided by it."""
        rng = np.random.default_rng(0)
        big = rng.random((120, 120)) + 120.0 * np.eye(120)
        small = rng.random((2, 2))
        for _ in range(rounds):
            t0 = time.perf_counter()
            for _ in range(20):
                np.linalg.solve(big, big)
            x = small
            for _ in range(3000):
                x = small @ x
                x = x / np.abs(x).max()
            self.calib_ms.append(1e3 * (time.perf_counter() - t0))


class Result:
    def __init__(self):
        self.samples = {}       # end-to-end name -> list of per-repeat values
        self.draws = {}         # operation -> every time it took, in seconds
        self.layers = []        # per traced repeat: dict of layer metrics
        self.accuracy = {}      # accuracy metric -> worst value seen
        self.walls = {"plain": [], "traced": []}   # repeat wall times
        self.attempted = 0
        self.failed = 0
        self.notes = {}         # human-readable context for the summary
        self.missing = {}       # per-layer metric -> reason it is not measured
        self.trace_missing = {}  # tracer target -> reason it was not wrapped
        self.spans = []         # spans of the last traced repeat

    def add(self, name, value):
        self.samples.setdefault(name, []).append(value)

    def draw(self, op, seconds):
        self.draws.setdefault(op, []).append(seconds)

    def worst(self, name, value):
        self.accuracy[name] = max(self.accuracy.get(name, 0.0), float(value))

    def check(self, ok, what):
        """Count one operation; report it on stderr when it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            print("perfbench: FAILED %s" % what, file=sys.stderr)
        return ok

    def crash(self, what):
        self.attempted += 1
        self.failed += 1
        print("perfbench: FAILED %s (raised)" % what, file=sys.stderr)
        traceback.print_exc(file=sys.stderr)


class Repeats:
    """Time budget: start another repeat only when it fits in the budget,
    but always run at least ``minimum``.  In a traced run repeats alternate
    plain / traced so the two wall times give the tracing overhead."""

    def __init__(self, run, minimum):
        self.run = run
        self.minimum = minimum + (1 if run.trace and minimum < 2 else 0)
        self.start = time.perf_counter()
        self.count = 0
        self.longest = 0.0

    def __iter__(self):
        while True:
            elapsed = time.perf_counter() - self.start
            if self.count >= self.minimum and \
                    elapsed + self.longest > self.run.seconds:
                return
            self.run.calibrate(1)
            t0 = time.perf_counter()
            yield self.run.trace and self.count % 2 == 1
            self.longest = max(self.longest, time.perf_counter() - t0)
            self.count += 1

    def fill(self, draw_round):
        """Spend what is left of the budget, once no repeat fits, on more
        rounds of the calls that feed op_ms, so they cover the whole run."""
        longest = 0.0
        while time.perf_counter() - self.start + longest <= self.run.seconds:
            t0 = time.perf_counter()
            draw_round()
            longest = max(longest, time.perf_counter() - t0)


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def _peak_rss_mb(who=resource.RUSAGE_SELF):
    return resource.getrusage(who).ru_maxrss / 1024.0   # Linux: KiB


# ---------------------------------------------------------------------------
# in-process helpers
# ---------------------------------------------------------------------------

def _load(name):
    """Parsed spec plus the context keyword arguments the CLI would use."""
    from kurzmani import cli
    cfg = cli.load_config(os.path.join(CONFIGS, name + ".json"))
    spec = cli.parse_system(cfg)
    sol = cli.solver_block(cfg)
    kwargs = dict(s=float(sol.get("s", 0.0)), T=float(sol["T"]),
                  tol=float(sol.get("tol", 1e-10)),
                  base_step=float(sol.get("base_step", 0.1)),
                  grid=cli.parse_grid(sol.get("grid"), None))
    return spec, kwargs


def _build(spec, kwargs):
    import kurzmani.apps as apps
    if isinstance(spec, apps.IdeSpec):
        return apps.ide_to_context(spec, **kwargs)
    return apps.mde_to_context(spec, **kwargs)


def _stratified(rng, radius, count):
    """One uniform point in each of ``count`` equal strata of [-r, r]: the
    seed moves the points, not how many sit near zero."""
    edges = np.linspace(-radius, radius, count + 1)
    return [float(lo + (hi - lo) * rng.uniform(0.01, 0.99))
            for lo, hi in zip(edges[:-1], edges[1:])]


def _traced_repeat(result, tr):
    result.layers.append(tracing.layer_metrics(tracing.aggregate(tr.spans),
                                               tr.counts, tr.results, tr.missing))
    result.spans = list(tr.spans)
    result.trace_missing.update(tr.missing)
    tr.reset()


# ---------------------------------------------------------------------------
# graph-impulsive / graph-mde
# ---------------------------------------------------------------------------

GRAPHS = {
    # config, |zeta| bound, points per graph (smoke: 3), fixed_point_residual
    # calls per point per repeat (smoke: 1): 2-3 s of them per repeat
    "graph-impulsive": ("impulsive_saddle", 0.2, 11, 10),
    "graph-mde": ("scalar_mde", 0.4, 9, 20),
}


def graph_workload(run):
    import kurzmani.lp_manifold as lpm
    config, radius, points, rounds = GRAPHS[run.workload]
    points, rounds = (3, 1) if run.smoke else (points, rounds)
    spec, kwargs = _load(config)
    closed = impulsive_closed_form if config == "impulsive_saddle" else None
    result = Result()
    result.notes.update(grid="%d seeded points per graph, |zeta| <= %g, the "
                             "same in every repeat" % (points, radius),
                        config=config)
    tr = tracing.Tracer()
    keep = ("lp_manifold.solve_lp", "lp_manifold.manifold_graph",
            "dichotomy.verify_dichotomy", "kurzweil.ks_ref")
    coords = _stratified(run.rng, radius, points)
    warm = None     # (context, solutions) of the last plain repeat
    repeats = Repeats(run, minimum=1 if run.smoke else 2)
    for traced in repeats:
        if traced:
            tr.install(keep_results=keep)
        t_rep = time.perf_counter()
        try:
            try:
                ctx, t_build = _timed(_build, spec, kwargs)
            except Exception:
                result.crash("context build of %s" % config)
                continue
            result.check(True, "context build")
            try:
                graph, t_graph = _timed(lpm.manifold_graph, 0.0,
                                        [np.array([c]) for c in coords], ctx)
            except Exception:
                result.crash("manifold_graph on %s" % config)
                continue
            sols, lat = [], []
            for c in coords:
                try:
                    sol, dt = _timed(lpm.solve_lp, graph.basis_stable @ np.array([c]),
                                     0.0, ctx)
                except Exception:
                    result.crash("solve_lp at zeta=%r" % c)
                    sol, dt = None, None
                sols.append(sol)
                if dt is not None:
                    lat.append(dt)
            wall = time.perf_counter() - t_rep
        finally:
            tr.uninstall()
        if traced:
            _traced_repeat(result, tr)
        result.walls["traced" if traced else "plain"].append(wall)

        ok_samples = 0
        for c, g, sol in zip(coords, graph.samples, sols):
            good = bool(g.ok)
            if good and closed is not None:
                err = closed_form_error(float(g.m_coords[0]), c, closed)
                result.worst("lp_manifold.closed_form_err_max", err)
                good = err <= TOL_CLOSED_FORM
            ok_samples += result.check(good, "graph sample zeta=%r" % c)
            if sol is None:
                continue
            good = bool(sol.converged)
            if closed is not None:
                err = closed_form_error(float(sol.m[0]), c, closed)
                result.worst("lp_manifold.closed_form_err_max", err)
                good = good and err <= TOL_CLOSED_FORM
            else:
                flow = lpm.flow_residual(sol.phi, 0.0, ctx)
                result.worst("lp_manifold.flow_residual_max", flow)
                good = good and flow <= TOL_FLOW
            result.check(good, "warm solve_lp zeta=%r" % c)
        if not traced:
            _residual_draws(result, ctx, coords, sols, rounds)
            warm = ctx, sols
        result.add("setup_s", t_build)
        result.add("pass_s", t_graph)
        result.add("graph_ok", ok_samples)
        result.samples.setdefault("latency_ms", []).extend(1e3 * t for t in lat)
    if warm is not None:
        repeats.fill(lambda: _residual_draws(result, warm[0], coords, warm[1], 1))
    result.add("peak_rss_mb", _peak_rss_mb())
    if closed is None:
        result.missing["lp_manifold.closed_form_err_max"] = \
            "%s has no closed form (zero-dimensional unstable part)" % config
    else:
        result.missing["lp_manifold.flow_residual_max"] = \
            "the flow-residual gate applies to the scalar MDE only"
    for name in ("lp_manifold.mode_gap", "lp_manifold.oracle_gap"):
        result.missing[name] = "checked by the crossval workload"
    return result


def _residual_draws(result, ctx, coords, sols, rounds):
    """op_ms on the graph workloads: ``fixed_point_residual``, one operator
    application to each converged solution on the warm context, in
    ``rounds`` rounds over the points.  An application does the same work
    at every point, so all calls are draws of one operation, and op_ms is
    the fastest of some hundreds.  The residual must stay below the solver's
    own tolerance."""
    import kurzmani.lp_manifold as lpm
    for _ in range(rounds):
        for c, sol in zip(coords, sols):
            if sol is None:
                continue
            try:
                res, dt = _timed(lpm.fixed_point_residual, sol, ctx)
            except Exception:
                result.crash("fixed_point_residual at zeta=%r" % c)
                continue
            result.draw("operator application", dt)
            result.check(res <= ctx.tol, "fixed-point residual %.3e at zeta=%r"
                         % (res, c))


# ---------------------------------------------------------------------------
# crossval
# ---------------------------------------------------------------------------

# (integrand coefficients, density coefficients, atoms) of the cases: every
# integrand size and atom count acceptance test 01 draws, once each, with
# the density size in a checkerboard over them, so the seed moves the
# coefficients and atom times but not the mix of shapes
CASE_SHAPES = tuple((n_f, 1 + (n_f + n_atoms) % 2, n_atoms)
                    for n_f, n_atoms in itertools.product((1, 2, 3), (0, 1, 2, 3)))


def _cross_check_cases(rng, count):
    """Random polynomial integrands and densities with 0-3 distinct atoms,
    drawn as in acceptance test 01, one case per shape in turn."""
    from kurzmani.funcspace import PiecewisePath, StieltjesMeasure
    cases = []
    for k in range(count):
        n_f, n_density, n_atoms = CASE_SHAPES[k % len(CASE_SHAPES)]
        f = PiecewisePath.polynomial(rng.normal(size=n_f))
        density = PiecewisePath.polynomial(rng.normal(size=n_density))
        times = np.sort(rng.uniform(0.05, 0.95, size=n_atoms))
        while len(set(np.round(times, 5))) < n_atoms:
            times = np.sort(rng.uniform(0.05, 0.95, size=n_atoms))
        mu = StieltjesMeasure(density, [(float(t), float(rng.normal()))
                                        for t in times])
        cases.append((f, mu))
    return cases


CROSSVAL_CASES = 48       # randomized cross_check cases per pass (smoke: 3)
CASE_ROUNDS = 10          # extra rounds over the cases after each pass
CROSSVAL_WINDOW = 4.0     # reference apply window on impulsive_saddle (smoke: 2)


def _case_round(result, cases):
    """One cross_check call per case, each checked and drawn for op_ms;
    returns the times of the calls that did not raise."""
    import kurzmani.kurzweil as kw
    times = []
    for k, (f, mu) in enumerate(cases):
        try:
            rep, dt = _timed(kw.cross_check, f, mu, (0.0, 1.0),
                             tol=TOL_CROSS_CHECK)
        except Exception:
            result.crash("cross_check case %d" % k)
            continue
        times.append(dt)
        result.draw(k, dt)
        result.check(bool(rep.passed) and rep.difference <= TOL_CROSS_CHECK,
                     "cross_check case %d (difference %.3e)" % (k, rep.difference))
    return times


def crossval_workload(run):
    import kurzmani.apps as apps
    import kurzmani.lp_manifold as lpm
    n_cases = 3 if run.smoke else CROSSVAL_CASES
    window = 2.0 if run.smoke else CROSSVAL_WINDOW
    spec, kwargs = _load("impulsive_saddle")
    short_spec = apps.IdeSpec(spec.n, spec.A,
                              tuple((t, B) for t, B in spec.impulses if t < window),
                              spec.f)
    short_kwargs = dict(kwargs, T=window,
                        grid=np.linspace(0.0, window, int(2 * window) + 1))
    result = Result()
    result.notes.update(
        pass_parts="%d cross_check cases; fast + reference apply on [0, %g] "
                   "at zeta in [0.1, 0.2]; bisection on [0, 40] at |zeta| in "
                   "[0.1, 0.2]; the same cases in every pass, fresh seeded "
                   "zeta per pass" % (n_cases, window))
    tr = tracing.Tracer()
    keep = ("lp_manifold.solve_lp", "dichotomy.verify_dichotomy",
            "kurzweil.ks_ref")
    cases = _cross_check_cases(run.rng, n_cases)
    repeats = Repeats(run, minimum=1 if run.smoke else 2)
    for traced in repeats:
        a_ref = float(run.rng.uniform(0.1, 0.2))
        z_bis = float(run.rng.choice([-1.0, 1.0]) * run.rng.uniform(0.1, 0.2))
        if traced:
            tr.install(keep_results=keep)
        t_rep = time.perf_counter()
        try:
            try:
                full, t_full = _timed(_build, spec, kwargs)
                short, t_short = _timed(_build, short_spec, short_kwargs)
            except Exception:
                result.crash("context build for crossval")
                continue
            result.check(True, "context builds")
            t_pass = time.perf_counter()
            case_lat = _case_round(result, cases)
            try:
                zeta = short.P(short.span(0.0)[0]) @ np.array([a_ref, 0.0])
                z0 = short.initial_path(zeta, 0.0)
                fast = lpm.lp_operator_apply(z0, zeta, 0.0, short, mode="fast")
                ref = lpm.lp_operator_apply(z0, zeta, 0.0, short, mode="reference")
                gap = float(np.max(np.linalg.norm(fast.values - ref.values, axis=1)))
                result.worst("lp_manifold.mode_gap", gap)
                result.check(gap <= TOL_MODE_GAP, "mode gap %.3e" % gap)
            except Exception:
                result.crash("fast/reference apply")
            try:
                zb = np.array([z_bis, 0.0])
                eta = lpm.bisect_manifold_oracle(zb, 0.0, full, bound=1e3,
                                                 xtol=BISECT_XTOL)
                sol = lpm.solve_lp(zb, 0.0, full)
                m = float(sol.m[0])
                result.worst("lp_manifold.oracle_gap", abs(m - eta))
                err = closed_form_error(m, z_bis, impulsive_closed_form)
                result.worst("lp_manifold.closed_form_err_max", err)
                result.check(abs(m - eta) <= TOL_ORACLE and err <= TOL_CLOSED_FORM,
                             "bisection oracle |m - eta| = %.3e" % abs(m - eta))
            except Exception:
                result.crash("bisection oracle")
            t_end = time.perf_counter()
        finally:
            tr.uninstall()
        if traced:
            _traced_repeat(result, tr)
        result.walls["traced" if traced else "plain"].append(t_end - t_rep)
        if not traced:
            for _ in range(0 if run.smoke else CASE_ROUNDS):
                _case_round(result, cases)
        result.add("setup_s", t_full + t_short)
        result.add("pass_s", t_end - t_pass)
        result.samples.setdefault("latency_ms", []).extend(1e3 * t for t in case_lat)
    repeats.fill(lambda: _case_round(result, cases))
    result.add("peak_rss_mb", _peak_rss_mb())
    result.missing["lp_manifold.flow_residual_max"] = \
        "the flow-residual gate applies to the scalar MDE (graph-mde)"
    return result


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------

SWEEP = (
    ("manifold", "planar_quadratic"),
    ("manifold", "impulsive_saddle"),
    ("manifold", "scalar_mde"),
    ("classify", "planar_quadratic"),
    ("dichotomy", "expansion_example"),
    ("fundamental", "expansion_example"),
    ("check", "scalar_mde"),
    ("integrate", "lacunary_integral"),
    ("crosscheck", "lacunary_integral"),
)
SMOKE_SWEEP = (("check", "scalar_mde"), ("integrate", "lacunary_integral"),
               ("manifold", "scalar_mde"))
CHILD_TIMEOUT = 60.0


def _child_env():
    env = {k: v for k, v in os.environ.items() if k != "KURZMANI_LOG"}
    env["PYTHONPATH"] = SRC
    return env


def _child(argv, cwd):
    """Run one child to completion; (exit code, wall s, stderr).  A child
    past the timeout is killed and waited for, and reads as exit code -9."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable] + argv, cwd=cwd, env=_child_env(),
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        return -9, time.perf_counter() - t0, "timed out"
    return proc.returncode, time.perf_counter() - t0, proc.stderr.decode(
        "utf-8", "replace")


def _artifacts(path):
    files = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            files[name] = fh.read()
    return files


def _check_manifold_csv(files, closed_form):
    """Worst closed-form error over the rows of a manifold CSV."""
    body = next(v for k, v in files.items() if k.endswith("_manifold.csv"))
    rows = [line.split(",") for line in body.decode().splitlines()
            if line and not line.startswith("#")][1:]
    return max(closed_form_error(float(m), float(z), closed_form)
               for z, m, ok, _ in rows if ok == "1")


def _setup_probe(result, work):
    """setup_s on cli-cold: a fresh process up to a ready CLI (process
    start, import, argument parser)."""
    rc, dt, err = _child(["-m", "kurzmani.cli", "--help"], work)
    if result.check(rc == 0, "kurzmani.cli --help (exit %d) %s" % (rc, err)):
        result.add("setup_s", dt)


def cli_workload(run):
    sweep = list(SMOKE_SWEEP if run.smoke else SWEEP)
    order = [sweep[i] for i in run.rng.permutation(len(sweep))]
    result = Result()
    result.notes.update(order=" ".join("%s:%s" % e for e in order),
                        invocations_per_sweep=len(order))
    work = os.path.join(WORK, "cli-%d-%d" % (run.seed, os.getpid()))
    os.makedirs(work)
    entry_times = {}
    try:
        first = {}
        for sweep_no, _ in enumerate(Repeats(run, minimum=2)):
            _setup_probe(result, work)
            sweep_t = 0.0
            for cmd, cfg in order:
                out = os.path.join(work, "sweep%d" % sweep_no, "%s-%s" % (cmd, cfg))
                argv = ["-m", "kurzmani.cli", cmd, "--config",
                        os.path.join(CONFIGS, cfg + ".json"), "--out", out]
                rc, dt, err = _child(argv, work)
                sweep_t += dt
                result.samples.setdefault("latency_ms", []).append(1e3 * dt)
                entry_times.setdefault((cmd, cfg), []).append(dt)
                what = "%s %s (sweep %d, exit %d) %s" % (cmd, cfg, sweep_no, rc,
                                                         err.strip()[-400:])
                if rc != 0 or not os.path.isdir(out):
                    result.check(False, what)
                    continue
                result.draw((cmd, cfg), dt)
                files = _artifacts(out)
                if (cmd, cfg) not in first:
                    first[(cmd, cfg)] = files
                    good = True
                    if cmd == "manifold" and cfg in ("planar_quadratic",
                                                     "impulsive_saddle"):
                        cf = planar_closed_form if cfg == "planar_quadratic" \
                            else impulsive_closed_form
                        tol = TOL_PLANAR if cfg == "planar_quadratic" \
                            else TOL_CLOSED_FORM
                        err_cf = _check_manifold_csv(files, cf)
                        result.worst("lp_manifold.closed_form_err_max", err_cf)
                        good = err_cf <= tol
                    result.check(good, what + " closed form")
                else:
                    result.check(files == first[(cmd, cfg)],
                                 what + " artifacts differ from the first sweep")
                shutil.rmtree(out)
            result.add("pass_s", sweep_t)
        _setup_probe(result, work)
        result.add("peak_rss_mb", _peak_rss_mb(resource.RUSAGE_CHILDREN))
        if run.trace:
            _cli_layers(run, result, work, entry_times)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result.missing["*"] = ("in-process layers are not traced on cli-cold: the "
                           "CLI runs in child processes timed from outside")
    return result


def _cli_layers(run, result, work, entry_times):
    layer = {}
    imports = []
    for _ in range(1 if run.smoke else 3):
        rc, dt, err = _child(["-c", "import kurzmani"], work)
        if result.check(rc == 0, "import kurzmani (exit %d) %s" % (rc, err)):
            imports.append(dt)
    if imports:
        layer["cli.import_s"] = float(np.median(imports))
    rc, _, err = _child(["-X", "importtime", "-c", "import kurzmani"], work)
    for line in err.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "scipy.integrate":
            layer["cli.import_scipy_integrate_s"] = int(parts[1]) * 1e-6
    if "cli.import_scipy_integrate_s" not in layer:
        result.missing["cli.import_scipy_integrate_s"] = \
            "scipy.integrate is not imported by 'import kurzmani'"
    for (cmd, cfg), times in entry_times.items():
        layer["cli.%s.%s_s" % (cmd, cfg)] = float(np.median(times))
    result.layers.append(layer)


WORKLOADS = {
    "cli-cold": cli_workload,
    "graph-impulsive": graph_workload,
    "graph-mde": graph_workload,
    "crossval": crossval_workload,
}
