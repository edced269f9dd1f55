"""Command-line front-end: config parsing, subcommands, CSV/JSON artifacts.

One JSON config file describes a run in three blocks: ``system`` (the
coefficients, jumps and nonlinearity), ``solver`` (window, horizon, grids,
tolerances), and ``output`` (directory and file prefix).  Matrices are
row-major nested lists; time-dependent entries are declarative path specs
(constant / polynomial coefficients / named presets / piecewise), never
embedded code.

Exit codes: 0 success, 1 config or usage error, 2 certified failure (a
cross-check mismatch, a failed hypothesis, no dichotomy), 3 numerical
non-convergence.  Every output file carries a metadata header with the
config hash, the library version and the effective tolerance, and floats are
written with shortest round-trip formatting, so identical configs produce
byte-identical files.

Each command imports the layers it runs when it runs, so a fresh process
loads only those: ``integrate`` needs no solver layer and ``fundamental``
no manifold solver.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np

from . import __version__
from .funcspace import (PiecewisePath, QuadratureError, StieltjesMeasure,
                        norm, plain)

log = logging.getLogger("kurzmani")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CERTIFIED_FAIL = 2
EXIT_NONCONVERGENCE = 3


class ConfigError(ValueError):
    pass


def _sane_tol(value):
    """The tolerance ``value`` as a float, refused outside (0, 1e-2]."""
    tol = float(value)
    if not (0.0 < tol <= 1e-2):
        raise ConfigError("tolerance %g outside the sane range (0, 1e-2]" % tol)
    return tol


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

@contextmanager
def _reading(what):
    """A wrong-type or axis-less value met reading the ``what`` block (with
    block or decorated parser) becomes a ``ConfigError``; solver errors pass."""
    try:
        yield
    except (TypeError, AttributeError, IndexError) as exc:
        raise ConfigError("%r block: a value has the wrong type (%s)"
                          % (what, exc)) from None


def _field(node, key, what):
    """``node[key]``, or a ``ConfigError`` naming the missing key."""
    try:
        return node[key]
    except (KeyError, TypeError):
        raise ConfigError("%s needs a %r entry" % (what, key)) from None


def _only(node, keys, what):
    """``node``, an object with no key outside ``keys``: another key is a
    ``ConfigError`` naming it, and a non-object a ``TypeError`` (wrong type)."""
    if not isinstance(node, dict):
        raise TypeError("%s must be an object" % what)
    extra = sorted(set(node) - set(keys))
    if extra:
        raise ConfigError("%s takes only %s, not %s" % (
            what, ", ".join(keys), ", ".join(map(repr, extra))))
    return node


def _matrix(value, what):
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    if arr.ndim != 2:
        raise ConfigError("%s must be a (nested) matrix, got shape %r"
                          % (what, arr.shape))
    return arr


def parse_path(node, what, scalar=False):
    """Build a path from its declarative spec."""
    if isinstance(node, (int, float)):
        return PiecewisePath.constant(float(node) if scalar else _matrix(node, what))
    if not isinstance(node, dict) or len(node) != 1:
        raise ConfigError("%s: path spec needs exactly one of "
                          "constant/poly/preset/piecewise" % what)
    kind, body = next(iter(node.items()))
    conv = (lambda v: float(v)) if scalar else (lambda v: _matrix(v, what))
    if kind == "constant":
        return PiecewisePath.constant(conv(body))
    if kind == "poly":
        return PiecewisePath.polynomial([conv(c) for c in body])
    if kind == "preset":
        _only(body, ("kind", "amp", "params"), what + ".preset")
        return PiecewisePath.preset(_field(body, "kind", what + ".preset"),
                                    conv(body.get("amp", 1.0)),
                                    tuple(_field(body, "params", what + ".preset")))
    if kind == "piecewise":
        _only(body, ("times", "segments"), what + ".piecewise")
        segs = []
        for seg in _field(body, "segments", what + ".piecewise"):
            piece = parse_path(seg, what, scalar=scalar)
            if len(piece.times):
                raise ConfigError("%s: piecewise segments must be simple specs" % what)
            segs.append(piece.segments[0])
        times = _field(body, "times", what + ".piecewise")
        return PiecewisePath.from_segments([float(t) for t in times], segs)
    raise ConfigError("%s: unknown path spec kind %r" % (what, kind))


def parse_measure(node, what):
    _only(node, ("density", "atoms"), what)
    density = parse_path(node.get("density", 0.0), what + ".density", scalar=True)
    atoms = [(float(t), float(w)) for t, w in node.get("atoms", [])]
    return StieltjesMeasure(density, atoms)


def parse_nonlinearity(node, u=None):
    """The nonlinearity block (``registry``, ``params``, ``rho``), driven by
    the measure ``u`` (dt when None); any other key is a ``ConfigError``."""
    if node is None:
        raise ConfigError("system.nonlinearity is required for this subcommand")
    from .lp_manifold import NonlinearitySpec
    _only(node, ("registry", "params", "rho"), "system.nonlinearity")
    try:
        return NonlinearitySpec(node["registry"], node.get("params", {}),
                                rho=float(node.get("rho", 0.5)), measure=u)
    except KeyError as exc:
        raise ConfigError("nonlinearity spec: %s" % exc)


# the keys the system block takes, per kind
SYSTEM_KEYS = {"ide": ("kind", "n", "A", "impulses", "nonlinearity"),
               "mde": ("kind", "n", "A", "C", "u", "nonlinearity"),
               "linear": ("kind", "n", "A", "impulses", "C", "u", "t0")}
# the keys any command reads from the solver block
SOLVER_KEYS = ("s", "T", "tol", "base_step", "grid", "P0", "window",
               "zeta_grid", "bound", "initial_points")


@_reading("system")
def parse_system(cfg):
    sysblock = cfg.get("system")
    if not isinstance(sysblock, dict):
        raise ConfigError("config needs a 'system' block")
    kind = sysblock.get("kind")
    if kind not in SYSTEM_KEYS:
        raise ConfigError("system.kind must be one of ide/mde/linear")
    _only(sysblock, SYSTEM_KEYS[kind], "system (kind %s)" % kind)
    n = int(sysblock.get("n", 0))
    if n <= 0:
        raise ConfigError("system.n must be a positive integer")
    A = parse_path(sysblock.get("A", 0.0), "system.A")
    if A.shape != (n, n):
        raise ConfigError("system.A has shape %r, expected (%d, %d)"
                          % (A.shape, n, n))
    entries = [_only(e, ("time", "B"), "system.impulses entry")
               for e in sysblock.get("impulses", [])]
    impulses = tuple((float(_field(e, "time", "system.impulses entry")),
                      _matrix(_field(e, "B", "system.impulses entry"), "impulse B"))
                     for e in entries)
    if kind == "ide":
        from .apps import IdeSpec
        f = parse_nonlinearity(sysblock.get("nonlinearity"))
        return IdeSpec(n, A, impulses, f)
    if kind == "mde":
        from .apps import MdeSpec
        u = parse_measure(sysblock.get("u", {}), "system.u")
        C = parse_path(sysblock.get("C", 0.0), "system.C")
        H = parse_nonlinearity(sysblock.get("nonlinearity"), u=u)
        return MdeSpec(n, A, C, u, H)
    from .linsys import LinearSystemSpec
    measure_part = None
    if "u" in sysblock:
        u = parse_measure(sysblock["u"], "system.u")
        C = parse_path(sysblock.get("C", 0.0), "system.C")
        measure_part = (C, u)
    return LinearSystemSpec(n, A, impulses=impulses, measure_part=measure_part,
                            t0=float(sysblock.get("t0", 0.0)))


def solver_block(cfg):
    return dict(_only(cfg.get("solver", {}), SOLVER_KEYS, "solver"))


def parse_grid(node, default):
    if node is None:
        return default
    if isinstance(node, dict):
        _only(node, ("start", "stop", "count"), "solver.grid")
        return np.linspace(float(_field(node, "start", "solver.grid")),
                           float(_field(node, "stop", "solver.grid")),
                           int(_field(node, "count", "solver.grid")))
    return np.asarray([float(x) for x in node])


def normalize_config(cfg):
    """Canonical form: plain types, sorted keys (via json round-trip)."""
    return json.loads(json.dumps(cfg, sort_keys=True))


def config_hash(cfg):
    payload = json.dumps(normalize_config(cfg), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("config parse error at line %d column %d: %s"
                          % (exc.lineno, exc.colno, exc.msg))


# ---------------------------------------------------------------------------
# writers
# ---------------------------------------------------------------------------

def _fmt(value):
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_csv(path, meta, columns, rows):
    lines = ["# %s=%s" % (k, _fmt(v)) for k, v in sorted(meta.items())]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json(path, meta, payload):
    doc = {"meta": {k: plain(v) for k, v in sorted(meta.items())}}
    doc.update(plain(payload))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def error_json(kind, message, **extra):
    doc = {"error": kind, "message": str(message)}
    doc.update({k: plain(v) for k, v in extra.items()})
    print(json.dumps(doc, sort_keys=True), file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _meta(cfg, **extra):
    return {"config_sha256": config_hash(cfg), "version": __version__, **extra}


@_reading("config")
def _blocks(cfg, blocks, command):
    """The config's top level holds only ``blocks`` and ``output``, and
    ``output`` only ``prefix`` and ``dir``: another key is a
    ``ConfigError`` naming it, raised before any layer work."""
    _only(cfg, blocks + ("output",), "a %s config" % command)
    _only(cfg.get("output", {}), ("prefix", "dir"), "output")


@_reading("output")
def _outpath(cfg, args, suffix):
    out = args.out or cfg.get("output", {}).get("dir", ".")
    os.makedirs(out, exist_ok=True)
    prefix = cfg.get("output", {}).get("prefix", "kurzmani")
    return os.path.join(out, "%s_%s" % (prefix, suffix))


def _read_run(cfg, args):
    """The system and the one reading of the ``solver`` block, made before
    any layer work; a null value counts as absent.

    An ide or mde run starts at t0 = s (0 when absent) and spans [s, T]:
    without T, ``manifold`` and ``classify`` leave the horizon to
    ``build_context`` and the other commands take s + 10.  A linear run
    spans ``solver.window``, which only it takes.  ``context`` holds the
    ``build_context`` keywords the config sets (``--tol`` over
    ``solver.tol``), so their defaults stay the layers' own.  The
    command's own keys are checked here too: ``zeta_grid`` for
    ``manifold``, ``initial_points`` of n coordinates each for ``classify``.
    """
    from .linsys import LinearSystemSpec
    _blocks(cfg, ("system", "solver"), args.command)
    spec = parse_system(cfg)
    linear = isinstance(spec, LinearSystemSpec)
    if linear and args.command not in ("fundamental", "dichotomy"):
        raise ConfigError("%s needs system.kind = ide or mde" % args.command)
    with _reading("solver"):
        sol = {k: v for k, v in solver_block(cfg).items() if v is not None}
        if args.tol is not None:
            sol["tol"] = args.tol
        context = {k: read(sol[k]) for k, read in (
            ("s", float), ("T", float), ("tol", _sane_tol), ("base_step", float),
            ("grid", lambda g: parse_grid(g, None)),
            ("P0", lambda a: np.asarray(a, dtype=float))) if k in sol}
        s = context.get("s", 0.0)
        window = (s, context.get("T", s + 10.0))
        if not window[1] > s:
            raise ConfigError("solver.T must exceed the base time s")
        if linear:
            window = tuple(float(x) for x in sol.get("window", (0.0, 10.0)))
        elif "window" in sol:
            raise ConfigError("solver takes a 'window' for linear systems "
                              "only: an ide or mde run spans [s, T]")
        run = SimpleNamespace(s=s, window=window, context=context, linear=linear)
        if args.command == "manifold":
            run.zeta = [np.asarray(z, dtype=float) for z in
                        _field(sol, "zeta_grid", "the manifold command's solver")]
        if args.command == "classify":
            run.bound = float(sol.get("bound", 1e3))
            run.points = [(z0, np.asarray(z0, dtype=float))
                          for z0 in sol.get("initial_points", ())]
            if not run.points:
                raise ConfigError("solver.initial_points is required for classify")
            for z0, state in run.points:
                if state.shape != (spec.n,):
                    raise ConfigError("initial point %r needs n = %d coordinates"
                                      % (z0, spec.n))
    return spec, run


def _run_integrand(cfg, args, default_tol):
    """Both evaluators on the configured integrand (``cross_check``)."""
    from .kurzweil import cross_check
    _blocks(cfg, ("integrand",), args.command)
    block = cfg.get("integrand")
    if not isinstance(block, dict):
        raise ConfigError("config needs an 'integrand' block")
    _only(block, ("f", "window", "tol", "scalar", "mu"), "integrand")
    with _reading("integrand"):
        f = parse_path(_field(block, "f", "integrand"), "integrand.f",
                       scalar=bool(block.get("scalar", True)))
        window = tuple(float(x) for x in _field(block, "window", "integrand"))
        tol = _sane_tol(args.tol if args.tol is not None else block.get("tol", default_tol))
        mu = parse_measure(block["mu"], "integrand.mu") if "mu" in block else None
    return cross_check(f, mu, window, tol=tol), tol


def cmd_integrate(cfg, args):
    report, tol = _run_integrand(cfg, args, default_tol=1e-9)
    rows = [
        ("decomposition", float(np.ravel(report.fast_value)[0]), tol, 1),
        ("gauge_refinement", float(np.ravel(report.reference.value)[0]),
         report.reference.achieved_tolerance, report.reference.refinement_rounds),
    ]
    path = _outpath(cfg, args, "integrate.csv")
    write_csv(path, _meta(cfg, tol=tol),
              ["evaluator", "value", "tolerance", "rounds"], rows)
    print(path)
    return EXIT_OK if report.passed else EXIT_CERTIFIED_FAIL


def cmd_crosscheck(cfg, args):
    report, tol = _run_integrand(cfg, args, default_tol=1e-6)
    path = _outpath(cfg, args, "crosscheck.json")
    write_json(path, _meta(cfg, tol=tol), {
        "fast_value": report.fast_value,
        "reference_value": report.reference.value,
        "difference": report.difference,
        "tolerance_used": report.tolerance_used,
        "passed": report.passed,
        "reference_rounds": report.reference.refinement_rounds,
    })
    print(path)
    return EXIT_OK if report.passed else EXIT_CERTIFIED_FAIL


def _operator(spec, run):
    """The linear part's operator over the run window, referenced at s for
    an ide/mde run."""
    from .linsys import FundamentalOperator
    linear = spec if run.linear else spec.linear_spec(run.s)
    step = {"base_step": run.context["base_step"]} if "base_step" in run.context else {}
    return FundamentalOperator(linear, run.window, **step)


def cmd_fundamental(cfg, args):
    spec, run = _read_run(cfg, args)
    op = _operator(spec, run)
    grid = run.context.get("grid", np.linspace(*run.window, 11))
    rows = []
    for s in grid:
        for t in grid:
            rows.append((float(t), float(s), norm(op.value(t, s))))
    path = _outpath(cfg, args, "fundamental.csv")
    write_csv(path, _meta(cfg), ["t", "s", "operator_norm"], rows)
    print(path)
    return EXIT_OK


def cmd_dichotomy(cfg, args):
    from .dichotomy import certify
    spec, run = _read_run(cfg, args)
    # a linear run certifies across its window, an ide/mde run on the grid
    # ``build_context`` certifies
    default = np.linspace(*run.window, 21) if run.linear else None
    data = certify(_operator(spec, run), grid=run.context.get("grid", default),
                   P0=run.context.get("P0"))
    rows = [(float(sep), float(logN), side)
            for sep, logN, _, _, side in data.report.samples]
    csv_path = _outpath(cfg, args, "dichotomy.csv")
    write_csv(csv_path, _meta(cfg), ["separation", "log_norm", "side"], rows)
    cert_path = _outpath(cfg, args, "dichotomy.json")
    write_json(cert_path, _meta(cfg), {
        "K": data.K, "alpha": data.alpha,
        "dichotomy_detected": data.report.dichotomy_detected,
        "witness": data.report.witness,
        "P0": data.P0,
    })
    print(csv_path)
    print(cert_path)
    return EXIT_OK if data.report.dichotomy_detected else EXIT_CERTIFIED_FAIL


def cmd_manifold(cfg, args):
    from .apps import build_context
    from .lp_manifold import manifold_graph
    spec, run = _read_run(cfg, args)
    ctx = build_context(spec, **run.context)
    graph = manifold_graph(run.s, run.zeta, ctx)
    rows = []
    for g in graph.samples:
        coords = ";".join(_fmt(v) for v in g.zeta_coords)
        if g.ok:
            ms = ";".join(_fmt(v) for v in g.m_coords)
        else:
            ms = "failed"
        rows.append((coords, ms, int(g.ok), g.iterations))
    csv_path = _outpath(cfg, args, "manifold.csv")
    write_csv(csv_path, _meta(cfg, tol=ctx.tol),
              ["zeta", "m", "ok", "iterations"], rows)
    cert_path = _outpath(cfg, args, "manifold.json")
    write_json(cert_path, _meta(cfg), {
        "K": ctx.dich.K, "alpha": ctx.dich.alpha,
        "L_theory": graph.L_theory, "L_empirical": graph.L_empirical,
        "lipschitz_estimate": graph.lipschitz_estimate,
        "T": ctx.T, "tol": ctx.tol, "tail_bound": graph.tail_bound,
        "cutoff_radius": ctx.nonlin.rho,
        "samples_ok": len(graph.ok_samples), "samples_total": len(graph.samples),
    })
    print(csv_path)
    print(cert_path)
    if not graph.ok_samples:
        return EXIT_NONCONVERGENCE
    return EXIT_OK


def cmd_classify(cfg, args):
    from .apps import build_context
    from .lp_manifold import classify_initial
    spec, run = _read_run(cfg, args)
    ctx = build_context(spec, **run.context)
    rows = []
    for z0, state in run.points:
        res = classify_initial(state, run.s, ctx, run.bound)
        rows.append((";".join(_fmt(v) for v in z0), res.status,
                     _fmt(res.t_escape) if res.t_escape is not None else "",
                     res.sup_norm))
    path = _outpath(cfg, args, "classify.csv")
    write_csv(path, _meta(cfg, bound=run.bound),
              ["z0", "status", "t_escape", "sup_norm"], rows)
    print(path)
    return EXIT_OK


def cmd_check(cfg, args):
    from .apps import check_hypotheses
    spec, run = _read_run(cfg, args)
    report = check_hypotheses(spec, run.window)
    path = _outpath(cfg, args, "check.json")
    write_json(path, _meta(cfg), report.to_dict())
    print(json.dumps(report.to_dict(), sort_keys=True, indent=2))
    return EXIT_OK if report.all_passed else EXIT_CERTIFIED_FAIL


COMMANDS = {
    "integrate": cmd_integrate,
    "crosscheck": cmd_crosscheck,
    "fundamental": cmd_fundamental,
    "dichotomy": cmd_dichotomy,
    "manifold": cmd_manifold,
    "classify": cmd_classify,
    "check": cmd_check,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kurzmani",
        description="stable-manifold and gauge-integral toolkit for impulsive "
                    "and measure-driven systems")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--tol", type=float, default=None,
                        help="override the block tolerance")
    parser.add_argument("--out", default=None, help="output directory")
    return parser


def _loaded(*names):
    """The exception classes ``layer.Class`` of the layers this process has
    imported.  A layer never imported raised nothing, so the handlers below
    name its errors without importing it."""
    found = []
    for name in names:
        layer, cls = name.split(".")
        module = sys.modules.get("%s.%s" % (__package__, layer))
        if module is not None:
            found.append(getattr(module, cls))
    return tuple(found)


def main(argv=None):
    level = os.environ.get("KURZMANI_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        return COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        error_json("config", exc)
        return EXIT_CONFIG
    except _loaded("apps.HypothesisError", "dichotomy.SplittingError") as exc:
        error_json("hypothesis", exc,
                   condition=getattr(exc, "condition", None))
        return EXIT_CERTIFIED_FAIL
    except _loaded("kurzweil.IntegrationError") as exc:
        extra = {}
        if exc.last_two is not None:
            extra["last_two_sums"] = [v for v in exc.last_two if v is not None]
        error_json("divergent_integrand", exc, **extra)
        return EXIT_CERTIFIED_FAIL
    except (QuadratureError, *_loaded("linsys.PropagationError",
                                      "lp_manifold.NonContractionError",
                                      "lp_manifold.SolveError")) as exc:
        error_json("nonconvergence", exc)
        return EXIT_NONCONVERGENCE
    except ValueError as exc:
        error_json("config", exc)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
