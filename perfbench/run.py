"""kurzmani benchmark: one workload per run, result as the last stdout line.

    python3 perfbench/run.py --workload graph-mde --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 3 --seconds 20 --trace 0

Run it from the root of a checkout.  Workloads: cli-cold, graph-impulsive,
graph-mde, crossval (see perfbench/README.md for what each measures and
why).  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones; ``--smoke`` shrinks every workload to a few seconds;
``--workload all`` runs the four workloads one after another, each in its
own process, and prints one table.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time

# One busy thread: the solver works on 1x1 and 2x2 matrices, where BLAS
# threads only add noise.  Children (the CLI sweep) inherit the cap.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("cli-cold", "graph-impulsive", "graph-mde", "crossval")

# end-to-end metrics: name -> (unit, how the run's samples are reduced).
# setup_s is the median over the run's set-ups.  op_ms is the mean over the
# workload's operations of each one's fastest call ("best"): every
# operation is called many times, spread over the run.  Machine speed flips
# between two states about 2x apart, and the fast one shows for
# milliseconds at a time in nearly every run, so only the fastest of many
# calls is steady; a mean or median of anything longer than ~0.1 s moves
# with the state (perfbench/README.md, Steadiness).  pass_s is printed but
# not gated for that reason.  BENCHMARK.json holds the bounds.
END_TO_END = {"setup_s": ("s", "median"), "op_ms": ("ms", "best"),
              "peak_rss_mb": ("MB", "max")}

# the names these metrics have on each workload in perfbench/README.md
_GRAPH = {"pass_s": "graph_s", "op_ms": "residual_best_ms",
          "op_p50_ms": "solve_p50_ms", "op_tail_ms": "solve_tail_ms"}
ALIASES = {
    "cli-cold": {"pass_s": "cli_sweep_s", "op_ms": "cli_invocation_best_ms",
                 "op_p50_ms": "cli_invocation_p50_ms"},
    "graph-impulsive": _GRAPH,
    "graph-mde": _GRAPH,
    "crossval": {"pass_s": "crossval_s", "op_ms": "cross_check_case_best_ms",
                 "op_p50_ms": "cross_check_case_p50_ms",
                 "op_tail_ms": "cross_check_case_tail_ms"},
}

ACCURACY = ("lp_manifold.closed_form_err_max", "lp_manifold.mode_gap",
            "lp_manifold.oracle_gap", "lp_manifold.flow_residual_max")


def die(message):
    print("perfbench: %s" % message, file=sys.stderr)
    sys.exit(2)


def fingerprint():
    import platform

    import numpy as np
    import scipy
    import kurzmani
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "nproc": len(os.sched_getaffinity(0)), "blas_threads": int(BLAS_THREADS),
        "machine": platform.machine(), "kurzmani": kurzmani.__version__,
    }


def tail(values):
    """Highest whole percentile with at least ten samples beyond it:
    (value, percentile, sample count), or None with too few samples for
    one at or above the median."""
    vals = sorted(values)
    n = len(vals)
    pct = int(100 * (n - 10) / n)
    if pct < 50:
        return None
    return vals[n - 11], pct, n


def op_ms(result):
    """op_ms and how it was taken: the mean over the run's operations of the
    fastest call of each."""
    import numpy as np
    calls = [len(d) for d in result.draws.values()]
    value = 1e3 * float(np.mean([min(d) for d in result.draws.values()]))
    if len(calls) == 1:
        return value, "fastest of %d calls" % calls[0]
    return value, ("mean over %d operations of the fastest of %d-%d calls each"
                   % (len(calls), min(calls), max(calls)))


def layer_names():
    import tracer
    import workloads
    names = {"cli.import_s": "s", "cli.import_scipy_integrate_s": "s"}
    for cmd, cfg in workloads.SWEEP:
        names["cli.%s.%s_s" % (cmd, cfg)] = "s"
    for name, unit, _ in tracer.LAYER_METRICS:
        names[name] = unit
    for name in ACCURACY:
        names[name] = "1"
    names["env.calib_ms"] = "ms"
    names["trace.overhead_frac"] = "1"
    return names


def per_layer(result, workload, calib_ms, trace_missing):
    """Every per-layer metric: the median over traced repeats, or 0 with the
    reason it is missing."""
    import numpy as np
    import tracer
    sources = {name: src for name, _, src in tracer.LAYER_METRICS}
    values, missing = {}, {}
    for name in layer_names():
        got = [rep[name] for rep in result.layers if name in rep]
        if got:
            values[name] = float(np.median(got))
        elif name in result.accuracy:
            values[name] = result.accuracy[name]
        elif name == "env.calib_ms":
            values[name] = calib_ms
        elif name == "trace.overhead_frac" and result.walls["traced"] \
                and result.walls["plain"]:
            values[name] = (float(np.median(result.walls["traced"]))
                            / float(np.median(result.walls["plain"])) - 1.0)
        elif name in result.missing:
            missing[name] = result.missing[name]
        elif name.startswith("cli."):
            missing[name] = ("not in this run's sweep" if workload == "cli-cold"
                             else "the CLI runs in the cli-cold workload only")
        elif "*" in result.missing:
            missing[name] = result.missing["*"]
        elif sources.get(name) in trace_missing:
            missing[name] = trace_missing[sources[name]]
        else:
            missing[name] = "nothing in this workload exercises it"
    for name, value in list(values.items()):
        if not math.isfinite(value):
            missing[name] = "not finite (%r)" % value
    for name in missing:
        values[name] = 0.0
    return values, missing


def run_one(args):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import numpy as np
        import kurzmani
        import kurzmani.cli  # noqa: F401
    except ImportError as exc:
        die("cannot import the kurzmani package from %s/src: %s" % (ROOT, exc))
    if not os.path.abspath(kurzmani.__file__).startswith(os.path.join(ROOT, "src")):
        die("kurzmani was imported from %s, not from this checkout"
            % kurzmani.__file__)
    if not os.path.isdir(os.path.join(ROOT, "configs")):
        die("no configs/ directory next to perfbench/")
    import workloads

    run = workloads.Run(args.workload, args.seed, args.seconds, args.trace,
                        args.smoke)
    os.makedirs(workloads.WORK, exist_ok=True)
    fp = fingerprint()
    run.calibrate(5)
    t0 = time.perf_counter()
    result = workloads.WORKLOADS[args.workload](run)
    elapsed = time.perf_counter() - t0

    print("perfbench %s seed=%d seconds=%g trace=%d%s: %.1f s"
          % (args.workload, args.seed, args.seconds, args.trace,
             " smoke" if args.smoke else "", elapsed))
    print("fingerprint %s" % json.dumps(fp, sort_keys=True))
    for key, note in sorted(result.notes.items()):
        print("  %s: %s" % (key, note))
    calib = float(np.median(run.calib_ms))
    print("  env.calib_ms: %.3f ms, median of %d (min %.3f, max %.3f)"
          % (calib, len(run.calib_ms), min(run.calib_ms), max(run.calib_ms)))

    rows = []    # (name, value, unit, how it was taken)
    reduce = {"median": np.median, "max": np.max}
    for name, (unit, how) in END_TO_END.items():
        got = result.draws if name == "op_ms" else result.samples.get(name)
        if not got:
            die("no %s sample: every repeat failed (%d of %d operations)"
                % (name, result.failed, result.attempted))
        if name == "op_ms":
            value, how = op_ms(result)
        else:
            value, how = float(reduce[how](got)), "%s of %d" % (how, len(got))
        rows.append((name, value, unit, how))
    e2e = {name: (value, unit) for name, value, unit, _ in rows}
    passes = result.samples["pass_s"]
    rows.append(("pass_s", float(np.mean(passes)), "s",
                 "mean of %d" % len(passes)))
    ops = result.samples["latency_ms"]
    rows.append(("op_p50_ms", float(np.median(ops)), "ms",
                 "median of %d" % len(ops)))
    tl = tail(ops)
    if tl is not None:
        rows.append(("op_tail_ms", tl[0], "ms", "p%d of %d samples" % tl[1:]))
    if "graph_ok" in result.samples:
        rows.append(("graph_samples_per_s", sum(result.samples["graph_ok"])
                     / sum(result.samples["pass_s"]), "1/s",
                     "checked samples per graph second, %d graphs"
                     % len(result.samples["pass_s"])))
    rows.append(("failed_frac", result.failed / max(result.attempted, 1), "1",
                 "%d failed of %d operations" % (result.failed, result.attempted)))
    aliases = ALIASES[args.workload]
    for name, value, unit, how in rows:
        alias = " (%s)" % aliases[name] if name in aliases else ""
        print("  %-20s %12.6g %-4s %s%s" % (name, value, unit, how, alias))
    print("# summary %s" % json.dumps(
        {aliases.get(name, name): value for name, value, _, _ in rows},
        sort_keys=True))

    if args.trace:
        values, missing = per_layer(result, args.workload, calib,
                                    result.trace_missing)
        units = layer_names()
        for name in sorted(values):
            if name in missing:
                print("  MISSING %s: %s" % (name, missing[name]))
            else:
                print("  %-40s %14.6g %s" % (name, values[name], units[name]))
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
        path = write_trace(args, fp, result, values, missing)
        print("  trace written to %s" % os.path.relpath(path, ROOT))
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    print(json.dumps({"correct": result.failed == 0,
                      "attempted": result.attempted, "failed": result.failed,
                      "metrics": metrics}))


def write_trace(args, fp, result, values, missing):
    """Per-layer values and the spans of the last traced repeat, times in
    seconds from its first span."""
    import workloads
    path = os.path.join(workloads.WORK, "trace_%s.json" % args.workload)
    t_first = result.spans[0][1] if result.spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fingerprint": fp, "seed": args.seed, "metrics": values,
                   "missing": missing,
                   "span_fields": ["name", "start_s", "end_s", "parent"],
                   "spans": [(n, round(a - t_first, 9), round(b - t_first, 9), p)
                             for n, a, b, p in result.spans]}, fh)
    return path


def run_all(args):
    """Each workload in its own process, one after another; one table."""
    rows, metrics = [], {}
    attempted = failed = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            die("workload %s exited with %d" % (name, proc.returncode))
        for line in lines[:-1]:
            print(line)
            if line.startswith("# summary "):
                rows.append((name, json.loads(line[len("# summary "):])))
        last = json.loads(lines[-1])
        attempted += last["attempted"]
        failed += last["failed"]
        for key, val in last["metrics"].items():
            metrics["%s.%s" % (name, key)] = val
    cols = ("setup_s", "cli_sweep_s", "graph_samples_per_s", "solve_p50_ms",
            "solve_tail_ms", "crossval_s", "peak_rss_mb", "failed_frac")
    units = ("s", "s", "1/s", "ms", "ms", "s", "MB", "1")
    print("%-16s" % "workload" + "".join("%27s" % ("%s [%s]" % cu)
                                         for cu in zip(cols, units)))
    for name, summ in rows:
        print("%-16s" % name + "".join(
            "%27s" % ("%.6g" % summ[c] if c in summ else "-") for c in cols))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the self-test")
    args = parser.parse_args()
    if args.workload == "all":
        run_all(args)
    else:
        run_one(args)


if __name__ == "__main__":
    main()
