"""Self-test of the benchmark: every workload at smoke size, both modes.

    python3 perfbench/selftest.py

Checks, for each workload, that the last output line is the result object,
that with ``--trace 0`` it holds exactly the end-to-end metrics of
BENCHMARK.json with their units, that with ``--trace 1`` every per-layer
metric of BENCHMARK.json is present and either measured or named on a
``MISSING`` line with its reason, and that no operation failed.  Takes
about a minute; exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", "0", "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError("%s trace=%d exited %d:\n%s"
                             % (workload, trace, proc.returncode, proc.stderr))
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for w in (w["name"] for w in bench["workloads"]):
        for trace, want in ((0, e2e), (1, layers)):
            lines, res = run(w, trace)
            assert set(res) == {"correct", "attempted", "failed", "metrics"}, res
            assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, \
                "%s trace=%d: %d of %d operations failed" % (
                    w, trace, res["failed"], res["attempted"])
            got = res["metrics"]
            assert set(got) == set(want), (w, trace, set(got) ^ set(want))
            for name, unit in want.items():
                assert got[name]["unit"] == unit, (w, name, got[name])
                assert isinstance(got[name]["value"], (int, float)), (w, name)
            if trace == 0:
                assert all(got[n]["value"] > 0 for n in want), (w, got)
                assert any(l.strip().startswith("failed_frac") for l in lines), w
            else:
                missing = {l.split()[1].rstrip(":") for l in lines
                           if l.strip().startswith("MISSING ")}
                for name in missing:
                    assert got[name]["value"] == 0.0, (w, name)
                assert missing < set(want), (w, missing - set(want))
            print("selftest %-16s trace=%d ok (%d operations)"
                  % (w, trace, res["attempted"]))
    print("selftest passed")


if __name__ == "__main__":
    main()
