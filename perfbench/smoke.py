#!/usr/bin/env python3
"""Smoke test for the RAPIDS benchmark.

Runs a tiny version of every workload (2 table1 circuits, gen:2000 at
threads 4, one gen:500 proof) twice untraced and once traced, and checks:

  * every run is correct and no flow fails;
  * the deterministic outputs repeat exactly across runs (each with its own
    seed, so its own flow order), tracing included:
    delays, moves and BLIF hashes, plus probes and gates_propagated for
    single-threaded workloads;
  * the deterministic end-to-end metrics (delay_final_pct, area_final_pct)
    repeat exactly;
  * every printed metric name and unit is the one declared in
    BENCHMARK.json (run.py enforces this on each run).

Usage, from the repository root:  python3 perfbench/smoke.py
Exit status 0 when every check passes.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = [w["name"] for w in json.load(open(os.path.join(ROOT, "BENCHMARK.json")))["workloads"]]
DETERMINISTIC = ("initial_delay_ns", "final_delay_ns", "delay_gain_pct", "area_delta_pct",
                 "swaps", "resizes", "blif_fnv1a64")
SERIAL_ONLY = ("probes", "gates_propagated")


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"]
    res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    if res.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: run.py exited {res.returncode}")
    lines = [json.loads(l) for l in res.stdout.splitlines() if l.startswith("{")]
    env = next(l["env"] for l in lines if "env" in l)
    rows = [l["flow"] for l in lines if "flow" in l]
    return env, rows, lines[-1]


def main():
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for w in WORKLOADS:
        # Each run has its own seed, so its passes run the flows in other
        # orders; the inputs are fixed, so every output must repeat.
        env, rows_a, res_a = run(w, 1, 0)
        _, rows_b, res_b = run(w, 2, 0)
        _, rows_t, res_t = run(w, 3, 1)
        check(env["release"], f"{w}: Release build")
        for name, res in (("run 1", res_a), ("run 2", res_b), ("traced run", res_t)):
            check(res["correct"] and res["failed"] == 0 and res["attempted"] == len(rows_a),
                  f"{w}: {name} correct, {res['attempted']} flows, {res['failed']} failed")
        fields = DETERMINISTIC + (SERIAL_ONLY if env["threads"] == 1 else ())
        for other, label in ((rows_b, "second run"), (rows_t, "traced run")):
            same = len(other) == len(rows_a) and all(
                a[f] == b[f] for a, b in zip(rows_a, other) for f in fields)
            check(same, f"{w}: {label} repeats {', '.join(fields)} of {len(rows_a)} flows")
        for metric in ("delay_final_pct", "area_final_pct"):
            check(res_a["metrics"][metric]["value"] == res_b["metrics"][metric]["value"],
                  f"{w}: {metric} repeats exactly")
        check(res_t["metrics"]["trace.dropped_events"]["value"] == 0,
              f"{w}: traced run dropped no events")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
