#!/usr/bin/env python3
"""Runs the benchmark once per seed on each workload and reports, for every
end-to-end metric, the median, the quartiles and the spread: the distance
between the quartiles as a share of the median, against the metric's bound
in BENCHMARK.json.

Run from the root of the repository:

    python3 perfbench/spread.py --seeds 1-10 [--workloads a,b] [--out FILE]
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--out")
    args = ap.parse_args()

    report = {}
    for wl in args.workloads.split(","):
        values, losses = {}, {}
        for seed in args.seeds:
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.exit(f"{wl} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            result = json.loads(lines[-1])
            detail = json.loads(lines[-2])["detail"]
            if "loss_final" in detail["figures"]:
                losses[seed] = detail["figures"]["loss_final"]["value"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(wl, seed, {k: round(v["value"], 4) for k, v in result["metrics"].items()}, flush=True)
        report[wl] = {"loss_final": losses, "metrics": {}}
        for m in bench["end_to_end"]:
            vs = values[m["name"]]
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            report[wl]["metrics"][m["name"]] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread, "bound": m["bound"], "values": vs}
            print(f"  {wl} {m['name']}: median {med:.4g} q1 {q1:.4g} q3 {q3:.4g} "
                  f"spread {spread:.3f} (bound {m['bound']})", flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=2)


if __name__ == "__main__":
    main()
