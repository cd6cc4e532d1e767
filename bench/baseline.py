"""Run the benchmark over several seeds and save a BENCH_<n>.json summary.

    python3 bench/baseline.py --seeds 10 --seconds 30 --out bench/BENCH_1.json

For each seed, every workload runs once untraced (one process at a time,
workloads interleaved); then each workload runs once traced at the
pinned seed.  End-to-end metrics are summarized by median and quartiles
as `statistics.quantiles(values, n=4)` gives them; `spread` is the
interquartile distance over the median.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("codes", "templates", "structure")


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    if proc.returncode or not lines:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    env = json.loads(lines[0].split(" ", 2)[2])
    return json.loads(lines[-1]), env


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10, help="run seeds 1..N")
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    seeds = list(range(1, args.seeds + 1))
    values = {w: {} for w in WORKLOADS}
    env = None
    for seed in seeds:
        for w in WORKLOADS:
            result, env = run(w, seed, args.seconds, 0)
            if not result["correct"]:
                sys.exit(f"{w} seed {seed}: {result}")
            for name, m in result["metrics"].items():
                values[w].setdefault(name, {"unit": m["unit"], "values": []})
                values[w][name]["values"].append(m["value"])
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)
    out = {"environment": env, "seconds": args.seconds, "seeds": seeds, "workloads": {}}
    for w in WORKLOADS:
        e2e = {name: {"unit": v["unit"], **summary(v["values"])} for name, v in values[w].items()}
        traced, _ = run(w, 0, args.seconds, 1)
        out["workloads"][w] = {"end_to_end": e2e, "per_layer_seed0": {
            name: m["value"] for name, m in traced["metrics"].items()}}
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    for w in WORKLOADS:
        for name, s in out["workloads"][w]["end_to_end"].items():
            print(f"{w:10s} {name:12s} median {s['median']:.5g} spread {s['spread']:.4f}")


if __name__ == "__main__":
    main()
