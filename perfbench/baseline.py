"""Run the benchmark over several seeds and record the baseline with its machine stamp.

Run from the repository root:

    python3 perfbench/baseline.py --runs 10 --out perfbench/baseline.json

Each workload of BENCHMARK.json runs ``--runs`` times untraced, each time on
another seed, then once traced. The output holds, per workload, the median,
quartiles and spread (interquartile range over median) of every end-to-end
metric, the traced run's per-layer metrics and self-time shares, and a stamp
of the machine and library versions the numbers were taken on. Runs go one
after another, never in parallel, so they do not slow each other down.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy
import scipy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

sys.path.insert(0, str(HERE))
from run import BLAS_CAPS, NPROC  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = BENCH["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr[-3000:]}")
    lines = done.stdout.strip().splitlines()
    return {"seed": seed, "wall_s": wall, "result": json.loads(lines[-1]), "log": lines[:-1],
            "stderr": done.stderr.strip().splitlines()}


def stamp() -> dict:
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "commit": commit.stdout.strip() or "unknown",
        "nproc": NPROC,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_thread_caps": dict.fromkeys(BLAS_CAPS, str(NPROC)),
        "run_seconds": BENCH["run_seconds"],
    }


def summarize(runs: list) -> dict:
    out = {}
    for spec in BENCH["end_to_end"]:
        values = [r["result"]["metrics"][spec["name"]]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[spec["name"]] = {"median": median, "q1": q1, "q3": q3, "unit": spec["unit"],
                             "spread": (q3 - q1) / median, "bound": spec["bound"], "values": values}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=BENCH["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in BENCH["workloads"]))
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2 for quartiles")

    report = {"stamp": stamp(), "known_defects": [], "workloads": {}}
    for workload in args.workloads.split(","):
        seeds = range(args.first_seed, args.first_seed + args.runs)
        runs = [run_once(workload, seed, args.seconds, 0) for seed in seeds]
        traced = run_once(workload, args.first_seed, args.seconds, 1)
        bad = [r["seed"] for r in runs + [traced] if not r["result"]["correct"] or r["result"]["failed"]]
        metrics = summarize(runs)
        report["workloads"][workload] = {
            "seeds": list(seeds),
            "attempted": runs[0]["result"]["attempted"],
            "seeds_with_failures": bad,
            "wall_s_median": statistics.median(r["wall_s"] for r in runs),
            "end_to_end": metrics,
            "notes": [line for line in runs[0]["log"]
                      if line.startswith(("scenario ", "solve_s.tail is", "verify_s.tail is", "machine factor"))],
            "per_layer": {k: v["value"] for k, v in traced["result"]["metrics"].items()},
            "self_time_shares": [line.split("self-time share ", 1)[1] for line in traced["log"]
                                 if line.startswith("self-time share ")],
        }
        for line in runs[0]["log"]:
            if line.startswith("known defect: ") and line not in report["known_defects"]:
                report["known_defects"].append(line)
        print(f"{workload}: wall median {report['workloads'][workload]['wall_s_median']:.1f} s, "
              f"seeds with failures {bad or 'none'}")
        for name, m in metrics.items():
            flag = "" if m["spread"] <= m["bound"] / 3 else "  above a third of its bound"
            print(f"  {name:28s} median {m['median']:12.6g} {m['unit']:4s} spread {m['spread']:.4f}{flag}")
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
