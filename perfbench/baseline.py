"""Run every workload on several seeds and summarise each end-to-end metric.

    python3 perfbench/baseline.py --seeds 10 --out perfbench/baseline.json

For each workload and metric it reports the median, the quartiles and the
spread: the distance between the quartiles (``statistics.quantiles`` with
n=4) as a share of the median, next to the metric's bound in BENCHMARK.json.
A benchmark is steady when every spread, except that of ``setup_s``, stays
well inside its bound. The JSON written names the machine it ran on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def machine() -> dict:
    model = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "cpus": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "note": "shared sandbox: other tenants run on the same host",
    }


def run_once(spec: dict, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list[float], bound: float | None) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    return {
        "median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--out", type=Path, default=None, help="write the summary JSON here")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    summary = {"machine": machine(), "run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}

    for workload in workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        started = time.perf_counter()
        for seed in seeds:
            result = run_once(spec, workload, seed, spec["run_seconds"], 0)
            if not result["correct"]:
                raise RuntimeError(f"{workload} seed {seed}: {result['failed']} failed checks")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        rows = {name: summarise(v, bounds[name]) for name, v in values.items()}
        summary["workloads"][workload] = rows
        print(f"{workload} ({time.perf_counter() - started:.0f} s)", flush=True)
        for name, row in rows.items():
            flag = "" if name == "setup_s" or row["spread"] < row["bound"] / 3 else "  <-- above a third of the bound"
            print(f"  {name:<14} median {row['median']:<12.6g} spread {row['spread']:.4f} "
                  f"(bound {row['bound']}){flag}", flush=True)

    if args.out:
        args.out.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
