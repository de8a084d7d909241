"""dinersim benchmark: one command per workload, from the root of a checkout.

    python3 perfbench/run.py --workload batch-io --seed 1 --seconds 60 --trace 0

Workloads (see ``workloads.py``): ``batch-io`` and ``llm-fixture``. The run
checks every output it produces, prints a summary, and ends with one JSON
line ``{"correct", "attempted", "failed", "metrics"}``.
It exits 1 when a correctness check failed and 2 when the checkout holds no
``src/dinersim`` to measure.

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json with one
wrapper only, around ``runner.run_simulation``, for the per-run times.
batch-io first makes one untimed, verified pass over its output slots (see
``BatchIo``), then repeats cycles until ``--seconds`` have passed; llm-fixture runs a
fixed number of cycles derived from ``--seconds`` so that its request count
repeats exactly. The gated metrics are:

- ``setup_s``: median, over several fresh processes, of the time from
  starting the process to the end of the workload's set-up (imports,
  configs, the stub and the LLM client);
- ``runs_per_s``: runs per second that three blocks in four sustain (the
  25th percentile of throughput over blocks of consecutive cycles that
  together cover the four paper settings once);
- ``run_ms_p75``: 75th percentile of the per-run wall time, taken per paper
  setting and averaged over the four settings. The settings' run times
  form clusters, so a percentile over all runs would fall on the edge of
  one and jump with the seed;
- ``eval_s``: 75th percentile of the per-cycle accuracy pass;
- ``peak_rss_mb``: peak resident memory of the benchmark process.

The summary also prints the mean throughput, the median and tail run time,
report throughput, LLM requests per run and the error rate.

``--trace 1`` runs a fixed number of cycle pairs: each cycle once untraced
and once with every layer wrapped (``layers.py``), on the same inputs. The
two must give outputs with equal digests. It reports the per-layer metrics
per traced cycle, the tracing overhead as the traced over the untraced wall
time, and writes the spans to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 7


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh benchmark process to the end of its set-up."""
    from workloads import stop_process

    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--probe-setup"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
    finally:
        stop_process(proc)  # the probe tears down at end of input
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {line!r}, exit {proc.returncode}")
    return elapsed


def main() -> int:
    parser = argparse.ArgumentParser(description="dinersim benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (ROOT / "src" / "dinersim" / "__init__.py").is_file():
        print(f"error: no src/dinersim under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import dinersim

    if not Path(dinersim.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported dinersim from {dinersim.__file__}, not this checkout", file=sys.stderr)
        return 2

    from workloads import WORKLOADS, Cycle, RunCapture

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    work_dir = OUT / f"{args.workload}-seed{args.seed}"

    if args.probe_setup:
        workload = WORKLOADS[args.workload](args.seed, RunCapture(), work_dir / "probe")
        try:
            workload.setup()
            print("ready", flush=True)
            sys.stdin.read()
        finally:
            workload.close()
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    import dinersim.runner as runner

    capture = RunCapture()
    clock = Tracer()
    clock.wrap(runner, "run_simulation", "runner.run_simulation", capture)
    workload = WORKLOADS[args.workload](args.seed, capture, work_dir)
    gate = Cycle()
    try:
        workload.setup()
        workload.gate(gate)
        warm = workload.warm_up()
        capture.run_s.clear()
        if args.trace:
            cycles, metrics, lines = traced_run(workload, args)
        else:
            cycles, metrics, lines = untraced_run(workload, args)
    finally:
        workload.close()
        clock.restore()

    cycles += [gate, *warm]
    failures = [f for c in cycles for f in c.failures]
    attempted = sum(c.attempted for c in cycles)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")

    lines.append(f"error_rate       {len(failures) / attempted:.6f} ({len(failures)} of {attempted} operations)")
    for failure in failures[:20]:
        lines.append(f"FAILED: {failure}")
    for name, value in metrics.items():
        lines.append(f"{name:<40} {value:.6g} {units[name]}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if not failures else 1


def tail_percentile(n: int) -> float:
    """The highest of p99.9, p99, p90 and p50 with at least ten samples beyond it."""
    return next((q for q in (99.9, 99.0, 90.0) if n * (1 - q / 100) >= 10), 50.0)


def block_throughputs(cycles, block: int) -> list[float]:
    """Runs per second of each block of ``block`` consecutive cycles.

    Every block holds the same mix of settings, so a block's throughput
    follows the host's speed, not which setting a cycle happened to run.
    """
    groups = [cycles[i:i + block] for i in range(0, len(cycles), block)]
    return [sum(c.runs for c in g) / sum(c.run_phase_s for c in g) for g in groups]


def untraced_run(workload, args):
    setup_s = statistics.median(probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES))
    limit = workload.fixed_cycles(args.seconds)
    cycles = []
    deadline = time.perf_counter() + args.seconds
    block = workload.cycles_per_block  # a timed run ends on a block boundary
    while (len(cycles) < limit) if limit else (len(cycles) % block or not cycles or time.perf_counter() < deadline):
        cycle = workload.run(len(cycles))
        workload.verify(cycle)
        cycles.append(cycle)

    by_setting = [[1000 * s for s in times] for times in workload.capture.run_s.values()]
    run_ms = [ms for times in by_setting for ms in times]
    runs = sum(c.runs for c in cycles)
    tail = tail_percentile(len(run_ms))
    lines = [
        f"workload         {workload.name} seed {args.seed}: {len(cycles)} cycles, {runs} runs",
        f"mean throughput  {runs / sum(c.run_phase_s for c in cycles):.6g} runs/s over all cycles",
        f"run_ms_p50       {statistics.median(run_ms):.6g} ms",
        f"run_ms_tail      {percentile(run_ms, tail):.6g} ms: p{tail:g} of {len(run_ms)} runs",
    ]
    if any(c.reports for c in cycles):
        logs = sum(c.reports for c in cycles)
        lines.append(f"report_logs_per_s {logs / sum(c.report_s for c in cycles):.6g} 1/s over {logs} logs")
    if any(c.run_requests for c in cycles):
        lines.append(f"llm_requests_per_run {sum(c.run_requests for c in cycles) / runs:.6g} count")
        lines.append(f"eval_requests    {[c.outputs['eval_requests'] for c in cycles]}")
    # On a shared 2-vCPU VM the speed of the same pure-Python work swings by
    # 1.5-2x over seconds to minutes. Slow periods recur in every run while
    # fast ones come and go, so the gated metrics are the quantiles that slow
    # periods set: they repeat across runs where medians over the mix do not.
    metrics = {
        "setup_s": setup_s,
        "runs_per_s": percentile(block_throughputs(cycles, block), 25),
        "run_ms_p75": statistics.mean(percentile(times, 75) for times in by_setting),
        "eval_s": percentile([c.eval_s for c in cycles], 75),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return cycles, metrics, lines


def traced_run(workload, args):
    from layers import instrument, layer_metrics
    from workloads import Cycle

    tracer = Tracer()

    def traced_cycle(index: int) -> Cycle:
        instrument(tracer)
        try:
            return workload.run(index)
        finally:
            tracer.restore()

    plains, traceds = [], []
    for index in range(workload.trace_pairs):
        # Alternate which side runs first, so drift does not bias the overhead.
        sides = [(plains, workload.run), (traceds, traced_cycle)]
        for done, run in sides[:: 1 if index % 2 == 0 else -1]:
            cycle = run(index)
            workload.verify(cycle)
            done.append(cycle)
        traceds[-1].expect(traceds[-1].digest == plains[-1].digest, f"cycle {index}: traced outputs differ from untraced")

    plain_s = sum(c.run_phase_s + c.eval_s for c in plains)
    traced_s = sum(c.run_phase_s + c.eval_s for c in traceds)
    overhead_pct = 100 * (traced_s / plain_s - 1)
    runs = sum(c.runs for c in traceds)
    spans_path = OUT / f"{args.workload}-seed{args.seed}.spans.tsv"
    tracer.write_spans(spans_path)
    metrics = layer_metrics(
        tracer, workload.trace_pairs, runs, workload.max_concurrency, overhead_pct,
    )
    lines = [
        f"workload         {workload.name} seed {args.seed}: {workload.trace_pairs} traced cycles, {runs} runs",
        f"tracing overhead {overhead_pct:.1f}% ({plain_s:.3f} s untraced, {traced_s:.3f} s traced)",
        f"spans            {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}",
    ]
    return plains + traceds, metrics, lines


if __name__ == "__main__":
    sys.exit(main())
