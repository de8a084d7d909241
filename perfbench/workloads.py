"""The benchmark workloads.

Each workload is a closed loop driven by one process and repeats a *cycle*,
its fixed unit of work, whose inputs derive from the benchmark seed and the
cycle's index. ``run`` performs the timed part of a cycle and times it;
``verify`` checks the outputs afterwards, untimed, and digests them so that a
traced cycle can be compared with an untraced one on the same inputs.

The workloads call only the package's public functions and always look them
up through their modules at call time, so that the tracer's wrappers see
every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import time
import urllib.request
from collections import defaultdict
from dataclasses import dataclass, field, replace
from pathlib import Path

import dinersim.cli as cli
import dinersim.runner as runner
from dinersim.backends import accuracy
from dinersim.backends.oracle import RuleOracle
from dinersim.backends.llm import LlmBackend
from dinersim.model import BackendConfig, paper_preset
from dinersim.reporting import event_log_lines, load_event_log
from dinersim.runner import RunStatus, run_id_for
from dinersim.runner import run_simulation as untimed_run_simulation

HERE = Path(__file__).resolve().parent

# The paper's four settings: both 8-diner presets under both explicit (p, k).
SETTINGS = ((1, "3:1"), (1, "6:1"), (2, "3:1"), (2, "6:1"))

# sha256 over the event-log lines of the oracle runs of every setting for
# seeds 0-7, recorded when the benchmark was defined. The event log is part
# of the package's contract: equal seeds give byte-identical logs.
GOLDEN_SEEDS = range(8)
GOLDEN_DIGEST = "00aa2f1acfb00b5bff35f4aa4fc865a64f71142acb327fc2d1dee6b9756bdd01"


def sim_seeds(workload: str, seed: int, cycle: int, n: int) -> list[int]:
    """``n`` distinct simulation seeds for one cycle of one benchmark seed."""
    return random.Random(f"{workload}/{seed}/{cycle}").sample(range(2**31), n)


def cycle_configs(configs, seeds: list[int]) -> list:
    """One run per seed, rotating through the settings' configs.

    Every run gets a seed of its own: runs sharing a seed share their
    imitation draws, so their costs would move together.
    """
    return [replace(configs[i % len(configs)], seed=s) for i, s in enumerate(seeds)]


def digest_runs(results) -> str:
    h = hashlib.sha256()
    for result in results:
        for line in event_log_lines(result):
            h.update(line.encode("utf-8") + b"\n")
    return h.hexdigest()


def golden_digest() -> str:
    backend = RuleOracle()
    return digest_runs(
        untimed_run_simulation(
            paper_preset(c, p, s, backend=BackendConfig(kind="oracle")), backend
        )
        for c, p in SETTINGS
        for s in GOLDEN_SEEDS
    )


@dataclass
class Cycle:
    """What one cycle did: timings from ``run``, verdicts from ``verify``."""

    runs: int = 0
    run_phase_s: float = 0.0  # wall time of the phase that completes the runs
    eval_s: float = 0.0
    reports: int = 0
    report_s: float = 0.0
    run_requests: int = 0
    outputs: dict = field(default_factory=dict)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    digest: str = ""

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)


class RunCapture:
    """The results of ``runner.run_simulation`` calls, keyed by run id, and
    every call's wall time, grouped by paper setting.

    Filled by the benchmark's always-on wrapper around that function.
    """

    def __init__(self) -> None:
        self.results: dict[str, runner.RunResult] = {}
        self.run_s: dict[tuple, list[float]] = defaultdict(list)

    def __call__(self, tracer, args, kwargs, result) -> None:
        self.results[result.handle.run_id] = result
        # The wrapper records its span before calling back; runs are serial.
        _, _, start, end, _ = tracer.spans[-1]
        self.run_s[result.config.agents, result.config.punishment].append(end - start)

    def take(self) -> dict[str, runner.RunResult]:
        results, self.results = self.results, {}
        return results


class Workload:
    """A closed loop over cycles; subclasses define ``run`` and ``verify``."""

    name = ""
    cycles_per_block = 1  # consecutive cycles that cover every setting once
    max_concurrency = 0  # LLM requests in flight at once
    trace_pairs = 8  # (untraced, traced) cycle pairs in a traced run

    def __init__(self, seed: int, capture: RunCapture, work_dir: Path) -> None:
        self.seed = seed
        self.capture = capture
        self.work_dir = work_dir

    @staticmethod
    def fixed_cycles(seconds: int) -> int | None:
        """Cycles per untraced run; None repeats cycles until ``seconds`` pass."""
        return None

    def setup(self) -> None:
        pass

    def gate(self, cycle: Cycle) -> None:
        """Checks run once per benchmark run, outside the cycles."""

    def warm_up(self) -> list[Cycle]:
        """Untimed, verified cycles that run before any timed cycle."""
        return []

    def run(self, index: int) -> Cycle:
        raise NotImplementedError

    def verify(self, cycle: Cycle) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass


def check_run(cycle: Cycle, result, what: str) -> bool:
    ok = result.handle.status is not RunStatus.ABORTED and len(result.records) == result.config.iterations
    cycle.expect(ok, f"{what}: run {result.handle.run_id} {result.handle.status.value}: {result.error}")
    return ok


def check_accuracy(cycle: Cycle, report) -> None:
    """One operation per scenario; ``evaluate_accuracy`` lists every miss."""
    cycle.attempted += report.total
    cycle.failures.extend(f"accuracy: {f}" for f in report.failures)


class BatchIo(Workload):
    """``replicate`` then ``report --log`` per run, through ``cli.main``.

    ``replicate`` runs serially, its default. With ``--jobs 2`` the threads
    contend for the interpreter lock and per-run wall times measured the
    lock hand-offs more than the runs: on a shared 2-vCPU VM their 75th
    percentile spread 0.6 (IQR over median) across ten seeds.

    Cycles take turns through ``slots`` output directories, and a slot's
    batch always has the same seeds, so from the second pass on every
    cycle rewrites the files of an earlier one instead of creating new
    ones. ``warm_up`` makes the first pass. On the ext4 disk of a shared
    2-vCPU VM creating a file or directory cost 0.1-0.7 ms of kernel time,
    swinging with the host's load; the eight or so per run made up a third
    of a cycle and most of its spread, and they are not the package's work.
    """

    name = "batch-io"
    cycles_per_block = len(SETTINGS)  # a cycle runs one setting
    slots = 4 * len(SETTINGS)  # distinct batches: 16 cycles of 16 runs
    seeds_per_batch = 16

    def setup(self) -> None:
        # A run killed before ``close`` leaves its slot directories behind.
        shutil.rmtree(self.work_dir, ignore_errors=True)
        self.work_dir.mkdir(parents=True)

    def gate(self, cycle: Cycle) -> None:
        got = golden_digest()
        cycle.expect(got == GOLDEN_DIGEST, f"golden event-log digest {got} != {GOLDEN_DIGEST}")

    def warm_up(self) -> list[Cycle]:
        cycles = []
        for index in range(self.slots):
            cycle = self.run(index)
            self.verify(cycle)
            cycles.append(cycle)
        return cycles

    def _cli(self, argv: list[str]) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def run(self, index: int) -> Cycle:
        slot = index % self.slots
        combination, punishment = SETTINGS[slot % len(SETTINGS)]
        seeds = sim_seeds(self.name, self.seed, slot, self.seeds_per_batch)
        batch = self.work_dir / f"slot{slot}"
        batch.mkdir(parents=True, exist_ok=True)
        seed_list = batch / "seeds.txt"
        seed_list.write_text("".join(f"{s}\n" for s in seeds), encoding="utf-8")
        cycle = Cycle(runs=len(seeds))

        start = time.perf_counter()
        replicate_code = self._cli([
            "replicate", "--combination", str(combination), "--punishment", punishment,
            "--backend", "oracle", "--seed-list", str(seed_list),
            "--out", str(batch / "runs"),
        ])
        replicate_s = time.perf_counter() - start
        logs = sorted((batch / "runs").glob("*/events.jsonl"))
        start = time.perf_counter()
        report_codes = [
            self._cli(["report", "--log", str(log), "--out", str(log.parent / "rebuilt")])
            for log in logs
        ]
        cycle.report_s = time.perf_counter() - start
        cycle.reports = len(logs)
        cycle.run_phase_s = replicate_s + cycle.report_s

        start = time.perf_counter()
        eval_code = self._cli(["eval-backend", "--backend", "oracle", "--out", str(batch / "accuracy.json")])
        cycle.eval_s = time.perf_counter() - start
        cycle.outputs = {
            "batch": batch, "seeds": seeds, "logs": logs, "replicate_code": replicate_code,
            "report_codes": report_codes, "eval_code": eval_code,
        }
        return cycle

    def verify(self, cycle: Cycle) -> None:
        out = cycle.outputs
        results = self.capture.take()
        cycle.expect(out["replicate_code"] == 0, f"replicate exited {out['replicate_code']}")
        ran = sorted(r.handle.seed for r in results.values())
        cycle.expect(ran == sorted(out["seeds"]), "replicate did not run every seed once")
        cycle.expect(len(out["logs"]) == len(out["seeds"]), f"{len(out['logs'])} event logs for {len(out['seeds'])} seeds")
        h = hashlib.sha256()
        for log, code in zip(out["logs"], out["report_codes"]):
            run_dir = log.parent
            result = results.get(run_dir.name)
            if result is None:
                cycle.expect(False, f"no run result for {run_dir.name}")
                continue
            if not check_run(cycle, result, "batch run"):
                continue
            cycle.expect(code == 0, f"report on {log} exited {code}")
            cycle.expect(load_event_log(log).records == result.records, f"{log} does not reload to the run's records")
            written = (run_dir / "census.csv").read_bytes()
            rebuilt = (run_dir / "rebuilt" / "census.csv").read_bytes()
            cycle.expect(written == rebuilt, f"rebuilt census.csv differs for {run_dir.name}")
            for name in ("events.jsonl", "census.csv", "trend.svg", "rebuilt/census.csv", "rebuilt/trend.svg"):
                h.update((run_dir / name).read_bytes())
        h.update((out["batch"] / "runs" / "batch_summary.csv").read_bytes())
        cycle.digest = h.hexdigest()

        report = json.loads((out["batch"] / "accuracy.json").read_text(encoding="utf-8"))
        cycle.expect(out["eval_code"] == 0, f"eval-backend exited {out['eval_code']}")
        cycle.attempted += report["total"]
        cycle.failures.extend(f"accuracy: {f}" for f in report["failures"])
        # Empty the slot's files, so that a later cycle that fails to write
        # one leaves nothing stale for its checks to pass on.
        for path in out["batch"].rglob("*"):
            if path.is_file():
                os.truncate(path, 0)

    def close(self) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)


def stop_process(proc: subprocess.Popen) -> None:
    """End a helper process that exits at end of input, and wait for it."""
    proc.stdin.close()
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdout.close()


class StubServer:
    """The chat-completions stub of ``stub.py``, in a process of its own."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("port "):
            self.close()
            raise RuntimeError(f"stub failed to start: {line!r}")
        self.url = f"http://127.0.0.1:{int(line.split()[1])}"

    def requests_served(self) -> int:
        with urllib.request.urlopen(f"{self.url}/stats", timeout=10) as response:
            return json.loads(response.read())["requests"]

    def close(self) -> None:
        stop_process(self.proc)


class LlmFixture(Workload):
    """``LlmBackend`` against the local stub: preset runs, then one accuracy pass."""

    name = "llm-fixture"
    max_concurrency = 2
    trace_pairs = 1
    stub: StubServer | None = None

    @staticmethod
    def fixed_cycles(seconds: int) -> int:
        """One cycle (8-9 s) per 15 s of ``seconds``, fixed so that request
        counts repeat exactly; the runs are steady after four cycles."""
        return max(1, seconds // 15)

    def setup(self) -> None:
        # Keep the loopback traffic off any proxy configured for the host.
        os.environ["NO_PROXY"] = ",".join(filter(None, [os.environ.get("NO_PROXY"), "127.0.0.1"]))
        self.stub = StubServer()
        # A small backoff base keeps retry sleeps from dominating; the
        # stub's 503s are scheduled, so the request count still repeats.
        settings = BackendConfig(kind="llm", max_concurrency=self.max_concurrency, backoff_base=0.001, timeout=10.0)
        self.backend = LlmBackend(settings=settings, base_url=f"{self.stub.url}/v1", model="perfbench-stub", api_key="")
        self.configs = [paper_preset(c, p, 0, backend=settings) for c, p in SETTINGS]

    def run(self, index: int) -> Cycle:
        configs = cycle_configs(self.configs, sim_seeds(self.name, self.seed, index, len(SETTINGS)))
        cycle = Cycle(runs=len(configs))
        served = self.stub.requests_served()
        start = time.perf_counter()
        for config in configs:
            runner.run_simulation(config, self.backend)
        cycle.run_phase_s = time.perf_counter() - start
        after_runs = self.stub.requests_served()
        cycle.run_requests = after_runs - served
        start = time.perf_counter()
        report = accuracy.evaluate_accuracy(self.backend, accuracy.build_scenario_suite())
        cycle.eval_s = time.perf_counter() - start
        cycle.outputs = {
            "configs": configs, "report": report,
            "eval_requests": self.stub.requests_served() - after_runs,
        }
        return cycle

    def verify(self, cycle: Cycle) -> None:
        results = self.capture.take()
        oracle = RuleOracle()
        ordered = []
        for config in cycle.outputs["configs"]:
            result = results.get(run_id_for(config))
            if result is None:
                cycle.expect(False, f"no llm run result for seed {config.seed}")
                continue
            if not check_run(cycle, result, "llm run"):
                continue
            ordered.append(result)
            reference = untimed_run_simulation(config, oracle)
            cycle.expect(result.records == reference.records, f"llm run seed {config.seed} differs from the oracle run")
        report = cycle.outputs["report"]
        check_accuracy(cycle, report)
        h = hashlib.sha256(digest_runs(ordered).encode("ascii"))
        h.update(json.dumps(report.to_dict(), sort_keys=True).encode("utf-8"))
        cycle.digest = h.hexdigest()

    def close(self) -> None:
        if self.stub is not None:
            self.stub.close()


WORKLOADS = {w.name: w for w in (BatchIo, LlmFixture)}
