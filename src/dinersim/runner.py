"""Full-simulation orchestration: iteration loop, location rotation,
replication batches, and seed management.

One root seed per run spawns independent substreams per purpose (imitation
draws, backend retry jitter), so order collection never consumes imitation
randomness and LLM retries cannot perturb the dynamics on replay.
"""

from __future__ import annotations

import hashlib
import json
import logging
import operator
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np

from .backends.base import BackendError, DecisionBackend
from .config_io import config_to_dict
from .engine import run_group_round
from .imitation import imitation_step
from .model import (
    AgentState,
    IterationRecord,
    SimulationConfig,
    Strategy,
    census_of,
    validate_config,
)

log = logging.getLogger(__name__)


class RunStatus(str, Enum):
    RUNNING = "running"
    CONVERGED = "converged"
    COMPLETED = "completed"
    ABORTED = "aborted"


@dataclass
class RunHandle:
    run_id: str
    seed: int
    status: RunStatus
    iterations_executed: int


@dataclass
class RunResult:
    handle: RunHandle
    config: SimulationConfig
    records: list[IterationRecord]
    final_census: dict[Strategy, int]
    final_agents: list[AgentState]
    convergence_iteration: int | None
    error: str | None = None


# Every config field but the seed, and the last such values run_id_for
# hashed with their digest. The runs of one batch share these values by
# identity; holding them keeps them alive, so an identity match is the same
# frozen document. Equality would not do: 6 == 6.0 but they serialise apart.
_SEEDLESS_FIELDS = tuple(f.name for f in fields(SimulationConfig) if f.name != "seed")
_last_digest: tuple[tuple, str] | None = None


def run_id_for(config: SimulationConfig) -> str:
    """Stable identifier from the config content hash plus the seed."""
    global _last_digest
    values = tuple(getattr(config, name) for name in _SEEDLESS_FIELDS)
    cached = _last_digest
    if cached is None or not all(map(operator.is_, values, cached[0])):
        without_seed = config_to_dict(config)
        del without_seed["seed"]
        digest = hashlib.sha256(
            json.dumps(without_seed, sort_keys=True).encode("utf-8")
        ).hexdigest()
        cached = _last_digest = (values, digest)
    return f"{cached[1][:10]}-s{config.seed}"


def derive_streams(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    """(imitation_rng, backend_jitter_rng) split from one root seed."""
    imitation_ss, jitter_ss = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(imitation_ss), np.random.default_rng(jitter_ss)


def assign_locations(
    n_groups: int, locations: Sequence[str], iteration: int
) -> list[str]:
    """Cyclic rotation: groups swap locations every iteration.

    Iteration 1 gives group i location i; each following iteration shifts the
    assignment by one. Locations are cosmetic under the rule oracle.
    """
    return [locations[(i + iteration - 1) % len(locations)] for i in range(n_groups)]


def run_simulation(
    config: SimulationConfig,
    backend: DecisionBackend,
    *,
    early_stop: bool = False,
) -> RunResult:
    """Run one seeded simulation to completion, convergence, or abort.

    Each iteration rotates group locations, runs the dilemma pipeline per
    group, then performs one population-wide imitation sweep and records the
    census. With ``early_stop`` the run stops after recording the iteration
    in which the census first became homogeneous; by default all iterations
    run regardless. Backend failures abort the run but keep partial records.
    """
    validate_config(config)
    imitation_rng, jitter_rng = derive_streams(config.seed)
    run_backend = backend.for_run(jitter_rng)

    states = [AgentState.from_seed(seed) for seed in config.agents]
    by_id = {s.agent_id: s for s in states}
    groups = [(g.group_id, [by_id[m] for m in g.members]) for g in config.groups]

    handle = RunHandle(
        run_id=run_id_for(config), seed=config.seed, status=RunStatus.RUNNING,
        iterations_executed=0,
    )
    records: list[IterationRecord] = []
    convergence_iteration: int | None = None

    for iteration in range(1, config.iterations + 1):
        locations = assign_locations(len(groups), config.locations, iteration)
        try:
            group_rounds = [
                run_group_round(
                    members,
                    group_id=group_id,
                    location=location,
                    iteration=iteration,
                    menu=config.menu,
                    params=config.punishment,
                    backend=run_backend,
                    error_policy=config.backend.error_policy,
                )
                for (group_id, members), location in zip(groups, locations)
            ]
        except BackendError as exc:
            log.error("run %s aborted at iteration %d: %s", handle.run_id, iteration, exc)
            handle.status = RunStatus.ABORTED
            return RunResult(
                handle=handle,
                config=config,
                records=records,
                final_census=census_of(s.strategy for s in states),
                final_agents=states,
                convergence_iteration=convergence_iteration,
                error=str(exc),
            )

        outcomes = imitation_step(states, config.imitation, imitation_rng)
        census = census_of(s.strategy for s in states)
        records.append(
            IterationRecord(
                iteration=iteration,
                groups=tuple(group_rounds),
                imitation_outcomes=tuple(outcomes),
                strategy_census=census,
            )
        )
        handle.iterations_executed = iteration
        if convergence_iteration is None and max(census.values()) == len(states):
            convergence_iteration = iteration
            if early_stop:
                break

    final_census = census_of(s.strategy for s in states)
    homogeneous = bool(states) and max(final_census.values()) == len(states)
    handle.status = RunStatus.CONVERGED if homogeneous else RunStatus.COMPLETED
    return RunResult(
        handle=handle,
        config=config,
        records=records,
        final_census=final_census,
        final_agents=states,
        convergence_iteration=convergence_iteration,
    )


@dataclass
class BatchRow:
    seed: int
    run_id: str
    status: RunStatus
    iterations_executed: int
    convergence_iteration: int | None
    final_census: dict[Strategy, int]
    log_path: str | None = None
    error: str | None = None


@dataclass
class BatchSummary:
    rows: list[BatchRow]

    @property
    def completed(self) -> int:
        return sum(1 for r in self.rows if r.status is not RunStatus.ABORTED)

    @property
    def aborted(self) -> int:
        return sum(1 for r in self.rows if r.status is RunStatus.ABORTED)


# Ceiling on replication threads. Threads overlap only waiting, such as LLM
# requests, so more workers than this add thread overhead, not speed.
MAX_JOBS = 32


def run_replications(
    config: SimulationConfig,
    backend: DecisionBackend,
    seeds: Sequence[int],
    *,
    jobs: int = 1,
    early_stop: bool = False,
    out_dir: str | Path | None = None,
) -> tuple[BatchSummary, list[RunResult]]:
    """Run one independent simulation per seed.

    Results are assembled in seed-list order no matter how runs are
    scheduled, so identical inputs yield identical summaries. A duplicated
    seed is allowed but warned about; an aborted run is reported in its row
    rather than failing the batch. With ``out_dir`` each run's event log is
    written to ``<out_dir>/<run_id>/events.jsonl`` and the path recorded in
    its summary row. Runs go to a thread pool of
    ``min(jobs, len(seeds), MAX_JOBS)`` workers when that exceeds one.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if len(set(seeds)) != len(seeds):
        warnings.warn("duplicate seeds in replication batch; trajectories will repeat", stacklevel=2)

    def one(seed: int) -> tuple[RunResult, str | None]:
        result = run_simulation(replace(config, seed=seed), backend, early_stop=early_stop)
        log_path = None
        if out_dir is not None:
            from .reporting import write_event_log  # local import avoids a cycle

            run_dir = Path(out_dir) / result.handle.run_id
            run_dir.mkdir(parents=True, exist_ok=True)
            log_path = str(write_event_log(result, run_dir / "events.jsonl"))
        return result, log_path

    workers = min(jobs, len(seeds), MAX_JOBS)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(one, seeds))
    else:
        outcomes = [one(seed) for seed in seeds]

    results = [result for result, _ in outcomes]
    rows = [
        BatchRow(
            seed=result.handle.seed,
            run_id=result.handle.run_id,
            status=result.handle.status,
            iterations_executed=result.handle.iterations_executed,
            convergence_iteration=result.convergence_iteration,
            final_census=result.final_census,
            log_path=log_path,
            error=result.error,
        )
        for result, log_path in outcomes
    ]
    return BatchSummary(rows=rows), results
