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
from contextlib import nullcontext
from dataclasses import dataclass, fields, replace
from enum import Enum
from typing import Callable, Sequence

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

    @property
    def initial_census(self) -> dict[Strategy, int]:
        return census_of(seed.strategy for seed in self.config.agents)


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
    on_run: Callable[[RunResult], str | None] | None = None,
) -> BatchSummary:
    """Run one independent simulation per seed.

    Rows come in seed-list order no matter how runs are scheduled, so
    identical inputs yield identical summaries. A duplicated seed is allowed
    but warned about; an aborted run is reported in its row rather than
    failing the batch. Each finished run goes to ``on_run`` in the calling
    thread, in seed-list order, and what it returns becomes the row's
    ``log_path``; the run is then dropped, so the batch keeps only its rows.
    Runs go to a thread pool of ``min(jobs, len(seeds), MAX_JOBS)`` workers
    when that exceeds one.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if len(set(seeds)) != len(seeds):
        warnings.warn("duplicate seeds in replication batch; trajectories will repeat", stacklevel=2)

    def one(seed: int) -> RunResult:
        return run_simulation(replace(config, seed=seed), backend, early_stop=early_stop)

    rows = []
    workers = min(jobs, len(seeds), MAX_JOBS)
    with ThreadPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        for result in (pool.map if pool else map)(one, seeds):
            rows.append(
                BatchRow(
                    seed=result.handle.seed,
                    run_id=result.handle.run_id,
                    status=result.handle.status,
                    iterations_executed=result.handle.iterations_executed,
                    convergence_iteration=result.convergence_iteration,
                    final_census=result.final_census,
                    log_path=on_run(result) if on_run else None,
                    error=result.error,
                )
            )
    return BatchSummary(rows=rows)
