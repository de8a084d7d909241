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
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from enum import Enum
from typing import Any, Callable, Iterator, Sequence

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
from .streams import Stream

log = logging.getLogger(__name__)


class RunStatus(str, Enum):
    CONVERGED = "converged"
    COMPLETED = "completed"
    ABORTED = "aborted"


def homogeneous(census: dict[Strategy, int]) -> bool:
    """Whether every agent counted in ``census`` has one strategy."""
    return max(census.values()) == sum(census.values())


@dataclass(frozen=True)
class RunHandle:
    """Who a run was and how it ended, built once when the run ends."""

    run_id: str
    seed: int
    status: RunStatus
    iterations_executed: int


class Trajectory:
    """A run's outcome, worked out from its ``initial_census`` and ``records``."""

    @property
    def final_census(self) -> dict[Strategy, int]:
        """The last record's census, or the initial census when no iteration ran."""
        return self.records[-1].strategy_census if self.records else self.initial_census

    @property
    def convergence_iteration(self) -> int | None:
        """The first iteration whose census is homogeneous."""
        return next((r.iteration for r in self.records if homogeneous(r.strategy_census)), None)


@dataclass
class RunResult(Trajectory):
    handle: RunHandle
    config: SimulationConfig
    records: list[IterationRecord]
    error: str | None = None

    @property
    def initial_census(self) -> dict[Strategy, int]:
        return census_of(seed.strategy for seed in self.config.agents)


# Every config field but the seed. The runs of one batch share these values
# by identity, so a SeedlessCache keys on that identity. It holds the values,
# which keeps them alive, so an identity match is the same frozen document.
# Equality would not do: 6 == 6.0 but they serialise apart.
_SEEDLESS_FIELDS = tuple(f.name for f in fields(SimulationConfig) if f.name != "seed")


class SeedlessCache:
    """``make(config)`` for the last config seen, made again only when one of
    its seedless field values is a different object. Safe across threads: the
    entry is one tuple, read and replaced whole."""

    def __init__(self, make: Callable[[SimulationConfig], Any]) -> None:
        self._make = make
        self._last: tuple[tuple, Any] | None = None

    def __call__(self, config: SimulationConfig) -> Any:
        values = tuple(getattr(config, name) for name in _SEEDLESS_FIELDS)
        last = self._last
        if last is None or not all(map(operator.is_, values, last[0])):
            last = self._last = (values, self._make(config))
        return last[1]


def _seedless_digest(config: SimulationConfig) -> str:
    without_seed = config_to_dict(config)
    del without_seed["seed"]
    return hashlib.sha256(json.dumps(without_seed, sort_keys=True).encode("utf-8")).hexdigest()


_digest = SeedlessCache(_seedless_digest)


def run_id_for(config: SimulationConfig) -> str:
    """Stable identifier from the config content hash plus the seed."""
    return f"{_digest(config)[:10]}-s{config.seed}"


def derive_streams(seed: int) -> tuple[Stream, Stream]:
    """(imitation_rng, backend_jitter_rng) split from one root seed: spawn
    keys 0 and 1, numpy's ``SeedSequence(seed).spawn(2)`` streams."""
    return Stream(seed, 0), Stream(seed, 1)


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

    run_id = run_id_for(config)
    records: list[IterationRecord] = []
    status = error = None

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
            log.error("run %s aborted at iteration %d: %s", run_id, iteration, exc)
            status, error = RunStatus.ABORTED, str(exc)
            break

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
        if early_stop and homogeneous(census):
            break

    if status is None:
        converged = homogeneous(census_of(s.strategy for s in states))
        status = RunStatus.CONVERGED if converged else RunStatus.COMPLETED
    handle = RunHandle(run_id, config.seed, status, len(records))
    return RunResult(handle, config, records, error)


@dataclass
class BatchRow:
    handle: RunHandle
    convergence_iteration: int | None
    final_census: dict[Strategy, int]
    log_path: str | None = None
    error: str | None = None


# Ceiling on replication threads. Threads overlap only waiting, such as LLM
# requests, so more workers than this add thread overhead, not speed.
MAX_JOBS = 32

# Seeds submitted to the pool per worker and not yet handed to the caller,
# which bounds the finished runs waiting in memory. Runs of varied length in
# seed order (early-stopped LLM runs of 1-10 iterations) took the same wall
# time as with no bound at 2 and 4 workers. A run that outlasts all the runs
# submitted behind it still idles the other workers until it finishes.
AHEAD_PER_WORKER = 2


def _ordered_runs(run: Callable[[int], RunResult], seeds: Sequence[int], workers: int) -> Iterator[RunResult]:
    """``map(run, seeds)`` on ``workers`` threads, with at most
    ``AHEAD_PER_WORKER * workers`` seeds submitted and not yet yielded."""
    if workers <= 1:
        yield from map(run, seeds)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque()
        for seed in seeds:
            if len(pending) == AHEAD_PER_WORKER * workers:
                yield pending.popleft().result()
            pending.append(pool.submit(run, seed))
        while pending:
            yield pending.popleft().result()


def run_replications(
    config: SimulationConfig,
    backend: DecisionBackend,
    seeds: Sequence[int],
    *,
    jobs: int = 1,
    early_stop: bool = False,
    on_run: Callable[[RunResult], str | None] | None = None,
) -> list[BatchRow]:
    """Run one independent simulation per seed; one row per seed.

    Rows come in seed-list order no matter how runs are scheduled, so
    identical inputs yield identical rows. A duplicated seed is allowed
    but warned about; an aborted run is reported in its row rather than
    failing the batch. Each finished run goes to ``on_run`` in the calling
    thread, in seed-list order, and what it returns becomes the row's
    ``log_path``; the run is then dropped, so the batch keeps only its rows.
    Runs go to a thread pool of ``min(jobs, len(seeds), MAX_JOBS)`` workers
    when that exceeds one, at most ``AHEAD_PER_WORKER`` seeds per worker
    ahead of the run being handed on.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if len(set(seeds)) != len(seeds):
        warnings.warn("duplicate seeds in replication batch; trajectories will repeat", stacklevel=2)

    def one(seed: int) -> RunResult:
        return run_simulation(replace(config, seed=seed), backend, early_stop=early_stop)

    return [
        BatchRow(
            result.handle,
            result.convergence_iteration,
            result.final_census,
            log_path=on_run(result) if on_run else None,
            error=result.error,
        )
        for result in _ordered_runs(one, seeds, min(jobs, len(seeds), MAX_JOBS))
    ]
