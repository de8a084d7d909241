from __future__ import annotations

import gc
import hashlib
import sys
import weakref
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from dinersim import runner
from dinersim.backends.base import Decision, DecisionBackend, DecisionContext, TransportError
from dinersim.backends.oracle import RuleOracle
from dinersim.model import (
    DEFAULT_MENU,
    BackendConfig,
    MealChoice,
    MenuConfig,
    PunishmentLevel,
    PunishmentParams,
    Strategy,
    census_of,
    paper_preset,
)
from dinersim.reporting import event_log_lines
from dinersim.runner import (
    MAX_JOBS,
    RunStatus,
    assign_locations,
    derive_streams,
    run_id_for,
    run_replications,
    run_simulation,
)

from conftest import ImpureOracle, make_config


def oracle_preset(combination=1, punishment="6:1", seed=0):
    return paper_preset(combination, punishment, seed, backend=BackendConfig(kind="oracle"))


def log_text(result) -> str:
    return "\n".join(event_log_lines(result))


def replicate(config, backend, seeds, **options):
    """``run_replications``' summary and the results it handed to ``on_run``."""
    results = []
    summary = run_replications(config, backend, seeds, on_run=results.append, **options)
    return summary, results


class TestRunSimulation:
    def test_preset1_iteration_one_has_two_defections_and_both_convert(self, oracle):
        for seed in (0, 7, 99):
            result = run_simulation(oracle_preset(seed=seed), oracle)
            first = result.records[0]
            premium_orders = [
                agent
                for group in first.groups
                for agent, choice in group.orders.items()
                if choice is MealChoice.PREMIUM
            ]
            assert sorted(premium_orders) == ["a4", "a8"]  # the two fresh R1 agents
            punished = {
                e.target_id
                for e in first.punishment_events
                if e.level is PunishmentLevel.DEFECTION
            }
            assert punished == {"a4", "a8"}

    def test_all_moralist_population_is_inert(self, oracle):
        config = make_config([["M", "M", "M", "M"], ["M", "M", "M", "M"]], p=6.0, k=1.0)
        result = run_simulation(config, oracle)
        assert result.handle.iterations_executed == 10
        assert all(record.punishment_events == () for record in result.records)
        assert all(
            record.strategy_census[Strategy.MORALIST] == 8 for record in result.records
        )
        assert result.handle.status is RunStatus.CONVERGED

    def test_zero_iterations_degenerate(self, oracle):
        config = replace(oracle_preset(), iterations=0)
        result = run_simulation(config, oracle)
        assert result.records == []
        assert result.final_census == census_of(a.strategy for a in config.agents)

    def test_replay_byte_identical_logs(self, oracle):
        config = oracle_preset(punishment="3:1", seed=41)
        first = run_simulation(config, oracle)
        second = run_simulation(config, oracle)
        assert log_text(first) == log_text(second)

    def test_different_seeds_diverge_in_imitation_draws(self, oracle):
        result_a = run_simulation(oracle_preset(punishment="3:1", seed=1), oracle)
        result_b = run_simulation(oracle_preset(punishment="3:1", seed=2), oracle)
        draws_a = [o.uniform_draw for o in result_a.records[0].imitation_outcomes]
        draws_b = [o.uniform_draw for o in result_b.records[0].imitation_outcomes]
        assert draws_a != draws_b

    def test_location_rotation_swaps_every_iteration(self):
        assert assign_locations(2, ("pub", "cafe"), 1) == ["pub", "cafe"]
        assert assign_locations(2, ("pub", "cafe"), 2) == ["cafe", "pub"]
        assert assign_locations(2, ("pub", "cafe"), 3) == ["pub", "cafe"]

    def test_locations_are_cosmetic(self, oracle):
        base = oracle_preset(seed=5)
        renamed = replace(base, locations=("cafe", "pub"))
        result_a = run_simulation(base, oracle)
        result_b = run_simulation(renamed, oracle)
        assert [r.strategy_census for r in result_a.records] == [
            r.strategy_census for r in result_b.records
        ]
        assert [
            [o for o in r.imitation_outcomes] for r in result_a.records
        ] == [[o for o in r.imitation_outcomes] for r in result_b.records]

    def test_iterations_executed_bounds(self, oracle):
        for seed in range(5):
            result = run_simulation(oracle_preset(seed=seed), oracle)
            assert result.handle.iterations_executed == 10  # early stop off

    def test_early_stop_halts_after_first_homogeneous_census(self, oracle):
        # find a converging seed, then check the early-stopped twin
        for seed in range(40):
            full = run_simulation(oracle_preset(seed=seed), oracle)
            if full.convergence_iteration is not None and full.convergence_iteration < 10:
                stopped = run_simulation(oracle_preset(seed=seed), oracle, early_stop=True)
                assert stopped.handle.iterations_executed == full.convergence_iteration
                assert stopped.handle.status is RunStatus.CONVERGED
                assert stopped.records[-1].strategy_census == full.records[
                    full.convergence_iteration - 1
                ].strategy_census
                return
        pytest.fail("no converging seed found in range")

    def test_converged_status_implies_homogeneous_census(self, oracle):
        for seed in range(20):
            result = run_simulation(oracle_preset(seed=seed), oracle)
            if result.handle.status is RunStatus.CONVERGED:
                assert max(result.final_census.values()) == 8

    def test_run_id_depends_on_config_and_seed(self):
        a = run_id_for(oracle_preset(seed=1))
        b = run_id_for(oracle_preset(seed=2))
        c = run_id_for(oracle_preset(punishment="3:1", seed=1))
        assert a != b and a != c
        assert a == run_id_for(oracle_preset(seed=1))
        assert a.endswith("-s1")

    def test_run_id_tells_apart_equal_configs_that_serialise_apart(self):
        floats = oracle_preset(punishment="3:1", seed=1)
        ints = replace(floats, punishment=PunishmentParams(p=3, k=1))
        assert floats == ints  # 3 == 3.0, but the documents read 3 and 3.0
        assert run_id_for(floats) == "3327f64bcf-s1"
        assert run_id_for(ints) == "89bbc554cd-s1"
        assert run_id_for(floats) == "3327f64bcf-s1"

    def test_streams_are_independent(self):
        imitation_a, jitter_a = derive_streams(123)
        imitation_b, _ = derive_streams(123)
        # jitter consumption must not perturb the imitation stream
        _ = jitter_a.random(1000)
        assert list(imitation_a.random(8)) == list(imitation_b.random(8))

    def test_cumulative_utility_matches_logged_iteration_utilities(self, oracle):
        result = run_simulation(oracle_preset(punishment="3:1", seed=17), oracle)
        for agent in result.final_agents:
            logged = sum(
                record.iteration_utilities[agent.agent_id] for record in result.records
            )
            assert agent.cumulative_utility == pytest.approx(logged, abs=1e-12)

    def test_punished_flag_only_on_reluctant_cooperators(self, oracle):
        for seed in range(10):
            result = run_simulation(oracle_preset(seed=seed), oracle)
            for agent in result.final_agents:
                if agent.strategy is not Strategy.RELUCTANT_COOPERATOR:
                    assert agent.r1_punished is False


class FailOnNthRun(DecisionBackend):
    """Delegates to the oracle, but the Nth run gets a broken backend."""

    name = "fail-on-nth-run"

    def __init__(self, fail_on: int):
        self.fail_on = fail_on
        self.runs_started = 0

    def decide(self, ctx: DecisionContext) -> Decision:  # pragma: no cover
        raise AssertionError("for_run must be used")

    def for_run(self, rng) -> DecisionBackend:
        from dinersim.backends.oracle import RuleOracle

        self.runs_started += 1
        if self.runs_started == self.fail_on:
            class Broken(DecisionBackend):
                name = "broken"

                def decide(self, ctx: DecisionContext) -> Decision:
                    raise TransportError("injected fault")

            return Broken()
        return RuleOracle()


class TestRunReplications:
    def test_duplicate_seed_warns_and_repeats_trajectory(self, oracle):
        config = oracle_preset()
        with pytest.warns(UserWarning, match="duplicate seeds"):
            summary, results = replicate(config, oracle, [4, 4])
        assert log_text(results[0]) == log_text(results[1])

    def test_row_count_matches_seed_count(self, oracle):
        summary = run_replications(oracle_preset(), oracle, list(range(20)))
        assert len(summary.rows) == 20
        assert [row.seed for row in summary.rows] == list(range(20))

    def test_parallel_equals_serial(self, oracle):
        config = oracle_preset(punishment="3:1")
        serial, results_serial = replicate(config, oracle, list(range(8)), jobs=1)
        parallel, results_parallel = replicate(config, oracle, list(range(8)), jobs=4)
        assert serial == parallel
        assert [log_text(a) for a in results_serial] == [log_text(b) for b in results_parallel]

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_runs_stream_through_on_run(self, oracle, jobs):
        seeds = [5, 3, 8, 1, 9, 2, 7, 4]
        seen = []  # (seed, weak reference to its result), in callback order

        def on_run(result):
            gc.collect()
            if jobs == 1:
                assert [seed for seed, ref in seen if ref() is not None] == []
            seen.append((result.handle.seed, weakref.ref(result)))

        summary = run_replications(oracle_preset(), oracle, seeds, jobs=jobs, on_run=on_run)
        gc.collect()
        assert [seed for seed, _ in seen] == seeds
        assert [seed for seed, ref in seen if ref() is not None] == []
        assert [row.seed for row in summary.rows] == seeds

    def test_injected_fault_aborts_one_run_only(self):
        backend = FailOnNthRun(fail_on=2)
        summary, results = replicate(oracle_preset(), backend, [0, 1, 2])
        statuses = [row.status for row in summary.rows]
        assert statuses[1] is RunStatus.ABORTED
        assert statuses[0] is not RunStatus.ABORTED
        assert statuses[2] is not RunStatus.ABORTED
        assert summary.aborted == 1 and summary.completed == 2
        assert results[1].error is not None
        assert results[1].records == []  # aborted in iteration 1, nothing recorded


# sha256 over the event-log lines of the oracle runs of the four paper
# settings (both combinations at 3:1 and 6:1) for seeds 0-7, recorded
# before group outcomes were memoised. Equal seeds must keep giving
# byte-identical logs.
GOLDEN_DIGEST = "00aa2f1acfb00b5bff35f4aa4fc865a64f71142acb327fc2d1dee6b9756bdd01"


def test_oracle_event_logs_match_the_golden_digest():
    backend = RuleOracle()
    h = hashlib.sha256()
    for combination, punishment in ((1, "3:1"), (1, "6:1"), (2, "3:1"), (2, "6:1")):
        for seed in range(8):
            result = run_simulation(oracle_preset(combination, punishment, seed), backend)
            for line in event_log_lines(result):
                h.update(line.encode("utf-8") + b"\n")
    assert h.hexdigest() == GOLDEN_DIGEST


@st.composite
def one_decimal_menus(draw):
    """Menus with one-decimal costs, whose float sums depend on their order,
    that are still a dilemma at group size 4."""
    tenths = st.integers(1, 9)
    budget_cost = draw(tenths)
    premium_cost = draw(st.integers(budget_cost + 1, 10))
    budget_value = draw(tenths) / 10
    extra_value = (premium_cost - budget_cost) / 20  # between a quarter and all of the extra cost
    return MenuConfig(
        budget_cost=budget_cost / 10,
        budget_value=budget_value,
        premium_cost=premium_cost / 10,
        premium_value=budget_value + extra_value,
    )


class TestGroupMemoParity:
    @settings(max_examples=30, deadline=None)
    @given(
        seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4, unique=True),
        combination=st.sampled_from([1, 2]),
        punishment=st.sampled_from(["none", "3:1", "6:1"]),
        jobs=st.sampled_from([1, 2]),
        menu=st.one_of(st.just(DEFAULT_MENU), one_decimal_menus()),
    )
    def test_memoised_oracle_matches_impure_oracle(self, seeds, combination, punishment, jobs, menu):
        # "none" leaves severity to the backend: the oracle refuses every
        # order, so every run aborts, and nothing may be memoised.
        config = replace(paper_preset(combination, punishment, 0), menu=menu)
        oracle = RuleOracle()
        _, memoised = replicate(config, oracle, seeds, jobs=jobs)
        _, reference = replicate(config, ImpureOracle(), seeds, jobs=jobs)
        for got, want in zip(memoised, reference):
            assert got.handle == want.handle and got.error == want.error
            assert list(event_log_lines(got)) == list(event_log_lines(want))
            assert got.final_agents == want.final_agents
        if punishment == "none":
            assert oracle.group_memo == {}

    def test_shared_memo_under_thread_contention(self):
        config = oracle_preset(2, "3:1")
        seeds = list(range(24))
        _, reference = replicate(config, ImpureOracle(), seeds)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _, memoised = replicate(config, RuleOracle(), seeds, jobs=4)
        finally:
            sys.setswitchinterval(interval)
        assert [log_text(r) for r in memoised] == [log_text(r) for r in reference]
        assert [r.final_agents for r in memoised] == [r.final_agents for r in reference]


class RecordingPool:
    """Stands in for ThreadPoolExecutor: records max_workers, maps serially."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


class TestReplicationJobs:
    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        monkeypatch.setattr(RecordingPool, "sizes", [])
        monkeypatch.setattr(runner, "ThreadPoolExecutor", RecordingPool)
        return RecordingPool.sizes

    @pytest.mark.parametrize(
        "jobs, n_seeds, workers",
        [(1, 3, None), (2, 1, None), (4, 3, 3), (3, 8, 3), (10**6, MAX_JOBS + 5, MAX_JOBS)],
    )
    def test_workers_capped_at_seeds_and_ceiling(self, pool_sizes, jobs, n_seeds, workers):
        config = replace(oracle_preset(), iterations=0)
        summary = run_replications(config, RuleOracle(), list(range(n_seeds)), jobs=jobs)
        assert len(summary.rows) == n_seeds
        assert pool_sizes == ([] if workers is None else [workers])

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            run_replications(oracle_preset(), RuleOracle(), [0], jobs=jobs)

    def test_batch_hashes_its_config_once(self, monkeypatch):
        calls = []
        config_to_dict = runner.config_to_dict

        def counting(config):
            calls.append(config.seed)
            return config_to_dict(config)

        monkeypatch.setattr(runner, "config_to_dict", counting)
        config = replace(oracle_preset(), iterations=0)
        summary = run_replications(config, RuleOracle(), [3, 4, 5, 6])
        assert len(calls) == 1
        assert [row.run_id for row in summary.rows] == [f"e57babec8c-s{s}" for s in (3, 4, 5, 6)]
