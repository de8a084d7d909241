from __future__ import annotations

import gc
import hashlib
import sys
import weakref
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from dinersim import engine, runner
from dinersim.backends.base import Decision, DecisionBackend, DecisionContext, TransportError
from dinersim.backends.oracle import RuleOracle
from dinersim.model import (
    DEFAULT_MENU,
    BackendConfig,
    ImitationParams,
    MealChoice,
    MenuConfig,
    PunishmentLevel,
    PunishmentParams,
    Strategy,
    UtilityBasis,
    census_of,
    paper_preset,
)
from dinersim.reporting import convergence_stats, event_log_lines
from dinersim.runner import (
    MAX_JOBS,
    RunResult,
    RunStatus,
    assign_locations,
    derive_streams,
    run_id_for,
    run_replications,
    run_simulation,
)

from conftest import ImpureOracle, fresh_group_table, make_config


def oracle_preset(combination=1, punishment="6:1", seed=0):
    return paper_preset(combination, punishment, seed, backend=BackendConfig(kind="oracle"))


def log_text(result) -> str:
    return "\n".join(event_log_lines(result))


def replicate(config, backend, seeds, **options):
    """``run_replications``' rows and the results it handed to ``on_run``."""
    results = []
    rows = run_replications(config, backend, seeds, on_run=results.append, **options)
    return rows, results


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
        for _ in range(1000):
            jitter_a.random()
        assert [imitation_a.random() for _ in range(8)] == [imitation_b.random() for _ in range(8)]

    def test_cumulative_payoff_diff_matches_logged_utilities(self, oracle):
        """Under ``cumulative`` utilities each imitation compares the two
        agents' logged utilities summed over the iterations so far."""
        config = oracle_preset(punishment="3:1", seed=17)
        config = replace(config, imitation=ImitationParams(beta=1.0, utility_basis=UtilityBasis.CUMULATIVE))
        result = run_simulation(config, oracle)
        summed = dict.fromkeys((a.agent_id for a in config.agents), 0.0)
        differs = False  # from the diff of this iteration's utilities alone
        for record in result.records:
            utilities = record.iteration_utilities
            for agent_id, utility in utilities.items():
                summed[agent_id] += utility
            for o in record.imitation_outcomes:
                want = summed[o.role_model_id] - summed[o.focal_id]
                assert o.payoff_diff == pytest.approx(want, abs=1e-12)
                differs |= want != pytest.approx(utilities[o.role_model_id] - utilities[o.focal_id])
        assert differs

    def test_punished_flag_only_on_reluctant_cooperators(self):
        class RecordingOracle(ImpureOracle):
            def __init__(self):
                self.contexts = []

            def decide(self, ctx):
                self.contexts.append(ctx)
                return super().decide(ctx)

        backend = RecordingOracle()
        for seed in range(10):
            run_simulation(oracle_preset(seed=seed), backend)
        flagged = [ctx.actor_strategy for ctx in backend.contexts if ctx.actor_r1_punished]
        assert flagged and set(flagged) == {Strategy.RELUCTANT_COOPERATOR}


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
            _, results = replicate(config, oracle, [4, 4])
        assert log_text(results[0]) == log_text(results[1])

    def test_row_count_matches_seed_count(self, oracle):
        rows = run_replications(oracle_preset(), oracle, list(range(20)))
        assert [row.handle.seed for row in rows] == list(range(20))

    def test_parallel_equals_serial(self, oracle):
        config = oracle_preset(punishment="3:1")
        serial, results_serial = replicate(config, oracle, list(range(8)), jobs=1)
        parallel, results_parallel = replicate(config, oracle, list(range(8)), jobs=4)
        assert serial == parallel
        assert [log_text(a) for a in results_serial] == [log_text(b) for b in results_parallel]

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_runs_stream_through_on_run(self, oracle, jobs):
        # More seeds than the pool may have submitted at once, so the window binds.
        seeds = [5, 3, 8, 1, 9, 2, 7, 4] + list(range(10, 22))
        seen = []  # (seed, weak reference to its result), in callback order

        def results_alive():
            return sum(type(obj) is RunResult for obj in gc.get_objects())

        gc.collect()  # count the baseline the way each callback counts
        alive_before = results_alive()

        def on_run(result):
            gc.collect()
            if jobs == 1:
                assert [seed for seed, ref in seen if ref() is not None] == []
            else:
                # this run plus those submitted after it and not yet handed on
                assert results_alive() - alive_before <= runner.AHEAD_PER_WORKER * jobs
            seen.append((result.handle.seed, weakref.ref(result)))

        rows = run_replications(oracle_preset(), oracle, seeds, jobs=jobs, on_run=on_run)
        gc.collect()
        assert [seed for seed, _ in seen] == seeds
        assert [seed for seed, ref in seen if ref() is not None] == []
        assert [row.handle.seed for row in rows] == seeds

    def test_injected_fault_aborts_one_run_only(self):
        backend = FailOnNthRun(fail_on=2)
        rows, results = replicate(oracle_preset(), backend, [0, 1, 2])
        statuses = [row.handle.status for row in rows]
        assert statuses[1] is RunStatus.ABORTED
        assert statuses[0] is not RunStatus.ABORTED
        assert statuses[2] is not RunStatus.ABORTED
        stats = convergence_stats(rows)
        assert (stats["runs"], stats["aborted_runs"]) == (3, 1)
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
    """Menus with one-decimal costs, whose float sums depend on their order.
    The extra value is half the extra cost: a dilemma at every group size
    from 3."""
    tenths = st.integers(1, 9)
    budget_cost = draw(tenths)
    premium_cost = draw(st.integers(budget_cost + 1, 10))
    budget_value = draw(tenths) / 10
    extra_value = (premium_cost - budget_cost) / 20
    return MenuConfig(
        budget_cost=budget_cost / 10,
        budget_value=budget_value,
        premium_cost=premium_cost / 10,
        premium_value=budget_value + extra_value,
    )


@st.composite
def integer_menus(draw):
    """Menus of whole numbers, written as ints or as floats, whose extra
    value is half the extra cost."""
    budget_cost, budget_value = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    half_extra = draw(st.integers(1, 5))
    number = draw(st.sampled_from([int, float]))
    values = (budget_cost, budget_value, budget_cost + 2 * half_extra, budget_value + half_extra)
    return MenuConfig(*map(number, values))


@st.composite
def memo_configs(draw):
    """Configs of two equal groups of 3-6 members of any strategies, with any
    menu, (p, k) and utility basis. No (p, k) leaves severity to the backend,
    which the rule oracle refuses: every such run aborts."""
    size = draw(st.integers(3, 6))
    labels = st.lists(st.sampled_from([s.value for s in Strategy]), min_size=size, max_size=size)
    p, k = draw(st.sampled_from([(None, None), (3.0, 1.0), (6.0, 1.0), (0.0, 0.0), (-0.0, -0.0)]))
    backend_kind = "oracle" if p is not None else "llm"
    config = make_config([draw(labels), draw(labels)], p=p, k=k, backend_kind=backend_kind)
    return replace(
        config,
        menu=draw(st.one_of(st.just(DEFAULT_MENU), one_decimal_menus(), integer_menus())),
        imitation=ImitationParams(beta=1.0, utility_basis=draw(st.sampled_from(UtilityBasis))),
    )


def run_all(configs, backend, jobs):
    """``run_simulation`` of each config on ``jobs`` threads, in order."""
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(lambda config: run_simulation(config, backend), configs))


def assert_same_runs(got_runs, want_runs):
    assert len(got_runs) == len(want_runs)
    for got, want in zip(got_runs, want_runs):
        assert got.handle == want.handle and got.error == want.error
        assert list(event_log_lines(got)) == list(event_log_lines(want))


class TestGroupMemoParity:
    @settings(max_examples=30, deadline=None)
    @given(
        configs=st.lists(memo_configs(), min_size=2, max_size=3),
        seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3, unique=True),
        jobs=st.sampled_from([1, 2]),
    )
    def test_memoised_oracle_matches_impure_oracle(self, configs, seeds, jobs):
        # The configs' runs take turns, seed by seed, through one table.
        runs = [replace(config, seed=seed) for seed in seeds for config in configs]
        with fresh_group_table() as seatings:
            memoised = run_all(runs, RuleOracle(), jobs)
        assert_same_runs(memoised, run_all(runs, ImpureOracle(), jobs))
        # A failed round stores nothing.
        assert not any("backend_decided" in text for (_, text), _ in seatings)

    @pytest.mark.parametrize("first, second", [
        # Costs of 0.0 and -0.0 compare equal but log apart.
        (oracle_preset(1, "0:0", 3), oracle_preset(1, "-0:-0", 3)),
        # So do bills of 40 and 40.0.
        (replace(oracle_preset(1, "3:1", 3), menu=MenuConfig(10, 12, 30, 22)), oracle_preset(1, "3:1", 3)),
    ])
    def test_configs_that_log_apart_share_no_outcome(self, first, second):
        oracle = RuleOracle()
        for config in (first, second, first):
            assert_same_runs([run_simulation(config, oracle)], [run_simulation(config, ImpureOracle())])

    def test_shared_memo_under_thread_contention(self, group_table):
        # From an empty table, so that threads also miss and store.
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

    def test_bounded_table_under_thread_contention(self, group_table, monkeypatch):
        limit = 8
        monkeypatch.setattr(engine, "GROUP_MEMO_LIMIT", limit)
        sizes = []
        store = engine._store

        def recording_store(key, value):
            store(key, value)
            with engine._table_lock:
                sizes.append(len(group_table))

        monkeypatch.setattr(engine, "_store", recording_store)
        config = oracle_preset(2, "3:1")
        seeds = list(range(24))
        _, reference = replicate(config, ImpureOracle(), seeds)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _, memoised = replicate(config, RuleOracle(), seeds, jobs=4)
        finally:
            sys.setswitchinterval(interval)
        assert max(sizes) <= limit
        assert any(after < before for before, after in zip(sizes, sizes[1:]))  # emptied, then refilled
        assert_same_runs(memoised, reference)


class RecordingPool:
    """Stands in for ThreadPoolExecutor: records max_workers, runs each
    submitted call at once."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


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
        rows = run_replications(config, RuleOracle(), list(range(n_seeds)), jobs=jobs)
        assert len(rows) == n_seeds
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
        rows = run_replications(config, RuleOracle(), [3, 4, 5, 6])
        assert len(calls) == 1
        assert [row.handle.run_id for row in rows] == [f"e57babec8c-s{s}" for s in (3, 4, 5, 6)]
