from __future__ import annotations

from dataclasses import replace
from itertools import product

import pytest

from dinersim import engine
from dinersim.backends.accuracy import build_scenario_suite
from dinersim.backends.base import (
    Decision,
    DecisionBackend,
    DecisionContext,
    DecisionKind,
    SchemaError,
    TransportError,
    UnsupportedModeError,
)
from dinersim.backends.llm import LlmBackend
from dinersim.backends.oracle import RuleOracle, oracle_decide
from dinersim.engine import (
    RoundSetting,
    apply_utilities,
    collect_orders,
    metanorm_round_2,
    punishment_round_1,
    run_group_round,
    settle_bill,
)
from dinersim.model import (
    DEFAULT_MENU,
    MealChoice,
    MenuConfig,
    PunishmentLevel,
    PunishmentMode,
    PunishmentParams,
    Strategy,
)

from conftest import ImpureOracle, ScriptedOrdersBackend, make_group, roles
from enumerator import enumerate_utilities

P63 = PunishmentParams(p=6.0, k=1.0)
P31 = PunishmentParams(p=3.0, k=1.0)


def run_round(labels, params=P63, punished=None, backend=None, orders=None):
    group = make_group(labels, punished=punished)
    if orders is not None:
        backend = ScriptedOrdersBackend(orders)
    elif backend is None:
        from dinersim.backends.oracle import RuleOracle

        backend = RuleOracle()
    return group, run_group_round(
        group,
        group_id="g1",
        location="pub",
        iteration=1,
        menu=DEFAULT_MENU,
        params=params,
        backend=backend,
    )


class TestCollectOrders:
    def test_cooperating_strategies_order_budget(self, oracle):
        group = make_group(["M", "P", "E"])
        orders = collect_orders(group, DEFAULT_MENU, RoundSetting(1, "pub", P63, oracle))
        assert all(choice is MealChoice.BUDGET for choice in orders.values())

    def test_fresh_r1_orders_premium(self, oracle):
        group = make_group(["R1"] + ["E"])
        orders = collect_orders(group, DEFAULT_MENU, RoundSetting(1, "pub", P63, oracle))
        assert orders["a1"] is MealChoice.PREMIUM

    def test_converted_r1_orders_budget(self, oracle):
        group = make_group(["R1", "E"], punished={"a1"})
        orders = collect_orders(group, DEFAULT_MENU, RoundSetting(1, "pub", P63, oracle))
        assert orders["a1"] is MealChoice.BUDGET


class TestSettleBill:
    def test_all_budget(self):
        payoffs = settle_bill({f"a{i}": MealChoice.BUDGET for i in range(1, 5)}, DEFAULT_MENU)
        assert all(value == 2.0 for value in payoffs.values())

    def test_one_premium_three_budget(self):
        choices = {"a1": MealChoice.PREMIUM} | {f"a{i}": MealChoice.BUDGET for i in range(2, 5)}
        payoffs = settle_bill(choices, DEFAULT_MENU)
        assert payoffs["a1"] == 7.0
        assert all(payoffs[f"a{i}"] == -3.0 for i in range(2, 5))

    def test_all_premium(self):
        payoffs = settle_bill({f"a{i}": MealChoice.PREMIUM for i in range(1, 5)}, DEFAULT_MENU)
        assert all(value == -8.0 for value in payoffs.values())

    def test_payment_conservation(self):
        for orders in product([MealChoice.BUDGET, MealChoice.PREMIUM], repeat=4):
            payoffs = settle_bill({f"a{i}": c for i, c in enumerate(orders, 1)}, DEFAULT_MENU)
            total_value = sum(DEFAULT_MENU.value(c) for c in orders)
            total_cost = sum(DEFAULT_MENU.cost(c) for c in orders)
            assert sum(payoffs.values()) == pytest.approx(total_value - total_cost, abs=1e-12)


class TestPunishmentRound1:
    def test_punishers_punish_fresh_r1(self, oracle):
        group = make_group(["M", "P", "E", "R1"])
        orders = collect_orders(group, DEFAULT_MENU, RoundSetting(1, "pub", P63, oracle))
        events, spared = punishment_round_1(group, orders, RoundSetting(1, "pub", P63, oracle))
        assert spared == {"a3": ("a4",)}
        assert {(e.punisher_id, e.target_id) for e in events} == {("a1", "a4"), ("a2", "a4")}
        assert all(e.level is PunishmentLevel.DEFECTION for e in events)
        assert group[3].r1_punished is True

    def test_no_defectors_no_events(self, oracle):
        group = make_group(["M", "P", "E", "E"])
        orders = collect_orders(group, DEFAULT_MENU, RoundSetting(1, "pub", P63, oracle))
        events, spared = punishment_round_1(group, orders, RoundSetting(1, "pub", P63, oracle))
        assert events == [] and spared == {}

    def test_no_punishing_strategies_leaves_flags_unset(self, oracle):
        group = make_group(["E", "E", "R1", "R1"])
        orders = collect_orders(group, DEFAULT_MENU, RoundSetting(1, "pub", P63, oracle))
        events, spared = punishment_round_1(group, orders, RoundSetting(1, "pub", P63, oracle))
        assert events == []
        assert spared == {"a1": ("a3", "a4"), "a2": ("a3", "a4")}
        assert group[2].r1_punished is False and group[3].r1_punished is False


class TestClassifyNonPunishers:
    def test_easygoing_is_nonpunisher(self, oracle):
        group, result = run_round(["M", "P", "E", "R1"])
        assert roles(result)[1] == {"a3"}

    def test_converted_r1_counts_as_nonpunisher(self, oracle):
        # a3 is a converted R1 (cooperating, never punishes); a4 defects.
        group, result = run_round(["M", "E", "R1", "R1"], punished={"a3"})
        defectors, np1, _ = roles(result)
        assert defectors == {"a4"}
        assert np1 == {"a2", "a3"}


class TestMetanormRound2:
    def test_worked_example_events(self):
        group, result = run_round(["M", "P", "E", "R1"])
        by_level = {
            (e.punisher_id, e.target_id, e.level.value) for e in result.punishment_events
        }
        assert by_level == {
            ("a1", "a4", "defection"),
            ("a2", "a4", "defection"),
            ("a1", "a3", "non_punisher"),
            ("a1", "a2", "meta_non_punisher"),
        }
        assert roles(result)[1:] == ({"a3"}, {"a2"})

    def test_no_round_two_without_np1(self, oracle):
        group = make_group(["M", "P"])
        orders = {"a1": MealChoice.BUDGET, "a2": MealChoice.BUDGET}
        events = metanorm_round_2(group, orders, {}, [], RoundSetting(1, "pub", P63, oracle))
        assert events == []

    def test_full_punishment_means_empty_round_two(self):
        group, result = run_round(["M", "M", "P", "R1"])
        assert roles(result)[1:] == (frozenset(), frozenset())
        levels = {e.level for e in result.punishment_events}
        assert levels == {PunishmentLevel.DEFECTION}
        assert len(result.punishment_events) == 3

    def test_level_exclusivity_across_rosters(self):
        for labels in product("MPER", repeat=4):
            labels = ["R1" if c == "R" else c for c in labels]
            group, result = run_round(list(labels))
            events = result.punishment_events
            levels_by_target = {}
            for e in events:
                levels_by_target.setdefault(e.target_id, set()).add(e.level)
            assert all(len(levels) == 1 for levels in levels_by_target.values())
            pairs = [(e.punisher_id, e.target_id) for e in events]
            assert len(pairs) == len(set(pairs))  # one event per pair per iteration
            defectors = roles(result)[0]
            assert not any(
                e.target_id in defectors for e in events if e.level is not PunishmentLevel.DEFECTION
            )
            if not defectors:
                assert events == ()


class TestApplyUtilities:
    def test_worked_example_p6(self):
        group, result = run_round(["M", "P", "E", "R1"], params=P63)
        assert result.iteration_utilities == {
            "a1": -6.0, "a2": -10.0, "a3": -9.0, "a4": -5.0,
        }

    def test_worked_example_p3(self):
        group, result = run_round(["M", "P", "E", "R1"], params=P31)
        assert result.iteration_utilities == {
            "a1": -6.0, "a2": -7.0, "a3": -6.0, "a4": 1.0,
        }

    def test_no_events_means_meal_payoff(self):
        group, result = run_round(["M", "P", "E", "E"])
        assert all(value == 2.0 for value in result.iteration_utilities.values())

    def test_cumulative_accumulates(self):
        group = make_group(["M", "P", "E", "E"])
        payoffs = {a.agent_id: 2.0 for a in group}
        apply_utilities(group, payoffs, [])
        apply_utilities(group, payoffs, [])
        assert all(a.cumulative_utility == 4.0 for a in group)

    def test_event_conservation(self):
        # each event removes exactly cost_to_punisher + cost_to_target from the group
        group, result = run_round(["M", "P", "E", "R1"], params=P63)
        meal_total = sum(result.meal_payoffs.values())
        drained = sum(e.cost_to_punisher + e.cost_to_target for e in result.punishment_events)
        assert sum(result.iteration_utilities.values()) == pytest.approx(meal_total - drained)


class TestMonotoneDeterrence:
    def test_defector_utility_non_increasing_in_p(self):
        orders = {"a1": "budget", "a2": "budget", "a3": "budget", "a4": "premium"}
        previous = None
        for p in (0.0, 1.0, 3.0, 6.0):
            group, result = run_round(
                ["M", "P", "E", "R1"],
                params=PunishmentParams(p=p, k=1.0),
                orders=orders,
            )
            utility = result.iteration_utilities["a4"]
            punished = any(e.target_id == "a4" for e in result.punishment_events)
            if previous is not None:
                assert utility <= previous
                if punished:
                    assert utility < previous
            previous = utility


class TestBruteForceEquivalence:
    def test_all_orders_and_strategies_match_enumerator(self):
        # every 2^4 order vector x 4^4 strategy assignment, p:k = 6:1
        for labels in product(["M", "P", "E", "R1"], repeat=4):
            for orders in product(["budget", "premium"], repeat=4):
                scripted = {f"a{i}": orders[i - 1] for i in range(1, 5)}
                group, result = run_round(list(labels), orders=scripted)
                expected = enumerate_utilities(list(labels), list(orders), p=6.0, k=1.0)
                got = [result.iteration_utilities[f"a{i}"] for i in range(1, 5)]
                assert got == expected, (labels, orders)


class TestStagesAgainstRoles:
    class Recorder(ScriptedOrdersBackend):
        def __init__(self, orders):
            super().__init__(orders)
            self.contexts: list[DecisionContext] = []

        def decide(self, ctx: DecisionContext) -> Decision:
            self.contexts.append(ctx)
            return super().decide(ctx)

    def test_pairs_and_spared_names_match_the_roles(self, monkeypatch):
        # The reference reads each stage's sparers off the round's orders and
        # events (conftest.roles); names equal ids in make_group.
        returned = []

        def recording_round_1(*args, **kwargs):
            returned.append(punishment_round_1(*args, **kwargs))
            return returned[-1]

        monkeypatch.setattr(engine, "punishment_round_1", recording_round_1)
        for labels in product(["M", "P", "E", "R1"], repeat=4):
            for orders in product(["budget", "premium"], repeat=4):
                backend = self.Recorder({f"a{i}": orders[i - 1] for i in range(1, 5)})
                group, result = run_round(list(labels), backend=backend)
                defectors, np1, np2 = roles(result)
                done = {(e.punisher_id, e.target_id, e.level) for e in result.punishment_events}

                def left_unpunished(observer, level, targets):
                    return tuple(sorted(t for t in targets if (observer, t, level) not in done))

                def judged_by_the_rest(targets, judged):
                    return [(a, t) for a in result.orders if a not in judged for t in result.orders if t in targets]

                _, spared = returned.pop()
                assert spared.keys() == np1, (labels, orders)
                assert spared == {a: left_unpunished(a, PunishmentLevel.DEFECTION, defectors) for a in np1}
                pairs = {
                    kind: [(ctx.actor_name, ctx.target_name) for ctx in backend.contexts if ctx.kind is kind]
                    for kind in DecisionKind
                }
                assert pairs[DecisionKind.PUNISH_DEFECTOR] == judged_by_the_rest(defectors, defectors)
                assert pairs[DecisionKind.PUNISH_NON_PUNISHER] == judged_by_the_rest(np1, defectors | np1)
                assert pairs[DecisionKind.PUNISH_META_NON_PUNISHER] == judged_by_the_rest(np2, defectors | np1 | np2)
                for ctx in backend.contexts:
                    want = {
                        DecisionKind.ORDER: (),
                        DecisionKind.PUNISH_DEFECTOR: (),
                        DecisionKind.PUNISH_NON_PUNISHER: spared.get(ctx.target_name),
                        DecisionKind.PUNISH_META_NON_PUNISHER: left_unpunished(
                            ctx.target_name, PunishmentLevel.NON_PUNISHER, np1
                        ),
                    }[ctx.kind]
                    assert ctx.spared == want, (labels, orders, ctx)


class TestBackendDecidedSeverity:
    class SeverityBackend(DecisionBackend):
        name = "scripted-severity"

        def decide(self, ctx: DecisionContext) -> Decision:
            if ctx.kind is DecisionKind.ORDER:
                premium = ctx.actor_strategy is Strategy.RELUCTANT_COOPERATOR
                return Decision(choice="premium" if premium else "budget")
            if ctx.actor_strategy in (Strategy.MORALIST, Strategy.COOPERATOR_PUNISHER) \
                    and ctx.kind is DecisionKind.PUNISH_DEFECTOR:
                return Decision(choice="punish", severity=(4.0, 2.0))
            return Decision(choice="abstain")

    def test_per_event_costs_come_from_severity(self):
        params = PunishmentParams(mode=PunishmentMode.BACKEND_DECIDED)
        group, result = run_round(["M", "P", "E", "R1"], params=params,
                                  backend=self.SeverityBackend())
        defection = [e for e in result.punishment_events if e.level is PunishmentLevel.DEFECTION]
        assert len(defection) == 2
        assert all(e.cost_to_target == 4.0 and e.cost_to_punisher == 2.0 for e in defection)
        # R1: 7 - 2*4 = -1; M: -3 - 2; P: -3 - 2; E: -3
        assert result.iteration_utilities == {
            "a1": -5.0, "a2": -5.0, "a3": -3.0, "a4": -1.0,
        }


class TestDecisionContexts:
    class Recorder(DecisionBackend):
        """Oracle that keeps every context it was asked about."""

        name = "recorder"

        def __init__(self):
            self.contexts: list[DecisionContext] = []

        def decide(self, ctx: DecisionContext) -> Decision:
            self.contexts.append(ctx)
            return oracle_decide(ctx)

    def contexts_by_kind(self, labels):
        recorder = self.Recorder()
        run_round(labels, backend=recorder)
        by_kind = {}
        for ctx in recorder.contexts:
            by_kind.setdefault(ctx.kind, []).append(ctx)
        return by_kind

    def test_evidence_names_the_unpunished_parties(self):
        # Two unpunished R1 defect; E spares both, P spares E, and M judges.
        by_kind = self.contexts_by_kind(["M", "P", "E", "R1", "R1"])
        spared = {
            kind: {(ctx.target_name, ctx.spared) for ctx in contexts}
            for kind, contexts in by_kind.items()
            if kind is not DecisionKind.ORDER
        }
        assert spared == {
            DecisionKind.PUNISH_DEFECTOR: {("a4", ()), ("a5", ())},
            DecisionKind.PUNISH_NON_PUNISHER: {("a3", ("a4", "a5"))},
            DecisionKind.PUNISH_META_NON_PUNISHER: {("a2", ("a3",))},
        }

    def test_orders_are_simultaneous_and_unobserved(self):
        by_kind = self.contexts_by_kind(["M", "P", "E", "R1"])
        orders = {"a1": MealChoice.BUDGET, "a2": MealChoice.BUDGET, "a3": MealChoice.BUDGET,
                  "a4": MealChoice.PREMIUM}
        assert set(by_kind) == set(DecisionKind)
        for kind, contexts in by_kind.items():
            for ctx in contexts:
                assert [entry.name for entry in ctx.roster] == [a for a in orders if a != ctx.actor_name]
                if kind is DecisionKind.ORDER:
                    assert ctx.menu == DEFAULT_MENU and ctx.target_name is None
                    assert all(entry.order is None and entry.scolded == () for entry in ctx.roster)
                else:
                    assert ctx.menu is None
                    assert all(entry.order is orders[entry.name] for entry in ctx.roster)

    def test_rosters_show_each_stage_the_scolds_before_it_in_event_order(self):
        # R1 defects; M, M and P scold it; E spares it; both M scold E, P
        # spares E; then both M judge P.
        by_kind = self.contexts_by_kind(["M", "M", "P", "E", "R1"])

        def scolds(ctx):
            return {entry.name: entry.scolded for entry in ctx.roster}

        assert all(
            entry.scolded == () for ctx in by_kind[DecisionKind.PUNISH_DEFECTOR] for entry in ctx.roster
        )
        stage_2a = by_kind[DecisionKind.PUNISH_NON_PUNISHER]
        assert [(ctx.actor_name, ctx.target_name) for ctx in stage_2a] == [("a1", "a4"), ("a2", "a4"), ("a3", "a4")]
        assert scolds(stage_2a[0]) == {"a2": ("a5",), "a3": ("a5",), "a4": (), "a5": ()}
        stage_2b = by_kind[DecisionKind.PUNISH_META_NON_PUNISHER]
        assert [(ctx.actor_name, ctx.target_name) for ctx in stage_2b] == [("a1", "a3"), ("a2", "a3")]
        assert scolds(stage_2b[0]) == {"a2": ("a5", "a4"), "a3": ("a5",), "a4": (), "a5": ()}
        assert scolds(stage_2b[1]) == {"a1": ("a5", "a4"), "a3": ("a5",), "a4": (), "a5": ()}


class TestErrorPolicy:
    class FailingPunisher(DecisionBackend):
        name = "failing"

        def decide(self, ctx: DecisionContext) -> Decision:
            if ctx.kind is DecisionKind.ORDER:
                return oracle_decide(ctx)
            raise TransportError("punish endpoint down")

    class BatchOnlyPunisher(FailingPunisher):
        """Fails every punish decision and refuses one asked outside decide_each."""

        def __init__(self):
            self.batches: list[list[str]] = []
            self._in_batch = False

        def decide_each(self, contexts):
            self.batches.append([ctx.actor_name for ctx in contexts])
            self._in_batch = True
            try:
                return super().decide_each(contexts)
            finally:
                self._in_batch = False

        def decide(self, ctx: DecisionContext) -> Decision:
            assert ctx.kind is DecisionKind.ORDER or self._in_batch, "punish decision outside decide_each"
            return super().decide(ctx)

    def test_abort_policy_propagates(self):
        with pytest.raises(TransportError):
            run_round(["M", "P", "E", "R1"], backend=self.FailingPunisher())

    def test_abstain_policy_records_no_events(self, caplog):
        import logging

        with caplog.at_level(logging.WARNING, logger="dinersim.engine"):
            group = make_group(["M", "P", "E", "R1"])
            result = run_group_round(
                group, group_id="g1", location="pub", iteration=1,
                menu=DEFAULT_MENU, params=P63, backend=self.FailingPunisher(),
                error_policy="abstain",
            )
        assert result.punishment_events == ()
        assert "recording abstention" in caplog.text
        # nobody punished, so the fresh R1 keeps its flag down and banks the temptation payoff
        assert group[3].r1_punished is False
        assert result.iteration_utilities["a4"] == 7.0

    def test_abstain_policy_batches_punish_decisions(self, caplog):
        import logging

        backend = self.BatchOnlyPunisher()
        with caplog.at_level(logging.WARNING, logger="dinersim.engine"):
            result = run_group_round(
                make_group(["M", "P", "E", "R1"]), group_id="g1", location="pub", iteration=1,
                menu=DEFAULT_MENU, params=P63, backend=backend, error_policy="abstain",
            )
        assert result.punishment_events == ()
        # round 1 is one batch; round 2a has no observer outside np1 and the defectors
        assert backend.batches == [["a1", "a2", "a3"], []]
        warnings = [r.getMessage() for r in caplog.records]
        assert len(warnings) == 3
        for warning, observer in zip(warnings, ["a1", "a2", "a3"]):
            assert f"by {observer} against a4; recording abstention" in warning


class TestDecisionCheck:
    """The engine checks every decision against its context's schema."""

    class SeverityInExplicitMode(DecisionBackend):
        """The oracle's choices, but each punish carries a severity nobody asked for."""

        name = "severity-in-explicit-mode"

        def decide(self, ctx: DecisionContext) -> Decision:
            decision = oracle_decide(ctx)
            if decision.choice == "punish":
                return Decision(choice="punish", severity=(6.0, 1.0))
            return decision

    def play(self, backend, error_policy):
        group = make_group(["M", "P", "E", "R1"])
        return group, run_group_round(
            group, group_id="g1", location="pub", iteration=1,
            menu=DEFAULT_MENU, params=P63, backend=backend, error_policy=error_policy,
        )

    @pytest.mark.parametrize("error_policy", ["abort", "abstain"])
    def test_out_of_enum_order_raises_under_both_policies(self, error_policy):
        backend = ScriptedOrdersBackend({"a1": "budget", "a2": "lobster", "a3": "budget", "a4": "premium"})
        with pytest.raises(SchemaError, match="'lobster' is outside the order enum"):
            self.play(backend, error_policy)

    def test_unrequested_severity_raises_under_abort(self):
        with pytest.raises(SchemaError, match="severity supplied but not requested"):
            self.play(self.SeverityInExplicitMode(), "abort")

    def test_unrequested_severity_becomes_an_abstention_under_abstain(self, caplog):
        import logging

        with caplog.at_level(logging.WARNING, logger="dinersim.engine"):
            group, result = self.play(self.SeverityInExplicitMode(), "abstain")
        assert result.punishment_events == ()
        assert [r.getMessage() for r in caplog.records] == [
            f"backend failed on punish_defector by {observer} against a4; recording abstention: "
            "severity supplied but not requested in this mode"
            for observer in ("a1", "a2")
        ]
        assert group[3].r1_punished is False
        assert result.iteration_utilities["a4"] == 7.0


class TestDecideEach:
    class EveryOtherFails(DecisionBackend):
        name = "every-other-fails"

        def __init__(self):
            self.calls = 0

        def decide(self, ctx: DecisionContext) -> Decision:
            index, self.calls = self.calls, self.calls + 1
            if index % 2:
                raise TransportError(f"context {index} failed")
            return oracle_decide(ctx)

    def test_base_returns_failures_in_their_slots(self):
        contexts = [s.ctx for s in build_scenario_suite()[:6]]
        results = self.EveryOtherFails().decide_each(contexts)
        assert [type(r) for r in results] == [Decision, TransportError] * 3
        assert results[0::2] == [oracle_decide(ctx) for ctx in contexts[0::2]]
        assert [str(r) for r in results[1::2]] == [f"context {i} failed" for i in (1, 3, 5)]


def no_pipeline(*args, **kwargs):
    raise AssertionError("a stored outcome must not ask the backend")


def no_arithmetic(*args, **kwargs):
    raise AssertionError("a stored seating must not settle the bill or the utilities again")


class TestGroupMemo:
    def round_at(self, backend, iteration, labels=("M", "P", "E", "R1"), params=P63, menu=DEFAULT_MENU):
        group = make_group(list(labels))
        return group, run_group_round(
            group, group_id="g2", location="cafe", iteration=iteration,
            menu=menu, params=params, backend=backend,
        )

    def assert_equals_reference(self, group, result, iteration, **round_options):
        ref_group, reference = self.round_at(ImpureOracle(), iteration, **round_options)
        assert result == reference  # bill_total, payoffs and events in pipeline order
        assert list(result.orders) == list(reference.orders)
        assert list(result.meal_payoffs.items()) == list(reference.meal_payoffs.items())
        assert list(result.iteration_utilities.items()) == list(reference.iteration_utilities.items())
        assert group == ref_group  # r1_punished and both utilities

    def test_only_the_oracle_is_pure(self):
        assert RuleOracle.pure
        assert not DecisionBackend.pure and not LlmBackend.pure and not ImpureOracle.pure

    def test_hit_equals_miss(self, oracle, group_table, monkeypatch):
        _, miss = self.round_at(oracle, iteration=1)
        assert len(group_table) == 1

        for stage in ("collect_orders", "punishment_round_1", "metanorm_round_2"):
            monkeypatch.setattr(engine, stage, no_pipeline)
        for stage in ("settle_bill", "apply_utilities"):
            monkeypatch.setattr(engine, stage, no_arithmetic)
        # Another oracle: every instance shares the one table.
        hit_group, hit = self.round_at(RuleOracle(), iteration=2)
        monkeypatch.undo()

        self.assert_equals_reference(hit_group, hit, 2)
        assert roles(hit) == roles(miss) == ({"a4"}, {"a3"}, {"a2"})
        assert hit.punishment_events == tuple(replace(e, iteration=2) for e in miss.punishment_events)

    @pytest.mark.parametrize("seatings", [
        (("R1", "E", "E", "E"), ("E", "E", "E", "R1"), ("E", "R1", "E", "E")),
        (("M", "P", "E", "R1"), ("R1", "E", "P", "M"), ("E", "M", "R1", "P")),
        (("P", "R1", "P", "R1"), ("R1", "R1", "P", "P"), ("R1", "P", "R1", "P")),
    ])
    def test_replay_is_free_of_seat_order_and_float_order(self, oracle, group_table, monkeypatch, seatings):
        # One-decimal costs: 0.7+0.1+0.1+0.1 != 0.1+0.1+0.1+0.7 in floats, so
        # each seating settles the bill and the utilities in its own seat
        # order, and a stored bill holds for its own seating only.
        options = dict(
            menu=MenuConfig(budget_cost=0.1, budget_value=0.2, premium_cost=0.7, premium_value=0.5),
            params=PunishmentParams(p=0.3, k=0.1),
        )
        pipeline_runs = []

        def counting_collect_orders(*args, **kwargs):
            pipeline_runs.append(1)
            return collect_orders(*args, **kwargs)

        results = []
        for iteration, labels in enumerate(seatings, start=1):
            monkeypatch.setattr(engine, "collect_orders", counting_collect_orders)
            group, result = self.round_at(oracle, iteration, labels=labels, **options)
            monkeypatch.undo()
            self.assert_equals_reference(group, result, iteration, labels=labels, **options)
            results.append(result)
        assert len(pipeline_runs) == 3  # each new seating runs the pipeline once
        assert len(group_table) == 3
        assert len({r.bill_total for r in results}) > 1  # the float order mattered

        # Each seating again, now from its stored numbers.
        for iteration, labels in enumerate(seatings, start=4):
            monkeypatch.setattr(engine, "collect_orders", no_pipeline)
            monkeypatch.setattr(engine, "settle_bill", no_arithmetic)
            monkeypatch.setattr(engine, "apply_utilities", no_arithmetic)
            group, result = self.round_at(oracle, iteration, labels=labels, **options)
            monkeypatch.undo()
            self.assert_equals_reference(group, result, iteration, labels=labels, **options)
        assert len(group_table) == 3

    def test_backend_decided_mode_raises_on_every_call(self, oracle, group_table):
        params = PunishmentParams(mode=PunishmentMode.BACKEND_DECIDED)
        for iteration in (1, 2, 3):
            with pytest.raises(UnsupportedModeError):
                self.round_at(oracle, iteration, params=params)
        assert group_table == {}

    def test_full_table_empties_and_refills(self, oracle, group_table, monkeypatch):
        monkeypatch.setattr(engine, "GROUP_MEMO_LIMIT", 1)
        self.round_at(oracle, 1)
        first = set(group_table)
        labels = ("R1", "E", "E", "P")
        group, result = self.round_at(oracle, 1, labels=labels)
        assert len(group_table) == 1
        assert first.isdisjoint(group_table)
        self.assert_equals_reference(group, result, 1, labels=labels)

        # The refilled table serves the new seating.
        monkeypatch.setattr(engine, "collect_orders", no_pipeline)
        monkeypatch.setattr(engine, "settle_bill", no_arithmetic)
        group, result = self.round_at(oracle, 2, labels=labels)
        monkeypatch.setattr(engine, "collect_orders", collect_orders)
        monkeypatch.setattr(engine, "settle_bill", settle_bill)
        self.assert_equals_reference(group, result, 2, labels=labels)
        assert len(group_table) == 1
