from __future__ import annotations

from itertools import product

import pytest

from dinersim.backends.accuracy import build_scenario_suite
from dinersim.backends.base import (
    Decision,
    DecisionBackend,
    DecisionContext,
    DecisionKind,
    TransportError,
)
from dinersim.backends.oracle import oracle_decide
from dinersim.engine import (
    OrderSheet,
    apply_utilities,
    classify_non_punishers,
    collect_orders,
    metanorm_round_2,
    punishment_round_1,
    run_group_round,
    settle_bill,
)
from dinersim.model import (
    DEFAULT_MENU,
    MealChoice,
    PunishmentLevel,
    PunishmentMode,
    PunishmentParams,
    Strategy,
)

from conftest import ScriptedOrdersBackend, make_group
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
        sheet = collect_orders(
            group, DEFAULT_MENU, oracle,
            iteration=1, location="pub", params=P63, group_id="g1",
        )
        assert all(choice is MealChoice.BUDGET for choice in sheet.choices.values())

    def test_fresh_r1_orders_premium(self, oracle):
        group = make_group(["R1"] + ["E"])
        sheet = collect_orders(
            group, DEFAULT_MENU, oracle,
            iteration=1, location="pub", params=P63, group_id="g1",
        )
        assert sheet.choices["a1"] is MealChoice.PREMIUM

    def test_converted_r1_orders_budget(self, oracle):
        group = make_group(["R1", "E"], punished={"a1"})
        sheet = collect_orders(
            group, DEFAULT_MENU, oracle,
            iteration=1, location="pub", params=P63, group_id="g1",
        )
        assert sheet.choices["a1"] is MealChoice.BUDGET


class TestSettleBill:
    def test_all_budget(self):
        sheet = OrderSheet("g1", {f"a{i}": MealChoice.BUDGET for i in range(1, 5)})
        payoffs = settle_bill(sheet, DEFAULT_MENU)
        assert all(value == 2.0 for value in payoffs.values())

    def test_one_premium_three_budget(self):
        choices = {"a1": MealChoice.PREMIUM} | {f"a{i}": MealChoice.BUDGET for i in range(2, 5)}
        payoffs = settle_bill(OrderSheet("g1", choices), DEFAULT_MENU)
        assert payoffs["a1"] == 7.0
        assert all(payoffs[f"a{i}"] == -3.0 for i in range(2, 5))

    def test_all_premium(self):
        sheet = OrderSheet("g1", {f"a{i}": MealChoice.PREMIUM for i in range(1, 5)})
        payoffs = settle_bill(sheet, DEFAULT_MENU)
        assert all(value == -8.0 for value in payoffs.values())

    def test_payment_conservation(self):
        for orders in product([MealChoice.BUDGET, MealChoice.PREMIUM], repeat=4):
            sheet = OrderSheet("g1", {f"a{i}": c for i, c in enumerate(orders, 1)})
            payoffs = settle_bill(sheet, DEFAULT_MENU)
            total_value = sum(DEFAULT_MENU.value(c) for c in orders)
            total_cost = sum(DEFAULT_MENU.cost(c) for c in orders)
            assert sum(payoffs.values()) == pytest.approx(total_value - total_cost, abs=1e-12)


class TestPunishmentRound1:
    def test_punishers_punish_fresh_r1(self, oracle):
        group = make_group(["M", "P", "E", "R1"])
        sheet = collect_orders(group, DEFAULT_MENU, oracle,
                               iteration=1, location="pub", params=P63, group_id="g1")
        events, defectors = punishment_round_1(
            group, sheet, oracle, P63, iteration=1, location="pub"
        )
        assert defectors == {"a4"}
        assert {(e.punisher_id, e.target_id) for e in events} == {("a1", "a4"), ("a2", "a4")}
        assert all(e.level is PunishmentLevel.DEFECTION for e in events)
        assert group[3].r1_punished is True

    def test_no_defectors_no_events(self, oracle):
        group = make_group(["M", "P", "E", "E"])
        sheet = collect_orders(group, DEFAULT_MENU, oracle,
                               iteration=1, location="pub", params=P63, group_id="g1")
        events, defectors = punishment_round_1(
            group, sheet, oracle, P63, iteration=1, location="pub"
        )
        assert events == [] and defectors == frozenset()

    def test_no_punishing_strategies_leaves_flags_unset(self, oracle):
        group = make_group(["E", "E", "R1", "R1"])
        sheet = collect_orders(group, DEFAULT_MENU, oracle,
                               iteration=1, location="pub", params=P63, group_id="g1")
        events, defectors = punishment_round_1(
            group, sheet, oracle, P63, iteration=1, location="pub"
        )
        assert events == []
        assert defectors == {"a3", "a4"}
        assert group[2].r1_punished is False and group[3].r1_punished is False


class TestClassifyNonPunishers:
    def test_easygoing_is_nonpunisher(self, oracle):
        group, result = run_round(["M", "P", "E", "R1"])
        assert result.ledger.np1 == {"a3"}

    def test_empty_without_defection(self):
        group = make_group(["M", "P", "E", "E"])
        assert classify_non_punishers(group, frozenset(), []) == frozenset()

    def test_converted_r1_counts_as_nonpunisher(self, oracle):
        # a3 is a converted R1 (cooperating, never punishes); a4 defects.
        group, result = run_round(["M", "E", "R1", "R1"], punished={"a3"})
        assert result.ledger.defectors == {"a4"}
        assert result.ledger.np1 == {"a2", "a3"}


class TestMetanormRound2:
    def test_worked_example_events(self):
        group, result = run_round(["M", "P", "E", "R1"])
        by_level = {
            (e.punisher_id, e.target_id, e.level.value) for e in result.ledger.events
        }
        assert by_level == {
            ("a1", "a4", "defection"),
            ("a2", "a4", "defection"),
            ("a1", "a3", "non_punisher"),
            ("a1", "a2", "meta_non_punisher"),
        }
        assert result.ledger.np1 == {"a3"}
        assert result.ledger.np2 == {"a2"}

    def test_no_round_two_without_np1(self, oracle):
        group = make_group(["M", "P"])
        events, np2 = metanorm_round_2(
            group, frozenset(), frozenset(), oracle, P63,
            orders=OrderSheet("g1", {"a1": MealChoice.BUDGET, "a2": MealChoice.BUDGET}),
            round1_events=[], iteration=1, location="pub",
        )
        assert events == [] and np2 == frozenset()

    def test_full_punishment_means_empty_round_two(self):
        group, result = run_round(["M", "M", "P", "R1"])
        assert result.ledger.np1 == frozenset()
        assert result.ledger.np2 == frozenset()
        levels = {e.level for e in result.ledger.events}
        assert levels == {PunishmentLevel.DEFECTION}
        assert len(result.ledger.events) == 3

    def test_level_exclusivity_across_rosters(self):
        for labels in product("MPER", repeat=4):
            labels = ["R1" if c == "R" else c for c in labels]
            group, result = run_round(list(labels))
            ledger = result.ledger
            assert not (ledger.defectors & ledger.np1)
            assert not (ledger.defectors & ledger.np2)
            assert not (ledger.np1 & ledger.np2)
            if not ledger.defectors:
                assert ledger.np1 == frozenset()
            if not ledger.np1:
                assert ledger.np2 == frozenset()
            pairs = [(e.punisher_id, e.target_id) for e in ledger.events]
            assert len(pairs) == len(set(pairs))  # one event per pair per iteration


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
        drained = sum(e.cost_to_punisher + e.cost_to_target for e in result.ledger.events)
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
            punished = any(e.target_id == "a4" for e in result.ledger.events)
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
        defection = [e for e in result.ledger.events if e.level is PunishmentLevel.DEFECTION]
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

    def test_evidence_names_the_unpunished_parties(self):
        recorder = self.Recorder()
        run_round(["M", "P", "E", "R1"], backend=recorder)
        by_kind = {}
        for ctx in recorder.contexts:
            by_kind.setdefault(ctx.kind, []).append(ctx)

        defect = by_kind[DecisionKind.PUNISH_DEFECTOR]
        assert all("ordered the premium meal" in ctx.evidence for ctx in defect)
        assert all(ctx.target_name == "a4" for ctx in defect)
        # non-punisher evidence lists the defector E failed to scold
        np1 = by_kind[DecisionKind.PUNISH_NON_PUNISHER]
        assert all(ctx.target_name == "a3" and "a4" in ctx.evidence for ctx in np1)
        # meta evidence lists the non-punisher P let off
        np2 = by_kind[DecisionKind.PUNISH_META_NON_PUNISHER]
        assert all(ctx.target_name == "a2" and "a3" in ctx.evidence for ctx in np2)

    def test_orders_are_simultaneous_and_unobserved(self):
        recorder = self.Recorder()
        run_round(["M", "P", "E", "R1"], backend=recorder)
        for ctx in recorder.contexts:
            if ctx.kind is DecisionKind.ORDER:
                assert all(entry.visible_action is None for entry in ctx.roster)
            else:
                assert all(entry.visible_action is not None for entry in ctx.roster)


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
        assert result.ledger.events == ()
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
        assert result.ledger.events == ()
        # round 1 is one batch; round 2a has no observer outside np1 and the defectors
        assert backend.batches == [["a1", "a2", "a3"], []]
        warnings = [r.getMessage() for r in caplog.records]
        assert len(warnings) == 3
        for warning, observer in zip(warnings, ["a1", "a2", "a3"]):
            assert f"by {observer} against a4; recording abstention" in warning


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
