"""One Diner's Dilemma iteration for a single group.

Pipeline per group: collect orders, settle the shared bill, punishment round
one (defectors), metanorm round two (non-punishers, then meta-non-punishers),
then utility accounting. Punishment levels are exclusive: an agent is charged
as defector, non-punisher, or meta-non-punisher, never more than one, and
each (punisher, target) pair yields at most one event per iteration.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

from .backends.base import (
    BackendError,
    Decision,
    DecisionBackend,
    DecisionContext,
    DecisionKind,
    RosterEntry,
    SchemaError,
    check_decision,
)
from .model import (
    AgentState,
    MealChoice,
    MenuConfig,
    PunishmentEvent,
    PunishmentLevel,
    PunishmentMode,
    PunishmentParams,
    Strategy,
    STRATEGY_DESCRIPTIONS,
)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class OrderSheet:
    group_id: str
    choices: dict[str, MealChoice]


@dataclass(frozen=True)
class PunishmentLedger:
    """All punishment activity of one group-iteration.

    ``np1`` holds round-1 non-punishers, ``np2`` meta-level non-punishers;
    both exclude defectors, and np2 excludes np1.
    """

    events: tuple[PunishmentEvent, ...]
    defectors: frozenset[str]
    np1: frozenset[str]
    np2: frozenset[str]


@dataclass(frozen=True)
class GroupRoundResult:
    group_id: str
    location: str
    order_sheet: OrderSheet
    bill_total: float
    meal_payoffs: dict[str, float]
    ledger: PunishmentLedger
    iteration_utilities: dict[str, float]


def menu_description(menu: MenuConfig) -> str:
    return (
        f"budget meal (price {menu.budget_cost:g}, worth {menu.budget_value:g} to you) or "
        f"premium meal (price {menu.premium_cost:g}, worth {menu.premium_value:g} to you); "
        "the table has agreed to split the total bill equally"
    )


def _base_context(
    agent: AgentState,
    kind: DecisionKind,
    *,
    iteration: int,
    location: str,
    roster: tuple[RosterEntry, ...],
    params: PunishmentParams,
    **extra,
) -> DecisionContext:
    return DecisionContext(
        kind=kind,
        iteration=iteration,
        location=location,
        actor_name=agent.name,
        actor_strategy=agent.strategy,
        actor_strategy_description=STRATEGY_DESCRIPTIONS[agent.strategy],
        actor_lifestyle=agent.lifestyle,
        actor_r1_punished=agent.r1_punished,
        roster=roster,
        punishment_mode=params.mode,
        punishment_p=params.p,
        punishment_k=params.k,
        **extra,
    )


def _roster(group: Sequence[AgentState], actor: AgentState, actions: dict[str, str]) -> tuple[RosterEntry, ...]:
    return tuple(
        RosterEntry(name=a.name, visible_action=actions.get(a.agent_id))
        for a in group
        if a.agent_id != actor.agent_id
    )


def collect_orders(
    group: Sequence[AgentState],
    menu: MenuConfig,
    backend: DecisionBackend,
    *,
    iteration: int,
    location: str,
    params: PunishmentParams,
    group_id: str,
) -> OrderSheet:
    """Ask the backend for one meal choice per member.

    Orders are simultaneous: nobody sees anyone else's choice. The engine
    never overrides a backend decision; backend failures propagate.
    """
    contexts = [
        _base_context(
            agent,
            DecisionKind.ORDER,
            iteration=iteration,
            location=location,
            roster=_roster(group, agent, {}),
            params=params,
            menu_description=menu_description(menu),
        )
        for agent in group
    ]
    decisions = backend.decide_many(contexts)
    choices = {}
    for agent, ctx, decision in zip(group, contexts, decisions):
        check_decision(decision, ctx)
        choices[agent.agent_id] = MealChoice(decision.choice)
    return OrderSheet(group_id=group_id, choices=choices)


def settle_bill(orders: OrderSheet, menu: MenuConfig) -> dict[str, float]:
    """Split the bill equally: payoff = own meal value minus equal share."""
    n = len(orders.choices)
    total = sum(menu.cost(choice) for choice in orders.choices.values())
    share = total / n
    payoffs = {agent_id: menu.value(choice) - share for agent_id, choice in orders.choices.items()}
    billed = share * n
    assert abs(billed - total) <= 1e-9 * max(1.0, abs(total)), "bill shares must cover the bill"
    return payoffs


def _punish_decisions(
    backend: DecisionBackend,
    contexts: list[DecisionContext],
    error_policy: str,
) -> list[Decision]:
    """Run a batch of punish decisions under the configured error policy."""
    if error_policy == "abstain":
        decisions = []
        for ctx, result in zip(contexts, backend.decide_each(contexts)):
            if isinstance(result, Decision):
                try:
                    result = check_decision(result, ctx)
                except SchemaError as exc:
                    result = exc
            if isinstance(result, BackendError):
                log.warning(
                    "backend failed on %s by %s against %s; recording abstention: %s",
                    ctx.kind.value,
                    ctx.actor_name,
                    ctx.target_name,
                    result,
                )
                result = Decision(choice="abstain", rationale=f"backend failure: {result}")
            decisions.append(result)
        return decisions
    decisions = backend.decide_many(contexts)
    return [check_decision(d, ctx) for d, ctx in zip(decisions, contexts)]


def _event_costs(decision: Decision, params: PunishmentParams) -> tuple[float, float]:
    """(cost_to_punisher, cost_to_target) for one punish decision."""
    if params.mode is PunishmentMode.EXPLICIT:
        return float(params.k), float(params.p)
    p, k = decision.severity  # presence enforced by check_decision
    return float(k), float(p)


def punishment_round_1(
    group: Sequence[AgentState],
    orders: OrderSheet,
    backend: DecisionBackend,
    params: PunishmentParams,
    *,
    iteration: int,
    location: str,
    error_policy: str = "abort",
) -> tuple[list[PunishmentEvent], frozenset[str]]:
    """Round 1: every non-defector decides, per defector, whether to punish.

    Returns the defection-level events plus the defector set, and flips
    ``r1_punished`` on every reluctant cooperator that was punished at least
    once this round. Observer/defector pairs run in canonical group order.
    """
    defectors = frozenset(
        agent_id for agent_id, choice in orders.choices.items() if choice is MealChoice.PREMIUM
    )
    by_id = {a.agent_id: a for a in group}
    visible = {
        a.agent_id: f"ordered the {orders.choices[a.agent_id].value} meal" for a in group
    }

    ordered_defectors = [agent_id for agent_id in orders.choices if agent_id in defectors]
    pairs = [
        (observer, by_id[defector_id])
        for observer in group
        if observer.agent_id not in defectors
        for defector_id in ordered_defectors
    ]
    contexts = [
        _base_context(
            observer,
            DecisionKind.PUNISH_DEFECTOR,
            iteration=iteration,
            location=location,
            roster=_roster(group, observer, visible),
            params=params,
            target_name=target.name,
            evidence=f"{target.name} ordered the premium meal and pushed part of its cost onto the table.",
        )
        for observer, target in pairs
    ]
    decisions = _punish_decisions(backend, contexts, error_policy)

    events = []
    punished: set[str] = set()
    for (observer, target), decision in zip(pairs, decisions):
        if decision.choice != "punish":
            continue
        cost_k, cost_p = _event_costs(decision, params)
        events.append(
            PunishmentEvent(
                iteration=iteration,
                punisher_id=observer.agent_id,
                target_id=target.agent_id,
                level=PunishmentLevel.DEFECTION,
                cost_to_punisher=cost_k,
                cost_to_target=cost_p,
            )
        )
        punished.add(target.agent_id)

    for agent in group:
        if (
            agent.agent_id in punished
            and agent.strategy is Strategy.RELUCTANT_COOPERATOR
            and not agent.r1_punished
        ):
            agent.r1_punished = True
    return events, defectors


def classify_non_punishers(
    group: Sequence[AgentState],
    defectors: frozenset[str],
    round1_events: Sequence[PunishmentEvent],
) -> frozenset[str]:
    """Non-defectors who left at least one defector unpunished in round 1."""
    if not defectors:
        return frozenset()
    punished_by = {
        (e.punisher_id, e.target_id) for e in round1_events if e.level is PunishmentLevel.DEFECTION
    }
    return frozenset(
        agent.agent_id
        for agent in group
        if agent.agent_id not in defectors
        and any((agent.agent_id, d) not in punished_by for d in defectors)
    )


def metanorm_round_2(
    group: Sequence[AgentState],
    defectors: frozenset[str],
    np1: frozenset[str],
    backend: DecisionBackend,
    params: PunishmentParams,
    *,
    orders: OrderSheet,
    round1_events: Sequence[PunishmentEvent],
    iteration: int,
    location: str,
    error_policy: str = "abort",
) -> tuple[list[PunishmentEvent], frozenset[str]]:
    """Round 2: punish non-punishers (2a), then those who spared them (2b).

    The metanorm stops here; there is no deeper recursion.
    """
    if not np1:
        return [], frozenset()
    by_id = {a.agent_id: a for a in group}
    names = {a.agent_id: a.name for a in group}
    group_order = [a.agent_id for a in group]

    def run_stage(
        observers: list[AgentState],
        targets: list[str],
        kind: DecisionKind,
        level: PunishmentLevel,
        visible: dict[str, str],
        evidence_for: dict[str, str],
    ) -> list[PunishmentEvent]:
        pairs = [(obs, by_id[t]) for obs in observers for t in targets]
        contexts = [
            _base_context(
                observer,
                kind,
                iteration=iteration,
                location=location,
                roster=_roster(group, observer, visible),
                params=params,
                target_name=target.name,
                evidence=evidence_for[target.agent_id],
            )
            for observer, target in pairs
        ]
        decisions = _punish_decisions(backend, contexts, error_policy)
        stage_events = []
        for (observer, target), decision in zip(pairs, decisions):
            if decision.choice != "punish":
                continue
            cost_k, cost_p = _event_costs(decision, params)
            stage_events.append(
                PunishmentEvent(
                    iteration=iteration,
                    punisher_id=observer.agent_id,
                    target_id=target.agent_id,
                    level=level,
                    cost_to_punisher=cost_k,
                    cost_to_target=cost_p,
                )
            )
        return stage_events

    def action_summary(extra_events: Sequence[PunishmentEvent]) -> dict[str, str]:
        summary = {
            a.agent_id: f"ordered the {orders.choices[a.agent_id].value} meal" for a in group
        }
        for e in list(round1_events) + list(extra_events):
            summary[e.punisher_id] += f"; scolded {names[e.target_id]}"
        return summary

    round1_pairs = {(e.punisher_id, e.target_id) for e in round1_events}
    unpunished_defectors = {
        a_id: sorted(names[d] for d in defectors if (a_id, d) not in round1_pairs)
        for a_id in np1
    }

    # 2a: everyone outside np1 and the defector set judges each np1 member.
    observers_2a = [a for a in group if a.agent_id not in np1 | defectors]
    targets_2a = [a_id for a_id in group_order if a_id in np1]
    evidence_2a = {
        t: f"{names[t]} saw {_join(unpunished_defectors[t])} order premium and did not scold them."
        for t in targets_2a
    }
    events_2a = run_stage(
        observers_2a,
        targets_2a,
        DecisionKind.PUNISH_NON_PUNISHER,
        PunishmentLevel.NON_PUNISHER,
        action_summary(()),
        evidence_2a,
    )

    # 2b: whoever spared a non-punisher in 2a is a meta-non-punisher.
    punished_2a = {(e.punisher_id, e.target_id) for e in events_2a}
    np2 = frozenset(
        a.agent_id
        for a in observers_2a
        if any((a.agent_id, t) not in punished_2a for t in np1)
    )
    if not np2:
        return events_2a, np2
    spared = {
        a_id: sorted(
            names[t] for t in np1 if (a_id, t) not in punished_2a
        )
        for a_id in np2
    }
    observers_2b = [a for a in group if a.agent_id not in np1 | np2 | defectors]
    targets_2b = [a_id for a_id in group_order if a_id in np2]
    evidence_2b = {
        t: f"{names[t]} let {_join(spared[t])} off without a scolding for ignoring defection."
        for t in targets_2b
    }
    events_2b = run_stage(
        observers_2b,
        targets_2b,
        DecisionKind.PUNISH_META_NON_PUNISHER,
        PunishmentLevel.META_NON_PUNISHER,
        action_summary(events_2a),
        evidence_2b,
    )
    return events_2a + events_2b, np2


def apply_utilities(
    group: Sequence[AgentState],
    meal_payoffs: dict[str, float],
    events: Sequence[PunishmentEvent],
) -> dict[str, float]:
    """Meal payoff minus punishment costs, using per-event recorded costs."""
    utilities = {}
    for agent in group:
        utility = meal_payoffs[agent.agent_id]
        for event in events:
            if event.punisher_id == agent.agent_id:
                utility -= event.cost_to_punisher
            if event.target_id == agent.agent_id:
                utility -= event.cost_to_target
        agent.iteration_utility = utility
        agent.cumulative_utility += utility
        utilities[agent.agent_id] = utility
    return utilities


def run_group_round(
    group: Sequence[AgentState],
    *,
    group_id: str,
    location: str,
    iteration: int,
    menu: MenuConfig,
    params: PunishmentParams,
    backend: DecisionBackend,
    error_policy: str = "abort",
) -> GroupRoundResult:
    """Run the full per-group pipeline for one iteration."""
    orders = collect_orders(
        group, menu, backend,
        iteration=iteration, location=location, params=params, group_id=group_id,
    )
    meal_payoffs = settle_bill(orders, menu)
    round1_events, defectors = punishment_round_1(
        group, orders, backend, params,
        iteration=iteration, location=location, error_policy=error_policy,
    )
    np1 = classify_non_punishers(group, defectors, round1_events)
    round2_events, np2 = metanorm_round_2(
        group, defectors, np1, backend, params,
        orders=orders, round1_events=round1_events,
        iteration=iteration, location=location, error_policy=error_policy,
    )
    events = tuple(round1_events + round2_events)
    utilities = apply_utilities(group, meal_payoffs, events)
    bill_total = sum(menu.cost(c) for c in orders.choices.values())
    return GroupRoundResult(
        group_id=group_id,
        location=location,
        order_sheet=orders,
        bill_total=bill_total,
        meal_payoffs=meal_payoffs,
        ledger=PunishmentLedger(
            events=events, defectors=defectors, np1=np1, np2=np2
        ),
        iteration_utilities=utilities,
    )


def _join(names: Sequence[str]) -> str:
    if not names:
        return "nobody"
    if len(names) == 1:
        return names[0]
    return ", ".join(names[:-1]) + " and " + names[-1]
