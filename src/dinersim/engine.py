"""One Diner's Dilemma iteration for a single group.

Pipeline per group: collect orders, settle the shared bill, punish, then
utility accounting. Punishment is the metanorm, one rule at three levels:
every member not yet judged decides whether to punish each current target,
and whoever spares a target is a target at the next level. The targets are
the defectors (round 1), then the non-punishers (2a), then the
meta-non-punishers (2b). Levels are exclusive: an agent is charged as
defector, non-punisher, or meta-non-punisher, never more than one, and each
(punisher, target) pair yields at most one event per iteration.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass
from typing import NamedTuple, Sequence

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
    GroupRound,
    MealChoice,
    MenuConfig,
    PunishmentEvent,
    PunishmentLevel,
    PunishmentMode,
    PunishmentParams,
    Strategy,
)

log = logging.getLogger(__name__)


@dataclass(frozen=True, slots=True)
class RoundSetting:
    """What every decision of one group round shares."""

    iteration: int
    location: str
    params: PunishmentParams
    backend: DecisionBackend
    error_policy: str = "abort"

    def context(
        self, agent: AgentState, kind: DecisionKind, seen: dict[str, RosterEntry], **extra
    ) -> DecisionContext:
        """``agent``'s context for one decision; its roster is everyone else
        in ``seen``."""
        params = self.params
        return DecisionContext(
            kind=kind,
            iteration=self.iteration,
            location=self.location,
            actor_name=agent.name,
            actor_strategy=agent.strategy,
            actor_lifestyle=agent.lifestyle,
            actor_r1_punished=agent.r1_punished,
            roster=tuple(entry for agent_id, entry in seen.items() if agent_id != agent.agent_id),
            punishment_mode=params.mode,
            punishment_p=params.p,
            punishment_k=params.k,
            **extra,
        )

    def decide(self, contexts: list[DecisionContext], policy: str) -> list[Decision]:
        """Ask the backend for every context, in order, and check each answer.

        Under ``"abstain"`` a failed decision becomes an abstention and a
        warning; under any other policy the first failure is raised.
        """
        abstain = policy == "abstain"
        results = (self.backend.decide_each if abstain else self.backend.decide_many)(contexts)
        decisions = []
        for ctx, result in zip(contexts, results):
            if isinstance(result, Decision):
                try:
                    result = check_decision(result, ctx)
                except SchemaError as exc:
                    if not abstain:
                        raise
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


def _seen(
    group: Sequence[AgentState],
    orders: dict[str, MealChoice] | None = None,
    events: Sequence[PunishmentEvent] = (),
) -> dict[str, RosterEntry]:
    """Each member as the others see it: its order, once orders are in, and
    whom it scolded in ``events``, in event order."""
    names = {a.agent_id: a.name for a in group}
    scolded: dict[str, list[str]] = {}
    for e in events:
        scolded.setdefault(e.punisher_id, []).append(names[e.target_id])
    return {
        a.agent_id: RosterEntry(
            name=a.name,
            order=orders[a.agent_id] if orders else None,
            scolded=tuple(scolded.get(a.agent_id, ())),
        )
        for a in group
    }


def collect_orders(
    group: Sequence[AgentState], menu: MenuConfig, setting: RoundSetting
) -> dict[str, MealChoice]:
    """Ask the backend for one meal choice per member, in seat order.

    Orders are simultaneous: nobody sees anyone else's choice. The engine
    never overrides a backend decision; a failed order aborts the round
    under every error policy.
    """
    seen = _seen(group)
    contexts = [setting.context(agent, DecisionKind.ORDER, seen, menu=menu) for agent in group]
    decisions = setting.decide(contexts, "abort")
    return {agent.agent_id: MealChoice(d.choice) for agent, d in zip(group, decisions)}


def settle_bill(orders: dict[str, MealChoice], menu: MenuConfig) -> dict[str, float]:
    """Split the bill equally: payoff = own meal value minus equal share."""
    n = len(orders)
    total = sum(menu.cost(choice) for choice in orders.values())
    share = total / n
    payoffs = {agent_id: menu.value(choice) - share for agent_id, choice in orders.items()}
    billed = share * n
    assert abs(billed - total) <= 1e-9 * max(1.0, abs(total)), "bill shares must cover the bill"
    return payoffs


def _event_costs(decision: Decision, params: PunishmentParams) -> tuple[float, float]:
    """(cost_to_punisher, cost_to_target) for one punish decision."""
    if params.mode is PunishmentMode.EXPLICIT:
        return float(params.k), float(params.p)
    p, k = decision.severity  # presence enforced by check_decision
    return float(k), float(p)


def _punish_stage(
    group: Sequence[AgentState],
    judged: set[str],
    targets: Sequence[AgentState],
    spared_by: dict[str, tuple[str, ...]],
    kind: DecisionKind,
    level: PunishmentLevel,
    seen: dict[str, RosterEntry],
    setting: RoundSetting,
) -> tuple[list[PunishmentEvent], dict[str, tuple[str, ...]]]:
    """One level of the metanorm: each member outside ``judged`` decides
    whether to punish each of ``targets``, in (observer seat, target seat)
    order. ``spared_by`` maps a target to the names it spared.

    Returns the events of those who punished, in that order, and the names
    each observer spared, sorted, for every observer that spared a target:
    the next level's targets and their ``spared_by``.
    """
    pairs = [
        (observer, target)
        for observer in group
        if observer.agent_id not in judged
        for target in targets
    ]
    contexts = [
        setting.context(
            observer, kind, seen, target_name=target.name, spared=spared_by.get(target.agent_id, ())
        )
        for observer, target in pairs
    ]
    events = []
    spared: dict[str, list[str]] = {}
    for (observer, target), decision in zip(pairs, setting.decide(contexts, setting.error_policy)):
        if decision.choice != "punish":
            spared.setdefault(observer.agent_id, []).append(target.name)
            continue
        cost_k, cost_p = _event_costs(decision, setting.params)
        events.append(
            PunishmentEvent(
                iteration=setting.iteration,
                punisher_id=observer.agent_id,
                target_id=target.agent_id,
                level=level,
                cost_to_punisher=cost_k,
                cost_to_target=cost_p,
            )
        )
    return events, {observer_id: tuple(sorted(names)) for observer_id, names in spared.items()}


def punishment_round_1(
    group: Sequence[AgentState], orders: dict[str, MealChoice], setting: RoundSetting
) -> tuple[list[PunishmentEvent], dict[str, tuple[str, ...]]]:
    """Round 1: every non-defector decides, per defector, whether to punish.

    Returns the defection-level events plus the defectors each non-punisher
    spared (see ``_punish_stage``), and flips ``r1_punished`` on every
    reluctant cooperator that was punished at least once this round.
    """
    defectors = [a for a in group if orders[a.agent_id] is MealChoice.PREMIUM]
    events, spared = _punish_stage(
        group, {a.agent_id for a in defectors}, defectors, {},
        DecisionKind.PUNISH_DEFECTOR, PunishmentLevel.DEFECTION, _seen(group, orders), setting,
    )
    punished = {e.target_id for e in events}
    for agent in defectors:
        if agent.agent_id in punished and agent.strategy is Strategy.RELUCTANT_COOPERATOR:
            agent.r1_punished = True
    return events, spared


_METANORM_LEVELS = (
    (DecisionKind.PUNISH_NON_PUNISHER, PunishmentLevel.NON_PUNISHER),
    (DecisionKind.PUNISH_META_NON_PUNISHER, PunishmentLevel.META_NON_PUNISHER),
)


def metanorm_round_2(
    group: Sequence[AgentState],
    orders: dict[str, MealChoice],
    spared: dict[str, tuple[str, ...]],
    round1_events: Sequence[PunishmentEvent],
    setting: RoundSetting,
) -> list[PunishmentEvent]:
    """Round 2: punish those who spared a defector (2a), then those who
    spared one of them (2b). ``spared`` is round 1's map of the defectors
    each non-punisher spared.

    Every member not yet judged judges each level's targets. The metanorm
    stops after 2b, or sooner once nobody spared anyone.
    """
    judged = {agent_id for agent_id, choice in orders.items() if choice is MealChoice.PREMIUM}
    events: list[PunishmentEvent] = []
    for kind, level in _METANORM_LEVELS:
        if not spared:
            break
        judged |= spared.keys()
        stage_events, spared = _punish_stage(
            group, judged, [a for a in group if a.agent_id in spared], spared, kind, level,
            _seen(group, orders, [*round1_events, *events]), setting,
        )
        events += stage_events
    return events


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


# Seatings the outcome table holds. A group of n members has up to 5^n seatings
# of (strategy, flag) types per config, so large groups must not grow it
# without bound.
GROUP_MEMO_LIMIT = 4096

# A member's type: the (strategy, r1_punished) pair a pure backend decides on.
_MemberType = tuple[Strategy, bool]


class _Seating(NamedTuple):
    """One seating's finished round by seat index: what the same member types
    in the same seat order give again under the same config.

    ``events`` are (punisher seat, target seat, level, cost_to_punisher,
    cost_to_target) in pipeline order.
    """

    orders: tuple[MealChoice, ...]
    bill_total: float
    meal_payoffs: tuple[float, ...]
    utilities: tuple[float, ...]
    flips: tuple[int, ...]  # seats whose r1_punished flag the round set
    events: tuple[tuple[int, int, PunishmentLevel, float, float], ...]


# The outcome table every pure backend in the process shares, keyed by
# (config key, member types in seat order). Reads take no lock; every write
# holds ``_table_lock``, so it never holds more than GROUP_MEMO_LIMIT entries.
_seatings: dict[tuple, _Seating] = {}
_table_lock = threading.Lock()


def _store(key: tuple, seating: _Seating) -> None:
    """Add one seating to the table, emptying the full table first."""
    with _table_lock:
        if len(_seatings) >= GROUP_MEMO_LIMIT:
            _seatings.clear()
        _seatings[key] = seating


# The last (backend class, menu, params, error policy) seen and its key. The
# rounds of a batch pass the same objects, so a batch makes its key once. The
# entry holds the objects, which keeps them alive, so an identity match is
# the same frozen config.
_last_config: tuple = (None, None, None, None, None)


def _config_key(
    backend: DecisionBackend, menu: MenuConfig, params: PunishmentParams, error_policy: str
) -> tuple[type, str]:
    """The backend's class and the ``repr`` of the config values, which
    tells them apart as the event log does. Equality would not do: 0.0 ==
    -0.0 and 10 == 10.0, but their costs and bills serialise apart."""
    global _last_config
    cls = type(backend)
    last = _last_config
    if last[0] is cls and last[1] is menu and last[2] is params and last[3] is error_policy:
        return last[4]
    key = (cls, repr((menu, params, error_policy)))
    _last_config = (cls, menu, params, error_policy, key)
    return key


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
) -> GroupRound:
    """Run the full per-group pipeline for one iteration.

    A pure backend's rounds go through the process-wide outcome table, keyed
    by the backend's class and the config (``_config_key``) and the member
    types in seat order. A seating seen before rebuilds its round from the
    stored numbers (``_reseat``), with no backend call and no bill or utility
    sums. A new seating runs the pipeline and is stored: float sums depend on
    their order, so a bill holds for its own seating only.
    """
    if backend.pure:
        types = tuple([(a.strategy, a.r1_punished) for a in group])
        key = (_config_key(backend, menu, params, error_policy), types)
        seating = _seatings.get(key)
        if seating is not None:
            return _reseat(group, seating, group_id=group_id, location=location, iteration=iteration)
    setting = RoundSetting(iteration, location, params, backend, error_policy)
    orders = collect_orders(group, menu, setting)
    meal_payoffs = settle_bill(orders, menu)
    round1_events, spared = punishment_round_1(group, orders, setting)
    round2_events = metanorm_round_2(group, orders, spared, round1_events, setting)
    events = tuple(round1_events + round2_events)
    result = GroupRound(
        group_id=group_id,
        location=location,
        orders=orders,
        bill_total=sum(menu.cost(c) for c in orders.values()),
        meal_payoffs=meal_payoffs,
        punishment_events=events,
        iteration_utilities=apply_utilities(group, meal_payoffs, events),
    )
    # Threads that miss one key together store equal values.
    if backend.pure:
        _store(key, _seating(group, types, result))
    return result


def _seating(
    group: Sequence[AgentState],
    types: Sequence[_MemberType],
    result: GroupRound,
) -> _Seating:
    """Reduce a round to its numbers by seat; ``types`` are the pre-round ones."""
    seat = {a.agent_id: i for i, a in enumerate(group)}
    return _Seating(
        tuple(result.orders.values()),
        result.bill_total,
        tuple(result.meal_payoffs.values()),
        tuple(result.iteration_utilities.values()),
        tuple(i for i, (a, t) in enumerate(zip(group, types)) if a.r1_punished != t[1]),
        tuple(
            (seat[e.punisher_id], seat[e.target_id], e.level, e.cost_to_punisher, e.cost_to_target)
            for e in result.punishment_events
        ),
    )


def _reseat(
    group: Sequence[AgentState],
    seating: _Seating,
    *,
    group_id: str,
    location: str,
    iteration: int,
) -> GroupRound:
    """A stored seating's round for the agents now in its seats. Sets their
    flags and utilities as a miss does."""
    ids = [a.agent_id for a in group]
    for i in seating.flips:
        group[i].r1_punished = True
    for agent, utility in zip(group, seating.utilities):
        agent.iteration_utility = utility
        agent.cumulative_utility += utility
    return GroupRound(
        group_id,
        location,
        dict(zip(ids, seating.orders)),
        seating.bill_total,
        dict(zip(ids, seating.meal_payoffs)),
        tuple([
            PunishmentEvent(iteration, ids[punisher], ids[target], level, cost_k, cost_p)
            for punisher, target, level, cost_k, cost_p in seating.events
        ]),
        dict(zip(ids, seating.utilities)),
    )
