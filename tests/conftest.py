from __future__ import annotations

import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # for enumerator / llm_fixture helpers

from dinersim.backends.base import Decision, DecisionBackend, DecisionContext, DecisionKind
from dinersim.backends.oracle import oracle_decide
from dinersim.model import (
    AgentSeed,
    AgentState,
    BackendConfig,
    DEFAULT_MENU,
    GroupRound,
    GroupSpec,
    ImitationParams,
    MealChoice,
    PunishmentLevel,
    PunishmentMode,
    PunishmentParams,
    SimulationConfig,
    Strategy,
)


@pytest.fixture
def oracle():
    from dinersim.backends.oracle import RuleOracle

    return RuleOracle()


@contextmanager
def fresh_group_table():
    """Swap in an empty engine outcome table; yields its seatings dict."""
    from dinersim import engine

    seatings = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_seatings", seatings)
        yield seatings


@pytest.fixture
def group_table():
    with fresh_group_table() as seatings:
        yield seatings


def make_group(labels: list[str], prefix: str = "a", punished: set[str] | None = None) -> list[AgentState]:
    """Agent states named like their ids so scripted backends can key on names."""
    punished = punished or set()
    states = []
    for i, label in enumerate(labels, start=1):
        agent_id = f"{prefix}{i}"
        states.append(
            AgentState(
                agent_id=agent_id,
                name=agent_id,
                strategy=Strategy(label),
                lifestyle="",
                r1_punished=agent_id in punished,
            )
        )
    return states


def roles(result: GroupRound) -> tuple[frozenset[str], frozenset[str], frozenset[str]]:
    """(defectors, round-1 non-punishers, meta-non-punishers), read back from
    a round's orders and punishment events.

    A defector ordered premium. A round-1 non-punisher is a non-defector who
    left some defector unpunished; a meta-non-punisher is anyone else who
    left some round-1 non-punisher unpunished.
    """
    done = {(e.punisher_id, e.target_id, e.level) for e in result.punishment_events}

    def sparing(level: PunishmentLevel, targets: frozenset[str], outside: frozenset[str]) -> frozenset[str]:
        return frozenset(
            a for a in result.orders
            if a not in outside and any((a, t, level) not in done for t in targets)
        )

    defectors = frozenset(a for a, c in result.orders.items() if c is MealChoice.PREMIUM)
    np1 = sparing(PunishmentLevel.DEFECTION, defectors, defectors)
    return defectors, np1, sparing(PunishmentLevel.NON_PUNISHER, np1, defectors | np1)


def make_config(
    labels_by_group: list[list[str]],
    *,
    p: float | None = 6.0,
    k: float | None = 1.0,
    seed: int = 1,
    iterations: int = 10,
    backend_kind: str = "oracle",
) -> SimulationConfig:
    agents = []
    groups = []
    index = 0
    for g, labels in enumerate(labels_by_group, start=1):
        members = []
        for label in labels:
            index += 1
            agent_id = f"a{index}"
            agents.append(
                AgentSeed(agent_id=agent_id, name=agent_id, strategy=Strategy(label))
            )
            members.append(agent_id)
        groups.append(GroupSpec(group_id=f"g{g}", members=tuple(members)))
    if p is None:
        punishment = PunishmentParams(mode=PunishmentMode.BACKEND_DECIDED)
    else:
        punishment = PunishmentParams(p=p, k=k)
    return SimulationConfig(
        agents=tuple(agents),
        groups=tuple(groups),
        locations=tuple(f"loc{i}" for i in range(1, len(groups) + 1)),
        iterations=iterations,
        menu=DEFAULT_MENU,
        punishment=punishment,
        imitation=ImitationParams(beta=1.0),
        backend=BackendConfig(kind=backend_kind),
        seed=seed,
    )


class ScriptedOrdersBackend(DecisionBackend):
    """Fixed meal orders keyed by actor name; oracle for punish decisions."""

    name = "scripted-orders"

    def __init__(self, orders: dict[str, str]):
        self.orders = orders

    def decide(self, ctx: DecisionContext) -> Decision:
        if ctx.kind is DecisionKind.ORDER:
            return Decision(choice=self.orders[ctx.actor_name])
        return oracle_decide(ctx)


class ImpureOracle(DecisionBackend):
    """The oracle's rule as an impure backend: the engine asks it every
    decision instead of replaying memoised group outcomes."""

    name = "impure-oracle"

    def decide(self, ctx: DecisionContext) -> Decision:
        return oracle_decide(ctx)
