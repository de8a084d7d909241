"""Backend accuracy measurement against the rule oracle.

The scenario suite enumerates decision contexts with oracle-known answers:
every strategy, every decision kind, both punished-flag states where the
flag matters, and several lifestyle variants so lifestyle-driven bias shows
up as a separate row in the report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from ..config_io import load_data, save_data
from ..model import PunishmentMode, Strategy, STRATEGY_DESCRIPTIONS, STRATEGY_ORDER
from .base import (
    BackendError,
    DecisionBackend,
    DecisionContext,
    DecisionKind,
    RosterEntry,
    TransportError,
)
from .oracle import oracle_decide

# Lifestyle variants exercised by the default suite.
SUITE_LIFESTYLES: tuple[tuple[str, str], ...] = (
    ("morning_runner", "Takes a high-intensity run in the morning and needs high nutrition for it."),
    ("newspaper_reader", "Reads the newspaper front to back over a slow breakfast."),
    ("photographer", "Carries a camera everywhere and plans weekends around golden-hour light."),
)

_SUITE_ROSTER_NAMES = ("Bo Lindqvist", "Carmen Diaz", "Farid Khan")
_TARGET_NAME = "Farid Khan"


@dataclass(frozen=True)
class Scenario:
    scenario_id: str
    lifestyle_tag: str
    expected_choice: str
    ctx: DecisionContext


@dataclass
class CellStats:
    matched: int = 0
    total: int = 0

    @property
    def accuracy(self) -> float:
        return self.matched / self.total if self.total else 0.0

    def to_dict(self) -> dict:
        return {"matched": self.matched, "total": self.total, "accuracy": self.accuracy}


@dataclass
class AccuracyReport:
    backend_name: str
    total: int = 0
    matched: int = 0
    by_kind: dict[str, CellStats] = field(default_factory=dict)
    by_strategy: dict[str, CellStats] = field(default_factory=dict)
    by_lifestyle: dict[str, CellStats] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    # Scenarios whose backend call failed with a TransportError; not part of
    # to_dict, so the written report keeps its schema.
    transport_failures: int = 0

    @property
    def accuracy(self) -> float:
        return self.matched / self.total if self.total else 0.0

    def to_dict(self) -> dict:
        return {
            "backend": self.backend_name,
            "total": self.total,
            "matched": self.matched,
            "accuracy": self.accuracy,
            "by_kind": {k: v.to_dict() for k, v in self.by_kind.items()},
            "by_strategy": {k: v.to_dict() for k, v in self.by_strategy.items()},
            "by_lifestyle": {k: v.to_dict() for k, v in self.by_lifestyle.items()},
            "failures": self.failures,
        }


def _suite_context(
    kind: DecisionKind,
    strategy: Strategy,
    r1_punished: bool,
    lifestyle: str,
    p: float,
    k: float,
) -> DecisionContext:
    if kind is DecisionKind.ORDER:
        roster = tuple(RosterEntry(name=n) for n in _SUITE_ROSTER_NAMES)
        extras = {"menu_description": (
            "budget meal (price 10, worth 12 to you) or premium meal (price 30, "
            "worth 22 to you); the table has agreed to split the total bill equally"
        )}
    else:
        actions = {
            DecisionKind.PUNISH_DEFECTOR: {
                "Bo Lindqvist": "ordered the budget meal",
                "Carmen Diaz": "ordered the budget meal",
                "Farid Khan": "ordered the premium meal",
            },
            DecisionKind.PUNISH_NON_PUNISHER: {
                "Bo Lindqvist": "ordered the premium meal",
                "Carmen Diaz": "ordered the budget meal; scolded Bo Lindqvist",
                "Farid Khan": "ordered the budget meal",
            },
            DecisionKind.PUNISH_META_NON_PUNISHER: {
                "Bo Lindqvist": "ordered the premium meal",
                "Carmen Diaz": "ordered the budget meal",
                "Farid Khan": "ordered the budget meal; scolded Bo Lindqvist",
            },
        }[kind]
        evidence = {
            DecisionKind.PUNISH_DEFECTOR: (
                f"{_TARGET_NAME} ordered the premium meal and pushed part of its cost onto the table."
            ),
            DecisionKind.PUNISH_NON_PUNISHER: (
                f"{_TARGET_NAME} saw Bo Lindqvist order premium and did not scold them."
            ),
            DecisionKind.PUNISH_META_NON_PUNISHER: (
                f"{_TARGET_NAME} let Carmen Diaz off without a scolding for ignoring defection."
            ),
        }[kind]
        roster = tuple(RosterEntry(name=n, visible_action=actions[n]) for n in _SUITE_ROSTER_NAMES)
        extras = {"target_name": _TARGET_NAME, "evidence": evidence}
    return DecisionContext(
        kind=kind,
        iteration=1,
        location="pub",
        actor_name="Alex Rivera",
        actor_strategy=strategy,
        actor_strategy_description=STRATEGY_DESCRIPTIONS[strategy],
        actor_lifestyle=lifestyle,
        actor_r1_punished=r1_punished,
        roster=roster,
        punishment_mode=PunishmentMode.EXPLICIT,
        punishment_p=p,
        punishment_k=k,
        **extras,
    )


def build_scenario_suite(p: float = 6.0, k: float = 1.0) -> list[Scenario]:
    """All strategies x all decision kinds x flag states x lifestyle variants."""
    scenarios = []
    for kind in DecisionKind:
        for strategy in STRATEGY_ORDER:
            flag_states = (False, True) if strategy is Strategy.RELUCTANT_COOPERATOR else (False,)
            for r1_punished in flag_states:
                for tag, lifestyle in SUITE_LIFESTYLES:
                    ctx = _suite_context(kind, strategy, r1_punished, lifestyle, p, k)
                    scenarios.append(
                        Scenario(
                            scenario_id=(
                                f"{kind.value}-{strategy.value}-"
                                f"{'punished' if r1_punished else 'fresh'}-{tag}"
                            ),
                            lifestyle_tag=tag,
                            ctx=ctx,
                            expected_choice=oracle_decide(ctx).choice,
                        )
                    )
    return scenarios


def evaluate_accuracy(backend: DecisionBackend, suite: Sequence[Scenario]) -> AccuracyReport:
    """Score a backend against the suite; a backend error counts as a miss.

    The whole suite goes to the backend as one :meth:`~DecisionBackend.decide_each`
    batch, so an LLM backend answers up to ``max_concurrency`` scenarios at once.
    """
    report = AccuracyReport(backend_name=backend.name)
    results = backend.decide_each([scenario.ctx for scenario in suite])
    for scenario, result in zip(suite, results):
        if isinstance(result, BackendError):
            got = None
            matched = False
            report.failures.append(f"{scenario.scenario_id}: {result}")
            report.transport_failures += isinstance(result, TransportError)
        else:
            got = result.choice
            matched = got == scenario.expected_choice
        report.total += 1
        report.matched += int(matched)
        for table, key in (
            (report.by_kind, scenario.ctx.kind.value),
            (report.by_strategy, scenario.ctx.actor_strategy.value),
            (report.by_lifestyle, scenario.lifestyle_tag),
        ):
            cell = table.setdefault(key, CellStats())
            cell.total += 1
            cell.matched += int(matched)
        if not matched and got is not None:
            report.failures.append(
                f"{scenario.scenario_id}: expected {scenario.expected_choice}, got {got}"
            )
    return report


def save_suite(suite: Sequence[Scenario], path: str | Path) -> None:
    save_data(suite, path)


def load_suite(path: str | Path) -> list[Scenario]:
    return list(load_data(tuple[Scenario, ...], path, "suite"))
