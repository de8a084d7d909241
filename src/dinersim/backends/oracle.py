"""Deterministic rule oracle implementing the four strategy contracts."""

from __future__ import annotations

from ..model import PunishmentMode, Strategy
from .base import Decision, DecisionBackend, DecisionContext, DecisionKind, UnsupportedModeError

_PUNISHES_DEFECTORS = (Strategy.COOPERATOR_PUNISHER, Strategy.MORALIST)


def oracle_decide(ctx: DecisionContext) -> Decision:
    """Total, deterministic decision rule.

    Order: premium iff the actor is an unpunished reluctant cooperator.
    Punishing a defector: punishers and moralists. Punishing (meta-)
    non-punishers: moralists only.
    """
    if ctx.punishment_mode is PunishmentMode.BACKEND_DECIDED:
        raise UnsupportedModeError(
            "the rule oracle cannot choose punishment severities; use explicit p and k"
        )
    strategy = ctx.actor_strategy
    if ctx.kind is DecisionKind.ORDER:
        defect = strategy is Strategy.RELUCTANT_COOPERATOR and not ctx.actor_r1_punished
        return Decision(choice="premium" if defect else "budget")
    if ctx.kind is DecisionKind.PUNISH_DEFECTOR:
        punish = strategy in _PUNISHES_DEFECTORS
    else:  # non-punisher and meta-non-punisher levels
        punish = strategy is Strategy.MORALIST
    return Decision(choice="punish" if punish else "abstain")


class RuleOracle(DecisionBackend):
    """Reentrant, pure backend around :func:`oracle_decide`."""

    name = "oracle"
    pure = True

    def decide(self, ctx: DecisionContext) -> Decision:
        return oracle_decide(ctx)
