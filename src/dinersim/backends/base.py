"""Decision contract shared by the engine and every backend."""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from ..model import MealChoice, MenuConfig, PunishmentMode, Strategy
from ..streams import Stream


class BackendError(Exception):
    """Base class for decision backend failures."""


class TransportError(BackendError):
    """Network or HTTP failure that survived bounded retries."""


class ParseError(BackendError):
    """The reply never became valid structured output, even after repairs."""


class SchemaError(BackendError):
    """Structured output parsed but violates the decision schema."""


class PromptRenderError(BackendError):
    """A template placeholder was left unbound; raised before any network call."""


class UnsupportedModeError(BackendError):
    """The backend cannot serve the requested punishment mode."""


class DecisionKind(str, Enum):
    ORDER = "order"
    PUNISH_DEFECTOR = "punish_defector"
    PUNISH_NON_PUNISHER = "punish_non_punisher"
    PUNISH_META_NON_PUNISHER = "punish_meta_non_punisher"


ORDER_CHOICES = ("budget", "premium")
PUNISH_CHOICES = ("punish", "abstain")


@dataclass(frozen=True)
class RosterEntry:
    """A fellow diner as visible to the deciding agent: name, the meal they
    ordered once orders are in, and whom they scolded so far this iteration,
    in event order."""

    name: str
    order: MealChoice | None = None
    scolded: tuple[str, ...] = ()


@dataclass(frozen=True)
class DecisionContext:
    """Everything a backend may condition on for one decision, as structure.

    ``menu`` is set for orders only; ``target_name`` for punish kinds only.
    ``spared`` names, sorted, whom the target left unscolded: the defectors
    for a non-punisher, the non-punishers for a meta-non-punisher.
    ``punishment_p``/``punishment_k`` are set when the punishment mode is
    explicit.
    """

    kind: DecisionKind
    iteration: int
    location: str
    actor_name: str
    actor_strategy: Strategy
    actor_lifestyle: str
    actor_r1_punished: bool
    roster: tuple[RosterEntry, ...]
    punishment_mode: PunishmentMode
    punishment_p: float | None = None
    punishment_k: float | None = None
    menu: MenuConfig | None = None
    target_name: str | None = None
    spared: tuple[str, ...] = ()


@dataclass(frozen=True)
class Decision:
    """A backend's answer: an enum choice, optional severity, free-text why.

    ``severity`` is the (p, k) pair and is required exactly when the
    punishment mode is backend-decided and the choice is "punish". The
    rationale is logged verbatim and never parsed for control flow.
    """

    choice: str
    severity: tuple[float, float] | None = None
    rationale: str = ""


def check_decision(decision: Decision, ctx: DecisionContext) -> Decision:
    """Enforce the decision schema for the context it answers."""
    allowed = ORDER_CHOICES if ctx.kind is DecisionKind.ORDER else PUNISH_CHOICES
    if decision.choice not in allowed:
        raise SchemaError(
            f"decision {decision.choice!r} is outside the {ctx.kind.value} enum {list(allowed)}"
        )
    severity_required = (
        ctx.punishment_mode is PunishmentMode.BACKEND_DECIDED
        and decision.choice == "punish"
    )
    if severity_required and decision.severity is None:
        raise SchemaError("punish decision in backend-decided mode must carry a (p, k) severity")
    if not severity_required and decision.severity is not None:
        raise SchemaError("severity supplied but not requested in this mode")
    if decision.severity is not None:
        p, k = decision.severity
        if not (math.isfinite(p) and math.isfinite(k)) or p < 0 or k < 0:
            raise SchemaError(f"severity values must be finite and >= 0, got p={p}, k={k}")
    return decision


class DecisionBackend(ABC):
    """Pluggable decision source used by the dilemma engine."""

    name: str = "backend"

    #: A pure backend's decision depends only on ``ctx.kind``,
    #: ``actor_strategy``, ``actor_r1_punished`` and the punishment mode,
    #: ``p`` and ``k``, by the same rule for every instance of its class; it
    #: ignores the roster, ``menu``, ``target_name`` and ``spared``. The
    #: engine then serves its group rounds from one outcome table per
    #: process, shared by every instance of every pure class and keyed by the
    #: class, the config and the member types in seat order: a repeat seating
    #: asks the backend nothing (see ``engine.run_group_round``). Failures are
    #: never stored.
    pure: bool = False

    @abstractmethod
    def decide(self, ctx: DecisionContext) -> Decision:
        """Answer one decision context; raises BackendError on failure."""

    def decide_many(self, contexts: Sequence[DecisionContext]) -> list[Decision]:
        """Answer a batch of independent contexts, in order.

        Backends may overlap work internally but results always line up with
        the input order.
        """
        return [self.decide(ctx) for ctx in contexts]

    def decide_each(self, contexts: Sequence[DecisionContext]) -> list[Decision | BackendError]:
        """Answer every context, in order, keeping failures per item.

        A context whose decision fails gets its :class:`BackendError` in its
        slot instead of the error being raised.
        """
        return [self._decide_or_error(ctx) for ctx in contexts]

    def _decide_or_error(self, ctx: DecisionContext) -> Decision | BackendError:
        try:
            return self.decide(ctx)
        except BackendError as exc:
            return exc

    def for_run(self, rng: Stream) -> "DecisionBackend":
        """Bind a run-scoped RNG (retry jitter only). Default: stateless."""
        del rng
        return self
