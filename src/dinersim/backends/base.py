"""Decision contract shared by the engine and every backend."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from ..model import PunishmentMode, Strategy


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


PUNISH_KINDS = (
    DecisionKind.PUNISH_DEFECTOR,
    DecisionKind.PUNISH_NON_PUNISHER,
    DecisionKind.PUNISH_META_NON_PUNISHER,
)

ORDER_CHOICES = ("budget", "premium")
PUNISH_CHOICES = ("punish", "abstain")


@dataclass(frozen=True)
class RosterEntry:
    """A fellow diner as visible to the deciding agent: name plus whatever
    they have been seen doing so far this iteration."""

    name: str
    visible_action: str | None = None


@dataclass(frozen=True)
class DecisionContext:
    """Everything a backend may condition on for one decision.

    ``target_name``/``evidence`` are set for punish kinds only;
    ``menu_description`` for orders only. ``punishment_p``/``punishment_k``
    are set when the punishment mode is explicit.
    """

    kind: DecisionKind
    iteration: int
    location: str
    actor_name: str
    actor_strategy: Strategy
    actor_strategy_description: str
    actor_lifestyle: str
    actor_r1_punished: bool
    roster: tuple[RosterEntry, ...]
    punishment_mode: PunishmentMode
    punishment_p: float | None = None
    punishment_k: float | None = None
    menu_description: str | None = None
    target_name: str | None = None
    evidence: str | None = None


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
        if p < 0 or k < 0:
            raise SchemaError(f"severity values must be >= 0, got p={p}, k={k}")
    return decision


class DecisionBackend(ABC):
    """Pluggable decision source used by the dilemma engine."""

    name: str = "backend"

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

    def for_run(self, rng: np.random.Generator) -> "DecisionBackend":
        """Bind a run-scoped RNG (retry jitter only). Default: stateless."""
        del rng
        return self
