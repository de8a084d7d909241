"""Core domain types, configuration, validation, and experiment presets.

Everything config-side is an immutable dataclass so validated configs can be
shared freely across concurrent replications. Mutable per-run state lives in
``AgentState`` and is owned by a single run's engine. The run records
(``PunishmentEvent``, ``ImitationOutcome``, ``GroupRound`` and
``IterationRecord``) are slotted: a run builds about a hundred of them, and a
frozen dataclass sets each field through ``object.__setattr__``. They compare
by value, are unhashable, and are read-only by convention: nothing assigns to
a record once it is built.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence


class Strategy(str, Enum):
    """The four behavioural strategies an agent can carry.

    Serialized labels are the canonical wire/CSV encoding: P, R1, E, M.
    """

    COOPERATOR_PUNISHER = "P"
    RELUCTANT_COOPERATOR = "R1"
    EASY_GOING_COOPERATOR = "E"
    MORALIST = "M"


# Census/CSV column order is fixed so outputs from different runs line up.
STRATEGY_ORDER: tuple[Strategy, ...] = (
    Strategy.MORALIST,
    Strategy.COOPERATOR_PUNISHER,
    Strategy.EASY_GOING_COOPERATOR,
    Strategy.RELUCTANT_COOPERATOR,
)

class MealChoice(str, Enum):
    BUDGET = "budget"
    PREMIUM = "premium"


class PunishmentLevel(str, Enum):
    """Why a punishment was issued. Levels are mutually exclusive per target."""

    DEFECTION = "defection"
    NON_PUNISHER = "non_punisher"
    META_NON_PUNISHER = "meta_non_punisher"


class PunishmentMode(str, Enum):
    EXPLICIT = "explicit"
    BACKEND_DECIDED = "backend_decided"


class UtilityBasis(str, Enum):
    PER_ITERATION = "per_iteration"
    CUMULATIVE = "cumulative"


class ConfigError(Exception):
    """Base class for configuration problems."""


class PartitionError(ConfigError):
    """Groups do not partition the agent set exactly."""


class DilemmaConditionError(ConfigError):
    """Menu economics do not produce a social dilemma at the group size."""


class BackendModeError(ConfigError):
    """Punishment mode is incompatible with the selected decision backend."""


class ConfigValidationError(ConfigError):
    """Carries every violated constraint found by :func:`validate_config`."""

    def __init__(self, violations: Sequence[ConfigError]):
        self.violations = list(violations)
        lines = "; ".join(str(v) for v in self.violations)
        super().__init__(f"invalid configuration: {lines}")


@dataclass(frozen=True)
class MenuConfig:
    """Two-option menu economics: costs are billed, values are enjoyed."""

    budget_cost: float
    budget_value: float
    premium_cost: float
    premium_value: float

    def cost(self, choice: MealChoice) -> float:
        return self.premium_cost if choice is MealChoice.PREMIUM else self.budget_cost

    def value(self, choice: MealChoice) -> float:
        return self.premium_value if choice is MealChoice.PREMIUM else self.budget_value


# Smallest round numbers giving temptation payoff 7, all-cooperate payoff 2
# and all-defect payoff -8 at group size 4.
DEFAULT_MENU = MenuConfig(
    budget_cost=10.0, budget_value=12.0, premium_cost=30.0, premium_value=22.0
)


@dataclass(frozen=True)
class PunishmentParams:
    """Punishment severity: ``p`` hits the punished agent, ``k`` the punisher.

    In BACKEND_DECIDED mode the severity pair comes from the decision backend
    per event and ``p``/``k`` must be None.
    """

    mode: PunishmentMode = PunishmentMode.EXPLICIT
    p: float | None = None
    k: float | None = None


@dataclass(frozen=True)
class ImitationParams:
    beta: float = 1.0
    utility_basis: UtilityBasis = UtilityBasis.PER_ITERATION


@dataclass(frozen=True)
class AgentSeed:
    """Initial agent definition as written in a config file."""

    agent_id: str
    name: str
    strategy: Strategy
    lifestyle: str = ""


@dataclass(frozen=True)
class GroupSpec:
    group_id: str
    members: tuple[str, ...]


@dataclass(frozen=True)
class BackendConfig:
    """Decision backend selector plus LLM client settings.

    The LLM fields are ignored by the rule oracle. ``error_policy`` controls
    what the engine does when a punish decision fails after retries: ``abort``
    (default) aborts the run, ``abstain`` records an abstention and continues.
    """

    kind: str = "oracle"  # "oracle" | "llm"
    temperature: float = 0.2
    top_p: float = 0.9
    timeout: float = 30.0
    transport_retries: int = 3
    repair_retries: int = 2
    backoff_base: float = 0.25
    max_concurrency: int = 1
    error_policy: str = "abort"  # "abort" | "abstain"
    template_dir: str | None = None


@dataclass(frozen=True)
class SimulationConfig:
    agents: tuple[AgentSeed, ...]
    groups: tuple[GroupSpec, ...]
    locations: tuple[str, ...]
    iterations: int
    menu: MenuConfig
    punishment: PunishmentParams
    imitation: ImitationParams
    backend: BackendConfig
    seed: int


@dataclass
class AgentState:
    """Mutable per-run agent state. Only the owning run's engine mutates it."""

    agent_id: str
    name: str
    strategy: Strategy
    lifestyle: str = ""
    r1_punished: bool = False
    iteration_utility: float = 0.0
    cumulative_utility: float = 0.0

    @classmethod
    def from_seed(cls, seed: AgentSeed) -> "AgentState":
        return cls(
            agent_id=seed.agent_id,
            name=seed.name,
            strategy=seed.strategy,
            lifestyle=seed.lifestyle,
        )


# Run records, slotted rather than frozen (see the module docstring). The
# engine builds PunishmentEvent and ImitationOutcome positionally, so their
# field order is part of how they are built.
@dataclass(slots=True)
class PunishmentEvent:
    iteration: int
    punisher_id: str
    target_id: str
    level: PunishmentLevel
    cost_to_punisher: float
    cost_to_target: float


@dataclass(slots=True)
class ImitationOutcome:
    focal_id: str
    role_model_id: str
    payoff_diff: float  # role model minus focal
    probability: float
    uniform_draw: float
    adopted: bool


@dataclass(slots=True)
class GroupRound:
    """One group's dilemma outcome within a single iteration.

    ``orders``, ``meal_payoffs`` and ``iteration_utilities`` are in seat
    order; ``punishment_events`` are in pipeline order.
    """

    group_id: str
    location: str
    orders: dict[str, MealChoice]
    bill_total: float
    meal_payoffs: dict[str, float]
    punishment_events: tuple[PunishmentEvent, ...]
    iteration_utilities: dict[str, float]


@dataclass(slots=True)
class IterationRecord:
    iteration: int
    groups: tuple[GroupRound, ...]
    imitation_outcomes: tuple[ImitationOutcome, ...]
    strategy_census: dict[Strategy, int]

    @property
    def punishment_events(self) -> tuple[PunishmentEvent, ...]:
        """Every group's events, in group order."""
        return tuple(e for g in self.groups for e in g.punishment_events)

    @property
    def iteration_utilities(self) -> dict[str, float]:
        """Every group's utilities, in group order."""
        return {a: u for g in self.groups for a, u in g.iteration_utilities.items()}


def census_of(strategies: Iterable[Strategy]) -> dict[Strategy, int]:
    """Count strategy labels in canonical order, including zero entries."""
    counts = {s: 0 for s in STRATEGY_ORDER}
    for s in strategies:
        counts[s] += 1
    return counts


def dilemma_condition_holds(menu: MenuConfig, group_size: int) -> bool:
    """Unilateral defection must tempt while all-budget beats all-premium.

    Requires (premium_cost - budget_cost)/n < premium_value - budget_value
    < premium_cost - budget_cost.
    """
    extra_cost = menu.premium_cost - menu.budget_cost
    extra_value = menu.premium_value - menu.budget_value
    return extra_cost / group_size < extra_value < extra_cost


def validate_config(config: SimulationConfig) -> SimulationConfig:
    """Return ``config`` unchanged iff every invariant holds.

    Raises :class:`ConfigValidationError` carrying one entry per violated
    constraint, so a bad config file reports everything wrong at once.
    Validation is idempotent and never mutates the config. Emits a warning
    (not an error) when explicit punishment has p < k.
    """
    violations: list[ConfigError] = []

    agent_ids = [a.agent_id for a in config.agents]
    if not config.agents:
        violations.append(ConfigError("at least one agent is required"))
    if any(not a.agent_id or not a.name for a in config.agents):
        violations.append(ConfigError("agent_id and name must be non-empty"))
    dup_agents = _duplicates(agent_ids)
    if dup_agents:
        violations.append(ConfigError(f"duplicate agent ids: {sorted(dup_agents)}"))

    member_ids = [m for g in config.groups for m in g.members]
    dup_members = _duplicates(member_ids)
    missing = set(agent_ids) - set(member_ids)
    unknown = set(member_ids) - set(agent_ids)
    if dup_members or missing or unknown:
        parts = []
        if dup_members:
            parts.append(f"duplicated in groups: {sorted(dup_members)}")
        if missing:
            parts.append(f"missing from groups: {sorted(missing)}")
        if unknown:
            parts.append(f"unknown ids in groups: {sorted(unknown)}")
        violations.append(
            PartitionError("groups must partition the agents exactly; " + "; ".join(parts))
        )
    sizes = {len(g.members) for g in config.groups}
    if len(sizes) > 1:
        violations.append(PartitionError(f"groups must be equally sized, got sizes {sorted(sizes)}"))
    if not config.groups:
        violations.append(PartitionError("at least one group is required"))
    if any(not g.group_id for g in config.groups):
        violations.append(ConfigError("group_id must be non-empty"))
    dup_groups = _duplicates([g.group_id for g in config.groups])
    if dup_groups:
        violations.append(ConfigError(f"duplicate group ids: {sorted(dup_groups)}"))

    if len(config.groups) != len(config.locations):
        violations.append(
            ConfigError(
                f"number of groups ({len(config.groups)}) must equal number of "
                f"locations ({len(config.locations)})"
            )
        )
    if _duplicates(config.locations):
        violations.append(ConfigError("location names must be unique"))

    if config.iterations < 0:
        violations.append(ConfigError("iterations must be >= 0"))

    menu = config.menu
    backend = config.backend
    numbers = {
        "menu.budget_cost": menu.budget_cost,
        "menu.budget_value": menu.budget_value,
        "menu.premium_cost": menu.premium_cost,
        "menu.premium_value": menu.premium_value,
        "imitation.beta": config.imitation.beta,
        "backend.temperature": backend.temperature,
        "backend.top_p": backend.top_p,
        "backend.timeout": backend.timeout,
        "backend.backoff_base": backend.backoff_base,
    }
    non_finite = [name for name, value in numbers.items() if not math.isfinite(value)]
    if non_finite:
        violations.append(ConfigError(f"numbers must be finite: {non_finite}"))
    if not (menu.premium_cost > menu.budget_cost):
        violations.append(ConfigError("premium_cost must exceed budget_cost"))
    if not (menu.premium_value > menu.budget_value):
        violations.append(ConfigError("premium_value must exceed budget_value"))
    for group in config.groups:
        n = len(group.members)
        if n and not dilemma_condition_holds(menu, n):
            extra_cost = menu.premium_cost - menu.budget_cost
            extra_value = menu.premium_value - menu.budget_value
            violations.append(
                DilemmaConditionError(
                    f"menu is not a dilemma for group '{group.group_id}' (n={n}): "
                    f"need {extra_cost / n:g} < {extra_value:g} < {extra_cost:g}"
                )
            )
            break  # groups are equally sized, one report suffices

    pun = config.punishment
    if pun.mode is PunishmentMode.EXPLICIT:
        if pun.p is None or pun.k is None:
            violations.append(ConfigError("explicit punishment requires both p and k"))
        else:
            if not (math.isfinite(pun.p) and math.isfinite(pun.k)):
                violations.append(ConfigError("punishment p and k must be finite"))
            elif pun.p < 0 or pun.k < 0:
                violations.append(ConfigError("punishment p and k must be >= 0"))
            elif pun.p < pun.k:
                warnings.warn(
                    f"punishment p ({pun.p:g}) is below the punisher's own cost k "
                    f"({pun.k:g}); punishment is usually costlier to its target",
                    stacklevel=2,
                )
    else:
        if pun.p is not None or pun.k is not None:
            violations.append(
                ConfigError("backend-decided punishment must not fix p or k in the config")
            )
        if config.backend.kind != "llm":
            violations.append(
                BackendModeError(
                    "backend-decided punishment severity requires the llm backend, "
                    f"got backend '{config.backend.kind}'"
                )
            )

    if config.imitation.beta < 0:
        violations.append(ConfigError("imitation beta must be >= 0"))
    if config.imitation.utility_basis not in (UtilityBasis.PER_ITERATION, UtilityBasis.CUMULATIVE):
        violations.append(ConfigError("unknown utility basis"))

    if config.backend.kind not in ("oracle", "llm"):
        violations.append(ConfigError(f"unknown backend kind '{config.backend.kind}'"))
    if not backend.timeout > 0:
        violations.append(ConfigError("backend.timeout must be > 0"))
    for name, floor in (
        ("backoff_base", 0), ("transport_retries", 0), ("repair_retries", 0), ("max_concurrency", 1),
    ):
        if not getattr(backend, name) >= floor:
            violations.append(ConfigError(f"backend.{name} must be >= {floor}"))
    if config.backend.error_policy not in ("abort", "abstain"):
        violations.append(ConfigError(f"unknown error policy '{config.backend.error_policy}'"))

    if not seed_in_range(config.seed):
        violations.append(ConfigError("seed must fit in an unsigned 64-bit integer"))

    if violations:
        raise ConfigValidationError(violations)
    return config


def seed_in_range(seed: int) -> bool:
    """Whether ``seed`` fits in an unsigned 64-bit integer, as a run's seed must."""
    return 0 <= seed < 2**64


def _duplicates(items: Iterable) -> set:
    seen: set = set()
    dups: set = set()
    for item in items:
        if item in seen:
            dups.add(item)
        seen.add(item)
    return dups


# --- experiment presets -----------------------------------------------------

PRESET_ROSTERS: dict[int, tuple[tuple[Strategy, ...], tuple[Strategy, ...]]] = {
    1: (
        (Strategy.MORALIST, Strategy.COOPERATOR_PUNISHER, Strategy.EASY_GOING_COOPERATOR, Strategy.RELUCTANT_COOPERATOR),
        (Strategy.MORALIST, Strategy.MORALIST, Strategy.COOPERATOR_PUNISHER, Strategy.RELUCTANT_COOPERATOR),
    ),
    2: (
        (Strategy.RELUCTANT_COOPERATOR, Strategy.RELUCTANT_COOPERATOR, Strategy.EASY_GOING_COOPERATOR, Strategy.MORALIST),
        (Strategy.RELUCTANT_COOPERATOR, Strategy.COOPERATOR_PUNISHER, Strategy.COOPERATOR_PUNISHER, Strategy.MORALIST),
    ),
}

# Eight personas: a name plus a one-line lifestyle used as prompt context.
PRESET_PERSONAS: tuple[tuple[str, str], ...] = (
    ("Raj Sharma", "Takes a high-intensity run every morning and wants hearty, nutritious food afterwards."),
    ("Mia Fernando", "Reads the newspaper cover to cover over a long, quiet breakfast."),
    ("Tomas Perera", "Amateur photographer who spends weekends hiking to viewpoints around town."),
    ("Anika de Soysa", "Night-shift nurse who treats shared meals as her main social time."),
    ("Leo Jayawardena", "Trains with the local cricket club and keeps a careful eye on his spending."),
    ("Sofia Almeida", "Paints watercolour landscapes and sells prints at the weekend market."),
    ("Dilan Wickrama", "Cycles everywhere and is happiest with simple, filling food."),
    ("Grace Li", "Runs a small book club and likes to linger over dessert and coffee."),
)


def parse_punishment_setting(setting: str | None) -> PunishmentParams:
    """Map a ``"p:k"`` string (or None) to punishment parameters.

    None means the decision backend chooses severity per event, which is only
    valid with the LLM backend.
    """
    if setting is None or setting == "none":
        return PunishmentParams(mode=PunishmentMode.BACKEND_DECIDED)
    try:
        p_text, k_text = setting.split(":")
        p, k = float(p_text), float(k_text)
    except ValueError as exc:
        raise ConfigError(f"punishment setting must look like '3:1', got {setting!r}") from exc
    return PunishmentParams(mode=PunishmentMode.EXPLICIT, p=p, k=k)


def paper_preset(
    combination: int,
    punishment: str | None,
    seed: int,
    backend: BackendConfig | None = None,
) -> SimulationConfig:
    """Build one of the two 8-agent experiment presets.

    Combination 1 groups [M, P, E, R1] with [M, M, P, R1]; combination 2
    groups [R1, R1, E, M] with [R1, P, P, M]. ``punishment`` is None (backend
    decides severity) or a ``"p:k"`` string such as ``"3:1"`` or ``"6:1"``.
    Runs 10 iterations over locations pub and cafe with beta = 1.
    """
    if combination not in PRESET_ROSTERS:
        raise ConfigError(f"combination must be 1 or 2, got {combination!r}")
    rosters = PRESET_ROSTERS[combination]
    if backend is None:
        backend = BackendConfig(kind="llm")

    agents: list[AgentSeed] = []
    groups: list[GroupSpec] = []
    index = 0
    for group_num, roster in enumerate(rosters, start=1):
        member_ids = []
        for strategy in roster:
            index += 1
            name, lifestyle = PRESET_PERSONAS[index - 1]
            agent_id = f"a{index}"
            agents.append(AgentSeed(agent_id=agent_id, name=name, strategy=strategy, lifestyle=lifestyle))
            member_ids.append(agent_id)
        groups.append(GroupSpec(group_id=f"g{group_num}", members=tuple(member_ids)))

    return SimulationConfig(
        agents=tuple(agents),
        groups=tuple(groups),
        locations=("pub", "cafe"),
        iterations=10,
        menu=DEFAULT_MENU,
        punishment=parse_punishment_setting(punishment),
        imitation=ImitationParams(beta=1.0),
        backend=backend,
        seed=seed,
    )
