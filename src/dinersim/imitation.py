"""Pairwise imitation: payoff comparison against a random role model.

Adoption probability follows the Fermi rule 1 / (1 + exp(-beta * (pi_B -
pi_A))) where A is the focal agent and B the role model. Every agent makes
exactly one attempt per iteration, in canonical order; adoptions are computed
against pre-update strategies and applied simultaneously afterwards, so
within-step cascades cannot occur.
"""

from __future__ import annotations

import math
from typing import Sequence

from .model import AgentState, ImitationOutcome, ImitationParams, Strategy, UtilityBasis
from .streams import Stream


class PopulationTooSmall(ValueError):
    """Role-model selection needs at least two agents."""


def fermi_probability(payoff_a: float, payoff_b: float, beta: float) -> float:
    """Probability that A adopts B's strategy given their payoffs.

    Numerically stable for arbitrarily large |beta * (payoff_b - payoff_a)|:
    saturates to 0 or 1 instead of overflowing.
    """
    x = beta * (payoff_b - payoff_a)
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def imitation_step(
    population: Sequence[AgentState],
    params: ImitationParams,
    rng: Stream,
) -> list[ImitationOutcome]:
    """One synchronous imitation sweep over the whole population.

    Per agent, in population order, draws the role-model index with
    ``rng.integers(n - 1)``, then the acceptance draw with ``rng.random()``,
    so the stream is identical on replay. With two agents the index draw is
    ``integers(1)``, which consumes nothing: one draw per agent. Any ``rng``
    with those two methods will do, a numpy ``Generator`` too. The sweep
    takes no lock: a run owns its stream. The role model is uniform over every
    other agent in the population (both groups). Agent ids must be unique,
    as ``validate_config`` enforces: the role model is chosen by position.
    Adopting the R1 label always resets the punished flag: the label is
    copied, not the role model's private history.
    """
    n = len(population)
    if n < 2:
        raise PopulationTooSmall("imitation needs at least two agents")
    if params.utility_basis is UtilityBasis.PER_ITERATION:
        payoffs = [a.iteration_utility for a in population]
    else:
        payoffs = [a.cumulative_utility for a in population]
    pre_update = [a.strategy for a in population]
    beta = params.beta
    integers, random = rng.integers, rng.random

    outcomes = []
    adoptions: list[tuple[AgentState, Strategy]] = []
    for i, focal in enumerate(population):
        # Uniform over the other n - 1 agents: skip the focal seat.
        j = integers(n - 1)
        j += j >= i
        focal_payoff, model_payoff = payoffs[i], payoffs[j]
        probability = fermi_probability(focal_payoff, model_payoff, beta)
        draw = random()
        adopted = draw < probability
        outcomes.append(
            ImitationOutcome(
                focal.agent_id, population[j].agent_id, model_payoff - focal_payoff,
                probability, draw, adopted,
            )
        )
        if adopted:
            adoptions.append((focal, pre_update[j]))

    for agent, strategy in adoptions:
        agent.strategy = strategy
        agent.r1_punished = False
    return outcomes
