"""Pairwise imitation: payoff comparison against a random role model.

Adoption probability follows the Fermi rule 1 / (1 + exp(-beta * (pi_B -
pi_A))) where A is the focal agent and B the role model. Every agent makes
exactly one attempt per iteration, in canonical order; adoptions are computed
against pre-update strategies and applied simultaneously afterwards, so
within-step cascades cannot occur.
"""

from __future__ import annotations

import ctypes
import math
from typing import Sequence

import numpy as np

from .model import AgentState, ImitationOutcome, ImitationParams, Strategy, UtilityBasis


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


# A bit generator's C entry points, called with the GIL held (a ``CFUNCTYPE``
# call releases and retakes it). One pair per bit-generator class: numpy's
# classes give every instance the same functions, and only the state differs.
_NEXT_UINT32 = ctypes.PYFUNCTYPE(ctypes.c_uint32, ctypes.c_void_p)
_NEXT_DOUBLE = ctypes.PYFUNCTYPE(ctypes.c_double, ctypes.c_void_p)
_entry_points: dict[type, tuple] = {}


def _draws(bit_generator: np.random.BitGenerator):
    """``(state, next_uint32, next_double)`` for ``bit_generator``: a
    pointer to its state and its own ``next_uint32`` and ``next_double``,
    the functions ``Generator.integers`` and ``Generator.random`` draw
    through."""
    interface = bit_generator.ctypes
    entries = _entry_points.get(type(bit_generator))
    if entries is None:
        entries = _entry_points[type(bit_generator)] = (
            ctypes.cast(interface.next_uint32, _NEXT_UINT32),
            ctypes.cast(interface.next_double, _NEXT_DOUBLE),
        )
    return (interface.state, *entries)


def _bounded(next_uint32, state: ctypes.c_void_p, span: int) -> int:
    """``Generator.integers(span)`` for ``1 <= span <= 2**32``, draw for draw.

    numpy's Lemire step: scale a 32-bit draw by ``span`` and take the high
    word, redrawing while the low word falls under ``(2**32 - span) %
    span``, the biased share. That threshold is below ``span``, so, as in
    numpy, it is only worked out for a low word under ``span``. A span of 1
    draws nothing, as ``integers(1)`` does.
    """
    if span == 1:
        return 0
    m = next_uint32(state) * span
    if m & 0xFFFFFFFF < span:
        threshold = (0x100000000 - span) % span
        while m & 0xFFFFFFFF < threshold:
            m = next_uint32(state) * span
    return m >> 32


def imitation_step(
    population: Sequence[AgentState],
    params: ImitationParams,
    rng: np.random.Generator,
) -> list[ImitationOutcome]:
    """One synchronous imitation sweep over the whole population.

    Per agent, in population order, draws the role-model index as
    ``rng.integers(n - 1)`` does, then the acceptance draw as
    ``rng.random()`` does, so the stream is identical on replay. With two
    agents the index draw is ``integers(1)``, which consumes nothing: one
    draw per agent. The draws go through the bit generator's C entry points
    under its lock, held for the sweep. The role model is uniform over every
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
    bit_generator = rng.bit_generator
    state, next_uint32, next_double = _draws(bit_generator)

    outcomes = []
    adoptions: list[tuple[AgentState, Strategy]] = []
    with bit_generator.lock:
        for i, focal in enumerate(population):
            # Uniform over the other n - 1 agents: skip the focal seat.
            j = _bounded(next_uint32, state, n - 1)
            j += j >= i
            focal_payoff, model_payoff = payoffs[i], payoffs[j]
            probability = fermi_probability(focal_payoff, model_payoff, beta)
            draw = next_double(state)
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
