from __future__ import annotations

import math
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dinersim.imitation import PopulationTooSmall, fermi_probability, imitation_step
from dinersim.model import ImitationOutcome, ImitationParams, Strategy, UtilityBasis, census_of
from dinersim.streams import Stream

from conftest import make_group

finite_payoffs = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)

# numpy's bit generators: imitation_step takes any generator's integers and random.
BIT_GENERATORS = [np.random.PCG64, np.random.PCG64DXSM, np.random.MT19937, np.random.Philox, np.random.SFC64]


class TestFermiProbability:
    def test_equal_payoffs_give_half(self):
        assert fermi_probability(5.0, 5.0, 1.0) == 0.5

    def test_reference_value_at_diff_two(self):
        assert fermi_probability(0.0, 2.0, 1.0) == pytest.approx(0.8807970779, abs=1e-9)

    def test_zero_beta_erases_selection(self):
        assert fermi_probability(0.0, 2.0, 0.0) == 0.5
        assert fermi_probability(-50.0, 300.0, 0.0) == 0.5

    def test_saturation_without_overflow(self):
        assert fermi_probability(0.0, 800.0, 1.0) == 1.0
        assert fermi_probability(800.0, 0.0, 1.0) == 0.0
        assert fermi_probability(0.0, 1e12, 5.0) == 1.0

    @given(a=finite_payoffs, b=finite_payoffs, beta=st.floats(min_value=0.0, max_value=10.0))
    @settings(max_examples=300)
    def test_bounds_and_complementarity(self, a, b, beta):
        p_ab = fermi_probability(a, b, beta)
        p_ba = fermi_probability(b, a, beta)
        assert 0.0 <= p_ab <= 1.0
        assert abs(p_ab + p_ba - 1.0) <= 1e-12

    @given(
        a=finite_payoffs,
        b=finite_payoffs,
        c=st.floats(min_value=-100.0, max_value=100.0),
        beta=st.floats(min_value=0.0, max_value=10.0),
    )
    @settings(max_examples=300)
    def test_translation_invariance(self, a, b, c, beta):
        assert fermi_probability(a, b, beta) == pytest.approx(
            fermi_probability(a + c, b + c, beta), abs=1e-12
        )

    @given(
        a=finite_payoffs,
        d1=st.floats(min_value=0.01, max_value=10.0),
        d2=st.floats(min_value=0.01, max_value=10.0),
    )
    @settings(max_examples=200)
    def test_strictly_increasing_in_diff(self, a, d1, d2):
        # strict inside the non-saturated regime; beyond ~|36| doubles saturate
        lo, hi = sorted((d1, d1 + d2))
        assert fermi_probability(a, a + lo, 1.0) < fermi_probability(a, a + hi, 1.0)


class TestSelectRoleModel:
    """The role-model draw inside ``imitation_step``; at ``beta = 0`` every
    payoff gap is erased, so only the draw decides the outcomes."""

    @staticmethod
    def role_models(rng, sweeps):
        group = make_group(["M"] * 8)
        params = ImitationParams(beta=0.0)
        return [
            (o.focal_id, o.role_model_id)
            for _ in range(sweeps)
            for o in imitation_step(group, params, rng)
        ]

    def test_uniform_over_others(self):
        sweeps = 12_500
        counts = Counter(self.role_models(np.random.default_rng(42), sweeps))
        ids = [f"a{i}" for i in range(1, 9)]
        for focal in ids:
            assert counts[focal, focal] == 0
            for other in ids:
                if other != focal:
                    assert counts[focal, other] / sweeps == pytest.approx(1 / 7, abs=0.015)

    def test_fixed_seed_replays_identically(self):
        first = self.role_models(np.random.default_rng(7), 50)
        second = self.role_models(np.random.default_rng(7), 50)
        assert first == second
        assert len(set(first)) == 8 * 7  # every ordered pair drawn


class TestImitationStep:
    def test_homogeneous_population_is_fixed_point(self):
        params = ImitationParams(beta=1.0)
        for seed in range(25):
            group = make_group(["M"] * 8)
            for agent in group:
                agent.iteration_utility = float(seed % 3)
            outcomes = imitation_step(group, params, np.random.default_rng(seed))
            assert census_of(a.strategy for a in group) == {
                Strategy.MORALIST: 8,
                Strategy.COOPERATOR_PUNISHER: 0,
                Strategy.EASY_GOING_COOPERATOR: 0,
                Strategy.RELUCTANT_COOPERATOR: 0,
            }
            assert all(o.adopted == (o.uniform_draw < o.probability) for o in outcomes)

    def test_large_gap_adoption_near_certain(self):
        group = make_group(["E", "M"])
        group[0].iteration_utility = -10.0
        group[1].iteration_utility = 7.0
        outcomes = imitation_step(group, ImitationParams(beta=1.0), np.random.default_rng(3))
        focal = outcomes[0]
        assert focal.probability == pytest.approx(1 / (1 + math.exp(-17.0)), abs=1e-12)
        assert focal.probability > 1 - 5e-8
        assert focal.adopted
        assert group[0].strategy is Strategy.MORALIST

    def test_two_agent_equal_payoffs_adopt_half_the_time(self):
        adoptions = 0
        trials = 10_000
        rng = np.random.default_rng(11)
        for _ in range(trials):
            group = make_group(["E", "M"])
            outcomes = imitation_step(group, ImitationParams(beta=1.0), rng)
            adoptions += outcomes[0].adopted
        assert adoptions / trials == pytest.approx(0.5, abs=0.02)

    def test_synchronous_swap_uses_pre_update_strategies(self):
        # with two agents both adopting, labels must swap, never collapse
        swaps = 0
        for seed in range(200):
            group = make_group(["E", "M"])
            outcomes = imitation_step(group, ImitationParams(beta=1.0), np.random.default_rng(seed))
            if outcomes[0].adopted and outcomes[1].adopted:
                swaps += 1
                assert group[0].strategy is Strategy.MORALIST
                assert group[1].strategy is Strategy.EASY_GOING_COOPERATOR
        assert swaps > 10  # the both-adopt branch actually ran

    def test_adopting_r1_resets_flag_and_others_clear_it(self):
        group = make_group(["R1", "M"], punished={"a1"})
        group[0].iteration_utility = -100.0  # converted R1, will adopt M
        group[1].iteration_utility = 0.0
        rng = np.random.default_rng(0)
        imitation_step(group, ImitationParams(beta=1.0), rng)
        assert group[0].strategy is Strategy.MORALIST
        assert group[0].r1_punished is False

        # now force adoption of R1: fresh again even though the model was converted
        group = make_group(["R1", "R1"], punished={"a1", "a2"})
        group[0].iteration_utility = -100.0
        group[1].iteration_utility = 100.0
        imitation_step(group, ImitationParams(beta=1.0), np.random.default_rng(0))
        assert group[0].strategy is Strategy.RELUCTANT_COOPERATOR
        assert group[0].r1_punished is False  # re-adopted label is fresh

    def test_self_never_selected(self):
        group = make_group(["M", "P", "E", "R1"])
        rng = np.random.default_rng(5)
        for _ in range(200):
            for outcome in imitation_step(group, ImitationParams(beta=0.0), rng):
                assert outcome.role_model_id != outcome.focal_id

    def test_population_too_small(self):
        group = make_group(["M"])
        with pytest.raises(PopulationTooSmall):
            imitation_step(group, ImitationParams(), np.random.default_rng(0))

    def test_cumulative_basis_uses_cumulative_utility(self):
        group = make_group(["E", "M"])
        group[0].iteration_utility = 100.0   # would block adoption per-iteration
        group[1].iteration_utility = -100.0
        group[0].cumulative_utility = -500.0  # but cumulative says adopt
        group[1].cumulative_utility = 500.0
        params = ImitationParams(beta=1.0, utility_basis=UtilityBasis.CUMULATIVE)
        outcomes = imitation_step(group, params, np.random.default_rng(1))
        assert outcomes[0].payoff_diff == 1000.0
        assert outcomes[0].adopted

    def test_concurrent_sweeps_on_own_streams_match_serial_sweeps(self):
        """Two threads, each sweeping its own population with its own stream,
        give exactly the outcomes of the same sweeps run one after the other,
        with the interpreter switching threads every microsecond."""
        def sweeps(seed):
            group = make_group(["M", "P", "E", "R1"] * 3)
            rng = Stream(seed, 0)
            outcomes = []
            for sweep in range(150):
                for i, agent in enumerate(group):
                    agent.iteration_utility = float((sweep * 7 + i * 3) % 11)
                outcomes.append(imitation_step(group, ImitationParams(beta=0.5), rng))
            return outcomes, [agent.strategy for agent in group], rng.random()

        serial = [sweeps(seed) for seed in (1, 2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                concurrent = list(pool.map(sweeps, (1, 2), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert concurrent == serial
        assert serial[0] != serial[1]

    def test_same_seed_same_outcomes(self):
        def run(seed):
            group = make_group(["M", "P", "E", "R1"])
            for i, agent in enumerate(group):
                agent.iteration_utility = float(i)
            return imitation_step(group, ImitationParams(beta=1.0), np.random.default_rng(seed))

        assert run(9) == run(9)
        assert run(9) != run(10)


def reference_imitation_step(population, params, rng):
    """The sweep spelled out from fermi_probability: per agent, one
    role-model draw, uniform over the others, then one acceptance draw."""
    ids = [a.agent_id for a in population]
    per_iteration = params.utility_basis is UtilityBasis.PER_ITERATION
    payoff = {
        a.agent_id: a.iteration_utility if per_iteration else a.cumulative_utility
        for a in population
    }
    pre_update = {a.agent_id: a.strategy for a in population}
    outcomes, adoptions = [], []
    for focal in population:
        others = [agent_id for agent_id in ids if agent_id != focal.agent_id]
        model_id = others[int(rng.integers(len(others)))]
        probability = fermi_probability(payoff[focal.agent_id], payoff[model_id], params.beta)
        draw = float(rng.random())
        outcomes.append(
            ImitationOutcome(
                focal_id=focal.agent_id,
                role_model_id=model_id,
                payoff_diff=payoff[model_id] - payoff[focal.agent_id],
                probability=probability,
                uniform_draw=draw,
                adopted=draw < probability,
            )
        )
        if draw < probability:
            adoptions.append((focal, pre_update[model_id]))
    for agent, strategy in adoptions:
        agent.strategy = strategy
        agent.r1_punished = False
    return outcomes


class TestImitationStreamParity:
    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda kind: kind.__name__)
    @pytest.mark.parametrize("basis", list(UtilityBasis))
    @pytest.mark.parametrize("n", range(2, 13))
    def test_matches_the_reference_draw_for_draw(self, n, basis, bit_generator):
        params = ImitationParams(beta=0.8, utility_basis=basis)
        adoptions = 0
        for seed in (0, 3, 2**40 + 7):
            setup = np.random.default_rng(seed)
            labels = [str(setup.choice(["M", "P", "E", "R1"])) for _ in range(n)]
            punished = {f"a{i}" for i in range(1, n + 1) if setup.random() < 0.5}
            group, reference = make_group(labels, punished=punished), make_group(labels, punished=punished)
            rng = np.random.Generator(bit_generator(seed))
            reference_rng = np.random.Generator(bit_generator(seed))
            for _ in range(4):  # later sweeps start from adopted strategies and cleared flags
                for a, b in zip(group, reference):
                    a.iteration_utility = b.iteration_utility = float(setup.normal(0, 2))
                    a.cumulative_utility = b.cumulative_utility = float(setup.normal(0, 6))
                got = imitation_step(group, params, rng)
                want = reference_imitation_step(reference, params, reference_rng)
                assert got == want
                assert group == reference  # strategies and r1_punished flags
                adoptions += sum(o.adopted for o in got)
            # assert_equal compares the array parts of MT19937, Philox and SFC64 states too
            np.testing.assert_equal(rng.bit_generator.state, reference_rng.bit_generator.state)
        assert adoptions  # the adoption branch ran

    @pytest.mark.parametrize("basis", list(UtilityBasis))
    @pytest.mark.parametrize("n", range(2, 13))
    def test_run_stream_matches_the_reference_on_numpy(self, n, basis):
        """A run's own ``Stream`` against the reference drawing from numpy's
        generator for the same seed and spawn key."""
        params = ImitationParams(beta=0.8, utility_basis=basis)
        for seed in (0, 3, 2**40 + 7):
            setup = np.random.default_rng(seed)
            labels = [str(setup.choice(["M", "P", "E", "R1"])) for _ in range(n)]
            group, reference = make_group(labels), make_group(labels)
            rng = Stream(seed, 1)
            reference_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[1])
            for _ in range(4):
                for a, b in zip(group, reference):
                    a.iteration_utility = b.iteration_utility = float(setup.normal(0, 2))
                    a.cumulative_utility = b.cumulative_utility = float(setup.normal(0, 6))
                assert imitation_step(group, params, rng) == reference_imitation_step(reference, params, reference_rng)
                assert group == reference
            assert rng.random() == reference_rng.random()  # both streams end in the same place
