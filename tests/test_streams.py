"""The pure-Python streams against numpy's, draw for draw and state for state."""

from __future__ import annotations

import random

import numpy as np
import pytest

from dinersim.streams import Stream

_pick = random.Random(20261020)
SEEDS = {
    "edges": [0, 1, 2**31 - 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1],
    "31-bit": [_pick.getrandbits(31) for _ in range(500)],
    "64-bit": [_pick.getrandbits(64) for _ in range(500)],
}
# 2**31 + 1 rejects about half of its 32-bit draws; 2**32 takes every draw as it is.
SPANS = [1, 2, 3, 7, 15, 2**31 + 1, 2**32 - 1, 2**32]


def numpy_streams(seed: int) -> list[np.random.Generator]:
    return [np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(2)]


def assert_same_state(stream: Stream, generator: np.random.Generator) -> None:
    state = generator.bit_generator.state
    assert (stream._state, stream._inc) == (state["state"]["state"], state["state"]["inc"])
    assert (stream._spare is not None) == bool(state["has_uint32"])
    if stream._spare is not None:
        assert stream._spare == state["uinteger"]


def mixed_draws(rng, plan: list[int | None]) -> list:
    """``integers(span)`` for each span in ``plan`` and ``random()`` for each ``None``."""
    return [float(rng.random()) if span is None else int(rng.integers(span)) for span in plan]


class TestNumpyParity:
    @pytest.mark.parametrize("kind", list(SEEDS))
    def test_run_streams_equal_numpys_spawned_generators(self, kind):
        for seed in SEEDS[kind]:
            plan = random.Random(seed).choices(SPANS + [None] * 4, k=40)
            for ours, theirs in zip((Stream(seed, 0), Stream(seed, 1)), numpy_streams(seed)):
                assert_same_state(ours, theirs)
                assert mixed_draws(ours, plan) == mixed_draws(theirs, plan), seed
                assert_same_state(ours, theirs)

    @pytest.mark.parametrize("spawn_key", [0, 1, 2, 2**31, 2**32 - 1])
    def test_any_spawn_key(self, spawn_key):
        for seed in SEEDS["edges"]:
            theirs = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(spawn_key,)))
            ours = Stream(seed, spawn_key)
            assert_same_state(ours, theirs)
            assert [ours.random() for _ in range(5)] == [theirs.random() for _ in range(5)]

    @pytest.mark.parametrize("span", SPANS)
    def test_integers_match_generator_integers(self, span, monkeypatch):
        draws = 2000
        next64 = Stream._next64
        calls = 0  # 64-bit draws, each two 32-bit ones

        def counted(stream):
            nonlocal calls
            calls += 1
            return next64(stream)

        monkeypatch.setattr(Stream, "_next64", counted)
        ours, theirs = Stream(17, 0), numpy_streams(17)[0]
        assert [ours.integers(span) for _ in range(draws)] == [int(theirs.integers(span)) for _ in range(draws)]
        assert_same_state(ours, theirs)
        if span == 1:
            assert calls == 0
        elif span == 2**31 + 1:
            assert 2 * calls > 1.3 * draws  # about half of all 32-bit draws are redrawn
        elif span == 2**32:
            assert 2 * calls == draws


class TestSpanOne:
    def test_consumes_no_draw(self):
        stream, untouched = Stream(9, 0), Stream(9, 0)
        assert [stream.integers(1) for _ in range(10)] == [0] * 10
        assert (stream._state, stream._spare) == (untouched._state, untouched._spare)

    def test_keeps_a_buffered_spare(self):
        stream, reference = Stream(9, 0), Stream(9, 0)
        stream.integers(7)
        reference.integers(7)
        assert stream.integers(1) == 0
        assert stream.integers(7) == reference.integers(7)  # both from the spare half


class TestOutOfRange:
    @pytest.mark.parametrize("seed, spawn_key", [(-1, 0), (2**64, 0), (0, -1), (0, 2**32)])
    def test_seed_and_spawn_key(self, seed, spawn_key):
        with pytest.raises(ValueError, match="out of range"):
            Stream(seed, spawn_key)

    @pytest.mark.parametrize("span", [0, -3])
    def test_span_below_one(self, span):
        with pytest.raises(ValueError, match="at least 1"):
            Stream(0, 0).integers(span)

    def test_span_above_two_to_the_32(self):
        with pytest.raises(ValueError, match="at most 2"):
            Stream(0, 0).integers(2**32 + 1)
