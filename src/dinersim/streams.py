"""Seeded random streams, draw for draw equal to numpy's, in pure Python.

``Stream(seed, spawn_key)`` is the generator that
``numpy.random.default_rng(numpy.random.SeedSequence(seed).spawn(k + 1)[k])``
builds for ``spawn_key`` k: numpy's SeedSequence entropy mixing, PCG64
(XSL-RR 128/64; O'Neill, HMC-CS-2014-0905) with numpy's buffered spare
32-bit half-word, and numpy's 32-bit Lemire step for bounded integers
(Lemire, ACM TOMACS 29(1), 2019). ``integers`` and ``random`` return what
``Generator.integers`` and ``Generator.random`` return and leave the stream
where they leave the generator. A stream takes no lock: share one between
threads only under a lock of your own.
"""

from __future__ import annotations

_MASK32 = (1 << 32) - 1
_MASK53 = (1 << 53) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's default 128-bit LCG multiplier
_TWO_COPIES = (1 << 64) + 1  # a 64-bit word times this is the word twice, side by side


def _hash_constants(init: int, mult: int, count: int) -> list[tuple[int, int]]:
    """SeedSequence's hash constants: the i-th hash xors ``init * mult**i``
    and then multiplies by ``init * mult**(i + 1)``, all mod 2**32."""
    constants = [init]
    for _ in range(count):
        constants.append(constants[-1] * mult & _MASK32)
    return list(zip(constants, constants[1:]))


# The entropy of a 64-bit seed and a one-word spawn key is always five words
# (the seed's two, padded to the pool size of four, then the key), so mixing
# takes 20 hashes and the 128-bit state and increment 8.
_MIX_HASHES = _hash_constants(0x43B0D7E5, 0x931E8875, 20)
_STATE_HASHES = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
# After hashing the first four words into the pool, each entropy word in turn
# (the spawn key last) is hashed into every other pool word.
_MIX_ORDER = [(src, dst) for src in range(5) for dst in range(4) if src != dst]


def _hash(value: int, constants: tuple[int, int]) -> int:
    xor, mult = constants
    value = (value ^ xor) * mult & _MASK32
    return value ^ value >> 16


class Stream:
    """numpy's ``default_rng`` of ``SeedSequence(seed).spawn(...)[spawn_key]``,
    for ``0 <= seed < 2**64`` and ``0 <= spawn_key < 2**32``."""

    __slots__ = ("_state", "_inc", "_spare")

    def __init__(self, seed: int, spawn_key: int) -> None:
        """numpy's SeedSequence mixing of the seed and spawn key, then PCG64's
        seeding from the 128-bit state and increment words it generates."""
        if not (0 <= seed <= _MASK64 and 0 <= spawn_key <= _MASK32):
            raise ValueError(f"seed {seed} or spawn key {spawn_key} is out of range")
        pool = [_hash(word, constants) for word, constants in zip((seed & _MASK32, seed >> 32, 0, 0), _MIX_HASHES)]
        pool.append(spawn_key)
        for (src, dst), (xor, mult) in zip(_MIX_ORDER, _MIX_HASHES[4:]):
            value = (pool[src] ^ xor) * mult & _MASK32
            value = (0xCA01F9DD * pool[dst] - 0x4973F715 * (value ^ value >> 16)) & _MASK32
            pool[dst] = value ^ value >> 16
        words = [_hash(pool[i % 4], constants) for i, constants in enumerate(_STATE_HASHES)]
        # Four 64-bit words, each from two 32-bit ones, low word first.
        seed_hi, seed_lo, inc_hi, inc_lo = (words[i] | words[i + 1] << 32 for i in range(0, 8, 2))
        # PCG's seeding: an odd increment from the sequence word, then one
        # step, the state word added, and another step.
        self._inc = (inc_hi << 64 | inc_lo) << 1 & _MASK128 | 1
        self._state = ((self._inc + (seed_hi << 64 | seed_lo)) * _MULTIPLIER + self._inc) & _MASK128
        self._spare: int | None = None

    def _next64(self) -> int:
        state = self._state = (self._state * _MULTIPLIER + self._inc) & _MASK128
        # XSL-RR: the xor-folded word rotated right by the state's top six
        # bits, as a shift of two copies of it side by side.
        return ((state >> 64 ^ state) & _MASK64) * _TWO_COPIES >> (state >> 122) & _MASK64

    def _next32(self) -> int:
        """The spare high half of the last 64-bit draw, else the low half of a new one."""
        spare = self._spare
        if spare is None:
            word = self._next64()
            self._spare = word >> 32
            return word & _MASK32
        self._spare = None
        return spare

    def integers(self, span: int) -> int:
        """``Generator.integers(span)`` for ``1 <= span <= 2**32``: a 32-bit
        draw scaled by ``span``, keeping the high word and redrawing while the
        low word falls under ``(2**32 - span) % span``, the biased share. That
        threshold is below ``span``, so, as in numpy, it is only worked out for
        a low word under ``span``. A span of 1 draws nothing."""
        if span <= 1:
            if span == 1:
                return 0
            raise ValueError(f"span must be at least 1, got {span}")
        spare = self._spare  # _next32, written out on this hot path
        if spare is None:
            word = self._next64()
            self._spare = word >> 32
            m = (word & _MASK32) * span
        else:
            self._spare = None
            m = spare * span
        if m & _MASK32 < span:
            if span > 1 << 32:
                raise ValueError(f"span must be at most 2**32, got {span}")
            threshold = ((1 << 32) - span) % span
            while m & _MASK32 < threshold:
                m = self._next32() * span
        return m >> 32

    def random(self) -> float:
        """``Generator.random()``: the top 53 bits of a 64-bit draw, in [0, 1)."""
        state = self._state = (self._state * _MULTIPLIER + self._inc) & _MASK128  # _next64, written out
        return (((state >> 64 ^ state) & _MASK64) * _TWO_COPIES >> (state >> 122) + 11 & _MASK53) * 2.0**-53
