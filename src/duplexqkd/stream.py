"""Keyed uniform draws: every draw of a session is a pure function of
(seed, pair, lane, slot).

A lane of a pair is a SplitMix64 generator (Steele, Lea and Flood, "Fast
Splittable Pseudorandom Number Generators", OOPSLA 2014) seeded with its own
key, and draw ``slot`` of it is evaluated directly at its counter, in the
counter-based style of Salmon et al. ("Parallel Random Numbers: As Easy as
1, 2, 3", SC 2011)::

    key = mix(seed + GAMMA * (LANES * pair + lane + 1))   (mod 2**64)
    u   = (mix(key + GAMMA * (slot + 1)) >> 11) * 2**-53

``mix`` is the SplitMix64 finalizer and ``GAMMA`` its odd increment, so ``u``
is a 53-bit double in [0, 1).  No draw depends on any other, so a pair can be
replayed alone and many pairs can be drawn at once.

The arithmetic is written twice: in Python integers for one round
(:func:`stream_key`, :func:`uniform`) and in numpy ``uint64``, which wraps
mod 2**64, for many pairs (:func:`stream_keys`, :func:`uniforms`).  The two agree bit for
bit.  ``STREAM_VERSION`` names this definition in every report.
"""

from __future__ import annotations

import numpy as np

__all__ = ["LANES", "STREAM_VERSION", "stream_key", "stream_keys", "uniform", "uniforms"]

#: Version of the draw definition above, echoed in every report's config.
STREAM_VERSION = 2

#: Lanes per pair: the honest parties' and the adversary's.
LANES = 2

GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1
_UNIT = 2.0**-53


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def stream_key(seed: int, pair: int, lane: int) -> int:
    """The key of one lane of one pair."""
    return _mix((seed + GAMMA * (LANES * pair + lane + 1)) & _MASK)


def uniform(key: int, slot: int) -> float:
    """Draw ``slot`` of the lane with this key."""
    return (_mix((key + GAMMA * (slot + 1)) & _MASK) >> 11) * _UNIT


def _mix_array(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> 30)) * np.uint64(_MIX1)
    z = (z ^ (z >> 27)) * np.uint64(_MIX2)
    return z ^ (z >> 31)


def stream_keys(seed: int, pairs: np.ndarray, lane: int) -> np.ndarray:
    """:func:`stream_key` of every pair index in the ``uint64`` array
    ``pairs``."""
    return _mix_array(np.uint64(seed) + np.uint64(GAMMA) * (np.uint64(LANES) * pairs + np.uint64(lane + 1)))


def uniforms(keys: np.ndarray, slot: int) -> np.ndarray:
    """:func:`uniform` of draw ``slot`` of every key in the ``uint64`` array
    ``keys``."""
    return (_mix_array(keys + np.uint64((GAMMA * (slot + 1)) & _MASK)) >> 11).astype(np.float64) * _UNIT
