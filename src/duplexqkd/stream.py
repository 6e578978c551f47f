"""Keyed uniform draws: every draw of a session is a pure function of
(seed, pair, lane, slot).

A lane of a pair is a SplitMix64 generator (Steele, Lea and Flood, "Fast
Splittable Pseudorandom Number Generators", OOPSLA 2014) seeded with its own
key, and draw ``slot`` of it is evaluated directly at its counter, in the
counter-based style of Salmon et al. ("Parallel Random Numbers: As Easy as
1, 2, 3", SC 2011)::

    key  = mix(seed + GAMMA * (LANES * pair + lane + 1))   (mod 2**64)
    bits = mix(key + GAMMA * (slot + 1))                   (mod 2**64)
    u    = (bits >> 11) * 2**-53

``mix`` is the SplitMix64 finalizer and ``GAMMA`` its odd increment, so ``u``
is a 53-bit double in [0, 1).  No draw depends on any other, so a pair can be
replayed alone and many pairs can be drawn at once.  :func:`draw_bits` gives
a draw's 64 bits and :func:`uniform` its ``u``; :func:`threshold_bits` turns
a cut in (0, 1) into the least ``bits`` whose ``u`` reaches it.  The numpy
walk of a session never forms ``u``: it sets the top 53 bits of a draw
against those of each threshold by the borrow of a ``uint64`` subtraction,
so every ufunc it runs sees ``uint64`` alone and numpy builds no casting
loop for it.

The arithmetic is written once.  :func:`stream_key`, :func:`draw_bits` and
:func:`uniform` take a Python integer, for replays, single rounds and
sessions of at most one chunk, or a numpy ``uint64`` array of pairs or keys,
for the chunks of a longer session.  ``mix`` works in place (``z ^= z >>
30``, ``z *= _MIX1``, ``z &= _MASK``, ...), which rebinds an integer and
overwrites an array, so it is only handed fresh values.  Every constant and
every masked term is a non-negative integer below 2**64, so an array stays
``uint64`` and wraps mod 2**64, where ``&= _MASK`` changes nothing, and the
two forms agree bit for bit.  This module never imports numpy.
``STREAM_VERSION`` names this definition in every report.
"""

from __future__ import annotations

import math

__all__ = ["LANES", "STREAM_VERSION", "draw_bits", "stream_key", "threshold_bits", "uniform"]

#: Version of the draw definition above, echoed in every report's config.
STREAM_VERSION = 2

#: Lanes per pair: the honest parties' and the adversary's.
LANES = 2

GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1
_UNIT = 2.0**-53


def _mix(z):
    """SplitMix64's finalizer of ``z`` mod 2**64.  An array ``z`` is
    overwritten, so callers hand it a fresh one."""
    z &= _MASK
    z ^= z >> 30
    z *= _MIX1
    z &= _MASK
    z ^= z >> 27
    z *= _MIX2
    z &= _MASK
    z ^= z >> 31
    return z


def stream_key(seed: int, pair, lane: int):
    """The key of one lane of pair ``pair``, an int or a ``uint64`` array of
    pair indices."""
    return _mix(seed + GAMMA * (LANES * pair + lane + 1))


def draw_bits(key, slot: int):
    """The 64 bits of draw ``slot`` of the lane with key ``key``, an int or a
    ``uint64`` array of keys; :func:`uniform` keeps their top 53."""
    return _mix(key + ((GAMMA * (slot + 1)) & _MASK))


def threshold_bits(cut: float) -> int:
    """The least 64-bit draw whose uniform is at least ``cut``, for ``cut``
    in (0, 1): ``ceil(cut * 2**53) << 11``, below 2**64.  ``cut * 2**53`` is
    exact, and a uniform is ``bits >> 11`` times ``2**-53``, so ``bits >=
    threshold_bits(cut)`` exactly when ``uniform >= cut``.  The numpy walk
    keeps the top 53 bits of both: they are below 2**53, so bit 63 of
    ``(threshold_bits(cut) >> 11) - 1 - (bits >> 11)``, wrapped mod 2**64,
    is set exactly when ``uniform >= cut``."""
    return math.ceil(cut * 2**53) << 11


def uniform(key, slot: int):
    """Draw ``slot`` of the lane with key ``key``, an int or a ``uint64``
    array of keys."""
    return (draw_bits(key, slot) >> 11) * _UNIT
