"""Configurable-precision real scalars.

The default representation is the native 53-bit binary float.  Extended
precision (any mantissa size above 53 bits) is backed by mpmath.  A
``RealContext`` pins the mantissa width; every arithmetic-heavy operation
enters ``ctx.workprec()`` once so that intermediate results round at the
context's precision.  Comparisons are exact on the representation; no hidden
tolerances.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from fractions import Fraction

import mpmath

DEFAULT_BITS = 53
MIN_BITS = 24


def ratio(x) -> tuple[int, int]:
    """(p, q) with q > 0 and p / q the exact value of an int, float, Fraction
    or mpf: an mpf's mantissa over its power of two, else as_integer_ratio.
    Infinities and NaNs raise."""
    if isinstance(x, mpmath.mpf):
        man, exp = x.man_exp
        if not man and exp:
            raise ValueError(f"{x} has no exact value")  # mpmath codes inf/nan so
        return (man << exp, 1) if exp >= 0 else (man, 1 << -exp)
    return x.as_integer_ratio()


def exact(x) -> Fraction:
    """The exact rational value of an int, float, Fraction or mpf (float and
    mpf values are dyadic, so nothing is rounded)."""
    return Fraction(*ratio(x)) if isinstance(x, mpmath.mpf) else Fraction(x)


class RealContext:
    """Arithmetic context with a fixed mantissa bit count."""

    __slots__ = ("bits",)

    def __init__(self, bits: int = DEFAULT_BITS):
        bits = int(bits)
        if bits < MIN_BITS:
            raise ValueError(f"precision_bits must be >= {MIN_BITS}, got {bits}")
        self.bits = bits

    @property
    def native(self) -> bool:
        return self.bits == DEFAULT_BITS

    def workprec(self):
        """Context manager installing this precision for mpmath arithmetic."""
        if self.native:
            return nullcontext()
        return mpmath.workprec(self.bits)

    def make(self, x):
        """Convert x (int, float, Fraction, str, mpf) to this representation."""
        if self.native:
            if isinstance(x, Fraction):
                return x.numerator / x.denominator
            return float(x)
        with mpmath.workprec(self.bits):
            if isinstance(x, Fraction):
                return mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator)
            return mpmath.mpf(x)

    def sqrt(self, x):
        if self.native:
            return math.sqrt(x)
        with mpmath.workprec(self.bits):
            return mpmath.sqrt(x)

    def floor_to_grid(self, x, grid_bits: int):
        """Largest multiple of 2^-grid_bits that is <= x.

        Requires self.bits comfortably above grid_bits for exactness; callers
        enforce their own margin.
        """
        scale = 1 << grid_bits
        if self.native:
            return math.floor(x * scale) / scale
        with mpmath.workprec(self.bits):
            return mpmath.floor(mpmath.mpf(x) * scale) / scale

    @property
    def maximizer_tolerance(self):
        """Tolerance separating equal-revenue plateaus from rounding noise."""
        return self.make(Fraction(1, 1 << (self.bits // 2)))

    def __repr__(self):
        return f"RealContext(bits={self.bits})"

    def __eq__(self, other):
        return isinstance(other, RealContext) and other.bits == self.bits

    def __hash__(self):
        return hash(("RealContext", self.bits))
