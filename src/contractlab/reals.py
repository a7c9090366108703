"""Configurable-precision real scalars.

The default representation is the native 53-bit binary float.  Extended
precision (any mantissa size above 53 bits) is backed by mpmath.  A
``RealContext`` pins the mantissa width; every arithmetic-heavy operation
enters ``ctx.workprec()`` once so that intermediate results round at the
context's precision.  Comparisons are exact on the representation; no hidden
tolerances.

The square-root recurrences of the constructions run on plain ints instead:
a value is a pair (man, exp) standing for man * 2^exp, and each operation
below returns its exact result rounded to prec bits, to nearest with ties
to even, as mpmath's round_nearest rounds.  So every step gives the mpf
that mpmath would give at that precision, bit for bit, without mpmath's
per-operation overhead; mpf_exact turns a pair into that mpf.

An extended-precision table is held the same way: dyadic_ints puts its
pairs on one power of two, and an MpfTable reads them back as mpfs, one
entry at a time, so the ints are the only copy kept.  A rational table
built as ints over any scale is held so too, its entries read back as
Fractions.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from fractions import Fraction
from functools import reduce
from itertools import compress, repeat
from operator import eq, or_

import mpmath

DEFAULT_BITS = 53
MIN_BITS = 24
# far above the constructions' 720 bits at n = 24, and within what an
# instance file can carry: its decimal ints (about 2,470 digits at 8,192
# bits) stay under Python's 4,300-digit limit on int-string conversion
MAX_BITS = 1 << 13


def ratio(x) -> tuple[int, int]:
    """(p, q) with q > 0 and p / q the exact value of an int, float, Fraction
    or mpf: an mpf's mantissa over its power of two, else as_integer_ratio.
    Infinities and NaNs raise."""
    if isinstance(x, mpmath.mpf):
        sign, man, exp, _ = x._mpf_  # man_exp would drop the sign
        if not man and exp:
            raise ValueError(f"{x} has no exact value")  # mpmath codes inf/nan so
        if sign:
            man = -man
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
        if bits > MAX_BITS:
            raise ValueError(f"precision_bits must be <= {MAX_BITS}, got {bits}")
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


def round_nearest(man: int, exp: int, prec: int) -> tuple[int, int]:
    """man * 2^exp rounded to prec bits, to nearest with ties to even.  The
    mantissa keeps its sign and is not stripped of trailing zeros; zero
    gives (0, 0)."""
    if not man:
        return 0, 0
    mag = -man if man < 0 else man
    shift = mag.bit_length() - prec
    if shift <= 0:
        return man, exp
    half = 1 << (shift - 1)
    low = mag & ((half << 1) - 1)
    mag >>= shift
    if low > half or (low == half and mag & 1):
        mag += 1
    return (-mag if man < 0 else mag), exp + shift


def add_nearest(m1: int, e1: int, m2: int, e2: int, prec: int) -> tuple[int, int]:
    """m1 * 2^e1 + m2 * 2^e2, rounded as round_nearest rounds."""
    if e1 > e2:
        return round_nearest((m1 << (e1 - e2)) + m2, e2, prec)
    return round_nearest(m1 + (m2 << (e2 - e1)), e1, prec)


def sqrt_nearest(man: int, exp: int, prec: int) -> tuple[int, int]:
    """sqrt(man * 2^exp) for man >= 0, rounded as round_nearest rounds: the
    root is taken to at least prec + 2 bits and its low bit set when the
    remainder is nonzero (mpmath's mpf_sqrt does the same), so the one
    rounding that follows is the rounding of the exact root."""
    if exp & 1:
        man <<= 1
        exp -= 1
    shift = max(0, 2 * prec + 4 - man.bit_length())
    shift += shift & 1
    man <<= shift
    root = math.isqrt(man)
    if root * root != man:
        root = (root << 1) | 1
        shift += 2
    return round_nearest(root, (exp - shift) // 2, prec)


def reciprocal_nearest(man: int, exp: int, prec: int) -> tuple[int, int]:
    """1 / (man * 2^exp) for man > 0, rounded as round_nearest rounds, with
    the same sticky low bit as sqrt_nearest."""
    shift = prec + 2 + man.bit_length()
    quot, rem = divmod(1 << shift, man)
    if rem:
        quot = (quot << 1) | 1
        shift += 1
    return round_nearest(quot, -exp - shift, prec)


def mpf_exact(man: int, exp: int) -> mpmath.mpf:
    """The mpf of man * 2^exp exactly, as its normalized tuple (sign, odd
    mantissa, exponent, bit count)."""
    if not man:
        return mpmath.mp.make_mpf(mpmath.libmp.fzero)
    sign, man = man < 0, abs(man)
    zeros = (man & -man).bit_length() - 1
    man >>= zeros
    return mpmath.mp.make_mpf((int(sign), man, exp + zeros, man.bit_length()))


def dyadic_ints(mans, exps) -> tuple[list, int]:
    """(ints, k) with ints[i] == mans[i] * 2^(exps[i] + k) exactly, for the
    least k >= 0 that makes every one an int; a zero mantissa reads as 0
    whatever its exponent.  So ints over 2^k are the ints over the scale
    that core._scaled_ints gives the same values."""
    k = max(0, -min(compress(exps, mans), default=0))
    ints = [m << e + k if m else 0 for m, e in zip(mans, exps)]
    low = reduce(or_, ints, 0)
    shift = min(k, (low & -low).bit_length() - 1) if low else 0
    if shift:
        k -= shift
        ints = [v >> shift for v in ints]
    return ints, k


class MpfTable:
    """A read-only table held as ints over one positive scale: entry m is
    ints[m] / scale.  Over a power of two with rational False, reading an
    entry builds its mpf (mpf_exact, the normalized tuple); with rational
    True it reads as Fraction(ints[m], scale).  Iterating builds each entry
    in turn; only the ints are kept, so the table is its own scaled form
    (ints, scale, rational).  It compares == to a tuple of the same values,
    in either order, as a tuple of its entries would.  Not a
    collections.abc.Sequence, whose isinstance checks would slow every
    oracle built from a table."""

    __slots__ = ("ints", "scale", "rational", "_entry", "_arg")

    def __init__(self, ints, scale: int, rational: bool):
        if scale < 1 or not rational and scale & (scale - 1):
            raise ValueError("an MpfTable needs a positive scale, a power of two for mpfs")
        self.ints = tuple(ints)
        self.scale = scale
        self.rational = rational
        # entry m is _entry(ints[m], _arg), the builder chosen once here
        if rational:
            self._entry, self._arg = Fraction, scale
        else:
            self._entry, self._arg = mpf_exact, 1 - scale.bit_length()

    def __len__(self):
        return len(self.ints)

    def __getitem__(self, m):
        return self._entry(self.ints[m], self._arg)

    def __iter__(self):
        return map(self._entry, self.ints, repeat(self._arg))

    def __eq__(self, other):
        if not isinstance(other, (tuple, MpfTable)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))
