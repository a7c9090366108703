"""Exact reference answers, derived only from an instance's f and c tables.

Nothing here imports contractlab.  Table entries arrive as int, Fraction,
float or mpmath.mpf; float and mpf values are dyadic, so each converts to a
Fraction exactly.  A whole table is then held as Python ints over one common
denominator, and every comparison is exact.

An answer computed in float or mpf arithmetic can differ from the exact
argmax only where two utilities lie within rounding of each other.  Such an
answer is accepted when its exact utility is within ``rounding_slack`` of the
exact maximum; answers from exact (int and Fraction) inputs must match the
exact argmax and its tie-break (higher f, then lower index) outright.
"""

from __future__ import annotations

import math
import random
import statistics
from fractions import Fraction


def exact(x) -> Fraction:
    """The exact rational value of an int, Fraction, float or mpmath.mpf."""
    if isinstance(x, bool):
        raise TypeError("bool is not a table value")
    if isinstance(x, (int, Fraction, float)):
        return Fraction(x)
    raw = getattr(x, "_mpf_", None)  # mpmath.mpf: (sign, mantissa, exponent, bitcount)
    if raw is None:
        raise TypeError(f"cannot convert {type(x).__name__} exactly")
    sign, man, exp, _ = raw
    if man == 0 and exp != 0:
        raise ValueError("infinite or NaN table value")
    value = Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)
    return -value if sign else value


def is_exact(values) -> bool:
    """True when every value is an int or a Fraction (no rounding happened)."""
    return all(isinstance(v, (int, Fraction)) and not isinstance(v, bool) for v in values)


def parse_number(text: str) -> Fraction:
    """Inverse of the CLI's number format: hex float, p/q, or mantissa p exponent."""
    text = text.strip()
    if text.startswith(("0x", "-0x")):
        return Fraction(float.fromhex(text))
    if "/" in text:
        num, den = text.split("/")
        return Fraction(int(num), int(den))
    if "p" in text:
        man, exp = (int(part) for part in text.split("p"))
        return Fraction(man) * Fraction(2) ** exp
    return Fraction(int(text))


def rounding_slack(bits: int, n: int, magnitude: Fraction) -> Fraction:
    """Largest utility gap that rounding at ``bits`` mantissa bits can hide.

    A utility is a sum of at most n + 1 rounded terms of size <= magnitude, so
    each carries an error below (n + 1) 2^-bits magnitude; a comparison of two
    such utilities can err by twice that.  The slack doubles it once more.
    """
    return Fraction((n + 2) * 4, 1 << bits) * magnitude


def maximizer_tolerance(bits: int) -> Fraction:
    """2^-(bits // 2): the documented tolerance on principal utilities."""
    return Fraction(1, 1 << (bits // 2))


class Table:
    """A 2^n-entry set-function table as ints over one positive denominator."""

    def __init__(self, values):
        fractions = [exact(v) for v in values]
        self.n = (len(fractions) - 1).bit_length()
        if len(fractions) != 1 << self.n:
            raise ValueError("table length is not a power of two")
        self.den = math.lcm(*(v.denominator for v in fractions))
        self.ints = [v.numerator * (self.den // v.denominator) for v in fractions]

    def __len__(self):
        return len(self.ints)

    def value(self, mask: int) -> Fraction:
        return Fraction(self.ints[mask], self.den)

    def magnitude(self) -> Fraction:
        return Fraction(max(abs(v) for v in self.ints), self.den)


def additive(prices) -> Table:
    """Table of p(S) = sum of p_i over i in S, for a price vector."""
    p = [exact(x) for x in prices]
    sums = [Fraction(0)] * (1 << len(p))
    for mask in range(1, 1 << len(p)):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + p[low.bit_length() - 1]
    return Table(sums)


def argmax(util, tie) -> int:
    """Max util; ties to max tie; then the lowest index."""
    best = 0
    for m in range(1, len(util)):
        if util[m] > util[best] or (util[m] == util[best] and tie[m] > tie[best]):
            best = m
    return best


def _difference(a: Table, b: Table, wa: Fraction = Fraction(1)):
    """Integer utilities proportional to wa * a - b, and their positive scale."""
    p, q = wa.numerator, wa.denominator
    ka, kb = p * b.den, q * a.den
    scale = q * a.den * b.den
    return [ka * x - kb * y for x, y in zip(a.ints, b.ints)], scale


def check_argmax(util, scale, tie, answer: int, slack: Fraction) -> bool:
    """Whether ``answer`` is the exact argmax (slack 0) or within slack of it."""
    best = argmax(util, tie)
    if slack == 0:
        return answer == best
    return Fraction(util[best] - util[answer], scale) <= slack


def best_response_ok(f: Table, c: Table, alpha: Fraction, answer: int, bits) -> bool:
    """Brute-force best response at alpha; bits None means exact arithmetic."""
    util, scale = _difference(f, c, alpha)
    slack = 0
    if bits is not None:
        slack = rounding_slack(bits, f.n, abs(alpha) * f.magnitude() + c.magnitude())
    return check_argmax(util, scale, f.ints, answer, slack)


def demand_ok(f: Table, prices, answer: int, bits) -> bool:
    """Brute-force demand max f(S) - p(S), ties to higher f."""
    p = additive(prices)
    util, scale = _difference(f, p)
    slack = 0 if bits is None else rounding_slack(bits, f.n, f.magnitude() + p.magnitude())
    return check_argmax(util, scale, f.ints, answer, slack)


def supply_ok(c: Table, prices, answer: int, bits) -> bool:
    """Brute-force supply max p(S) - c(S), ties to higher c."""
    p = additive(prices)
    util, scale = _difference(p, c)
    slack = 0 if bits is None else rounding_slack(bits, c.n, c.magnitude() + p.magnitude())
    return check_argmax(util, scale, c.ints, answer, slack)


def breakpoints(f: Table, c: Table):
    """Exact critical values: [(alpha, mask, principal utility)] in alpha order.

    The agent's best responses trace the lower convex hull of the points
    (f(S), c(S)) from the alpha = 0 response; the slopes between successive
    hull vertices below 1 are the critical values.
    """
    F = [x * c.den for x in f.ints]  # common denominator f.den * c.den
    C = [y * f.den for y in c.ints]
    size = len(F)
    start = argmax([-y for y in C], F)
    lowest = {}
    for m in range(size):  # per f value, the cheapest set (lowest index on ties)
        if F[m] not in lowest or C[m] < C[lowest[F[m]]]:
            lowest[F[m]] = m
    hull = []
    for fv in sorted(lowest):
        m = lowest[fv]
        if F[m] < F[start]:
            continue
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            # drop b unless it lies strictly below segment a-m
            if (F[b] - F[a]) * (C[m] - C[a]) <= (F[m] - F[a]) * (C[b] - C[a]):
                hull.pop()
            else:
                break
        hull.append(m)
    den = f.den * c.den
    out = [(Fraction(0), hull[0], Fraction(F[hull[0]], den))]
    for prev, cur in zip(hull, hull[1:]):
        alpha = Fraction(C[cur] - C[prev], F[cur] - F[prev])
        if alpha >= 1:
            break
        out.append((alpha, cur, (1 - alpha) * Fraction(F[cur], den)))
    return out


class SolveReference:
    """Exact optimum of one instance, for checking reported solutions."""

    def __init__(self, ftab, ctab, bits: int):
        self.f = Table(ftab)
        self.c = Table(ctab)
        self.exact = is_exact(ftab) and is_exact(ctab)
        self.bits = bits
        self.tol = maximizer_tolerance(bits)
        self.table = breakpoints(self.f, self.c)
        self.optimum = max(u for _, _, u in self.table)

    def arithmetic_bits(self, *params):
        """None when the tables and parameters are exact, else the precision."""
        return None if self.exact and is_exact(params) else self.bits

    def solution_ok(self, alpha, mask: int, utility=None, exact_params=True, eps=0) -> bool:
        """A reported (alpha, S, u): S is a best response at alpha, u (when
        reported) its principal utility within tolerance, and that utility at
        least (1 - eps) times the exact optimum, within tolerance."""
        a = exact(alpha)
        bits = None if (self.exact and exact_params) else self.bits
        if not best_response_ok(self.f, self.c, a, mask, bits):
            return False
        achieved = (1 - a) * self.f.value(mask)
        if utility is not None and abs(exact(utility) - achieved) > self.tol:
            return False
        return achieved >= (1 - exact(eps)) * self.optimum - self.tol


def structure_verdicts(tab: Table, declared_class: str, bits) -> set:
    """Verdicts an exhaustive weak monotonicity and weak (sub/super)modularity
    check may return for this table: {False} with a violation beyond rounding,
    {True} with no violation at all, and both when every violation is within
    the rounding of a difference of four table values (bits None: exact)."""
    n = tab.n
    v = tab.ints
    slack = 0 if bits is None else rounding_slack(bits, 2, tab.magnitude()) * tab.den
    borderline = False

    def violated(amount):  # amount > 0 measures a violation, scaled by tab.den
        nonlocal borderline
        if amount > slack:
            return True
        borderline = borderline or amount > 0
        return False

    for m in range(1 << n):
        for i in range(n):
            bi = 1 << i
            if m & bi:
                continue
            marg = v[m | bi] - v[m]
            if violated(-marg):
                return {False}
            if declared_class == "general-monotone":
                continue
            for j in range(n):
                bj = 1 << j
                if j == i or m & bj:
                    continue
                diff = marg - (v[m | bj | bi] - v[m | bj])  # >= 0 iff diminishing
                if declared_class == "submodular":
                    amount = -diff
                elif declared_class == "supermodular":
                    amount = diff
                else:
                    amount = abs(diff)
                if violated(amount):
                    return {False}
    return {True, False} if borderline else {True}


def sparseness_ceiling(n: int) -> int:
    """2(n+1)(n+2): the proved cap on sigma-approximate demand sets."""
    return 2 * (n + 1) * (n + 2)


def approx_demand_ok(f: Table, prices, sigma, members, bits: int) -> bool:
    """Members are exactly {S : f(S) - p(S) >= max - sigma}, except sets whose
    utility lies within rounding of the cut, which may fall either way."""
    p = additive(prices)
    util, scale = _difference(f, p)
    cut = Fraction(max(util), scale) - exact(sigma)
    slack = rounding_slack(bits, f.n, f.magnitude() + p.magnitude() + abs(exact(sigma)))
    got = set(members)
    for m, u in enumerate(util):
        gap = Fraction(u, scale) - cut
        if abs(gap) <= slack:
            continue
        if (gap > 0) != (m in got):
            return False
    return True


def census(members, n: int) -> dict:
    """Members bucketed by minimal ambiguous action (n + 1 if none)."""
    intervals = []
    for i in range(1, n + 1):
        bit = 1 << (i - 1)
        r = max((t for t in members if t & bit), default=0)
        intervals.append((i, max(r - (1 << i), 0), r))
    buckets = {i: 0 for i in range(1, n + 2)}
    for t in members:
        star = next((i for i, lo, hi in intervals if lo <= t <= hi), n + 1)
        buckets[star] += 1
    return buckets


def census_ok(buckets: dict, members, n: int) -> bool:
    """Census equal to the recount, within the per-bucket caps."""
    want = census(members, n)
    caps_ok = all(cnt <= (4 * i if i <= n else n + 1) for i, cnt in want.items())
    return caps_ok and dict(buckets) == want and len(members) <= sparseness_ceiling(n)


def value_query_ok(stats, n: int, trials: int, seed: int) -> bool:
    """The scan strategy's query count per trial is the hidden index itself,
    drawn uniformly from [1, 2^n - 1] by random.Random(seed)."""
    rng = random.Random(seed)
    counts = [rng.randrange(1, 1 << n) for _ in range(trials)]
    return (
        stats.identified_all
        and stats.trials == trials
        and stats.mean_queries == statistics.fmean(counts)
        and stats.exact_expectation == (1 << n) / 2
    )
