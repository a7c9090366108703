"""Set functions, the subset/integer bijection, oracles, and query accounting.

An action set over ground set [n] = {1, ..., n} is identified with the
integer t = sum of 2^(i-1) over actions i in the set, which is exactly the
bitmask with bit i-1 set.  Mask and index are therefore one and the same int.

Every oracle holds its table's exact form, ints over one scale, and every
demand, supply and D^sigma query is answered exactly on it by one scorer: a
float pass keeps the sets a proven rounding bound puts near the top
(_near_top), and ints decide among them (_scores).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from operator import sub

import mpmath

from .reals import MpfTable, RealContext, ratio

MAX_N = 24

TIE_BREAK_RULE = "higher_f_then_lower_index"


class DegenerateContractError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class ActionSet:
    """A subset of [n], carried as a bitmask (== its subset index)."""

    n: int
    mask: int

    def __post_init__(self):
        if not (1 <= self.n <= MAX_N):
            raise ValueError(f"ground-set size must be in [1, {MAX_N}], got {self.n}")
        if not (0 <= self.mask < (1 << self.n)):
            raise ValueError(f"index {self.mask} out of range for n={self.n}")

    def members(self) -> tuple[int, ...]:
        return tuple(i + 1 for i in range(self.n) if (self.mask >> i) & 1)

    def __contains__(self, action: int) -> bool:
        return 1 <= action <= self.n and bool((self.mask >> (action - 1)) & 1)

    def __repr__(self):
        return "{" + ",".join(map(str, self.members())) + "}"


@dataclass
class QueryLedger:
    """Monotone counters for the four oracle kinds."""

    value_queries: int = 0
    demand_queries: int = 0
    supply_queries: int = 0
    best_response_queries: int = 0

    def count(self, kind: str, argument=None) -> None:
        """One more query of the kind.  argument, the query's input, is not
        kept; it stays in the signature so a wrapper can record it."""
        setattr(self, kind, getattr(self, kind) + 1)

    def reset(self) -> None:
        self.value_queries = 0
        self.demand_queries = 0
        self.supply_queries = 0
        self.best_response_queries = 0


DECLARED_CLASSES = ("additive", "submodular", "supermodular", "general-monotone")


class SetFunctionOracle:
    """A value-queryable set function with a declared structure class.

    The oracle holds its full 2^n table, read-only, and the table's exact
    form (scaled), dropped whenever the table is set, so no entry can change
    under a hull or a score built from them.  So are origin, (parent,
    parent's exact form, ks) for an oracle made by parent.with_entries at
    positions ks on parent's scale, and verdict, a structure verdict
    constructions.verify_structure keeps on a parent.
    Query instrumentation lives in the attached ledger.  Exactly one of
    ``table`` and ``weights``:
      table      -- a reals.MpfTable, kept as it is (its own exact form), or
                    a list of 2^n values indexed by subset index, kept as a
                    tuple (its exact form built on first use), or as the
                    rational MpfTable of its ints when every entry is a
                    Fraction; an infinite or NaN entry raises ValueError,
      weights    -- per-action values of an additive function (w[i-1] for i).
    """

    def __init__(
        self,
        n: int,
        *,
        table=None,
        weights=None,
        declared_class: str = "general-monotone",
        name: str = "",
        ledger: QueryLedger | None = None,
    ):
        if not (1 <= n <= MAX_N):
            raise ValueError(f"ground-set size must be in [1, {MAX_N}], got {n}")
        if declared_class not in DECLARED_CLASSES:
            raise ValueError(f"unknown declared_class {declared_class!r}")
        if (table is None) == (weights is None):
            raise ValueError("exactly one of table, weights required")
        self.n = n
        self.declared_class = declared_class
        self.name = name
        self.ledger = ledger if ledger is not None else QueryLedger()
        self.weights = list(weights) if weights is not None else None
        if weights is not None:
            if len(self.weights) != n:
                raise ValueError("weights must have one entry per action")
            table = tuple(additive_table(self.weights))
            if all(type(w) is int for w in self.weights):
                self._hold(table, (table, 1, True))  # int sums are their own form
                return
        self.table = table

    @property
    def table(self):
        """The full 2^n table; setting it drops its exact form and view."""
        return self._table

    @table.setter
    def table(self, table):
        if isinstance(table, MpfTable):
            self._hold(table, (table.ints, table.scale, table.rational))
            return
        table = tuple(table)
        kinds = set(map(type, table))
        if kinds == {Fraction}:  # held as its ints; a mix stays a tuple
            self.table = MpfTable(*_scaled_ints(table, kinds))
            return
        if kinds == {float}:
            finite = all(map(math.isfinite, table))
        else:  # v - v is NaN for an infinite or NaN float or mpf, else 0
            finite = kinds <= _RATIONAL or all(v - v == 0 for v in table)
        if not finite:
            raise ValueError("table entries must be finite")
        self._hold(table, kinds)  # scaled() converts on first use, reading kinds

    def _hold(self, table, form):
        """Hold table with form, its exact form or the set of its entries'
        types to build it from; whatever was kept for the old table (float
        view, origin, verdict) is dropped."""
        if len(table) != 1 << self.n:
            raise ValueError("table must list all 2^n subset values")
        self._table, self._form, self._view = table, form, None
        self.origin = self.verdict = None

    def value_table(self):
        """Full 2^n table: a tuple, or an MpfTable (see the class docstring).
        The same object as the table attribute, kept as a method because
        the benchmark (bench/) reads tables through it."""
        return self._table

    def scaled(self):
        """(ints, scale, rational): the table's exact form, ints[m] ==
        table[m] * scale (see _scaled_ints), built on first use and kept
        until the table is set again; an MpfTable's own ints, not copied."""
        form = self._form
        if type(form) is not tuple:  # the entry types the table setter found
            ints, scale, rational = _scaled_ints(self._table, form)
            form = self._form = tuple(ints), scale, rational
        return form

    def float_view(self):
        """(view, top): view[m] the float nearest entry m and top at least
        the greatest |view[m]| (a family member's is its base's top or its
        own entry's, see with_entries), built on first use.  A table of
        floats is its own view; any other divides its ints by its scale,
        rounding once.  An entry out of float range leaves the view empty
        and top infinite."""
        if self._view is None:
            table = self._table
            if type(table) is tuple and all(type(v) is float for v in table):
                view = table
            else:
                ints, scale, _ = self.scaled()
                try:
                    view = [v / scale for v in ints]
                except OverflowError:
                    view = []
            self._view = view, max(map(abs, view), default=math.inf)
        return self._view

    def with_entries(self, ks, kints, scale: int, name: str, entries=None) -> "SetFunctionOracle":
        """A new oracle (own ledger, same declared class): this table with
        entry ks[i] replaced by the value held exactly as kints[i] / scale,
        scale a positive multiple of this table's, the positions ks distinct
        and in [0, 2^n), one int per position, else ValueError.  Its exact
        form is this one's ints over that scale with those ints replaced, so
        no other entry is converted.  entries are the new entries themselves,
        each kints[i] / scale exactly, else ValueError; None, for an MpfTable,
        reads them off the ints as its own entries.  An MpfTable stays one
        when the new entries have its entries' type, else it becomes a tuple.
        On this table's scale the new oracle records its origin, (this
        oracle, this exact form, ks) (moved_from), until its table is set;
        on a finer one its origin is None.
        When this oracle's float view is built, the new one gets it with the
        entries replaced (the new table itself when both are float tuples),
        and top the greatest of this top and the new entries' |view|."""
        ints, own_scale, rational = form = self.scaled()
        ks = tuple(ks)
        if scale < 1 or scale % own_scale:
            raise ValueError(f"scale {scale} is not a positive multiple of the table's {own_scale}")
        if len(kints) != len(ks) or not all(0 <= k < len(ints) for k in ks):
            raise ValueError(f"with_entries needs one int per position, each in [0, {len(ints)})")
        if len(set(ks)) != len(ks):
            raise ValueError("with_entries needs distinct positions")
        if entries is not None and (len(entries) != len(ks) or any(
                p * scale != kint * q for (p, q), kint in zip(map(ratio, entries), kints))):
            raise ValueError("with_entries needs one entry per position, its int over scale")
        mult = scale // own_scale
        ints = list(ints) if mult == 1 else [v * mult for v in ints]
        for i, k in enumerate(ks):
            ints[k] = kints[i]
        table = self._table
        if entries is None:
            if type(table) is not MpfTable:
                raise ValueError("a tuple table needs its new entries")
            kinds, same = None, True
        else:
            kinds = {*map(type, entries)}
            rational = rational and kinds <= _RATIONAL
            same = type(table) is MpfTable and kinds <= {Fraction if table.rational else mpmath.mpf}
        if same:
            table = MpfTable(ints, scale, rational)
            ints = table.ints
        else:
            body = list(table)
            for i, k in enumerate(ks):
                body[k] = entries[i]
            table = tuple(body)
        new = SetFunctionOracle.__new__(SetFunctionOracle)
        new.n, new.declared_class, new.name = self.n, self.declared_class, name
        new.ledger, new.weights = QueryLedger(), None
        new._hold(table, (tuple(ints), scale, rational))
        new.origin = (self, form, ks) if mult == 1 else None
        if self._view is not None:
            view, top = self._view
            if view is self._table and kinds == _FLOATS:
                view = table
            elif view:
                view = list(view)
                try:
                    for i, k in enumerate(ks):
                        view[k] = kints[i] / scale
                except OverflowError:
                    view = []
            for k in ks if view else ():
                top = max(top, abs(view[k]))
            new._view = view, top if view else math.inf
        return new

    def moved_from(self, parent: "SetFunctionOracle"):
        """The positions at which this oracle's exact form may differ from
        parent's: () for parent itself; the recorded positions when this
        oracle was made from parent (with_entries, on parent's scale) and
        parent's exact form is still the one recorded, so every other int
        is parent's own object (both forms are immutable, and setting a
        table drops its form); else None.  No int is read."""
        if self is parent:
            return ()
        origin = self.origin
        return origin[2] if origin and origin[0] is parent and origin[1] is parent._form else None


def additive_table(weights) -> list:
    """Subset-sum table over all masks, via one addition per entry.

    Doubling from the last weight to the first: the even slots keep the
    table so far, the odd slots add the weight.  Each entry so adds its
    weights from the highest action down to the lowest, starting from int
    0; that order fixes how float and mpf entries round.
    """
    table = [0]
    for w in reversed(weights):
        doubled = table * 2
        doubled[::2] = table
        doubled[1::2] = [v + w for v in table]
        table = doubled
    return table


_INTS = frozenset((int, bool))
_RATIONAL = _INTS | {Fraction}
_FLOATS = frozenset((float,))


def _scaled_ints(tab, kinds=None):
    """(ints, scale, rational) with ints[m] == tab[m] * scale exactly.

    Entries may be ints, Fractions, floats and mpfs, mixed; kinds is the
    set of their types when the caller has it, else it is found here.
    Each entry's exact ratio (as_integer_ratio, or an mpf's mantissa over
    its power of two) goes over the LCM of the denominators, a power of two
    for float and mpf tables, so no Fraction is built.  rational says every entry is
    an int or a Fraction.  Scaling by a positive constant keeps every order,
    equality and sign of differences and their products, and int arithmetic
    is exact where float and mpf arithmetic round, and far cheaper than
    Fraction arithmetic.
    """
    if kinds is None:
        kinds = set(map(type, tab))
    if kinds <= _INTS:
        return list(tab), 1, True
    if any(issubclass(k, mpmath.mpf) for k in kinds):
        ratios = [ratio(v) for v in tab]
    else:
        ratios = [v.as_integer_ratio() for v in tab]
    if Fraction not in kinds:  # every denominator a power of two: the LCM is the greatest
        scale = max([q for _, q in ratios])
        k = scale.bit_length()
        return [p << k - q.bit_length() for p, q in ratios], scale, False
    dens = {q for _, q in ratios}
    scale = math.lcm(*dens)
    mult = {q: scale // q for q in dens}
    return [p * mult[q] for p, q in ratios], scale, kinds <= _RATIONAL


def _alpha_scores(alpha, f_ints, f_scale, c_ints, c_scale):
    """(scores, factor): scores[k] = p s_c F_k - q s_f C_k for alpha = p / q
    and scaled ints F, C of f and c over scales s_f, s_c, which is
    factor = q s_f s_c times the utility alpha f - c, exactly."""
    p, q = ratio(alpha)
    pf, qc = p * c_scale, q * f_scale
    return [pf * fv - qc * cv for fv, cv in zip(f_ints, c_ints)], qc * c_scale


def value(oracle: SetFunctionOracle, s: ActionSet):
    """Instrumented value query."""
    if s.n != oracle.n:
        raise ValueError("action set over a different ground set")
    oracle.ledger.count("value_queries", s.mask)
    return oracle._table[s.mask]


_FLOAT_REACH = 2.0**1000  # beyond it a price sum or a utility could overflow
_UNDERFLOW = 2.0**-1060  # above the few dozen underflows of 2^-1074 a pass can make


def _sigma_ratio(sigma) -> tuple[int, int]:
    """sigma's exact ratio (a, b); ValueError for a NaN, infinite or
    negative sigma."""
    try:
        a, b = ratio(sigma)
    except (OverflowError, ValueError):  # inf and NaN have no exact ratio
        a = -1
    if a < 0:
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    return a, b


def _price_sums(p_ints, masks, size: int) -> list:
    """The sum of p_ints[i] over the bits i of each mask, read off the
    whole table (additive_table) when the masks are many."""
    if len(masks) * len(p_ints) >= size:
        table = additive_table(p_ints)
        return [table[m] for m in masks]
    return [sum(p for i, p in enumerate(p_ints) if m >> i & 1) for m in masks]


def _near_top(kind: str, x: SetFunctionOracle, prices, sigma=0):
    """The masks whose float utility is within reach of the float top less
    sigma, in increasing order: a superset of D^sigma, and so of the argmax
    (sigma = 0).  Every mask (a range) when a price, the view or sigma
    leaves float range, a NaN or infinite price among them (_scores then
    refuses it).  ValueError first for a wrong number of prices and a NaN,
    infinite or negative sigma.

    The bound.  The pass scores the float view F (float_view) against the
    prices rounded to floats q_i, summed as additive_table sums them, Q.
    With u = 2^-53 every float step rounds to nearest, off by at most u
    times its result (a conversion that underflows by 2^-1074 more; sums
    and differences that underflow are exact).  So for demand (supply
    alike) w_m = F_m - Q_m is off the exact u_m = v_m - P_m by at most
    u |v_m| (the view; 0 on a float table) + u sum |p_i| (the prices) +
    (n - 1) u sum |q_i| (the additions of Q_m) + u |F_m - Q_m|: by
    E = (n + 1) u (S + V) to first order, S = sum |p_i|, V the view's top,
    at least max |F_m| (float_view); a larger V only keeps more masks.
    A set of D^sigma has u_m >= u* - sigma, and the float top has
    w_t <= u_t + E <= u* + E, so w_m >= u_m - E >= w_t - sigma - 2E.  The
    pass keeps every m with w_m >= (w_t - sigma) - B in floats, where
      B = (n + 4) 2^-52 (S + V + sigma) + 2^-1060.
    B exceeds 2E = 2 (n + 1) u (S + V) by 6 u (S + V) + 2 (n + 4) u sigma,
    which covers the roundings of sigma and of the cut (2 u (S + V) +
    3 u sigma to first order), of S, V and B, and every second-order term
    (n^2 u^2 (S + V), n <= 24); 2^-1060 covers the underflows.  Float
    range, S + V + sigma <= 2^1000, keeps every step finite.
    """
    if len(prices) != x.n:
        raise ValueError("need one price per action")
    a, b = _sigma_ratio(sigma)
    view, top = x.float_view()
    try:
        prices = list(map(float, prices))
        sig = a / b
    except OverflowError:
        return range(1 << x.n)
    total = sum(map(abs, prices)) + top + sig
    if not total <= _FLOAT_REACH:
        return range(1 << x.n)
    psum = additive_table(prices)
    if kind == "demand":
        w = [v - p for v, p in zip(view, psum)]
    else:
        w = [p - v for v, p in zip(view, psum)]
    cut = max(w) - sig - ((x.n + 4) * 2.0**-52 * total + _UNDERFLOW)
    return [m for m, u in enumerate(w) if u >= cut]


def _scores(kind: str, x: SetFunctionOracle, prices, masks):
    """(util, tie, factor, p_ints) at masks: the one exact scorer of demand
    and supply queries, over the masks the float pass keeps (_near_top) or
    the members a simulation reads.

    kind "demand": x is the reward oracle; utility f - p, tie f.  "supply":
    x is the cost oracle; utility p - c, tie c.  With x's exact form, ints
    V over s_v (SetFunctionOracle.scaled), and the prices' exact ratios
    p_ints over their LCM s_p (a power of two for float and mpf prices),
    util[j] = V s_p - P s_v at masks[j] for demand, factor = s_v s_p times
    its utility, and tie[j] = V, all ints, whatever the table's
    representation.  A NaN or infinite price raises ValueError, as does a
    wrong number of prices.
    """
    if len(prices) != x.n:
        raise ValueError("need one price per action")
    try:
        p_ints, p_scale, _ = _scaled_ints(prices)
    except (OverflowError, ValueError):  # a float's or mpf's inf or nan
        raise ValueError("prices must be finite") from None
    ints, v_scale, _ = x.scaled()
    vals = [ints[m] for m in masks]
    psum = _price_sums(p_ints, masks, len(ints))
    if kind == "demand":
        util = [v * p_scale - p * v_scale for v, p in zip(vals, psum)]
    else:
        util = [p * v_scale - v * p_scale for v, p in zip(vals, psum)]
    return util, vals, v_scale * p_scale, p_ints


def _argmax(util, tie) -> int:
    """The position of the greatest util, ties to the greatest tie value,
    then to the lowest position: TIE_BREAK_RULE when positions run in
    increasing mask order.  util is a list, tie indexable alike; only the
    positions tied at the top are visited (util.index)."""
    top = max(util)
    best = m = util.index(top)
    ties = util.count(top)
    if ties > 1:
        best_tie = tie[best]
        for _ in range(ties - 1):
            m = util.index(top, m + 1)
            if tie[m] > best_tie:
                best, best_tie = m, tie[m]
    return best


def _within(util, factor, sigma) -> list:
    """D^sigma: every position m with util[m] >= max(util) - sigma, in
    increasing order, for ints util, factor times the utilities (_scores,
    _alpha_scores).  The cut is exact: for ints u and top, u >= top - sigma
    factor iff u >= top - floor(sigma factor).  A NaN, infinite or negative
    sigma raises ValueError before any comparison."""
    a, b = _sigma_ratio(sigma)
    cut = max(util) - a * factor // b
    return [m for m, u in enumerate(util) if u >= cut]


def _argmax_query(kind: str, x: SetFunctionOracle, prices) -> ActionSet:
    """The exact argmax: the one mask the float pass keeps, else the argmax
    of _scores over the masks it keeps."""
    masks = _near_top(kind, x, prices)
    best = masks[0] if len(masks) == 1 else masks[_argmax(*_scores(kind, x, prices, masks)[:2])]
    x.ledger.count(kind + "_queries")
    return ActionSet(x.n, best)


def demand(f: SetFunctionOracle, prices, ctx: RealContext | None = None) -> ActionSet:
    """Set maximizing f(S) - p(S); ties to higher f, then lower index.
    Exact in every representation (_scores); ctx changes no answer."""
    return _argmax_query("demand", f, prices)


def supply(c: SetFunctionOracle, prices, ctx: RealContext | None = None) -> ActionSet:
    """Set maximizing p(S) - c(S); ties to higher c, then lower index.
    Exact in every representation (_scores); ctx changes no answer."""
    return _argmax_query("supply", c, prices)


@dataclass(frozen=True)
class LowerHull:
    """Lower convex hull of the (f, c) cloud, from its least-f to its
    greatest-f vertex, built from two tables and compared exactly, in the
    frame of their scaled ints (SetFunctionOracle.scaled).

    vertices[k] is the best response for alpha in [slope k-1, slope k)
    (with no bound below k = 0 or above the last vertex).  Edge k,
    vertices[k] -> vertices[k+1], keeps its raw scaled-int differences
    nums[k] = dC and dens[k] = dF > 0, so its slope is
    dC s_f / (dF s_c) with s_f = f_scale and s_c = c_scale; f0 is the
    scaled f of vertices[0], so the scaled f of vertices[k] is f0 plus
    dens[:k].  Slopes increase strictly, so an alpha exactly on slope k
    goes to vertices[k+1], the edge's higher-f end.  rational says both
    tables hold only ints and Fractions.
    """

    vertices: list
    nums: list
    dens: list
    f_scale: int
    c_scale: int
    f0: int
    rational: bool

    @classmethod
    def build(cls, f: SetFunctionOracle, c: SetFunctionOracle) -> "LowerHull":
        """Monotone chain over the oracles' scaled ints.

        Among equal f only the least c, then the least mask, can be a
        best response; collinear middles drop (the higher-f tie-break skips
        them).  O(n 2^n): one sort and one pass.
        """
        fs, s_f, f_rational = f.scaled()
        cs, s_c, c_rational = c.scaled()
        hull: list[tuple] = []  # (f, c, mask) points
        for p in sorted(zip(fs, cs, range(len(fs)))):
            fm, cm, _ = p
            if hull and hull[-1][0] == fm:
                continue  # same f, weakly larger c
            while len(hull) >= 2:
                (fa, ca, _), (fb, cb, _) = hull[-2], hull[-1]
                # pop the last vertex if it is on or above segment a-m
                if (fb - fa) * (cm - ca) <= (fm - fa) * (cb - ca):
                    hull.pop()
                else:
                    break
            hull.append(p)
        return cls._of(hull, s_f, s_c, f_rational and c_rational)

    @classmethod
    def _of(cls, hull, s_f, s_c, rational) -> "LowerHull":
        """The hull of the (f, c, mask) vertices hull, in increasing f."""
        fv, cv, masks = zip(*hull)
        return cls(
            vertices=list(masks),
            nums=list(map(sub, cv[1:], cv)),
            dens=list(map(sub, fv[1:], fv)),
            f_scale=s_f,
            c_scale=s_c,
            f0=fv[0],
            rational=rational,
        )

    def repair(self, parent_f: SetFunctionOracle, parent_c: SetFunctionOracle,
               f: SetFunctionOracle, c: SetFunctionOracle) -> "LowerHull":
        """The hull of f and c, build's bit for bit, from this hull, which
        must be the hull of parent_f and parent_c, when f and c were made
        from them (SetFunctionOracle.moved_from, off their origin records,
        gives where they may differ): the points at the moved positions are
        put into this hull's vertices one by one (_insert), a point whose f
        and c ints are the parents' own objects skipped, as it is under the
        hull already.  Every vertex stays where it was unless a moved point
        lowers the hull there, so no other point is read.  build(f, c)
        instead when a moved position is a vertex of this hull (its point
        may leave the hull and expose one it hid), when moved_from gives
        None, or when a scale is not this hull's."""
        f_moved, c_moved = f.moved_from(parent_f), c.moved_from(parent_c)
        fs, s_f, f_rational = f.scaled()
        cs, s_c, c_rational = c.scaled()
        if f_moved is None or c_moved is None or (s_f, s_c) != (self.f_scale, self.c_scale):
            return LowerHull.build(f, c)
        moved = set(f_moved).union(c_moved)
        if not moved.isdisjoint(self.vertices):
            return LowerHull.build(f, c)
        own_f, own_c = parent_f.scaled()[0], parent_c.scaled()[0]
        hull = [(fs[m], cs[m], m) for m in self.vertices]
        for m in moved:
            if fs[m] is not own_f[m] or cs[m] is not own_c[m]:
                _insert(hull, (fs[m], cs[m], m))
        return LowerHull._of(hull, s_f, s_c, f_rational and c_rational)

    def index(self, alpha) -> int:
        """Number of slopes <= alpha: the position of the best response at
        alpha, by bisection with alpha = p / q cross-multiplied in the
        scaled frame, dC (q s_f) <= (p s_c) dF.  O(n)."""
        p, q = ratio(alpha)
        qs, ps = q * self.f_scale, p * self.c_scale
        nums, dens = self.nums, self.dens
        lo, hi = 0, len(nums)
        while lo < hi:
            mid = (lo + hi) // 2
            if nums[mid] * qs <= ps * dens[mid]:
                lo = mid + 1
            else:
                hi = mid
        return lo


def _on_or_above(a, b, m) -> bool:
    """Whether point b is on or above segment a-m, for (f, c, ...) points
    in increasing f: LowerHull.build's pop test, exactly."""
    return (b[0] - a[0]) * (m[1] - a[1]) <= (m[0] - a[0]) * (b[1] - a[1])


def _insert(hull, q) -> None:
    """Put point q = (f, c, mask) into hull, a list of (f, c, mask) vertices
    as LowerHull.build makes them, so that it is build's hull of those
    vertices and q: bisection on (f, c, mask) finds q's place.  Of two
    points with one f the lesser (c, mask) stays; a q on or above the chord
    of its neighbours drops; else it goes in, and its neighbours pop on
    each side while they are on or above the chord past them, as in
    build."""
    k = bisect_left(hull, q)
    if k and hull[k - 1][0] == q[0]:
        return  # a vertex of the same f and lesser (c, mask)
    if k < len(hull) and hull[k][0] == q[0]:
        hull[k] = q  # q has the lesser (c, mask)
    elif 0 < k < len(hull) and _on_or_above(hull[k - 1], q, hull[k]):
        return
    else:
        hull.insert(k, q)
    while k >= 2 and _on_or_above(hull[k - 2], hull[k - 1], q):
        del hull[k - 1]
        k -= 1
    while k + 2 < len(hull) and _on_or_above(q, hull[k + 1], hull[k + 2]):
        del hull[k + 1]


@dataclass
class ContractInstance:
    """A principal-agent instance (n, f, c) with its precision.  Every
    query breaks ties by TIE_BREAK_RULE, the one rule there is.  kept is
    the one store of what is derived from the f and c tables (derived).
    Tables that mix mpf and Fraction entries are refused: mpmath neither
    compares nor subtracts the two in every order."""

    n: int
    f: SetFunctionOracle
    c: SetFunctionOracle
    ctx: RealContext = field(default_factory=RealContext)
    name: str = ""
    meta: dict = field(default_factory=dict)
    ledger: QueryLedger = field(default_factory=QueryLedger)
    kept: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.f.n != self.n or self.c.n != self.n:
            raise ValueError("oracle ground sets disagree with instance")
        kinds = set()
        for tab in (self.f.table, self.c.table):
            if isinstance(tab, MpfTable):  # no entry built: they share one type
                kinds.add(Fraction if tab.rational else mpmath.mpf)
            else:
                kinds.update(map(type, tab))
        if Fraction in kinds and mpmath.mpf in kinds:
            raise ValueError('the tables mix "m p e" (mpf) and "p/q" (Fraction) entries')

    @property
    def precision_bits(self) -> int:
        return self.ctx.bits

    @property
    def size(self) -> int:
        return 1 << self.n


def derived(inst: ContractInstance, key, build):
    """inst.kept[key], built as build(inst) on first use; a build that raises
    keeps nothing.  The store (hull, chain, budget, reduction parts) and
    meta["alpha_table"] are dropped first when inst.f.table or inst.c.table
    is not the object the store was filled from (kept under the key None)."""
    kept = inst.kept
    f, c = kept.get(None, (None, None))
    if f is not inst.f.table or c is not inst.c.table:
        kept.clear()
        inst.meta.pop("alpha_table", None)
        kept[None] = (inst.f.table, inst.c.table)
    value = kept.get(key)
    if value is None:
        value = kept[key] = build(inst)
    return value


def _build_hull(inst: ContractInstance) -> LowerHull:
    return LowerHull.build(inst.f, inst.c)


def lower_hull(inst: ContractInstance) -> LowerHull:
    """The instance's lower hull, kept by derived.  O(n 2^n) per build."""
    return derived(inst, "hull", _build_hull)


def best_response(inst: ContractInstance, alpha) -> ActionSet:
    """Agent's utility-maximizing set at contract alpha.

    Ties favor higher f, then lower subset index.  The answer is the vertex
    of the instance's lower hull that supports slope alpha: one O(n 2^n)
    build per instance, then O(n) exact comparisons per call, in every
    representation.  Charges one best-response query.
    """
    hull = derived(inst, "hull", _build_hull)  # lower_hull's, one call less per query
    best = hull.vertices[hull.index(alpha)]
    inst.ledger.count("best_response_queries", alpha)
    return ActionSet(inst.n, best)


def best_response_runs(inst: ContractInstance, alphas) -> list[tuple[int, int]]:
    """best_response at every alpha of a non-decreasing list, in runs.

    Returns (stop, mask) per run of consecutive alphas with one answer:
    alphas[start:stop] all get mask, start being the previous run's stop
    (0 for the first).  Each run's vertex k is found by one LowerHull.index
    bisection, and its end by galloping over the list against slope k with
    index's exact test, dC (q s_f) <= (p s_c) dF, so an alpha exactly on
    the slope starts the next run, at the edge's higher-f end.  With H hull
    edges that is O(runs (log H + log run length)) exact comparisons, for
    O(log H) per alpha one by one.  The order is not checked: on a list
    that decreases somewhere the answers are wrong.  Charges one
    best-response query per alpha.
    """
    hull = derived(inst, "hull", _build_hull)
    verts, nums, dens = hull.vertices, hull.nums, hull.dens
    s_f, s_c = hull.f_scale, hull.c_scale
    total, runs, start = len(alphas), [], 0
    while start < total:
        k = hull.index(alphas[start])
        if k == len(nums):  # past the last slope: one run to the end
            runs.append((total, verts[k]))
            break
        c_side, f_side = nums[k] * s_f, dens[k] * s_c

        def past(i):  # alphas[i] >= slope k
            p, q = ratio(alphas[i])
            return c_side * q <= p * f_side

        # alphas[start:lo] are below slope k; stop is in [lo, hi], past(hi) or hi == total
        lo = hi = start + 1
        step = 1
        while hi < total and not past(hi):
            lo = hi + 1
            hi = min(hi + step, total)
            step *= 2
        while lo < hi:
            mid = (lo + hi) // 2
            if past(mid):
                hi = mid
            else:
                lo = mid + 1
        runs.append((lo, verts[k]))
        start = lo
    count = inst.ledger.count
    for alpha in alphas:
        count("best_response_queries", alpha)
    return runs


def demand_prices_for_contract(c: SetFunctionOracle, alpha):
    """Prices p_i = c_i / alpha turning a demand query into a best response."""
    if c.weights is None:
        raise ValueError("requires an additive cost oracle")
    if alpha == 0:
        raise DegenerateContractError("alpha = 0 yields infinite prices")
    return tuple(w / alpha for w in c.weights)


def supply_prices_for_contract(f: SetFunctionOracle, alpha):
    """Prices p_i = alpha * f_i turning a supply query into a best response."""
    if f.weights is None:
        raise ValueError("requires an additive reward oracle")
    return tuple(alpha * w for w in f.weights)
