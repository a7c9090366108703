"""Set functions, the subset/integer bijection, oracles, and query accounting.

An action set over ground set [n] = {1, ..., n} is identified with the
integer t = sum of 2^(i-1) over actions i in the set, which is exactly the
bitmask with bit i-1 set.  Mask and index are therefore one and the same int.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import sub

import mpmath

from .reals import MpfTable, RealContext, ratio

MAX_N = 24

TIE_BREAK_RULE = "higher_f_then_lower_index"


class DegenerateContractError(ValueError):
    pass


@dataclass(frozen=True)
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

    The oracle always holds its full 2^n table, read-only, so no entry can
    change under a hull or a scaled form built from it.  Query
    instrumentation lives in the attached ledger.  Exactly one of
    ``table``, ``weights`` and ``scaled`` must be given:
      table      -- list of 2^n values indexed by subset index, kept as a
                    tuple,
      weights    -- per-action values of an additive function (w[i-1] for i),
      scaled     -- (ints, scale, rational): a table built as ints over one
                    scale, kept as they are; the table is their
                    reals.MpfTable, of Fractions over any positive scale
                    when rational, else of mpfs over a power of two.
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
        scaled: tuple | None = None,
    ):
        if not (1 <= n <= MAX_N):
            raise ValueError(f"ground-set size must be in [1, {MAX_N}], got {n}")
        if declared_class not in DECLARED_CLASSES:
            raise ValueError(f"unknown declared_class {declared_class!r}")
        if (table is None) + (weights is None) + (scaled is None) != 2:
            raise ValueError("exactly one of table, weights, scaled required")
        self.n = n
        self.declared_class = declared_class
        self.name = name
        self.ledger = ledger if ledger is not None else QueryLedger()
        self.weights = list(weights) if weights is not None else None
        self._int_sums = None
        if weights is not None:
            if len(self.weights) != n:
                raise ValueError("weights must have one entry per action")
            table = additive_table(self.weights)
            if all(type(w) is int for w in self.weights):
                table = self._int_sums = tuple(table)  # int sums are their own scaled form
        elif scaled is not None:
            ints, scale, rational = scaled
            if scale < 1 or not rational and scale & (scale - 1):
                raise ValueError("scaled ints need a positive scale, a power of two for mpfs")
            table = MpfTable(ints, scale, rational)
        if not isinstance(table, MpfTable):
            table = tuple(table)
        if len(table) != 1 << n:
            raise ValueError("table must list all 2^n subset values")
        self.table = table

    def value_table(self):
        """Full 2^n table: a tuple, or an MpfTable (see the class docstring).
        The same object as the table attribute, kept as a method because
        the benchmark (bench/) reads tables through it."""
        return self.table

    def scaled(self):
        """(ints, scale, rational): the table as ints over one positive
        scale, ints[m] == table[m] * scale exactly (see _scaled_ints).

        An MpfTable is its own scaled form, and so is the table of int sums
        an additive oracle with int weights builds, as long as the table
        attribute is still that table: a table assembled or loaded in ints
        is never converted.  Any other table is converted on each call and
        nothing is kept: a second copy of a wide table would outlive the
        hull built from it (an n=14 table at 420 bits holds 1.5 MiB of
        ints).
        """
        table = self.table
        if isinstance(table, MpfTable):
            return table.ints, table.scale, table.rational
        if table is self._int_sums:
            return table, 1, True
        return _scaled_ints(table)


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


def _scaled_ints(tab):
    """(ints, scale, rational) with ints[m] == tab[m] * scale exactly.

    Entries may be ints, Fractions, floats and mpfs, mixed.  Each entry's
    exact ratio (as_integer_ratio, or an mpf's mantissa over its power of
    two) goes over the LCM of the denominators, a power of two for float
    and mpf tables, so no Fraction is built.  rational says every entry is
    an int or a Fraction.  Scaling by a positive constant keeps every order,
    equality and sign of differences and their products, and int arithmetic
    is exact where float and mpf arithmetic round, and far cheaper than
    Fraction arithmetic.
    """
    kinds = set(map(type, tab))
    if kinds <= _INTS:
        return list(tab), 1, True
    if any(issubclass(k, mpmath.mpf) for k in kinds):
        ratios = [ratio(v) for v in tab]
    else:
        ratios = [v.as_integer_ratio() for v in tab]
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
    return oracle.table[s.mask]


def _scores(kind: str, x, param):
    """(utility, tie) vectors over all 2^n masks for one argmax query.

    kind "demand": x is the reward oracle, param the prices; f - p, ties to
    higher f.  "supply": x is the cost oracle, param the prices; p - c, ties
    to higher c.  Call inside the working precision.
    """
    if len(param) != x.n:
        raise ValueError("need one price per action")
    psum = additive_table(list(param))
    tab = x.value_table()
    if kind == "demand":
        return [v - p for v, p in zip(tab, psum)], tab
    return [p - v for v, p in zip(tab, psum)], tab


def _argmax_with_tie_break(objective, tie_value) -> int:
    """Max objective; ties favor larger tie_value, then smaller mask.

    Both arguments are indexable by mask.  Scanning masks in ascending order
    makes "first seen wins" implement the lower-index rule.
    """
    best = 0
    best_obj = objective[0]
    best_tie = tie_value[0]
    for mask in range(1, len(objective)):
        obj = objective[mask]
        if obj > best_obj or (obj == best_obj and tie_value[mask] > best_tie):
            best = mask
            best_obj = obj
            best_tie = tie_value[mask]
    return best


def demand(f: SetFunctionOracle, prices, ctx: RealContext | None = None) -> ActionSet:
    """Set maximizing f(S) - p(S); ties to higher f, then lower index."""
    with (ctx or RealContext()).workprec():
        best = _argmax_with_tie_break(*_scores("demand", f, prices))
    f.ledger.count("demand_queries", tuple(prices))
    return ActionSet(f.n, best)


def supply(c: SetFunctionOracle, prices, ctx: RealContext | None = None) -> ActionSet:
    """Set maximizing p(S) - c(S); ties to higher c, then lower index."""
    with (ctx or RealContext()).workprec():
        best = _argmax_with_tie_break(*_scores("supply", c, prices))
    c.ledger.count("supply_queries", tuple(prices))
    return ActionSet(c.n, best)


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
    goes to vertices[k+1], the edge's higher-f end.  f_table and c_table
    are the table objects it was built from; rational says both hold only
    ints and Fractions.
    """

    f_table: tuple
    c_table: tuple
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
        fv, cv, masks = zip(*hull)
        return cls(
            f_table=f.value_table(),
            c_table=c.value_table(),
            vertices=list(masks),
            nums=list(map(sub, cv[1:], cv)),
            dens=list(map(sub, fv[1:], fv)),
            f_scale=s_f,
            c_scale=s_c,
            f0=fv[0],
            rational=f_rational and c_rational,
        )

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


@dataclass
class ContractInstance:
    """A principal-agent instance (n, f, c) with its precision.  Every
    query breaks ties by TIE_BREAK_RULE, the one rule there is."""

    n: int
    f: SetFunctionOracle
    c: SetFunctionOracle
    ctx: RealContext = field(default_factory=RealContext)
    name: str = ""
    meta: dict = field(default_factory=dict)
    ledger: QueryLedger = field(default_factory=QueryLedger)
    # commlab.build_augmented's per-(variant, delta) parts; dies with the
    # instance, so no other instance can ever be served them
    augment_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # the lower hull of f and c, built on first use (see lower_hull)
    hull: LowerHull | None = field(default=None, init=False, repr=False, compare=False)
    # perturb.perturbation_budget's budget, computed on first use
    budget: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.f.n != self.n or self.c.n != self.n:
            raise ValueError("oracle ground sets disagree with instance")

    @property
    def precision_bits(self) -> int:
        return self.ctx.bits

    @property
    def size(self) -> int:
        return 1 << self.n


def lower_hull(inst: ContractInstance) -> LowerHull:
    """The instance's lower hull, built from its f and c tables on first use
    and again whenever either table object is no longer the one it was built
    from.  O(n 2^n) per build."""
    hull = inst.hull
    if hull is None or hull.f_table is not inst.f.table or hull.c_table is not inst.c.table:
        hull = inst.hull = LowerHull.build(inst.f, inst.c)
    return hull


def best_response(inst: ContractInstance, alpha) -> ActionSet:
    """Agent's utility-maximizing set at contract alpha.

    Ties favor higher f, then lower subset index.  The answer is the vertex
    of the instance's lower hull that supports slope alpha: one O(n 2^n)
    build per instance, then O(n) exact comparisons per call, in every
    representation.  Charges one best-response query.
    """
    hull = lower_hull(inst)
    best = hull.vertices[hull.index(alpha)]
    inst.ledger.count("best_response_queries", alpha)
    return ActionSet(inst.n, best)


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
