"""Set functions, the subset/integer bijection, oracles, and query accounting.

An action set over ground set [n] = {1, ..., n} is identified with the
integer t = sum of 2^(i-1) over actions i in the set, which is exactly the
bitmask with bit i-1 set.  Mask and index are therefore one and the same int.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .reals import RealContext

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

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def members(self) -> tuple[int, ...]:
        return tuple(i + 1 for i in range(self.n) if (self.mask >> i) & 1)

    def __contains__(self, action: int) -> bool:
        return 1 <= action <= self.n and bool((self.mask >> (action - 1)) & 1)

    def with_action(self, action: int) -> "ActionSet":
        return ActionSet(self.n, self.mask | (1 << (action - 1)))

    def without_action(self, action: int) -> "ActionSet":
        return ActionSet(self.n, self.mask & ~(1 << (action - 1)))

    @classmethod
    def from_members(cls, n: int, members) -> "ActionSet":
        mask = 0
        for i in members:
            if not (1 <= i <= n):
                raise ValueError(f"action {i} outside ground set [1, {n}]")
            mask |= 1 << (i - 1)
        return cls(n, mask)

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

    The oracle always holds its full 2^n table; query instrumentation lives
    in the attached ledger.  Exactly one of ``table``, ``weights`` must be
    given:
      table      -- list of 2^n values indexed by subset index,
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
        if table is not None:
            table = list(table)
            if len(table) != 1 << n:
                raise ValueError("table must list all 2^n subset values")
            self.table = table
        else:
            if len(self.weights) != n:
                raise ValueError("weights must have one entry per action")
            self.table = additive_table(self.weights)

    def eval_mask(self, mask: int):
        """Uninstrumented evaluation (for solver internals)."""
        return self.table[mask]

    def value_table(self):
        """Full 2^n table."""
        return self.table

    @property
    def normalized(self) -> bool:
        """Whether the empty set's value is recorded as exactly zero."""
        return self.eval_mask(0) == 0


def additive_table(weights) -> list:
    """Subset-sum table over all masks, via one addition per entry."""
    n = len(weights)
    table = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        table[mask] = table[mask ^ low] + weights[low.bit_length() - 1]
    return table


def _scaled_ints(tab):
    """(ints, scale) with ints[m] == tab[m] * scale, or None.

    scale is the LCM of the denominators when every entry is an int or a
    Fraction; any other entry (float, mpf) gives None, so those tables keep
    their own arithmetic.  Scaling by a positive constant keeps every order,
    equality and sign of differences and their products, and int arithmetic
    is far cheaper than Fraction arithmetic.
    """
    scale = 1
    for v in tab:
        if isinstance(v, Fraction):
            if scale % v.denominator:
                scale = math.lcm(scale, v.denominator)
        elif not isinstance(v, int):
            return None
    return [v.numerator * (scale // v.denominator) for v in tab], scale


def value(oracle: SetFunctionOracle, s: ActionSet):
    """Instrumented value query."""
    if s.n != oracle.n:
        raise ValueError("action set over a different ground set")
    oracle.ledger.count("value_queries", s.mask)
    return oracle.eval_mask(s.mask)


def _scores(kind: str, x, param):
    """(utility, tie) vectors over all 2^n masks for one argmax query.

    kind "demand": x is the reward oracle, param the prices; f - p, ties to
    higher f.  "supply": x is the cost oracle, param the prices; p - c, ties
    to higher c.  "best-response": x is the instance, param alpha;
    alpha f - c, ties to higher f.  Call inside the working precision.
    """
    if kind == "best-response":
        ftab = x.f.value_table()
        return [param * fv - cv for fv, cv in zip(ftab, x.c.value_table())], ftab
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


@dataclass
class ContractInstance:
    """A principal-agent instance (n, f, c) with tie-break and precision."""

    n: int
    f: SetFunctionOracle
    c: SetFunctionOracle
    tie_break: str = TIE_BREAK_RULE
    ctx: RealContext = field(default_factory=RealContext)
    name: str = ""
    meta: dict = field(default_factory=dict)
    ledger: QueryLedger = field(default_factory=QueryLedger)
    # commlab.build_augmented's per-(variant, delta) parts; dies with the
    # instance, so no other instance can ever be served them
    augment_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.f.n != self.n or self.c.n != self.n:
            raise ValueError("oracle ground sets disagree with instance")
        if self.tie_break != TIE_BREAK_RULE:
            raise ValueError(f"unsupported tie_break rule {self.tie_break!r}")

    @property
    def precision_bits(self) -> int:
        return self.ctx.bits

    @property
    def size(self) -> int:
        return 1 << self.n


def best_response(inst: ContractInstance, alpha) -> ActionSet:
    """Agent's utility-maximizing set at contract alpha.

    Ties favor higher f, then lower subset index.
    """
    with inst.ctx.workprec():
        best = _argmax_with_tie_break(*_scores("best-response", inst, alpha))
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
