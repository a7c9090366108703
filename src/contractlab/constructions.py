"""Equal-revenue instances, structure checks, and rounding.

Two families:
  * submodular reward / additive cost: f(S_0) = 1 and
    f_t = (f_(t-1) + 2 + sqrt(f_(t-1)^2 + 4)) / 2, the square-root
    recurrence in f's own coordinates; costs c_i = 2^(i-1) so c(S_t) = t,
    and the critical value of S_t is alpha_t = 1 / (f_t - f_(t-1));
  * additive reward / supermodular cost: f_i = 2^(i-1) so f(S_t) = t, costs
    c_t = c_(t-1) + (t-1)/t held as exact rationals, alpha_t = (t-1)/t.
Every nonempty incentivizable set yields principal utility exactly 1.  At
extended precision the square-root recurrences (f's here, and the critical
values' own for build_rounded and check_gap_bounds) run on ints with
mpmath's rounding (reals.round_nearest and its operations), so each entry
is the mpf that mpmath arithmetic at that precision gives, bit for bit;
native floats run on floats.  No breakpoint table is stored: solvers read
every critical value off the f and c tables (solver.critical_values).
Each construction seeds the kept chain (core.derived, solver.chain_alphas)
with the closed-form list of its critical values, the values, of the types,
that critical_values reports, also put in meta["alpha_table"].  A replaced
table drops both; the chain is then derived from the tables, as on a loaded
instance.

EqualRevenueKind is the one description of each of the two mirrored
kinds, read through kind_of by every module that acts on a base.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, count, islice
from operator import add, itemgetter, sub

from .core import MAX_N, ContractInstance, SetFunctionOracle, _scaled_ints
from .core import derived
from .reals import (
    DEFAULT_BITS,
    MpfTable,
    RealContext,
    add_nearest,
    dyadic_ints,
    mpf_exact,
    reciprocal_nearest,
    round_nearest,
    sqrt_nearest,
)


class PrecisionError(ValueError):
    pass


class RoundingCollisionError(ValueError):
    pass


class ConstructionIntegrityError(ValueError):
    pass


def default_bits_for(n: int) -> int:
    """Default mantissa width: native floats up to n=10, then >= 30n bits."""
    if n <= 10:
        return DEFAULT_BITS
    return max(256, 30 * n)


def _alpha_recurrence(ctx: RealContext, steps: int):
    """alpha_0 = 0; alpha_(t+1) = alpha_t + (sqrt(4 a^2 - 8 a + 5) - 1) / 2,
    each operation rounded at ctx's precision on the ints of
    reals.round_nearest, the mpf mpmath would give bit for bit; at 53 bits
    these are the values native floats give."""
    prec = ctx.bits
    am, ae = 0, 0
    alphas = [mpf_exact(0, 0)]
    for _ in range(steps):
        m, e = round_nearest(am * am, 2 * ae + 2, prec)  # 4 a a
        m, e = add_nearest(m, e, -am, ae + 3, prec)  # - 8 a
        m, e = add_nearest(m, e, 5, 0, prec)
        m, e = sqrt_nearest(m, e, prec)
        m, e = add_nearest(m, e, -1, 0, prec)
        am, ae = add_nearest(am, ae, m, e - 1, prec)  # the halving is exact
        alphas.append(mpf_exact(am, ae))
    return alphas


def _submod_f_chain(size: int, ctx: RealContext):
    """(f_t, alpha_t, alpha_(t-1) < alpha_t) for t = 1..size-1, from f_0 = 1
    and alpha_0 = 0, the comparison exact.  Native floats, or at extended
    precision the ints of reals.round_nearest: f_t as its (man, exp) pair
    and alpha_t turned into its mpf."""
    if ctx.native:
        f, alpha = 1.0, 0
        for _ in range(size - 1):
            g = (f + 2 + math.sqrt(f * f + 4)) / 2
            a = 1 / (g - f)
            yield g, a, alpha < a
            f, alpha = g, a
        return
    prec = ctx.bits
    fm, fe, am, ae = 1, 0, 0, 0
    for _ in range(size - 1):
        m, e = round_nearest(fm * fm, 2 * fe, prec)
        m, e = add_nearest(m, e, 4, 0, prec)
        m, e = sqrt_nearest(m, e, prec)
        gm, ge = add_nearest(fm, fe, 2, 0, prec)
        gm, ge = add_nearest(gm, ge, m, e, prec)
        ge -= 1  # the halving is exact
        bm, be = reciprocal_nearest(*add_nearest(gm, ge, -fm, fe, prec), prec)
        # alpha_(t-1) < alpha_t, both positive (or alpha_0 = 0)
        lo = min(ae, be)
        yield (gm, ge), mpf_exact(bm, be), am << (ae - lo) < bm << (be - lo)
        fm, fe, am, ae = gm, ge, bm, be


def build_equal_revenue_submod_f(n: int, precision_bits: int | None = None) -> ContractInstance:
    """Equal-revenue instance with strictly submodular reward, additive cost.

    f(empty) = 1 and f_t = (f_(t-1) + 2 + sqrt(f_(t-1)^2 + 4)) / 2, so that
    (1 - alpha_t) f_t = 1 with alpha_t = 1 / (f_t - f_(t-1)); c_i = 2^(i-1)
    so c(S_t) = t.  Running the recurrence on f itself, not on alpha near 1,
    keeps f's rounding relative to f.  Every alpha_t is the slope the hull
    reports for S_(t-1) -> S_t (the c gap is the int 1), bit for bit.  At
    extended precision f is handed to its oracle as ints over one power of
    two (reals.dyadic_ints), its table their reals.MpfTable.
    """
    if not (1 <= n <= MAX_N):
        raise ValueError("n out of range")
    bits = default_bits_for(n) if precision_bits is None else precision_bits
    ctx = RealContext(bits)
    ftab, alphas = [1.0 if ctx.native else (1, 0)], [0]
    for t, (f, alpha, ordered) in enumerate(_submod_f_chain(1 << n, ctx)):
        if not ordered:
            raise PrecisionError(
                f"adjacent critical values collide at t={t}; "
                f"need roughly {18 * n + 20} mantissa bits, have {bits}"
            )
        ftab.append(f)
        alphas.append(alpha)
    if not alphas[-1] < 1:  # exact in either representation
        raise PrecisionError("critical values exceed 1; increase precision")
    table = ftab
    if not ctx.native:
        ints, k = dyadic_ints(*zip(*ftab))
        table = MpfTable(ints, 1 << k, False)
    f = SetFunctionOracle(n, table=table, declared_class="submodular", name="equal_revenue_reward")
    c = SetFunctionOracle(
        n,
        weights=[1 << (i - 1) for i in range(1, n + 1)],
        declared_class="additive",
        name="binary_weights_cost",
    )
    inst = ContractInstance(n=n, f=f, c=c, ctx=ctx, name=f"equal_revenue_submod_f(n={n})")
    inst.meta["kind"] = SUBMOD_F.name
    inst.meta["alpha_table"] = derived(inst, "chain", lambda _: alphas)
    return inst


def build_equal_revenue_supmod_c(n: int) -> ContractInstance:
    """Equal-revenue instance with additive reward, strictly supermodular cost.

    f_i = 2^(i-1) so f(S_t) = t; costs and critical values alpha_t = (t-1)/t
    are exact rationals end to end.  The cost c_0 = 0,
    c_t = c_(t-1) + (t-1)/t is summed as ints over L = lcm(1..2^n - 1),
    c_t L = c_(t-1) L + (t-1) (L / t), and handed over as their rational
    reals.MpfTable; L is the least common denominator of the c_t.
    """
    if not (1 <= n <= MAX_N):
        raise ValueError("n out of range")
    size = 1 << n
    scale = math.lcm(*range(1, size))
    ints = [0]
    for t in range(1, size):
        ints.append(ints[-1] + (t - 1) * (scale // t))
    f = SetFunctionOracle(
        n,
        weights=[1 << (i - 1) for i in range(1, n + 1)],
        declared_class="additive",
        name="binary_weights_reward",
    )
    cost = MpfTable(ints, scale, True)
    c = SetFunctionOracle(n, table=cost, declared_class="supermodular", name="equal_revenue_cost")
    inst = ContractInstance(n=n, f=f, c=c, name=f"equal_revenue_supmod_c(n={n})")
    inst.meta["kind"] = SUPMOD_C.name
    # S_1's alpha is the int 0, as solver.critical_values reports it
    alphas = [0] + [Fraction(t - 1, t) for t in range(2, size)]
    inst.meta["alpha_table"] = derived(inst, "chain", lambda _: alphas)
    return inst


REWARD_BONUS = "reward-bonus"
COST_DISCOUNT = "cost-discount"


@dataclass(frozen=True)
class EqualRevenueKind:
    """One equal-revenue kind.  side is the base's combinatorial table, "f"
    or "c" (the other is additive), and query the query on it ("demand" or
    "supply").  A hidden-family member shifts that table's entry k by
    shift(entry, epsilon), the family's direction, keeping the oracle's
    declared class and adding suffix to its name.  chain_start is the
    chain's first set: the empty set at alpha = 0 on the submodular-reward
    base; on the supermodular-cost base S_1 costs 0 as well and pays more,
    so the chain starts there (and a discount there would make a cost
    negative).  variants are the commlab reductions built on the base."""

    name: str
    side: str
    query: str
    chain_start: int
    direction: str
    shift: Callable
    suffix: str
    variants: tuple


SUBMOD_F = EqualRevenueKind(
    name="equal_revenue_submod_f", side="f", query="demand", chain_start=0,
    direction=REWARD_BONUS, shift=add, suffix="+bonus", variants=("sub-sub", "sub-sup"),
)
SUPMOD_C = EqualRevenueKind(
    name="equal_revenue_supmod_c", side="c", query="supply", chain_start=1,
    direction=COST_DISCOUNT, shift=sub, suffix="-discount", variants=("sup-sup",),
)
KINDS = {kind.name: kind for kind in (SUBMOD_F, SUPMOD_C)}


def variant_kind(variant: str) -> EqualRevenueKind:
    """The kind whose variants list variant: the base commlab builds that
    reduction on.  ValueError for an unknown variant."""
    for kind in KINDS.values():
        if variant in kind.variants:
            return kind
    raise ValueError(f"unknown variant {variant!r}")


def kind_of(inst: ContractInstance) -> EqualRevenueKind:
    """The equal-revenue kind meta["kind"] names; ValueError for any other
    instance."""
    kind = KINDS.get(inst.meta.get("kind"))
    if kind is None:
        raise ValueError("base is not a recognized equal-revenue construction")
    return kind


MAX_RECORDED = 50  # violations of each kind verify_structure records


@dataclass
class StructureReport:
    monotonicity_violations: list
    class_violations: list

    @property
    def ok(self) -> bool:
        return not self.monotonicity_violations and not self.class_violations


def verify_structure(oracle: SetFunctionOracle) -> StructureReport:
    """Monotonicity and declared-class check of every marginal and 2-face,
    report-only, exact on the oracle's scaled ints.

    An oracle made from a parent (SetFunctionOracle.with_entries) is checked
    locally when it can be: its origin records its ints as the parent's
    own but at the recorded positions (moved_from), and the parent's
    verdict, kept on the parent and built on first use, is ok.  Then only
    the marginals and 2-faces that read a recorded position can differ
    from the parent's, and an empty report says each of them holds
    (_holds_locally).  In every other case, a failed local check included,
    the full pass runs (_report), so the report is the same either way.

    The full pass takes the whole table's marginal and diff vectors once
    (_marginal_vectors, ordered by S, then i, then j): the marginal vector
    decides monotonicity, the diff vector the class by its _SENSE, and only
    a failing vector is scanned, for its first MAX_RECORDED violations.
    The report lists them as (S, i, marginal) and (S, i, j, diff), each
    value the entries' own difference for int/Fraction tables and its
    exact Fraction otherwise."""
    sense = _SENSE[oracle.declared_class]
    if oracle.n > 12:
        raise ValueError("exhaustive structure check limited to n <= 12")
    return _report(oracle, sense)


def _report(oracle, sense) -> StructureReport:
    """verify_structure's report, past its checks of the oracle's n and
    class: the first MAX_RECORDED violations of each whole-table vector,
    read in its own order, their (S, i[, j]) looked up in _keys only when
    one fails."""
    if oracle.origin is not None and _holds_locally(oracle, sense):
        return StructureReport([], [])
    n = oracle.n
    vals, scale, rational = oracle.scaled()
    marg, diffs = _marginal_vectors(vals, n, sense)
    mono = [] if min(marg) >= 0 else list(_first(marg, _BAD[+1]))
    klass = []
    if diffs is not None and _class_margin(diffs, sense) < 0:
        klass = list(_first(diffs, _BAD[sense]))
    if not mono and not klass:
        return StructureReport([], [])
    margs, faces = _keys(n)
    mono, wanted = [margs[p] for p in mono], set(klass)
    klass = [key for p, key in enumerate(faces) if p in wanted]
    tab = oracle.table if rational else vals

    def marginal(s, i):  # v(i | S) in the table's own arithmetic, or scaled
        return tab[s | 1 << i] - tab[s]

    def recorded(v):
        return v if rational else Fraction(v, scale)

    return StructureReport(
        [(s, i + 1, recorded(marginal(s, i))) for s, i in mono],
        [(s, i + 1, j + 1, recorded(marginal(s, i) - marginal(s | 1 << j, i)))
         for s, i, j in klass],
    )


def _holds_locally(oracle, sense) -> bool:
    """Whether oracle, made from a parent, is shown to hold its class:
    oracle.moved_from(parent) gives the recorded positions, the parent
    has the declared class and a kept ok verdict (its _report on first use,
    kept as parent.verdict until its table is set), and
    every marginal and 2-face that reads a recorded position holds
    (_index at those positions); False otherwise, for the full pass to
    decide."""
    parent, _, ks = oracle.origin
    cls = oracle.declared_class
    if parent.declared_class != cls or oracle.moved_from(parent) is None:
        return False
    if parent.verdict is None or parent.verdict[0] != cls:
        parent.verdict = cls, _report(parent, sense).ok
    if not parent.verdict[1]:
        return False
    if not ks:
        return True
    marg, diffs = _vectors(_index(oracle.n, ks), oracle.scaled()[0], sense)
    return min(marg) >= 0 and (diffs is None or _class_margin(diffs, sense) >= 0)


def _keys(n: int, ks: tuple | None = None) -> tuple:
    """(margs, faces): the (S, i) of marginals v(i | S), a list, and the
    (S, i, j) of 2-faces S, S + i, S + j, S + i + j, an iterable, of a set
    function over n actions, each in sorted order.  For the whole table
    (ks None), every marginal and every face in both orders of i and j,
    since the two differences of a face round apart in float or mpf
    arithmetic (marginal_margins); its faces are generated, never held.
    At positions ks, every marginal and every face that reads one, each
    face once (i < j, one order decides on exact ints), with the marginals
    of both its i-edges."""
    if ks is None:
        margs = [(s, i) for s in range(1 << n) for i in range(n) if not s >> i & 1]
        return margs, ((s, i, j) for s, i in margs for j in range(n) if j != i and not s >> j & 1)
    faces = sorted({(p & ~(1 << i | 1 << j), i, j)
                    for p in ks for i in range(n) for j in range(i + 1, n)})
    margs = {(p & ~(1 << i), i) for p in ks for i in range(n)}
    margs.update(edge for s, i, j in faces for edge in ((s, i), (s | 1 << j, i)))
    return sorted(margs), faces


@functools.lru_cache(maxsize=64)
def _index(n: int, ks: tuple | None = None) -> tuple:
    """(up, down, near, far) over _keys(n, ks), getters alone (the keys
    are built again only for a failing report).  up(vals) and down(vals)
    give v(S + i) and v(S) of each marginal, so that their difference is
    the marginal vector; near and far index that vector at v(i | S) and
    v(i | S + j) of each face, so that near - far is its diff vector.
    None for near and far when there is no face (n = 1)."""
    margs, faces = _keys(n, ks)
    place = {key: p for p, key in enumerate(margs)}
    near, far = [], []
    for s, i, j in faces:
        near.append(place[s, i])
        far.append(place[s | 1 << j, i])
    up = _tuple_getter([s | 1 << i for s, i in margs])
    down = _tuple_getter([s for s, _ in margs])
    if not near:
        return up, down, None, None
    return up, down, _tuple_getter(near), _tuple_getter(far)


def _vectors(index, vals, sense):
    """(marg, diffs) of vals over an _index: its marginal and diff vectors,
    diffs None when sense is None or the index has no face."""
    up, down, near, far = index
    marg = list(map(sub, up(vals), down(vals)))
    return marg, None if sense is None or near is None else list(map(sub, near(marg), far(marg)))


def _marginal_vectors(vals, n, sense):
    """The whole table's (marg, diffs) (_vectors over _index(n)): the one
    full pass of verify_structure and marginal_margins."""
    return _vectors(_index(n), vals, sense)


# the comparison that makes a marginal (+1) or a diff of each sense a violation
_BAD = {+1: (0).__gt__, -1: (0).__lt__, 0: (0).__ne__}


def _first(vec, bad):
    """The first MAX_RECORDED positions p with bad(vec[p])."""
    return islice(compress(count(), map(bad, vec)), MAX_RECORDED)


def _tuple_getter(indices):
    """itemgetter over indices that returns a tuple even for one index."""
    if len(indices) == 1:
        k = indices[0]
        return lambda seq: (seq[k],)
    return itemgetter(*indices)


def _class_margin(diffs, sense):
    """The least sense * diff; for sense 0 the least of both, -max |diff|."""
    if sense:
        return min(diffs) if sense > 0 else -max(diffs)
    return min(min(diffs), -max(diffs))


def marginal_margins(vals, n, sense):
    """(least, margin) of the set function vals over n actions, in the
    arithmetic of vals, on the whole table's marginal and diff vectors
    (_marginal_vectors).

    least is the least marginal v(i | S) over every S without i: vals is
    monotone iff it is >= 0.  margin is the least sense * (v(i | S) -
    v(i | S + j)) over every S and distinct i, j outside it: sense +1 gives
    the submodularity margin, -1 the supermodularity margin, 0 the least
    of both, -max |diff|, which is 0 iff vals is additive.  Adjacent pairs
    suffice: any nested marginal difference telescopes into adjacent steps.
    margin is None when sense is None (monotonicity only) or n = 1.
    """
    marg, diffs = _marginal_vectors(vals, n, sense)
    return min(marg), None if diffs is None else _class_margin(diffs, sense)


# the sense of marginal_margins that decides each declared class
_SENSE = {"submodular": +1, "supermodular": -1, "additive": 0, "general-monotone": None}


@dataclass
class EqualRevenueReport:
    breakpoint_count: int
    expected_count: int
    max_deviation: object
    tol: object

    @property
    def ok(self) -> bool:
        return self.breakpoint_count == self.expected_count and not (
            self.max_deviation > self.tol
        )


def verify_equal_revenue(inst: ContractInstance, tol) -> EqualRevenueReport:
    """Check that every nonempty incentivized set yields principal utility 1."""
    from .solver import enumerate_breakpoints

    nonempty = [b for b in enumerate_breakpoints(inst) if b.aset.mask != 0]
    max_dev = 0
    with inst.ctx.workprec():
        for b in nonempty:
            dev = b.principal_utility - 1
            if dev < 0:
                dev = -dev
            if dev > max_dev:
                max_dev = dev
    return EqualRevenueReport(
        breakpoint_count=len(nonempty),
        expected_count=inst.size - 1,
        max_deviation=max_dev,
        tol=tol,
    )


def default_grid_bits(n: int) -> int:
    """Grid exponent kappa = max(18n + 20, 20n)."""
    return max(18 * n + 20, 20 * n)


@dataclass
class RoundedInstance:
    n: int
    grid_bits: int
    instance: ContractInstance
    alpha_rounded: list
    betas: list

    @property
    def revenue_tolerance(self):
        """1 +- tol bound on (1 - beta_t) * f_t for the rounded instance."""
        return self.instance.ctx.make(Fraction(1, 1 << (self.grid_bits - 6 * self.n - 1)))


def build_rounded(n: int, grid_bits: int | None = None) -> RoundedInstance:
    """Round each critical value down to a 2^-kappa grid and rebuild rewards.

    f_t = 1/(1 - rounded alpha_t); the resulting instance has distinct
    breakpoints beta_t and principal revenues within 1 +- 2^(6n+1-kappa).
    """
    kappa = default_grid_bits(n) if grid_bits is None else int(grid_bits)
    if kappa < 18 * n + 20:
        raise ValueError(f"grid exponent must be >= {18 * n + 20}")
    bits = max(kappa + 10 * n, 64)
    ctx = RealContext(bits)
    size = 1 << n
    alphas = _alpha_recurrence(ctx, size - 1)
    with ctx.workprec():
        rounded = [ctx.floor_to_grid(a, kappa) for a in alphas]
        for t in range(size - 1):
            if not rounded[t] < rounded[t + 1]:
                raise RoundingCollisionError(
                    f"rounded critical values collide at t={t}; increase kappa"
                )
        ftab = [1 / (1 - a) for a in rounded]
        betas = [ctx.make(0)]
        for t in range(1, size):
            betas.append(1 / (ftab[t] - ftab[t - 1]))
    f = SetFunctionOracle(n, table=ftab, declared_class="submodular", name="rounded_reward")
    c = SetFunctionOracle(
        n,
        weights=[1 << (i - 1) for i in range(1, n + 1)],
        declared_class="additive",
        name="binary_weights_cost",
    )
    inst = ContractInstance(n=n, f=f, c=c, ctx=ctx, name=f"rounded(n={n}, kappa={kappa})")
    inst.meta["kind"] = "rounded"
    inst.meta["grid_bits"] = kappa
    return RoundedInstance(
        n=n,
        grid_bits=kappa,
        instance=inst,
        alpha_rounded=rounded,
        betas=betas,
    )


@dataclass
class GapBoundReport:
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations


def check_gap_bounds(n: int) -> GapBoundReport:
    """The bounds of chain_gap_bounds on the square-root recurrence's
    a_0..a_(2^n), so every gap for t = 1..2^n - 1 is checked."""
    ctx = RealContext(max(default_bits_for(n), 19 * n + 30))
    return chain_gap_bounds(_alpha_recurrence(ctx, 1 << n), n)


def chain_gap_bounds(alphas, n: int) -> GapBoundReport:
    """Bounds on critical values a_0 = 0 < a_1 < ..., for every t >= 1 that
    has a next value:

    (1 - a_t)^3 < a_(t+1) - a_t < (1 - a_t)^(3/2) and a_(t+1) - a_t >= 2^-18n,

    and for every t >= 1, 1 - a_t >= 2^-6n.  All compared exactly, as ints
    over one scale (core._scaled_ints), the 3/2 power as
    gap^2 < (1 - a_t)^3 (a chain's gaps are positive).
    """
    ints, scale, _ = _scaled_ints(alphas)
    violations = []
    for t in range(1, len(ints)):
        rem = scale - ints[t]  # (1 - a_t) * scale
        bounds = [("distance-from-1 floor", rem << 6 * n >= scale)]
        if t + 1 < len(ints):
            gap, rem3 = ints[t + 1] - ints[t], rem**3
            bounds = [
                ("cube lower bound", rem3 < gap * scale * scale),
                ("3/2-power upper bound", gap * gap * scale < rem3),
                *bounds,
                ("gap floor", gap << 18 * n >= scale),
            ]
        violations += [(t, name) for name, holds in bounds if not holds]
    return GapBoundReport(violations)


# each named construction: its builder at n and the parameters it takes
# besides n
NAMED_CONSTRUCTIONS = {
    SUBMOD_F.name: (build_equal_revenue_submod_f, ("precision_bits",)),
    SUPMOD_C.name: (build_equal_revenue_supmod_c, ()),
    "rounded": (lambda n, grid_bits=None: build_rounded(n, grid_bits).instance, ("grid_bits",)),
}


def build_named(name: str, params: dict) -> ContractInstance:
    """The named construction at params["n"] and the other parameters it
    takes; a parameter it does not take raises ValueError."""
    if name not in NAMED_CONSTRUCTIONS:
        raise ValueError(f"unknown named construction {name!r}")
    build, takes = NAMED_CONSTRUCTIONS[name]
    extra = sorted(set(params) - {"n", *takes})
    if extra:
        raise ValueError(f"{name} does not take {', '.join(extra)}")
    return build(**params)
