"""Approximate argmax sets, ambiguity intervals, and demand-oracle simulation.

D^sigma(p) collects every set within sigma of the maximal quasi-linear
utility f(S) - p(S).  For the equal-revenue reward function and small enough
sigma, this collection stays O(n^2)-sized at every price vector, which is
what lets a handful of value queries simulate a demand query; the mirror
collection for p(S) - c(S) does the same for a supply query on the
supermodular cost.  Which query a hidden family answers, on which table, is
its base's kind's (constructions.kind_of).  Every set, simulation and family
answer here is exact in every table representation (core._scores).
"""

from __future__ import annotations

import bisect
import random
import statistics
from dataclasses import asdict, dataclass

from .core import (
    ActionSet,
    SetFunctionOracle,
    _alpha_scores,
    _argmax,
    _near_top,
    _price_sums,
    _scores,
    _within,
)
from .constructions import REWARD_BONUS, kind_of
from .perturb import _shifted_entry, epsilon_bound, valid_k_range
from .solver import chain_alphas


class InvariantError(AssertionError):
    pass


def sparseness_ceiling(n: int) -> int:
    """2(n+1)(n+2): the proved cap on |D^sigma(p)| for valid sigma."""
    return 2 * (n + 1) * (n + 2)


@dataclass
class ApproxArgmaxSet:
    """D^sigma as the masks of its members, in increasing order."""

    mask_list: list[int]

    def __len__(self):
        return len(self.mask_list)

    def masks(self) -> list[int]:
        """The members' masks, in increasing order; the list itself."""
        return self.mask_list


def _approx_argmax(kind, x, prices, sigma) -> ApproxArgmaxSet:
    """D^sigma of the kind's utility, decided exactly: the masks the float
    pass keeps (core._near_top), scored by core._scores and cut by
    core._within when there is more than one.  ValueError for a NaN,
    infinite or negative sigma."""
    masks = _near_top(kind, x, prices, sigma)
    if len(masks) > 1:
        util, _, factor, _ = _scores(kind, x, prices, masks)
        masks = [masks[j] for j in _within(util, factor, sigma)]
    return ApproxArgmaxSet(masks)


def approx_demand(f: SetFunctionOracle, prices, sigma, ctx=None) -> ApproxArgmaxSet:
    """All S with f(S) - p(S) >= max - sigma, in increasing mask order,
    decided exactly (see _approx_argmax); ctx changes no answer."""
    return _approx_argmax("demand", f, prices, sigma)


def approx_supply(c: SetFunctionOracle, prices, sigma, ctx=None) -> ApproxArgmaxSet:
    """All S with p(S) - c(S) >= max - sigma (see approx_demand)."""
    return _approx_argmax("supply", c, prices, sigma)


def approx_best_response(inst, alpha, sigma) -> ApproxArgmaxSet:
    """All S with alpha f(S) - c(S) >= max - sigma, decided exactly.

    Every set is scored on the oracles' scaled ints (core._alpha_scores),
    factor times its utility, and core._within cuts sigma factor below the
    max in ints, whatever the representation of the tables, alpha and
    sigma.  ValueError for a NaN, infinite or negative sigma.
    """
    fs, s_f, _ = inst.f.scaled()
    cs, s_c, _ = inst.c.scaled()
    scores, factor = _alpha_scores(alpha, fs, s_f, cs, s_c)
    return ApproxArgmaxSet(_within(scores, factor, sigma))


@dataclass
class SigmaBound:
    """Strict supremum on admissible sigma plus the default (half of it)."""

    bound: object
    sigma: object


def _adjacent_pair_min(base, gap) -> SigmaBound:
    """Half the least gap(alpha_l, alpha_(l+1)) over the chain's adjacent
    pairs; a gap of None skips its pair.  ValueError when no pair is left,
    as on the two-set chain of n = 1."""
    alphas = chain_alphas(base)
    with base.ctx.workprec():
        gaps = list(map(gap, alphas, alphas[1:]))
        halves = [g / 2 for g in gaps if g is not None]
        if not halves:
            raise ValueError("no adjacent pair of critical values bounds sigma")
        best = min(halves)
        return SigmaBound(bound=best, sigma=best / 2)


def sigma_bound_demand(base) -> SigmaBound:
    """sigma < min over l < h of (1/alpha_l - 1/alpha_h) / 2.

    1/alpha is strictly decreasing in the breakpoint index, so the pairwise
    minimum is realized at an adjacent pair (property-tested against the
    full quadratic scan).  Pairs from a nonpositive alpha_l are skipped.
    """
    return _adjacent_pair_min(base, lambda lo, hi: 1 / lo - 1 / hi if lo > 0 else None)


def sigma_bound_supply(base) -> SigmaBound:
    """Mirror bound sigma < min over l < h of (alpha_h - alpha_l) / 2."""
    return _adjacent_pair_min(base, lambda lo, hi: hi - lo)


@dataclass
class AmbiguityInterval:
    action: int
    r: int
    l: int


def ambiguity_intervals(approx: ApproxArgmaxSet, n: int) -> list[AmbiguityInterval]:
    """Per action i: r_i = max member index containing i (0 if none),
    l_i = max(r_i - 2^i, 0).  Validates the forced-membership invariant:
    members above r_i exclude i, members below l_i include i.
    """
    intervals = []
    masks = approx.masks()
    for i in range(1, n + 1):
        bit = 1 << (i - 1)
        containing = [t for t in masks if t & bit]
        r = max(containing) if containing else 0
        l = max(r - (1 << i), 0)
        intervals.append(AmbiguityInterval(action=i, r=r, l=l))
    for iv in intervals:
        bit = 1 << (iv.action - 1)
        for t in masks:
            if t > iv.r and (t & bit):
                raise InvariantError(
                    f"member {t} above r_{iv.action}={iv.r} contains action {iv.action}"
                )
            if t < iv.l and not (t & bit):
                raise InvariantError(
                    f"member {t} below l_{iv.action}={iv.l} misses action {iv.action}"
                )
    return intervals


def minimal_ambiguous_census(approx: ApproxArgmaxSet, n: int) -> dict[int, int]:
    """Count members by their minimal ambiguous action
    m(S_t) = min {i : l_i <= t <= r_i}, with n+1 when no interval covers t.

    Asserts the per-bucket caps: 4 i* for i* <= n, and n+1 for the overflow
    bucket.
    """
    intervals = ambiguity_intervals(approx, n)
    census = {i: 0 for i in range(1, n + 2)}
    for t in approx.masks():
        star = n + 1
        for iv in intervals:
            if iv.l <= t <= iv.r:
                star = iv.action
                break
        census[star] += 1
    for i, cnt in census.items():
        cap = 4 * i if i <= n else n + 1
        if cnt > cap:
            raise InvariantError(f"census bucket {i} holds {cnt} > cap {cap}")
    return census


def _simulate_by_values(kind, base, hidden, prices, eps, ctx):
    """The argmax of the kind's utility on hidden, from value queries on the
    D^eps(prices) members of base only: each member is charged to hidden's
    ledger as a value query and, when there is more than one, scored on
    hidden's exact form (core._scores), core._argmax breaking ties to the
    higher hidden value, then the lower index.  Returns (chosen set, value
    queries used)."""
    if hidden.n != base.n:
        raise ValueError("the hidden and public oracles have different ground sets")
    # module-level lookup at call time, so wrappers installed on it apply
    approx = approx_demand if kind == "demand" else approx_supply
    members = approx(base, prices, eps, ctx).masks()  # increasing mask order
    best = members[0]
    if len(members) > 1:
        best = members[_argmax(*_scores(kind, hidden, prices, members)[:2])]
    count = hidden.ledger.count
    for m in members:
        count("value_queries", m)
    return ActionSet(base.n, best), len(members)


def simulate_demand_by_values(base_f, hidden_f, prices, eps, ctx=None):
    """Answer a demand query on hidden_f using only value queries.

    base_f is public (computations on it are free); hidden_f agrees with it
    except for a bonus of at most eps on one set, so the true demand lies in
    D^eps(prices) of base_f.  Queries hidden_f only on those members.
    Returns (chosen set, value queries used).
    """
    return _simulate_by_values("demand", base_f, hidden_f, prices, eps, ctx)


def simulate_supply_by_values(base_c, hidden_c, prices, eps, ctx=None):
    """Mirror of simulate_demand_by_values for p(S) - c(S) and a discount."""
    return _simulate_by_values("supply", base_c, hidden_c, prices, eps, ctx)


def simulate_family(base, shared, own):
    """Every comparison of a hidden-family simulation run, without building
    a family member: each member's demand query (reward-bonus base) or
    supply query (cost-discount base) at each price vector, answered
    exactly and by value queries on D^eps(p) of the public table.

    Yields (k, prices, got, used, want) per member k, in increasing k
    (perturb.valid_k_range), and per price vector: got and used are what
    simulate_*_by_values(public, member, prices, epsilon) returns, with got
    as a mask, and want is the mask demand or supply gives on the member;
    epsilon is the budget's default, family_iterator's.  shared lists the
    price vectors every member meets; own(k) is called once per member, in
    increasing k after the shared vectors are done, for that member's own.

    A member is the public table's ints with entry k replaced
    (perturb._shifted_entry), over mult times the public scale.  So one
    exact scan of the public table per price vector (core._near_top and
    core._scores: its argmax b, b's key and D^eps(p)) serves every member.
    Member b wins: its shifted key is at least b's, which beats every other.
    Any other member k wins when its shifted key beats b's, scaled by mult.
    The simulation answers b unless k is in D^eps(p), where it answers as
    the exact query.  The cost is one float pass per price vector and O(1)
    int work per comparison (O(n) on a member's own price vector).
    """
    kind = kind_of(base)
    query, public = kind.query, getattr(base, kind.side)
    v_scale = public.scaled()[1]
    epsilon = epsilon_bound(base).default_epsilon
    members = []
    for k in valid_k_range(base):
        _, kint, scale = _shifted_entry(base, kind, k, epsilon)
        members.append((k, kint, scale, scale // v_scale))

    def answers(prices, chosen):
        masks = _near_top(query, public, prices, epsilon)
        util, tie, factor, p_ints = _scores(query, public, prices, masks)
        i = _argmax(util, tie)
        best, within = masks[i], {masks[j] for j in _within(util, factor, epsilon)}
        top, top_tie, p_scale, used = util[i], tie[i], factor // v_scale, len(within)
        ks = [k for k, *_ in chosen]
        for (k, kint, scale, mult), p in zip(chosen, _price_sums(p_ints, ks, 1 << base.n)):
            want = k
            if k != best:
                u = kint * p_scale - p * scale if query == "demand" else p * scale - kint * p_scale
                if (u, kint, -k) < (top * mult, top_tie * mult, -best):
                    want = best
            yield k, prices, want if k in within else best, used, want

    for prices in shared:
        yield from answers(prices, members)
    for member in members:
        for prices in own(member[0]):
            yield from answers(prices, (member,))


def random_prices(n: int, rng):
    """p_i = 2^u with u uniform on [-n, n]."""
    return tuple(2.0 ** rng.uniform(-n, n) for _ in range(n))


@dataclass
class ExperimentStats:
    n: int
    trials: int
    seed: int | None
    mean_queries: float
    stderr: float
    exact_expectation: float
    lower_bound: float
    identified_all: bool

    @property
    def ok(self) -> bool:
        return (
            self.identified_all
            and self.mean_queries >= self.lower_bound
            and abs(self.mean_queries - self.exact_expectation) <= 3 * self.stderr + 1e-12
        )

    def as_dict(self):
        """The fields (asdict), with strategy after trials, as the CSV
        report's columns run, and ok last."""
        d = asdict(self)
        n, trials = d.pop("n"), d.pop("trials")
        return {"n": n, "trials": trials, "strategy": "scan", **d, "ok": self.ok}


def value_query_experiment(base, trials: int, seed: int | None = 0) -> ExperimentStats:
    """Locate a hidden reward bonus by value queries against the public base.

    The hidden index k is uniform on [1, 2^n - 1], its bonus the budget's
    default epsilon.  The scan queries sets in fixed increasing order and
    stops at the first whose hidden value f(S_t) + (epsilon if t == k else
    0), in the working precision, differs from the base table's entry, so
    its query count is k's scan position; the exact expectation is 2^(n-1)
    and the proved floor is 2^(n-2).

    The scan is not rerun per trial.  One O(2^n) pass finds the t where it
    would stop with no bonus at all, f(S_t) + 0 != f(S_t) (an entry wider
    than the context rounds when 0 is added); then a trial's count is the
    first such t below k, else k when f(S_k) + epsilon != f(S_k) (decided
    once per distinct k), else the first such t above k, else 2^n - 1, the
    whole scan.  So a run costs O(2^n + trials) after the budget.  ValueError,
    before the budget is computed, when trials is not an int >= 1 or the
    base is not a reward-bonus base (constructions.kind_of).
    """
    if isinstance(trials, bool) or not isinstance(trials, int) or trials < 1:
        raise ValueError(f"trials must be an int >= 1, got {trials!r}")
    if kind_of(base).direction != REWARD_BONUS:
        raise ValueError("value-query experiment needs a reward-bonus base")
    n = base.n
    size = 1 << n
    epsilon = epsilon_bound(base).default_epsilon
    ftab = tuple(base.f.table)  # an MpfTable's entries built once
    rng = random.Random(seed)
    counts = []
    identified_all = True
    with base.ctx.workprec():
        stops = [t for t in range(1, size) if ftab[t] + 0 != ftab[t]]

        def scan(k):
            """(queries, set found) of the scan for a bonus at k."""
            if stops and stops[0] < k:
                return stops[0], stops[0]
            if ftab[k] + epsilon != ftab[k]:
                return k, k
            i = bisect.bisect_right(stops, k)
            return (stops[i], stops[i]) if i < len(stops) else (size - 1, None)

        scans = {}  # k -> scan(k), a trial's whole outcome
        for _ in range(trials):
            k = rng.randrange(1, size)
            if k not in scans:
                scans[k] = scan(k)
            queries, found = scans[k]
            counts.append(queries)
            if found != k:
                identified_all = False
    mean = statistics.fmean(counts)
    stderr = (statistics.stdev(counts) / len(counts) ** 0.5) if len(counts) > 1 else 0.0
    return ExperimentStats(
        n=n,
        trials=trials,
        seed=seed,
        mean_queries=mean,
        stderr=stderr,
        exact_expectation=float(size / 2),
        lower_bound=float(size // 4),
        identified_all=identified_all,
    )
