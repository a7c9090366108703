"""Breakpoint enumeration, exact optimum, and the FPTAS.

A breakpoint (critical value) is the minimal contract alpha incentivizing a
given set.  The optimal linear contract always sits on a breakpoint, so the
exact solver takes the maximal principal utility (1 - alpha) * f(S) over
the breakpoints, scored exactly on the instance's lower hull.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .constructions import kind_of
from .core import ActionSet, ContractInstance, best_response, best_response_runs, derived
from .core import lower_hull, value
from .reals import RealContext, ratio
from .serialize import number_to_str


class ParameterError(ValueError):
    pass


class BracketUndefinedError(ValueError):
    pass


@dataclass(frozen=True)
class Breakpoint:
    position: int
    alpha: object
    aset: ActionSet
    f_value: object
    c_value: object
    principal_utility: object
    ctx: RealContext = field(repr=False, compare=False)

    @property
    def agent_utility(self):
        """alpha * f - c, rounded as the instance's arithmetic rounds it."""
        with self.ctx.workprec():
            return self.alpha * self.f_value - self.c_value


def csv_rows(breakpoints: list[Breakpoint]) -> list[tuple]:
    """Rows t, alpha, set_mask, f, c, agent_utility, principal_utility;
    numbers written losslessly, as in the JSON report."""
    rows = [("t", "alpha", "set_mask", "f", "c", "agent_utility", "principal_utility")]
    for b in breakpoints:
        values = (b.alpha, b.f_value, b.c_value, b.agent_utility, b.principal_utility)
        alpha, f, c, agent, principal = map(number_to_str, values)
        rows.append((b.position, alpha, b.aset.mask, f, c, agent, principal))
    return rows


def _make_breakpoint(inst, position, alpha, mask, ftab, ctab) -> Breakpoint:
    fv = ftab[mask]
    cv = ctab[mask]
    return Breakpoint(
        position=position,
        alpha=alpha,
        aset=ActionSet(inst.n, mask),
        f_value=fv,
        c_value=cv,
        principal_utility=(1 - alpha) * fv,
        ctx=inst.ctx,
    )


def _critical_alpha(hull, j, ftab, ctab):
    """The alpha of the critical value reached over hull edge j: the exact
    slope dC s_f / (dF s_c), a Fraction, when the hull is rational, else
    the differences of the f and c entries of its two vertices, as ftab
    and ctab give them by mask (the tables, or entries read from them),
    divided in the tables' own arithmetic.  Call inside the working
    precision."""
    if hull.rational:
        return Fraction(hull.nums[j] * hull.f_scale, hull.dens[j] * hull.c_scale)
    prev, cur = hull.vertices[j], hull.vertices[j + 1]
    return (ctab[cur] - ctab[prev]) / (ftab[cur] - ftab[prev])


def _chain(hull) -> range:
    """The hull edges j whose slopes are critical values, each reaching
    vertices[j + 1]: from the alpha = 0 best response, vertices[index(0)],
    up to the first slope >= 1, both decided exactly.  Every slope past
    index(0) is > 0, so each chain edge has dC > 0 as well as dF > 0."""
    end = hull.index(1)
    if end and hull.nums[end - 1] * hull.f_scale == hull.dens[end - 1] * hull.c_scale:
        end -= 1  # slope exactly 1
    return range(hull.index(0), end)


def critical_values(inst: ContractInstance, ftab=None, ctab=None) -> list[tuple]:
    """(alpha, mask) of every critical value, in increasing order, read off
    the instance's lower hull (core.lower_hull) along _chain.

    The first alpha is the int 0, exact in every representation; each
    later one is _critical_alpha's, from the tables, or from ftab and ctab
    when given: the f and c entries by mask, read from them beforehand.
    """
    hull = lower_hull(inst)
    if ftab is None:
        ftab, ctab = inst.f.table, inst.c.table
    edges = _chain(hull)
    pairs = [(0, hull.vertices[edges.start])]
    with inst.ctx.workprec():
        pairs += [(_critical_alpha(hull, j, ftab, ctab), hull.vertices[j + 1]) for j in edges]
    return pairs


def _derive_chain(inst: ContractInstance, start: int) -> list:
    """The tables' critical values if their sets are exactly the chain
    start..2^n - 1, else ValueError."""
    pairs = critical_values(inst)
    if [m for _, m in pairs] != list(range(start, inst.size)):
        raise ValueError("base must be an equal-revenue construction")
    return [a for a, _ in pairs]


def chain_alphas(inst: ContractInstance) -> list:
    """The critical values of the chain of the instance's equal-revenue kind
    (constructions.kind_of), kept by core.derived: the constructions seed it
    with their closed-form list; otherwise, and again after a table is
    replaced, it is _derive_chain's from the kind's chain_start."""
    start = kind_of(inst).chain_start
    return derived(inst, "chain", lambda _: _derive_chain(inst, start))


def enumerate_breakpoints(inst: ContractInstance, method: str = "hull") -> list[Breakpoint]:
    """All critical values of the instance, in strictly increasing order,
    with their sets, f and c values and both utilities, all from the tables'
    own entries.  The order is LowerHull.build's: along _chain the slopes
    rise strictly and f and c rise with them (dF > 0, dC > 0).

    The (alpha, mask) pairs are critical_values(inst): the hull is built once
    per instance in O(n 2^n) and shared with core.best_response.  Each
    vertex's f and c entry is read once, for its alpha and its row (an
    MpfTable builds an entry on each read).  method accepts only "hull",
    the one way there is.
    """
    if method != "hull":
        raise ParameterError(f"unknown enumeration method {method!r}")
    hull = lower_hull(inst)
    edges = _chain(hull)
    masks = hull.vertices[edges.start : edges.stop + 1]
    fs, cs = ({m: tab[m] for m in masks} for tab in (inst.f.table, inst.c.table))
    with inst.ctx.workprec():
        return [
            _make_breakpoint(inst, pos, alpha, mask, fs, cs)
            for pos, (alpha, mask) in enumerate(critical_values(inst, fs, cs))
        ]


@dataclass
class ContractSolution:
    alpha_star: object
    set_star: ActionSet
    principal_utility: object
    co_optimal: list[int]  # positions t of the critical values within tau of the max
    breakpoint_count: int


def _chain_argmax(inst: ContractInstance, hull):
    """(t, alpha, mask, scores): the winning critical value's position t on
    the chain (_chain), its exact alpha (_critical_alpha, in the instance's
    own arithmetic) and set, and every position's score, decided on hull,
    the instance's lower hull, in its scaled frame (core.LowerHull).

    Critical value t, reached over an edge with scaled-int differences dC,
    dF, has alpha_t = dC s_f / (dF s_c), and its set's scaled f is F_t = f0
    plus the dF of every edge before it.  So s_f s_c times its principal
    utility is exactly (dF s_c - dC s_f) F_t / dF, the int pair scores[t]
    over one edge's f width, and these pairs are compared by
    cross-multiplication in every representation.  The smallest maximizing
    alpha wins.  Call inside the working precision.
    """
    s_f, s_c = hull.f_scale, hull.c_scale
    edges = _chain(hull)
    k, end = edges.start, edges.stop
    big_f = hull.f0 + sum(hull.dens[:k])
    best, bn, bd = 0, big_f * s_c, 1
    scores = [(bn, bd)]  # s_f s_c (1 - alpha_t) f(S_t) as a numerator, denominator pair
    for num, den in zip(hull.nums[k:end], hull.dens[k:end]):
        big_f += den
        sn = (den * s_c - num * s_f) * big_f
        if sn * bd > bn * den:  # equal ties: the smaller alpha wins
            best, bn, bd = len(scores), sn, den
        scores.append((sn, den))
    alpha = _critical_alpha(hull, k + best - 1, inst.f.table, inst.c.table) if best else 0
    return best, alpha, hull.vertices[k + best], scores


def best_contract(inst: ContractInstance) -> tuple:
    """(alpha_star, set_star) of optimal_contract, the winner alone: no
    co-optimal pass and no row, so no table entry is read but the ends of
    the winner's hull edge (by _critical_alpha, on a non-rational hull)."""
    hull = lower_hull(inst)
    with inst.ctx.workprec():
        _, alpha, mask, _ = _chain_argmax(inst, hull)
    return alpha, ActionSet(inst.n, mask)


def optimal_contract(inst: ContractInstance) -> ContractSolution:
    """max (1 - alpha) * f(S_alpha) over the critical values, decided exactly
    on the instance's lower hull (_chain_argmax), with the report around
    the winner.

    co_optimal lists every position within tau = 2^(-precision_bits/2) of
    the max, tau scaled by s_f s_c and compared exactly with the scores:
    against the floor q of the scaled max less tau, a score of q + 1 or
    more is within and one below q is not, so only a score between the two
    is cross-multiplied with the threshold's full fraction.  Only the
    winner's row is built (_make_breakpoint), so its alpha and utility are
    those enumerate_breakpoints reports for it, in the instance's own
    arithmetic.
    """
    hull = lower_hull(inst)
    with inst.ctx.workprec():
        best, alpha, mask, scores = _chain_argmax(inst, hull)
        row = _make_breakpoint(inst, best, alpha, mask, inst.f.table, inst.c.table)
    s_f, s_c = hull.f_scale, hull.c_scale
    bn, bd = scores[best]
    tp, tq = ratio(inst.ctx.maximizer_tolerance)
    ln, ld = bn * tq - tp * s_f * s_c * bd, bd * tq  # the max less s_f s_c tau
    q1 = ln // ld + 1  # sn / sd >= ln / ld on q = floor(ln / ld), see above
    near = [
        t
        for t, (sn, sd) in enumerate(scores)
        if sn >= (hi := q1 * sd) or (sn >= hi - sd and sn * ld >= ln * sd)
    ]
    return ContractSolution(
        alpha_star=row.alpha,
        set_star=row.aset,
        principal_utility=row.principal_utility,
        co_optimal=near,
        breakpoint_count=len(scores),
    )


@dataclass
class FptasResult:
    alpha: object
    aset: ActionSet
    principal_utility: object
    value_queries: int
    best_response_queries: int


def fptas(inst: ContractInstance, eps) -> FptasResult:
    """(1 - eps)-approximation using only value and best-response oracles.

    Geometric grid over each singleton-cost bracket; O(n^2 / eps) queries.
    Each grid (alpha_bracket, never decreasing) is answered in runs of one
    best response (core.best_response_runs), and its set's f is read once
    per run.  A run's utilities (1 - alpha) f(S) do not increase when
    f(S) >= 0, as alpha does not decrease and rounding is monotone, so only
    its first probe can win (ties go to the first probe) and only it is
    scored; every probe is scored when f(S) < 0.  Every probe is still
    charged a best response and an f value query, one QueryLedger.count
    each.
    """
    if not (0 < eps < 1):
        raise ParameterError("eps must be in (0, 1)")
    with inst.ctx.workprec():
        one = inst.ctx.make(1)
        # step 1: the f-maximal zero-cost set, via a best response at alpha=0
        zero = inst.ctx.make(0)
        s = best_response(inst, zero)
        best_alpha, best_mask, best_util = zero, s.mask, (one - zero) * value(inst.f, s)
        probes = 1
        # step 2: welfare optimum via a best response at alpha=1
        s_opt = best_response(inst, one)
        opt = value(inst.f, s_opt) - value(inst.c, s_opt)
        if opt > 0:
            ftab, count = inst.f.table, inst.f.ledger.count
            for j in range(1, inst.n + 1):
                cj = value(inst.c, ActionSet(inst.n, 1 << (j - 1)))
                if not cj > 0:
                    continue
                grid = alpha_bracket(inst, opt, cj, eps)
                start = 0
                for stop, mask in best_response_runs(inst, grid):
                    fv = ftab[mask]
                    for _ in range(start, stop):
                        count("value_queries", mask)
                    for alpha in grid[start : start + 1 if fv >= 0 else stop]:
                        util = (one - alpha) * fv
                        if util > best_util:  # equal ties: the first probe wins
                            best_alpha, best_mask, best_util = alpha, mask, util
                    start = stop
                probes += len(grid)

    return FptasResult(
        alpha=best_alpha,
        aset=ActionSet(inst.n, best_mask),
        principal_utility=best_util,
        # the queries made: per probe a best response and an f value, for
        # s_opt a best response and two values, and n singleton costs
        value_queries=probes + 2 + (inst.n if opt > 0 else 0),
        best_response_queries=probes + 1,
    )


def alpha_bracket(inst: ContractInstance, opt, j_cost, eps) -> list:
    """The FPTAS's probe grid over the bracket of singleton cost j_cost.

    alpha_k = 1 - (1 - eps)^k opt / (j_cost + opt) for k = 0..K, with
    K = ceil(log(n 2^n) / -log(1 - eps)): from the bracket's lower edge
    1 - opt / (j_cost + opt), where the optimum can sit exactly (k = 0), to
    at or past its upper edge 1 - opt / (n 2^n (j_cost + opt)).
    """
    if not opt > 0:
        raise BracketUndefinedError("bracket requires positive welfare optimum")
    k_max = math.ceil(math.log(inst.n * (1 << inst.n)) / -math.log(1 - float(eps)))
    with inst.ctx.workprec():
        one = inst.ctx.make(1)
        shrink = one - eps
        scale = opt / (j_cost + opt)
        grid = []
        factor = one
        for _ in range(k_max + 1):
            grid.append(one - factor * scale)
            factor = factor * shrink
    return grid
