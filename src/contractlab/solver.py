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

from .core import ActionSet, ContractInstance, _argmax_with_tie_break, lower_hull
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


@dataclass
class BreakpointTable:
    instance: ContractInstance
    breakpoints: list[Breakpoint] = field(default_factory=list)

    def __len__(self):
        return len(self.breakpoints)

    def __iter__(self):
        return iter(self.breakpoints)

    def __getitem__(self, i):
        return self.breakpoints[i]

    def csv_rows(self):
        """Rows t, alpha, set_mask, f, c, agent_utility, principal_utility;
        numbers written losslessly, as in the JSON report."""
        header = ("t", "alpha", "set_mask", "f", "c", "agent_utility", "principal_utility")
        rows = [header]
        for b in self.breakpoints:
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
    up to the first slope >= 1, both decided exactly."""
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
        ftab, ctab = hull.f_table, hull.c_table
    edges = _chain(hull)
    pairs = [(0, hull.vertices[edges.start])]
    with inst.ctx.workprec():
        pairs += [(_critical_alpha(hull, j, ftab, ctab), hull.vertices[j + 1]) for j in edges]
    return pairs


# first set of each equal-revenue chain: the empty set at alpha = 0 on the
# submodular-reward base; on the supermodular-cost base S_1 costs 0 as well
# and pays more, so the chain starts there
_CHAIN_START = {"equal_revenue_submod_f": 0, "equal_revenue_supmod_c": 1}


def chain_alphas(inst: ContractInstance) -> list:
    """meta["alpha_table"]: the critical values of the construction's chain.

    The constructions set it.  On a loaded instance of an equal-revenue kind
    it is derived here, on first use, from the tables' own critical values,
    and kept only if their sets are exactly the chain start..2^n - 1 of the
    construction; any other instance is refused with ValueError.
    """
    alphas = inst.meta.get("alpha_table")
    if alphas is not None:
        return alphas
    start = _CHAIN_START.get(inst.meta.get("kind"))
    if start is not None:
        pairs = critical_values(inst)
        if [m for _, m in pairs] == list(range(start, inst.size)):
            alphas = inst.meta["alpha_table"] = [a for a, _ in pairs]
            return alphas
    raise ValueError("base must be an equal-revenue construction")


def enumerate_breakpoints(inst: ContractInstance, method: str = "hull") -> BreakpointTable:
    """All critical values of the instance, in increasing order, with their
    sets, f and c values and both utilities, all from the tables' own entries.

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
    fs = {m: hull.f_table[m] for m in masks}
    cs = {m: hull.c_table[m] for m in masks}
    with inst.ctx.workprec():
        bps = [
            _make_breakpoint(inst, pos, alpha, mask, fs, cs)
            for pos, (alpha, mask) in enumerate(critical_values(inst, fs, cs))
        ]
    table = BreakpointTable(inst, bps)
    _check_table_invariants(table)
    return table


def _check_table_invariants(table: BreakpointTable) -> None:
    bps = table.breakpoints
    if not bps:
        raise AssertionError("breakpoint table cannot be empty")
    if not bps[0].alpha == 0:
        raise AssertionError("first breakpoint must have alpha = 0")
    if len(bps) > table.instance.size:
        raise AssertionError("more breakpoints than subsets")
    # a float or mpf table's alphas are rounded quotients, so two critical
    # values whose exact slopes differ may round to one alpha: the strict
    # rise of alpha is checked on the hull edges' exact ints instead
    hull = lower_hull(table.instance)
    edges = _chain(hull)
    nums, dens = hull.nums[edges.start : edges.stop], hull.dens[edges.start : edges.stop]
    rising = all(pn * den < num * pd for pn, pd, num, den in zip(nums, dens, nums[1:], dens[1:]))
    if not rising or len(nums) + 1 != len(bps):
        raise AssertionError("alpha, f, c must be strictly increasing along the table")
    for a, b in zip(bps, bps[1:]):
        if not (a.f_value < b.f_value and a.c_value < b.c_value):
            raise AssertionError("alpha, f, c must be strictly increasing along the table")


@dataclass
class ContractSolution:
    alpha_star: object
    set_star: ActionSet
    principal_utility: object
    co_optimal: list[int]  # positions t of the critical values within tau of the max
    breakpoint_count: int


def optimal_contract(inst: ContractInstance) -> ContractSolution:
    """max (1 - alpha) * f(S_alpha) over the critical values, decided exactly
    on the instance's lower hull, in its scaled frame (core.LowerHull).

    The walk is critical_values' (_chain).  Critical value t, reached over
    an edge with scaled-int differences dC, dF, has alpha_t =
    dC s_f / (dF s_c), and its set's scaled f is F_t = f0 plus the dF of
    every edge before it.  So s_f s_c times its principal utility is
    exactly (dF s_c - dC s_f) F_t / dF, an int pair over one edge's f
    width, and these pairs are compared by cross-multiplication in every
    representation.  Canonical answer is the smallest maximizing alpha;
    co_optimal lists every position within tau = 2^(-precision_bits/2) of
    the max, tau scaled by s_f s_c and also compared exactly: against the
    floor q of the scaled max less tau, a score of q + 1 or more is within
    and one below q is not, so only a score between the two is
    cross-multiplied with the threshold's full fraction.  Only the
    winner's row is built (_make_breakpoint), so its alpha and utility are
    those enumerate_breakpoints reports for it, in the instance's own
    arithmetic.
    """
    hull = lower_hull(inst)
    verts, ftab = hull.vertices, hull.f_table
    s_f, s_c = hull.f_scale, hull.c_scale
    edges = _chain(hull)
    k, end = edges.start, edges.stop
    big_f = hull.f0 + sum(hull.dens[:k])
    best, bn, bd = 0, big_f * s_c, 1
    scores = [(bn, bd)]  # s_f s_c (1 - alpha_t) f(S_t) as a numerator, denominator pair
    pn, pd = 0, 1  # the previous edge's dC, dF: alpha 0 at t = 0
    for num, den in zip(hull.nums[k:end], hull.dens[k:end]):
        # c rises with f wherever the slope dC / dF is positive, which
        # alpha > alpha_0 = 0 makes it
        if not (pn * den < num * pd and den > 0):
            raise AssertionError("alpha, f, c must be strictly increasing along the table")
        big_f += den
        sn = (den * s_c - num * s_f) * big_f
        if sn * bd > bn * den:  # equal ties: the smaller alpha wins
            best, bn, bd = len(scores), sn, den
        scores.append((sn, den))
        pn, pd = num, den
    tp, tq = ratio(inst.ctx.maximizer_tolerance)
    ln, ld = bn * tq - tp * s_f * s_c * bd, bd * tq  # the max less s_f s_c tau
    q1 = ln // ld + 1  # sn / sd >= ln / ld on q = floor(ln / ld), see above
    near = [
        t
        for t, (sn, sd) in enumerate(scores)
        if sn >= (hi := q1 * sd) or (sn >= hi - sd and sn * ld >= ln * sd)
    ]
    with inst.ctx.workprec():
        alpha = _critical_alpha(hull, k + best - 1, ftab, hull.c_table) if best else 0
        row = _make_breakpoint(inst, best, alpha, verts[k + best], ftab, hull.c_table)
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
    """
    if not (0 < eps < 1):
        raise ParameterError("eps must be in (0, 1)")
    from .core import best_response, value

    # each distinct ledger once: the instance and its oracles may share one
    ledgers = list({id(l): l for l in (inst.ledger, inst.f.ledger, inst.c.ledger)}.values())
    before = [l.value_queries for l in ledgers]
    br_before = inst.ledger.best_response_queries

    def val_f(s):
        return value(inst.f, s)

    def val_c(s):
        return value(inst.c, s)

    with inst.ctx.workprec():
        one = inst.ctx.make(1)
        # step 1: the f-maximal zero-cost set, via a best response at alpha=0
        zero = inst.ctx.make(0)
        s = best_response(inst, zero)
        probes = [(zero, s, (one - zero) * val_f(s))]
        # step 2: welfare optimum via a best response at alpha=1
        s_opt = best_response(inst, one)
        opt = val_f(s_opt) - val_c(s_opt)
        if opt > 0:
            for j in range(1, inst.n + 1):
                cj = val_c(ActionSet(inst.n, 1 << (j - 1)))
                if not cj > 0:
                    continue
                for alpha in alpha_bracket(inst, opt, cj, eps):
                    s = best_response(inst, alpha)
                    probes.append((alpha, s, (one - alpha) * val_f(s)))
        # equal ties: the first probe wins
        utils = [u for _, _, u in probes]
        best_alpha, best_set, best_util = probes[_argmax_with_tie_break(utils, [0] * len(utils))]

    return FptasResult(
        alpha=best_alpha,
        aset=best_set,
        principal_utility=best_util,
        value_queries=sum(l.value_queries - b for l, b in zip(ledgers, before)),
        best_response_queries=inst.ledger.best_response_queries - br_before,
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
