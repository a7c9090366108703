"""Agent utility, breakpoint enumeration, exact optimum, and the FPTAS.

A breakpoint (critical value) is the minimal contract alpha incentivizing a
given set.  The optimal linear contract always sits on a breakpoint, so the
exact solver enumerates the breakpoint table and takes the maximal
principal utility (1 - alpha) * f(S) on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .core import ActionSet, ContractInstance, _argmax_with_tie_break, lower_hull
from .reals import RealContext, exact
from .serialize import number_to_str


class ParameterError(ValueError):
    pass


class BracketUndefinedError(ValueError):
    pass


def agent_utility(inst: ContractInstance, alpha, s: ActionSet):
    """u_a(alpha, S) = alpha * f(S) - c(S)."""
    with inst.ctx.workprec():
        return alpha * inst.f.eval_mask(s.mask) - inst.c.eval_mask(s.mask)


def principal_utility(inst: ContractInstance, alpha, s: ActionSet):
    """u_p(alpha, S) = (1 - alpha) * f(S)."""
    with inst.ctx.workprec():
        return (1 - alpha) * inst.f.eval_mask(s.mask)


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

    def alphas(self):
        return [b.alpha for b in self.breakpoints]

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


def critical_values(inst: ContractInstance) -> list[tuple]:
    """(alpha, mask) of every critical value, in increasing order, read off
    the instance's lower hull (core.lower_hull).

    Starts at the alpha = 0 best response and stops before the first slope
    >= 1, both decided exactly.  The alphas of float and mpf tables are the
    tables' own entry differences divided in their own arithmetic; with two
    int/Fraction tables each alpha is the exact slope, a Fraction.  The
    first alpha is the int 0, exact in every representation.
    """
    hull = lower_hull(inst)
    ftab, ctab = hull.f_table, hull.c_table
    k = hull.index(0)
    chain = hull.vertices[k:]
    pairs = [(0, chain[0])]
    with inst.ctx.workprec():
        for prev, cur, num, den in zip(chain, chain[1:], hull.nums[k:], hull.dens[k:]):
            if num >= den:  # slope >= 1
                break
            if hull.rational:  # the exact slope is the alpha
                alpha = Fraction(num, den)
            else:
                alpha = (ctab[cur] - ctab[prev]) / (ftab[cur] - ftab[prev])
            pairs.append((alpha, cur))
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
    per instance in O(n 2^n) and shared with core.best_response.  method
    accepts only "hull", the one way there is.
    """
    if method != "hull":
        raise ParameterError(f"unknown enumeration method {method!r}")
    ftab, ctab = inst.f.value_table(), inst.c.value_table()
    with inst.ctx.workprec():
        bps = [
            _make_breakpoint(inst, pos, alpha, mask, ftab, ctab)
            for pos, (alpha, mask) in enumerate(critical_values(inst))
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
    for a, b in zip(bps, bps[1:]):
        if not (a.alpha < b.alpha and a.f_value < b.f_value and a.c_value < b.c_value):
            raise AssertionError("alpha, f, c must be strictly increasing along the table")


@dataclass
class ContractSolution:
    alpha_star: object
    set_star: ActionSet
    principal_utility: object
    all_maximizers: list[Breakpoint]
    table: BreakpointTable


def optimal_contract(
    inst: ContractInstance, table: BreakpointTable | None = None
) -> ContractSolution:
    """Scan the breakpoint table (enumerate_breakpoints, unless one is given)
    for max (1 - alpha) * f(S_alpha).

    Canonical answer is the smallest maximizing alpha; all_maximizers lists
    every breakpoint within tolerance tau = 2^(-precision_bits/2) of the max,
    compared exactly (tau is a Fraction when the hull is rational).
    """
    if table is None:
        table = enumerate_breakpoints(inst)
    with inst.ctx.workprec():
        utils = [b.principal_utility for b in table]
        # equal ties: the lower index, i.e. the smaller alpha, wins
        best = table[_argmax_with_tie_break(utils, [0] * len(utils))]
        tau = inst.ctx.maximizer_tolerance
        if lower_hull(inst).rational:
            tau = exact(tau)
        near = [b for b in table if best.principal_utility - b.principal_utility <= tau]
    return ContractSolution(
        alpha_star=best.alpha,
        set_star=best.aset,
        principal_utility=best.principal_utility,
        all_maximizers=near,
        table=table,
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

    before = (inst.ledger.value_queries, inst.ledger.best_response_queries)
    ledgers = [inst.f.ledger, inst.c.ledger]
    before_oracles = [(l.value_queries) for l in ledgers]

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

    vq = (
        inst.ledger.value_queries
        - before[0]
        + sum(l.value_queries - b for l, b in zip(ledgers, before_oracles))
    )
    return FptasResult(
        alpha=best_alpha,
        aset=best_set,
        principal_utility=best_util,
        value_queries=vq,
        best_response_queries=inst.ledger.best_response_queries - before[1],
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
