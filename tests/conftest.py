"""Shared brute-force oracles and hypothesis strategies.

The brute-force functions here are written independently of the library
internals (plain loops over masks, no tie-break helpers) so they can serve
as ground truth for the solver and query modules.  The best-response and
breakpoint ones score the exact values of the entries (reals.exact), so
they are ground truth for int, Fraction, float and mpf tables alike.
"""

from __future__ import annotations

import random
import statistics
from fractions import Fraction

import hypothesis.strategies as st

from contractlab.constructions import marginal_margins, verify_structure
from contractlab.core import (
    ActionSet,
    ContractInstance,
    SetFunctionOracle,
    best_response,
    value,
)
from contractlab.reals import RealContext, exact
from contractlab.perturb import PerturbationBudget, epsilon_bound
from contractlab.solver import FptasResult, ParameterError, alpha_bracket, chain_alphas
from contractlab.sparse import ExperimentStats


# --- brute-force ground truth ----------------------------------------------


def reference_argmax(objective, tie_value) -> int:
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


def brute_argmax(util, tie, size):
    """First scan: max utility; second: max tie value; third: lowest mask."""
    best_u = max(util[m] for m in range(size))
    cands = [m for m in range(size) if util[m] == best_u]
    best_t = max(tie[m] for m in cands)
    return min(m for m in cands if tie[m] == best_t)

def brute_best_response(ftab, ctab, alpha):
    size = len(ftab)
    fx, cx, ax = [exact(v) for v in ftab], [exact(v) for v in ctab], exact(alpha)
    util = [ax * fx[m] - cx[m] for m in range(size)]
    return brute_argmax(util, fx, size)


def brute_exact_utilities(kind, tab, prices):
    """f(S) - p(S) ("demand") or p(S) - c(S) ("supply") per mask, and the
    values, all as exact Fractions of the entries and prices."""
    vals, px = [exact(v) for v in tab], [exact(p) for p in prices]
    psum = [sum(px[i] for i in range(len(px)) if m >> i & 1) for m in range(len(vals))]
    sign = 1 if kind == "demand" else -1
    return [sign * (vals[m] - psum[m]) for m in range(len(vals))], vals


def brute_exact_query(kind, tab, prices):
    """The exact demand or supply answer: max utility, then max value (f for
    demand, c for supply), then the lowest mask."""
    util, vals = brute_exact_utilities(kind, tab, prices)
    return brute_argmax(util, vals, len(vals))


def brute_exact_approx(kind, tab, prices, sigma):
    """Every mask whose exact utility is within exact sigma of the max."""
    util, _ = brute_exact_utilities(kind, tab, prices)
    cut = max(util) - exact(sigma)
    return [m for m, u in enumerate(util) if u >= cut]


def brute_breakpoints(ftab, ctab):
    """Independent enumeration: evaluate the best response just above every
    candidate slope and collect the distinct responses in alpha order.

    Exact: slopes and midpoints are Fractions of the entries' exact values.
    """
    size = len(ftab)
    ftab, ctab = [exact(v) for v in ftab], [exact(v) for v in ctab]
    slopes = {Fraction(0)}
    for a in range(size):
        for b in range(size):
            if ftab[b] > ftab[a]:
                s = Fraction(ctab[b] - ctab[a], ftab[b] - ftab[a])
                if 0 <= s < 1:
                    slopes.add(s)
    probes = sorted(slopes)
    out = []
    for lo, hi in zip(probes, probes[1:] + [Fraction(1)]):
        mid = (lo + hi) / 2
        m = brute_best_response(ftab, ctab, mid)
        if not out or out[-1][1] != m:
            # critical value of m is the largest slope <= mid where it starts
            out.append((lo, m))
    return out


def brute_submodular(tab, n, strict=False):
    for s in range(1 << n):
        for t in range(1 << n):
            if s & ~t:
                continue  # need s subset of t
            for i in range(n):
                bit = 1 << i
                if (t | s) & bit:
                    continue
                d = (tab[s | bit] - tab[s]) - (tab[t | bit] - tab[t])
                if s != t and strict and not d > 0:
                    return False
                if not strict and d < 0:
                    return False
    return True


def brute_supermodular(tab, n, strict=False):
    neg = [-v for v in tab]
    return brute_submodular(neg, n, strict=strict)


def strictly_of_class(oracle) -> bool:
    """verify_structure(oracle).ok with every sub- or supermodularity diff
    strict: the declared class's margin (marginal_margins) above 0, or None
    at n = 1, where no pair of actions exists."""
    sense = {"submodular": +1, "supermodular": -1}[oracle.declared_class]
    margin = marginal_margins(oracle.scaled()[0], oracle.n, sense)[1]
    return verify_structure(oracle).ok and (margin is None or margin > 0)


def supmod_c_cost_fractions(n: int) -> list[Fraction]:
    """The supermodular equal-revenue cost as exact rationals, by its
    recurrence: c_0 = 0, c_t = c_(t-1) + (t-1)/t."""
    ctab = [Fraction(0)]
    for t in range(1, 1 << n):
        ctab.append(ctab[-1] + Fraction(t - 1, t))
    return ctab


def reference_fptas(inst: ContractInstance, eps) -> FptasResult:
    """solver.fptas probe by probe, as it was before its grids were answered
    in runs: a best response, an f value query and a utility per probe, and
    the first maximal utility wins."""
    if not (0 < eps < 1):
        raise ParameterError("eps must be in (0, 1)")
    with inst.ctx.workprec():
        one = inst.ctx.make(1)
        zero = inst.ctx.make(0)
        s = best_response(inst, zero)
        probes = [(zero, s, (one - zero) * value(inst.f, s))]
        s_opt = best_response(inst, one)
        opt = value(inst.f, s_opt) - value(inst.c, s_opt)
        if opt > 0:
            for j in range(1, inst.n + 1):
                cj = value(inst.c, ActionSet(inst.n, 1 << (j - 1)))
                if not cj > 0:
                    continue
                for alpha in alpha_bracket(inst, opt, cj, eps):
                    s = best_response(inst, alpha)
                    probes.append((alpha, s, (one - alpha) * value(inst.f, s)))
        utils = [u for _, _, u in probes]
        best_alpha, best_set, best_util = probes[reference_argmax(utils, [0] * len(utils))]
    return FptasResult(
        alpha=best_alpha,
        aset=best_set,
        principal_utility=best_util,
        value_queries=len(probes) + 2 + (inst.n if opt > 0 else 0),
        best_response_queries=len(probes) + 1,
    )


def reference_cost_budget(base) -> PerturbationBudget:
    """perturb.epsilon_bound_cost on the tables' entries, as it was before
    a rational MpfTable cost had its c1 and c2 taken on its ints: every
    term in the entries' own arithmetic, Fractions for a rational table."""
    n, size = base.n, base.size
    ftab, ctab, alphas = tuple(base.f.table), tuple(base.c.table), chain_alphas(base)
    with base.ctx.workprec():
        c1 = marginal_margins(ctab, n, -1)[1]
        c2 = min(ctab[t] - ctab[t - 1] for t in range(2, size))
        c3 = min(
            (alphas[t - 1] - alphas[t - 2]) * (ftab[t] - ftab[t - 1])
            for t in range(2, size)
        )
    return PerturbationBudget(min(c1, c2, c3), (c1, c2, c3))


def reference_value_query(base, trials, seed=0) -> ExperimentStats:
    """sparse.value_query_experiment trial by trial, as it was before the
    stop positions were found in one pass: each trial scans the sets in
    increasing order, hidden value f(S_t) + (epsilon if t == k else 0) in
    the working precision, and stops at the first that differs from f(S_t)."""
    n, size = base.n, base.size
    epsilon = epsilon_bound(base).default_epsilon
    ftab = tuple(base.f.table)
    rng = random.Random(seed)
    counts = []
    identified_all = True
    with base.ctx.workprec():
        for _ in range(trials):
            k = rng.randrange(1, size)
            queries = 0
            found = None
            for t in range(1, size):
                queries += 1
                if ftab[t] + (epsilon if t == k else 0) != ftab[t]:
                    found = t
                    break
            counts.append(queries)
            if found != k:
                identified_all = False
    stderr = statistics.stdev(counts) / len(counts) ** 0.5 if len(counts) > 1 else 0.0
    return ExperimentStats(
        n=n,
        trials=trials,
        seed=seed,
        mean_queries=statistics.fmean(counts),
        stderr=stderr,
        exact_expectation=float(size / 2),
        lower_bound=float(size // 4),
        identified_all=identified_all,
    )


# --- instance factories ------------------------------------------------------


def instance_from_tables(ftab, ctab, bits=53, f_class="general-monotone",
                         c_class="general-monotone"):
    n = (len(ftab) - 1).bit_length()
    f = SetFunctionOracle(n, table=list(ftab), declared_class=f_class)
    c = SetFunctionOracle(n, table=list(ctab), declared_class=c_class)
    return ContractInstance(n=n, f=f, c=c, ctx=RealContext(bits))


def random_monotone_tables(rng, n, granularity=64):
    """Random monotone rational tables with f(empty)=c(empty)=0 and f
    strictly increasing along supersets often enough to be interesting."""
    size = 1 << n
    ftab = [Fraction(0)] * size
    ctab = [Fraction(0)] * size
    for m in range(1, size):
        low = m & (m - 1)
        f_floor = max(ftab[m & ~(1 << i)] for i in range(n) if m >> i & 1)
        c_floor = max(ctab[m & ~(1 << i)] for i in range(n) if m >> i & 1)
        ftab[m] = f_floor + Fraction(rng.randrange(1, granularity), granularity)
        ctab[m] = c_floor + Fraction(rng.randrange(0, granularity), granularity)
    return ftab, ctab


# --- hypothesis strategies ---------------------------------------------------


@st.composite
def monotone_instance_tables(draw, max_n=4):
    n = draw(st.integers(min_value=1, max_value=max_n))
    size = 1 << n
    f_incr = draw(st.lists(st.integers(1, 40), min_size=size, max_size=size))
    c_incr = draw(st.lists(st.integers(0, 40), min_size=size, max_size=size))
    ftab = [Fraction(0)] * size
    ctab = [Fraction(0)] * size
    for m in range(1, size):
        f_floor = max(ftab[m & ~(1 << i)] for i in range(n) if m >> i & 1)
        c_floor = max(ctab[m & ~(1 << i)] for i in range(n) if m >> i & 1)
        ftab[m] = f_floor + Fraction(f_incr[m], 16)
        ctab[m] = c_floor + Fraction(c_incr[m], 16)
    return n, ftab, ctab


@st.composite
def real_monotone_instance_tables(draw, bits, max_n=4):
    """Like monotone_instance_tables, with increments in tenths summed in
    the arithmetic of RealContext(bits): float at 53 bits, else mpf.  The
    entries are rounded, so exact and rounded utilities can disagree."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    size = 1 << n
    ctx = RealContext(bits)
    f_incr = draw(st.lists(st.integers(1, 40), min_size=size, max_size=size))
    c_incr = draw(st.lists(st.integers(0, 40), min_size=size, max_size=size))
    ftab = [ctx.make(0)] * size
    ctab = [ctx.make(0)] * size
    with ctx.workprec():
        for m in range(1, size):
            f_floor = max(ftab[m & ~(1 << i)] for i in range(n) if m >> i & 1)
            c_floor = max(ctab[m & ~(1 << i)] for i in range(n) if m >> i & 1)
            ftab[m] = f_floor + ctx.make(Fraction(f_incr[m], 10))
            ctab[m] = c_floor + ctx.make(Fraction(c_incr[m], 10))
    return n, ftab, ctab


@st.composite
def degenerate_hull_tables(draw, max_n=4):
    """(n, ftab, ctab) of small ints and halves, not monotone, with planted
    degeneracies: a mask may copy another mask's (f, c) point (a duplicate
    at a different mask) or take the midpoint of two others (a collinear
    triple, so several masks tie at that slope)."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    size = 1 << n
    ftab = draw(st.lists(st.integers(0, 6), min_size=size, max_size=size))
    ctab = draw(st.lists(st.integers(0, 6), min_size=size, max_size=size))
    for m in range(size):
        how = draw(st.sampled_from(("keep", "copy", "midpoint")))
        a, b = draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1))
        if how == "copy":
            ftab[m], ctab[m] = ftab[a], ctab[a]
        elif how == "midpoint":
            ftab[m] = Fraction(ftab[a] + ftab[b], 2)
            ctab[m] = Fraction(ctab[a] + ctab[b], 2)
    return n, ftab, ctab


@st.composite
def price_vectors(draw, n):
    raw = draw(st.lists(st.integers(-64, 256), min_size=n, max_size=n))
    return tuple(Fraction(v, 16) for v in raw)


# coprime denominators, so a table's common denominator is their product
COPRIME_DENOMS = (1, 2, 3, 5, 7, 11)


@st.composite
def mixed_rationals(draw, lo, hi):
    """An int, or a Fraction over one of COPRIME_DENOMS, in [lo, hi]."""
    den = draw(st.sampled_from(COPRIME_DENOMS))
    num = draw(st.integers(lo * den, hi * den))
    return num if den == 1 else Fraction(num, den)


@st.composite
def mixed_pairwise_tables(draw, max_n=4):
    """(n, table) with table[S] = sum of w_i + sum of q_ij over pairs in S.

    The diff of i's marginals at S and S + j is -q_ij, so the q_ij signs
    decide the class: all <= 0 submodular, all >= 0 supermodular, all 0
    additive (only weakly either).  Entries mix ints and Fractions.
    """
    n = draw(st.integers(min_value=1, max_value=max_n))
    w = draw(st.lists(mixed_rationals(-2, 6), min_size=n, max_size=n))
    lo, hi = draw(st.sampled_from([(-3, 0), (0, 3), (0, 0), (-3, 3)]))
    q = {(i, j): draw(mixed_rationals(lo, hi)) for i in range(n) for j in range(i + 1, n)}
    table = []
    for m in range(1 << n):
        members = [i for i in range(n) if m >> i & 1]
        v = sum(w[i] for i in members)
        for k, i in enumerate(members):
            for j in members[k + 1:]:
                v = v + q[i, j]
        table.append(v)
    return n, table


@st.composite
def non_monotone_tables(draw, max_n=4):
    """(n, ftab, ctab) of ints and Fractions drawn entry by entry, negative
    ones and c(empty) != 0 included: tables no construction makes, which
    an instance file may still hold."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    size = 1 << n
    entries = st.lists(mixed_rationals(-6, 6), min_size=size, max_size=size)
    return n, draw(entries), draw(entries)


@st.composite
def mixed_monotone_instance_tables(draw, max_n=4):
    """Like monotone_instance_tables, with int and Fraction entries mixed."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    size = 1 << n
    ftab = [0] * size
    ctab = [0] * size
    for m in range(1, size):
        f_floor = max(ftab[m & ~(1 << i)] for i in range(n) if m >> i & 1)
        c_floor = max(ctab[m & ~(1 << i)] for i in range(n) if m >> i & 1)
        ftab[m] = f_floor + draw(mixed_rationals(0, 3).filter(lambda x: x > 0))
        ctab[m] = c_floor + draw(mixed_rationals(0, 3))
    return n, ftab, ctab
