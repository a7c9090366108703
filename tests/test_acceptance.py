"""Acceptance gate: one test per shipped criterion, in order.

Each test prints a single PASS/FAIL line (visible with -v via the report or
with -s directly).  Criteria 9 and 10 hold because the perturbed base of
the communication-complexity constructions stays equal-revenue: one
function is perturbed by +-delta |S|^2 and the other re-solved along the
chain, so the winner bonus z/4 decides whether action n+1 is optimal.
"""

import functools
import json
import math
import random
import time
from fractions import Fraction

import pytest

from contractlab.commlab import (
    CC_PRECISION_BITS,
    Channel,
    SpecialSetVector,
    augmented_br_protocol,
    build_augmented,
    check_reduction,
    inapprox_table,
)
from contractlab.constructions import (
    build_equal_revenue_submod_f,
    build_equal_revenue_supmod_c,
    build_rounded,
    check_gap_bounds,
    default_grid_bits,
    marginal_margins,
    verify_equal_revenue,
    verify_structure,
)
from contractlab.core import (
    SetFunctionOracle,
    best_response,
    demand,
    demand_prices_for_contract,
    supply,
    supply_prices_for_contract,
)
from contractlab.perturb import epsilon_bound, family_iterator
from contractlab.solver import enumerate_breakpoints, fptas, optimal_contract
from contractlab.sparse import (
    approx_demand,
    approx_supply,
    minimal_ambiguous_census,
    random_prices,
    sigma_bound_demand,
    sigma_bound_supply,
    simulate_demand_by_values,
    sparseness_ceiling,
    value_query_experiment,
)

from conftest import random_monotone_tables, instance_from_tables


def criterion(num, title, budget_s):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            t0 = time.time()
            try:
                fn()
            except BaseException:
                print(f"criterion {num:>2}: FAIL  {title}  ({time.time() - t0:.1f}s)")
                raise
            elapsed = time.time() - t0
            status = "PASS" if elapsed <= budget_s else "FAIL"
            print(f"criterion {num:>2}: {status}  {title}  ({elapsed:.1f}s)")
            assert elapsed <= budget_s, f"runtime {elapsed:.1f}s over budget {budget_s}s"

        return wrapper

    return deco


@criterion(1, "n=3 figure reproduction", 1.0)
def test_criterion_01_figure_reproduction():
    inst = build_equal_revenue_submod_f(3)
    table = enumerate_breakpoints(inst)
    ticks = (0.618, 0.747, 0.807, 0.843, 0.867, 0.884, 0.897)
    nonzero = [b for b in table if b.aset.mask]
    assert len(nonzero) == 7
    for b, tick in zip(nonzero, ticks):
        assert abs(float(b.alpha) - tick) < 1e-3
        assert abs(float(b.principal_utility) - 1) <= 1e-9


@criterion(2, "equal revenue at n=10 and n=14", 60.0)
def test_criterion_02_equal_revenue_at_scale():
    inst = build_equal_revenue_submod_f(10)
    rep = verify_equal_revenue(inst, 1e-9)
    assert rep.ok and rep.breakpoint_count == (1 << 10) - 1

    big = build_equal_revenue_submod_f(14)
    assert big.precision_bits >= 256
    rep = verify_equal_revenue(big, big.ctx.make(Fraction(1, 1 << 100)))
    assert rep.ok and rep.breakpoint_count == (1 << 14) - 1


@criterion(3, "structure suites at n <= 8", 30.0)
def test_criterion_03_structure_suites():
    for n in (2, 4, 6, 8):
        f, c = build_equal_revenue_submod_f(n).f, build_equal_revenue_supmod_c(n).c
        # strictly of their classes: each class margin is above 0
        assert verify_structure(f).ok and marginal_margins(f.scaled()[0], n, +1)[1] > 0
        assert verify_structure(c).ok and marginal_margins(c.scaled()[0], n, -1)[1] > 0
    for cls in ("submodular", "supermodular"):
        additive = SetFunctionOracle(6, weights=[1, 2, 3, 5, 8, 13], declared_class=cls)
        assert verify_structure(additive).ok


@criterion(4, "perturbed family unique optima (n=6)", 60.0)
def test_criterion_04_perturbed_family():
    base = build_equal_revenue_submod_f(6, precision_bits=128)
    for fam in family_iterator(base):  # every k in [1, 63] at eps = budget/2
        sol = optimal_contract(fam.instance)
        assert sol.set_star.mask == fam.k, fam.k
        assert len(sol.co_optimal) == 1, fam.k
    assert fam.k == 63


@criterion(5, "sparse demand (and supply mirror)", 300.0)
def test_criterion_05_sparse_demand():
    trials = 10_000
    for n in (4, 6, 8):
        base = build_equal_revenue_submod_f(n)
        sigma = sigma_bound_demand(base).sigma
        cap = sparseness_ceiling(n)
        rng = random.Random(n)
        for _ in range(trials):
            d = approx_demand(base.f, random_prices(n, rng), sigma, base.ctx)
            assert len(d) <= cap
            # raises on interval-invariant or census-cap violations
            minimal_ambiguous_census(d, n)
    for n in (4, 6):
        base = build_equal_revenue_supmod_c(n)
        sigma = sigma_bound_supply(base).sigma
        cap = sparseness_ceiling(n)
        rng = random.Random(100 + n)
        for _ in range(trials):
            s = approx_supply(base.c, random_prices(n, rng), sigma, base.ctx)
            assert len(s) <= cap


@criterion(6, "demand-simulation equivalence (n=6)", 120.0)
def test_criterion_06_demand_simulation():
    n = 6
    base = build_equal_revenue_submod_f(n)
    eps = epsilon_bound(base).default_epsilon
    alphas = base.meta["alpha_table"]
    rng = random.Random(0)
    breakpoint_prices = [demand_prices_for_contract(base.c, a) for a in alphas[1:]]
    randoms = [random_prices(n, rng) for _ in range(1000)]
    cap = 2 * (n + 1) * (n + 2)
    assert cap == 112
    for fam in family_iterator(base):  # all 63 hidden k
        hidden = fam.instance.f
        for prices in breakpoint_prices + randoms:
            got, used = simulate_demand_by_values(base.f, hidden, prices, eps, base.ctx)
            assert used <= cap
            assert got == demand(hidden, prices, base.ctx)


@criterion(7, "value-query expectation (n=8)", 60.0)
def test_criterion_07_value_query_expectation():
    base = build_equal_revenue_submod_f(8)
    stats = value_query_experiment(base, trials=10_000, seed=0)
    assert stats.identified_all
    assert stats.exact_expectation == 128.0
    assert stats.exact_expectation >= 64
    assert stats.mean_queries >= 64
    assert abs(stats.mean_queries - stats.exact_expectation) <= 3 * stats.stderr


@criterion(8, "approximation-scheme guarantee", 120.0)
def test_criterion_08_fptas():
    eps_grid = (0.2, 0.1, 0.01)
    cap_constant = 4.0
    observed = 0.0
    cases = [build_equal_revenue_submod_f(8), build_equal_revenue_supmod_c(6)]
    rng = random.Random(12)
    for _ in range(100):
        n = rng.randrange(2, 9)
        ftab, ctab = random_monotone_tables(rng, n)
        # floats: denominators are powers of two times 16ths, exactly representable
        cases.append(instance_from_tables([float(v) for v in ftab], [float(v) for v in ctab]))
    for inst in cases:
        exact = optimal_contract(inst)
        for eps in eps_grid:
            inst.ledger.reset()
            res = fptas(inst, eps)
            assert res.principal_utility >= (1 - eps) * exact.principal_utility - 1e-12
            queries = res.value_queries + res.best_response_queries
            assert queries <= cap_constant * inst.n ** 2 / eps
            observed = max(observed, queries * eps / inst.n ** 2)
    print(f"  [fptas] query constant C: observed {observed:.2f}, cap {cap_constant}")


def _cc_bases():
    return {
        "sub-sub": build_equal_revenue_submod_f(4, precision_bits=CC_PRECISION_BITS),
        "sub-sup": build_equal_revenue_submod_f(4, precision_bits=CC_PRECISION_BITS),
        "sup-sup": build_equal_revenue_supmod_c(4),
    }


def _cc_bases_n6():
    return {
        "sub-sup": build_equal_revenue_submod_f(6, precision_bits=CC_PRECISION_BITS),
        "sup-sup": build_equal_revenue_supmod_c(6),
    }


@criterion(9, "disjointness reduction soundness", 600.0)
def test_criterion_09_cc_reduction():
    k4 = math.comb(4, 2)
    mismatches = {}
    for variant, base in _cc_bases().items():
        bad = 0
        for a in range(1 << k4):
            for b in range(1 << k4):
                aug = build_augmented(
                    variant, base,
                    SpecialSetVector.from_int(4, a), SpecialSetVector.from_int(4, b),
                )
                assert verify_structure(aug.instance.f).ok
                assert verify_structure(aug.instance.c).ok
                bad += not check_reduction(aug, strict=False).ok
        mismatches[f"{variant} n=4 exhaustive"] = bad
    rng = random.Random(9)
    for variant, base in _cc_bases_n6().items():
        bad = 0
        for _ in range(1000):
            aug = build_augmented(
                variant, base,
                SpecialSetVector.random(6, rng), SpecialSetVector.random(6, rng),
            )
            assert verify_structure(aug.instance.f).ok
            assert verify_structure(aug.instance.c).ok
            bad += not check_reduction(aug, strict=False).ok
        mismatches[f"{variant} n=6 random"] = bad
    assert all(v == 0 for v in mismatches.values()), (
        f"reduction mismatches {mismatches}: the solved optimum's use of action "
        "n+1 disagrees with the indicator intersection; check that the perturbed "
        "base's breakpoint revenues stay within revenue_halfwidth of 1"
    )


@criterion(10, "revenue sandwich and winner margin", 600.0)
def test_criterion_10_sandwich_and_winner():
    violations = []
    ones4 = SpecialSetVector.all_ones(4)
    for variant, base in _cc_bases().items():
        aug = build_augmented(variant, base, ones4, ones4)
        hw = aug.revenue_halfwidth
        with base.ctx.workprec():
            # sandwich: every breakpoint of the perturbed base within 1 +- hw
            # (independent of the indicator vectors, so one check covers all
            # criterion-9 instances per variant)
            table = enumerate_breakpoints(aug.perturbed)
            worst = max(abs(b.principal_utility - 1) for b in table if b.aset.mask)
            if worst > hw:
                violations.append((variant, "sandwich", float(worst), float(hw)))
            # winner margin: intersecting pair's augmenting optimum beats 1 + hw
            atable = enumerate_breakpoints(aug.instance)
            augmenting = [b for b in atable if (aug.base.n + 1) in b.aset]
            top = max((b.principal_utility for b in augmenting), default=None)
            if top is None or not top > 1 + hw:
                violations.append((variant, "winner-margin", None if top is None else float(top)))
    assert not violations, (
        f"sandwich/winner-margin violations {violations}: the perturbed base's "
        "breakpoint revenues leave 1 +- z(1-alpha_max)/16, or the augmenting "
        "optimum does not clear it"
    )


@criterion(11, "constant-gap indicator tables", 30.0)
def test_criterion_11_inapprox_tables():
    rng = random.Random(11)
    for kind in ("sub-sub", "sup-sup"):
        for n in (4, 6):
            for _ in range(10):
                x_f = SpecialSetVector.random(n, rng)
                x_c = SpecialSetVector.random(n, rng)
                f, c = inapprox_table(kind, n, x_f, x_c)
                assert verify_structure(f).ok
                assert verify_structure(c).ok
                ftab, ctab = f.value_table(), c.value_table()
                for m in range(1 << n):
                    hit = m.bit_count() == n // 2 and m in x_f and m in x_c
                    assert (ftab[m] - ctab[m] > 0) == hit


@criterion(12, "grid rounding and gap bounds", 30.0)
def test_criterion_12_rounding():
    for n in (2, 3, 4):
        kappa = max(18 * n + 20, 20 * n)
        assert default_grid_bits(n) == kappa
        r = build_rounded(n, grid_bits=kappa)
        with r.instance.ctx.workprec():
            assert all(x < y for x, y in zip(r.betas, r.betas[1:]))
            tol = r.revenue_tolerance
            for b in enumerate_breakpoints(r.instance):
                if b.aset.mask:
                    assert abs(b.principal_utility - 1) <= tol
        assert check_gap_bounds(n).ok


@criterion(13, "protocol equivalence and bit budget", 120.0)
def test_criterion_13_protocol():
    ones4 = SpecialSetVector.all_ones(4)
    zeros4 = SpecialSetVector.all_zeros(4)
    for variant, base in _cc_bases().items():
        width = base.precision_bits
        cap = 2 * sparseness_ceiling(4) * width
        for x_c in (ones4, zeros4):
            aug = build_augmented(variant, base, ones4, x_c)
            alphas = [b.alpha for b in enumerate_breakpoints(aug.instance)]
            alphas += [Fraction(i, 7) for i in range(7)]
            for alpha in alphas:
                channel = Channel(width)
                got = augmented_br_protocol(aug, alpha, channel)
                assert got == best_response(aug.instance, alpha)
                assert channel.transcript.total_bits <= cap
